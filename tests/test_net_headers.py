"""Unit tests for the Ethernet/IPv4/TCP wire codecs."""

import pytest

from repro.net.headers import (
    ACK,
    ETH_HEADER_LEN,
    FIN,
    IPV4_HEADER_LEN,
    PSH,
    SYN,
    TCP_HEADER_LEN,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    int_to_ip,
    ip_to_int,
    mac_to_bytes,
)

from tests.tcp_reference import compute_tcp_checksum, verify_tcp_checksum


class TestAddressHelpers:
    def test_ip_roundtrip(self):
        for ip in ["0.0.0.0", "10.0.0.1", "255.255.255.255", "192.168.1.77"]:
            assert int_to_ip(ip_to_int(ip)) == ip

    def test_ip_int_passthrough(self):
        assert ip_to_int(0x0A000001) == 0x0A000001

    def test_bad_ips_rejected(self):
        for bad in ["10.0.0", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"]:
            with pytest.raises(ValueError):
                ip_to_int(bad)

    def test_mac_parsing(self):
        assert mac_to_bytes("02:00:0a:00:00:01") == b"\x02\x00\x0a\x00\x00\x01"
        assert mac_to_bytes(b"\x01\x02\x03\x04\x05\x06") == b"\x01\x02\x03\x04\x05\x06"
        with pytest.raises(ValueError):
            mac_to_bytes("02:00")
        with pytest.raises(ValueError):
            mac_to_bytes(b"\x01\x02")


class TestEthernet:
    def test_roundtrip(self):
        hdr = EthernetHeader("02:00:00:00:00:01", "02:00:00:00:00:02")
        packed = hdr.pack()
        assert len(packed) == ETH_HEADER_LEN
        parsed = EthernetHeader.unpack(packed)
        assert parsed.dst == hdr.dst
        assert parsed.src == hdr.src
        assert parsed.ethertype == 0x0800

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            EthernetHeader.unpack(b"\x00" * 13)


class TestIPv4:
    def test_roundtrip(self):
        hdr = IPv4Header("10.0.0.1", "10.0.0.2", total_len=120, ttl=17, ident=42)
        raw = hdr.pack()
        assert len(raw) == IPV4_HEADER_LEN
        parsed = IPv4Header.unpack(raw)
        assert int_to_ip(parsed.src) == "10.0.0.1"
        assert int_to_ip(parsed.dst) == "10.0.0.2"
        assert parsed.total_len == 120
        assert parsed.ttl == 17
        assert parsed.ident == 42

    def test_header_checksum_valid_when_packed(self):
        hdr = IPv4Header("10.0.0.1", "10.0.0.2", total_len=40)
        raw = hdr.pack()
        assert hdr.verify_checksum(raw)

    def test_header_checksum_catches_corruption(self):
        raw = bytearray(IPv4Header("10.0.0.1", "10.0.0.2", total_len=40).pack())
        raw[8] ^= 0xFF  # ttl
        assert not IPv4Header.unpack(bytes(raw)).verify_checksum(bytes(raw))

    def test_non_ipv4_rejected(self):
        raw = bytearray(IPv4Header("1.2.3.4", "5.6.7.8").pack())
        raw[0] = 0x65  # version 6
        with pytest.raises(ValueError):
            IPv4Header.unpack(bytes(raw))


class TestTCP:
    def test_roundtrip(self):
        hdr = TCPHeader(8080, 80, seq=1234, ack=5678, flags=SYN | ACK, window=4321)
        raw = hdr.pack()
        assert len(raw) == TCP_HEADER_LEN
        parsed = TCPHeader.unpack(raw)
        assert (parsed.src_port, parsed.dst_port) == (8080, 80)
        assert (parsed.seq, parsed.ack) == (1234, 5678)
        assert parsed.flags == SYN | ACK
        assert parsed.window == 4321

    def test_sequence_numbers_wrap_mod_32_bits(self):
        hdr = TCPHeader(1, 2, seq=(1 << 32) + 7)
        assert hdr.seq == 7

    def test_checksum_roundtrip_with_payload(self):
        ip = IPv4Header("10.0.0.1", "10.0.0.2",
                        total_len=IPV4_HEADER_LEN + TCP_HEADER_LEN + 11)
        hdr = TCPHeader(1000, 80, seq=1, ack=2, flags=ACK | PSH)
        compute_tcp_checksum(hdr, ip, b"hello world")
        assert verify_tcp_checksum(hdr, ip, b"hello world")

    def test_checksum_catches_payload_corruption(self):
        ip = IPv4Header("10.0.0.1", "10.0.0.2",
                        total_len=IPV4_HEADER_LEN + TCP_HEADER_LEN + 11)
        hdr = TCPHeader(1000, 80, seq=1, ack=2, flags=ACK)
        compute_tcp_checksum(hdr, ip, b"hello world")
        assert not verify_tcp_checksum(hdr, ip, b"hello worle")

    def test_checksum_catches_port_corruption(self):
        ip = IPv4Header("10.0.0.1", "10.0.0.2",
                        total_len=IPV4_HEADER_LEN + TCP_HEADER_LEN)
        hdr = TCPHeader(1000, 80, seq=1, ack=2, flags=ACK)
        compute_tcp_checksum(hdr, ip, b"")
        hdr.src_port = 1001
        assert not verify_tcp_checksum(hdr, ip, b"")

    def test_checksum_binds_to_addresses(self):
        """The pseudo-header makes misdelivered segments detectable."""
        ip_a = IPv4Header("10.0.0.1", "10.0.0.2",
                          total_len=IPV4_HEADER_LEN + TCP_HEADER_LEN)
        ip_b = IPv4Header("10.0.0.1", "10.0.0.3",
                          total_len=IPV4_HEADER_LEN + TCP_HEADER_LEN)
        hdr = TCPHeader(1, 2)
        compute_tcp_checksum(hdr, ip_a, b"")
        assert verify_tcp_checksum(hdr, ip_a, b"")
        assert not verify_tcp_checksum(hdr, ip_b, b"")

    def test_flag_names(self):
        assert TCPHeader(1, 2, flags=SYN | ACK).flag_names() == "SYN|ACK"
        assert TCPHeader(1, 2, flags=FIN | ACK | PSH).flag_names() == "ACK|FIN|PSH"
        assert TCPHeader(1, 2, flags=0).flag_names() == "-"
