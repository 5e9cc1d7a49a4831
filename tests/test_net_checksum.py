"""Unit + property tests for checksums."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import checksum
from repro.net.checksum import (
    checksum_finish,
    checksum_partial,
    crc32c,
    internet_checksum,
    verify_internet_checksum,
)
from repro.net.headers import (
    ETH_HEADER_LEN,
    IPPROTO_TCP,
    IPV4_HEADER_LEN,
    TCP_HEADER_LEN,
    IPv4Header,
    TCPHeader,
)
from repro.net.homa import DATA, HOMA_HEADER_LEN, IPPROTO_HOMA, HomaHeader
from repro.net.nic import l4_csum_info

from tests.tcp_reference import compute_tcp_checksum


def bitwise_crc32c(data, seed=0):
    """CRC32C straight from its definition: one register shift per bit."""
    crc = seed ^ 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def _crc_lengths():
    """Every length to 300, both sides of the word-loop threshold and of
    each fold width, 4 KB, 64 KB+1."""
    short = checksum._SHORT
    lengths = set(range(301)) | {4096, (64 << 10) + 1,
                                 short - 1, short, short + 1}
    for width_bits, _shifts in checksum._FOLDS:
        width = width_bits // 8
        if width <= (64 << 10) + 2:
            lengths |= {width - 1, width, width + 1}
    return sorted(lengths)


class TestCrc32c:
    def test_known_vectors(self):
        # Well-known CRC32C test vectors.
        assert crc32c(b"") == 0x00000000
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_detects_single_bit_flip(self):
        data = bytearray(b"The quick brown fox jumps over the lazy dog")
        original = crc32c(bytes(data))
        data[7] ^= 0x20
        assert crc32c(bytes(data)) != original

    @pytest.mark.parametrize("length", _crc_lengths())
    def test_matches_bitwise_reference(self, length):
        rng = random.Random(length)
        data = rng.randbytes(length)
        seed = rng.getrandbits(32)
        for seed_in in (0, seed):
            expected = bitwise_crc32c(data, seed_in)
            # bytearray and memoryview first: the memo keys only bytes.
            for view in (bytearray(data), memoryview(data), data):
                assert crc32c(view, seed_in) == expected, (length, type(view))

    @settings(max_examples=200, deadline=None)
    @given(a=st.binary(max_size=400), b=st.binary(max_size=400))
    def test_seed_chains_incrementally(self, a, b):
        """``PacketFS.ingest`` chains chunk CRCs this way; ``read`` checks it."""
        assert crc32c(a + b) == crc32c(b, seed=crc32c(a))


def word_sum(data, seed=0):
    """The unfolded one's-complement sum, one 16-bit word at a time."""
    total = seed
    for i in range(0, len(data) - 1, 2):
        total += data[i] << 8 | data[i + 1]
    if len(data) & 1:
        total += data[-1] << 8  # an odd tail is padded with a zero byte
    return total


#: The largest pseudo-header sum: four 0xFFFF address halves, protocol
#: 0xFF and an L4 length of 0xFFFF.
MAX_PSEUDO = 4 * 0xFFFF + 0xFF + 0xFFFF


class TestChecksumPartial:
    """``checksum_partial`` against the word-by-word sum it replaces."""

    @pytest.mark.parametrize("length", list(range(301)) + [1459, 1460, 1461])
    def test_matches_the_word_sum_reference(self, length):
        rng = random.Random(length)
        for data in (rng.randbytes(length), bytes(length), b"\xff" * length):
            for seed in (0, 1, rng.randrange(MAX_PSEUDO), MAX_PSEUDO):
                expected = checksum_finish(word_sum(data, seed))
                for view in (data, bytearray(data), memoryview(data)):
                    assert checksum_finish(checksum_partial(view, seed)) == \
                        expected, (length, data[:1], seed, type(view))

    def test_the_data_sum_is_zero_only_for_zero_data(self):
        for length in (0, 1, 2, 3, 1460, 1461):
            assert checksum_partial(bytes(length), 7) == 7
        # 0 and 0xFFFF are one residue; a nonzero word sum is 0xFFFF.
        assert checksum_partial(b"\xff\xff") == 0xFFFF
        assert checksum_partial(b"\x80\x00\x7f\xff", 7) == 0xFFFF + 7
        assert checksum_partial(b"\xff") == 0xFF00

    def test_even_pieces_chain(self):
        data = random.Random(5).randbytes(301)
        chained = checksum_partial(data[40:], checksum_partial(data[:40], 12345))
        assert checksum_finish(chained) == checksum_finish(word_sum(data, 12345))


def _eth_ipv4(src, dst, proto, l4_len):
    ip = IPv4Header(src, dst, proto, total_len=IPV4_HEADER_LEN + l4_len)
    return bytes(ETH_HEADER_LEN - 2) + b"\x08\x00" + ip.pack()


def _with_field(frame, position, value):
    return frame[:position] + value.to_bytes(2, "big") + frame[position + 2:]


class TestL4CsumInfo:
    """The one L4 reader against references that sum word by word."""

    @pytest.mark.parametrize("case", range(40))
    def test_tcp_frames_match_the_tcp_header_checksum(self, case):
        rng = random.Random(case)
        payload = rng.randbytes(rng.choice([0, 1, 2, rng.randrange(1461), 1460]))
        ip = IPv4Header(rng.getrandbits(32), rng.getrandbits(32), IPPROTO_TCP,
                        total_len=IPV4_HEADER_LEN + TCP_HEADER_LEN + len(payload))
        tcp = TCPHeader(rng.getrandbits(16), rng.getrandbits(16),
                        seq=rng.getrandbits(32), ack=rng.getrandbits(32),
                        flags=rng.getrandbits(6), window=rng.getrandbits(16))
        expected = compute_tcp_checksum(tcp, ip, payload)
        position = ETH_HEADER_LEN + IPV4_HEADER_LEN + 16
        frame = _eth_ipv4(ip.src, ip.dst, IPPROTO_TCP,
                          TCP_HEADER_LEN + len(payload)) + tcp.pack() + payload
        for stored in (0x0000, 0xFFFF, rng.getrandbits(16), expected):
            wire = _with_field(frame, position, stored)
            for view in (wire, bytearray(wire), memoryview(wire)):
                assert l4_csum_info(view) == (position, stored, expected)

    @pytest.mark.parametrize("case", range(40))
    def test_homa_frames_match_the_word_sum(self, case):
        rng = random.Random(case)
        payload = rng.randbytes(rng.choice([0, 1, rng.randrange(1453), 1452]))
        src, dst = rng.getrandbits(32), rng.getrandbits(32)
        l4 = HomaHeader(DATA, rng.getrandbits(16), rng.getrandbits(16),
                        rng.getrandbits(64), offset=rng.getrandbits(20),
                        msg_len=rng.getrandbits(20),
                        payload_len=len(payload)).pack() + payload
        pseudo = struct.pack("!IIBBH", src, dst, 0, IPPROTO_HOMA, len(l4))
        expected = checksum_finish(word_sum(pseudo + l4))
        position = ETH_HEADER_LEN + IPV4_HEADER_LEN + 2
        frame = _eth_ipv4(src, dst, IPPROTO_HOMA, HOMA_HEADER_LEN + len(payload)) + l4
        for stored in (0x0000, 0xFFFF, rng.getrandbits(16), expected):
            assert l4_csum_info(_with_field(frame, position, stored)) == \
                (position, stored, expected)


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # RFC 1071's worked example: 0001 f203 f4f5 f6f7 -> sum ddf2 -> csum 220d
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_verification_of_embedded_checksum(self):
        data = bytearray(b"\x45\x00\x00\x54" + bytes(16))
        csum = internet_checksum(bytes(data))
        struct.pack_into("!H", data, 10, csum)
        assert verify_internet_checksum(bytes(data))

    def test_odd_length_handled(self):
        # A trailing odd byte is padded as the high-order byte.
        assert internet_checksum(b"\xff") == (~0xFF00) & 0xFFFF

    def test_partial_then_finish_matches_one_shot(self):
        data = b"some arbitrary payload bytes!!"
        split = checksum_finish(checksum_partial(data[17:], checksum_partial(data[:17])))
        # One's-complement addition commutes only on 16-bit boundaries;
        # split at odd offsets shifts bytes, so compare an even split.
        even = checksum_finish(checksum_partial(data[16:], checksum_partial(data[:16])))
        assert even == internet_checksum(data)
        assert isinstance(split, int)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=0, max_size=512))
def test_property_embedding_checksum_verifies(data):
    """Appending the checksum makes the whole verify (even length only)."""
    if len(data) % 2:
        data += b"\x00"
    csum = internet_checksum(data)
    whole = data + struct.pack("!H", csum)
    assert verify_internet_checksum(whole)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=2, max_size=256), flip=st.integers(min_value=0))
def test_property_crc_catches_any_single_bit_flip(data, flip):
    corrupted = bytearray(data)
    bit = flip % (len(data) * 8)
    corrupted[bit // 8] ^= 1 << (bit % 8)
    assert crc32c(bytes(corrupted)) != crc32c(data)
