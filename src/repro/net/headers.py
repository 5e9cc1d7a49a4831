"""Wire-format codecs: Ethernet, IPv4 and TCP headers.

Real byte-level formats, built and parsed with :mod:`struct`.  The
fabric carries linearised packets, so every header here actually
crosses the (simulated) wire; corruption injected by the fabric is
caught by these checksums exactly as on real hardware.
"""

import struct

ETH_HEADER_LEN = 14
IPV4_HEADER_LEN = 20
TCP_HEADER_LEN = 20

ETHERTYPE_IPV4 = 0x0800
IPPROTO_TCP = 6

# TCP flags
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10

from repro.net.checksum import checksum_finish, checksum_partial


def ip_to_int(ip):
    """Dotted-quad string -> 32-bit int (ints pass through)."""
    if isinstance(ip, int):
        return ip
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {ip!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 address {ip!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value):
    """32-bit int -> dotted-quad string."""
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def mac_to_bytes(mac):
    """'aa:bb:cc:dd:ee:ff' or bytes -> 6 raw bytes."""
    if isinstance(mac, (bytes, bytearray)):
        if len(mac) != 6:
            raise ValueError("MAC must be 6 bytes")
        return bytes(mac)
    parts = mac.split(":")
    if len(parts) != 6:
        raise ValueError(f"bad MAC {mac!r}")
    return bytes(int(p, 16) for p in parts)


class EthernetHeader:
    """14-byte Ethernet II header."""

    __slots__ = ("dst", "src", "ethertype")
    _fmt = struct.Struct("!6s6sH")

    def __init__(self, dst, src, ethertype=ETHERTYPE_IPV4):
        self.dst = mac_to_bytes(dst)
        self.src = mac_to_bytes(src)
        self.ethertype = ethertype

    def pack(self):
        return self._fmt.pack(self.dst, self.src, self.ethertype)

    @classmethod
    def unpack(cls, data):
        if len(data) < ETH_HEADER_LEN:
            raise ValueError("truncated Ethernet header")
        dst, src, ethertype = cls._fmt.unpack_from(data, 0)
        # struct already yields validated 6-byte fields; skip the
        # string-parsing constructor on the per-frame path.
        header = object.__new__(cls)
        header.dst = dst
        header.src = src
        header.ethertype = ethertype
        return header

    def __repr__(self):
        return f"<Eth {self.src.hex(':')}→{self.dst.hex(':')} type=0x{self.ethertype:04x}>"


class IPv4Header:
    """20-byte IPv4 header (no options)."""

    __slots__ = ("src", "dst", "proto", "total_len", "ttl", "ident")
    _fmt = struct.Struct("!BBHHHBBHII")

    def __init__(self, src, dst, proto=IPPROTO_TCP, total_len=IPV4_HEADER_LEN, ttl=64, ident=0):
        self.src = ip_to_int(src)
        self.dst = ip_to_int(dst)
        self.proto = proto
        self.total_len = total_len
        self.ttl = ttl
        self.ident = ident

    def pack(self):
        header = bytearray(
            self._fmt.pack(
                0x45, 0, self.total_len, self.ident, 0, self.ttl,
                self.proto, 0, self.src, self.dst,
            )
        )
        struct.pack_into("!H", header, 10,
                         checksum_finish(checksum_partial(header)))
        return bytes(header)

    @classmethod
    def unpack(cls, data):
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError("truncated IPv4 header")
        (vihl, _tos, total_len, ident, _frag, ttl, proto, _csum, src, dst) = cls._fmt.unpack_from(data, 0)
        if vihl >> 4 != 4:
            raise ValueError(f"not IPv4 (version={vihl >> 4})")
        # Wire fields are already ints in range; skip ip_to_int.
        header = object.__new__(cls)
        header.src = src
        header.dst = dst
        header.proto = proto
        header.total_len = total_len
        header.ttl = ttl
        header.ident = ident
        return header

    def verify_checksum(self, raw):
        """Checksum the raw 20 header bytes; valid iff they fold to zero."""
        total = checksum_partial(raw[:IPV4_HEADER_LEN])
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        return total == 0xFFFF

    def __repr__(self):
        return f"<IPv4 {int_to_ip(self.src)}→{int_to_ip(self.dst)} len={self.total_len}>"


class TCPHeader:
    """20-byte TCP header (window-scale-free; the model window fits)."""

    __slots__ = ("src_port", "dst_port", "seq", "ack", "flags", "window", "checksum", "urgent")
    _fmt = struct.Struct("!HHIIBBHHH")

    def __init__(self, src_port, dst_port, seq=0, ack=0, flags=0, window=65535, checksum=0, urgent=0):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.window = window
        self.checksum = checksum
        self.urgent = urgent

    def pack(self):
        offset_byte = (TCP_HEADER_LEN // 4) << 4
        return self._fmt.pack(
            self.src_port, self.dst_port, self.seq, self.ack,
            offset_byte, self.flags, self.window, self.checksum, self.urgent,
        )

    @classmethod
    def unpack(cls, data):
        if len(data) < TCP_HEADER_LEN:
            raise ValueError("truncated TCP header")
        (src_port, dst_port, seq, ack, offset_byte, flags, window, checksum, urgent) = cls._fmt.unpack_from(data, 0)
        if (offset_byte >> 4) * 4 < TCP_HEADER_LEN:
            raise ValueError("bad TCP data offset")
        # Wire fields are already masked 32-bit ints; build directly.
        header = object.__new__(cls)
        header.src_port = src_port
        header.dst_port = dst_port
        header.seq = seq
        header.ack = ack
        header.flags = flags
        header.window = window
        header.checksum = checksum
        header.urgent = urgent
        return header

    def flag_names(self):
        names = []
        for bit, name in ((SYN, "SYN"), (ACK, "ACK"), (FIN, "FIN"), (RST, "RST"), (PSH, "PSH")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "-"

    def __repr__(self):
        return (
            f"<TCP {self.src_port}→{self.dst_port} {self.flag_names()} "
            f"seq={self.seq} ack={self.ack}>"
        )
