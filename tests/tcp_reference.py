"""Reference TCP checksum, summed straight from RFC 793.

The stack computes and verifies L4 checksums with
:func:`repro.net.nic.l4_csum_info`.  These helpers are the independent
reference the tests check that reader against: they pack the 12-byte
pseudo-header, the header with its checksum field zeroed and the
payload, and sum the bytes.
"""

import struct

from repro.net.checksum import checksum_finish, checksum_partial
from repro.net.headers import TCP_HEADER_LEN

_PSEUDO = struct.Struct("!IIxBH")


def _tcp_sum(tcp, ip, payload):
    stored, tcp.checksum = tcp.checksum, 0
    try:
        pseudo = _PSEUDO.pack(ip.src, ip.dst, ip.proto,
                              TCP_HEADER_LEN + len(payload))
        return checksum_finish(checksum_partial(pseudo + tcp.pack() + payload))
    finally:
        tcp.checksum = stored


def compute_tcp_checksum(tcp, ip, payload):
    """Set ``tcp.checksum`` over pseudo-header + header + payload; return it."""
    tcp.checksum = _tcp_sum(tcp, ip, payload)
    return tcp.checksum


def verify_tcp_checksum(tcp, ip, payload):
    """True iff ``tcp.checksum`` matches pseudo-header + header + payload."""
    return _tcp_sum(tcp, ip, payload) == tcp.checksum
