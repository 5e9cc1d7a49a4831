"""NIC model with the offloads the paper leans on (§5.2).

- **Checksum offload** (both machines in the paper enable it): on
  transmit the NIC computes the TCP checksum and patches it into the
  frame; on receive it verifies the checksum and marks the packet
  metadata, so the CPU never touches the bytes for integrity.  The
  verified wire checksum is left on the metadata (``wire_csum``) —
  that is the value §4.2 proposes storing instead of recomputing a
  CRC in the storage stack.  The simulator sums each frame once: the
  sum the sending NIC wrote travels with the frame through the
  fabric, which hands it on only with the very bytes that were sent.
  Receive verification trusts that carried sum for unmutated bytes
  and sums the frame itself whenever there is none — a copy the
  fabric corrupted, a sender without tx offload, a frame injected
  straight onto the wire.
- **Hardware timestamps**: arrival time stamped into ``hw_tstamp``,
  reusable as the storage timestamp.
- **TSO**: a payload larger than MSS is split into wire frames by the
  NIC, with sequence numbers and checksums fixed up per frame.

Received frames are DMA'd into buffers from the NIC's rx pool.  When
the pool lives in persistent memory, this *is* PASTE: payload lands in
PM before software ever runs, so persistence needs only a flush.

This module also owns the frame layout every other module goes
through: :func:`frame_headers` builds the Ethernet + IPv4 headers of
each transmitted frame (TCP, its RSTs, Homa, TSO pieces), and
:func:`l4_csum_info` is the one reader of the L4 checksum of TCP and
Homa frames — used by the offloads here, the stack's software
fallback, :meth:`~repro.core.pktstore.PacketStore.verify_slot` and
capture replay alike.
"""

import struct

from repro.net.checksum import checksum_finish, checksum_partial
from repro.net.headers import (
    ETH_HEADER_LEN,
    ETHERTYPE_IPV4,
    IPV4_HEADER_LEN,
    IPPROTO_TCP,
    TCP_HEADER_LEN,
    EthernetHeader,
    IPv4Header,
)
from repro.net.pktbuf import PktBuf
from repro.net.pool import PoolExhausted

HEADERS_LEN = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN


class NicFeatures:
    """Offload capability flags."""

    def __init__(self, tx_csum_offload=True, rx_csum_offload=True,
                 hw_timestamps=True, tso=False):
        self.tx_csum_offload = tx_csum_offload
        self.rx_csum_offload = rx_csum_offload
        self.hw_timestamps = hw_timestamps
        self.tso = tso

    def __repr__(self):
        flags = []
        if self.tx_csum_offload:
            flags.append("txcsum")
        if self.rx_csum_offload:
            flags.append("rxcsum")
        if self.hw_timestamps:
            flags.append("hwts")
        if self.tso:
            flags.append("tso")
        return f"<NicFeatures {'+'.join(flags) or 'none'}>"


#: Offset of the L4 checksum field within the L4 header, per protocol.
#: TCP keeps it at 16; the Homa-like transport (IP proto 0xFD) at 2.
_L4_CSUM_OFFSET = {IPPROTO_TCP: 16, 0xFD: 2}

_U16 = struct.Struct("!H")
_U32x2 = struct.Struct("!II")

_IP_PROTO_OFF = ETH_HEADER_LEN + 9
_IP_TOTAL_LEN_OFF = ETH_HEADER_LEN + 2
_IP_SRC_OFF = ETH_HEADER_LEN + 12


def l4_csum_info(frame):
    """(field_frame_offset, stored_value, computed_value) for a frame.

    One pass over the headers for both the stored checksum field and
    the checksum the frame *should* carry (its field zeroed) — the tx
    and rx paths each need both.  Returns None for protocols other
    than TCP and Homa; raises ValueError on malformed headers (like
    the header codecs would).
    """
    if len(frame) < ETH_HEADER_LEN + IPV4_HEADER_LEN:
        raise ValueError("truncated IPv4 header")
    if frame[ETH_HEADER_LEN] >> 4 != 4:
        raise ValueError(f"not IPv4 (version={frame[ETH_HEADER_LEN] >> 4})")
    proto = frame[_IP_PROTO_OFF]
    csum_off = _L4_CSUM_OFFSET.get(proto)
    if csum_off is None:
        return None
    (total_len,) = _U16.unpack_from(frame, _IP_TOTAL_LEN_OFF)
    src, dst = _U32x2.unpack_from(frame, _IP_SRC_OFF)
    l4_len = total_len - IPV4_HEADER_LEN
    l4_start = ETH_HEADER_LEN + IPV4_HEADER_LEN
    position = l4_start + csum_off
    if len(frame) < position + 2:
        raise ValueError("truncated L4 header")
    (stored,) = _U16.unpack_from(frame, position)
    pseudo = ((src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
              + proto + l4_len)
    # The checksum field sits on a word boundary, so its contribution
    # to the word sum modulo 0xFFFF is exactly ``stored``; subtracting
    # it equals summing with the field zeroed.  That sum is nonzero
    # (the pseudo-header carries the protocol), so its fold is the
    # residue mapped into 1..0xFFFF.
    partial = checksum_partial(
        memoryview(frame)[l4_start:l4_start + l4_len], pseudo)
    return position, stored, checksum_finish((partial - stored - 1) % 0xFFFF + 1)


def frame_length(head):
    """Wire length of the frame whose Ethernet + IPv4 headers are ``head``."""
    return ETH_HEADER_LEN + _U16.unpack_from(head, _IP_TOTAL_LEN_OFF)[0]


def _mac_for_ip(ip_int):
    """Deterministic pseudo-MAC so Ethernet headers are well-formed."""
    return bytes([0x02, 0x00]) + ip_int.to_bytes(4, "big")


#: (src_ip, dst_ip, proto, l4_len) -> Ethernet + IPv4 header bytes.  A
#: steady-state flow re-emits headers differing only in length, so the
#: working set is tiny; bounded and cleared wholesale to stay a cache,
#: not a leak.
_HEADERS_MEMO = {}
_HEADERS_MEMO_MAX = 4096


def frame_headers(src_ip, dst_ip, proto, l4_len):
    """Ethernet + IPv4 header bytes for ``l4_len`` bytes of ``proto``."""
    key = (src_ip, dst_ip, proto, l4_len)
    headers = _HEADERS_MEMO.get(key)
    if headers is None:
        if len(_HEADERS_MEMO) >= _HEADERS_MEMO_MAX:
            _HEADERS_MEMO.clear()
        eth = EthernetHeader(dst=_mac_for_ip(dst_ip), src=_mac_for_ip(src_ip),
                             ethertype=ETHERTYPE_IPV4)
        ip = IPv4Header(src_ip, dst_ip, proto,
                        total_len=IPV4_HEADER_LEN + l4_len)
        headers = _HEADERS_MEMO[key] = eth.pack() + ip.pack()
    return headers


class Nic:
    """One NIC port: offloads, DMA into an rx pool, fabric attachment."""

    def __init__(self, host, ip, rx_pool, features=None,
                 tx_latency_ns=300.0, rx_latency_ns=300.0, mss=1460):
        self.host = host
        self.ip = ip
        self.rx_pool = rx_pool
        self.features = features or NicFeatures()
        self.tx_latency_ns = tx_latency_ns
        self.rx_latency_ns = rx_latency_ns
        self.mss = mss
        self.fabric = None
        self.stats = {
            "tx_frames": 0, "rx_frames": 0, "rx_dropped_nobuf": 0,
            "rx_bad_csum": 0, "tso_splits": 0,
        }

    def attach(self, fabric):
        self.fabric = fabric
        fabric.register(self)
        return self

    # -- transmit ---------------------------------------------------------------

    def transmit(self, pkt, dst_ip):
        """Serialise a packet onto the fabric (runs at core-completion time).

        Consumes the caller's metadata reference.  Each frame leaves
        with the L4 checksum this NIC wrote into it, or None when it
        wrote none.
        """
        frames = self._frames_for(pkt)
        sim = self.host.sim
        for frame, csum in frames:
            self.stats["tx_frames"] += 1
            sim.schedule(self.tx_latency_ns, self.fabric.transmit, self, dst_ip,
                         frame, csum)
        pkt.release()

    def _frames_for(self, pkt):
        """``[(frame, csum)]``: the wire frames, each with its offloaded sum."""
        wire = pkt.to_wire()
        payload_len = len(wire) - HEADERS_LEN
        if payload_len > self.mss:
            if not self.features.tso:
                raise ValueError(
                    f"oversized segment ({payload_len}B payload) without TSO"
                )
            return self._tso_split(wire)
        csum = None
        if self.features.tx_csum_offload:
            info = l4_csum_info(wire)
            if info is not None:
                position, _stored, csum = info
                wire = (wire[:position] + _U16.pack(csum)
                        + wire[position + 2:])
        return [(wire, csum)]

    def _tso_split(self, wire):
        """Hardware segmentation: one jumbo segment -> MSS-sized frames."""
        ip = IPv4Header.unpack(wire[ETH_HEADER_LEN:])
        tcp_raw = bytes(wire[ETH_HEADER_LEN + IPV4_HEADER_LEN:HEADERS_LEN])
        payload = bytes(wire[HEADERS_LEN:])
        (base_seq,) = struct.unpack_from("!I", tcp_raw, 4)
        frames = []
        offset = 0
        while offset < len(payload):
            chunk = payload[offset:offset + self.mss]
            tcp = bytearray(tcp_raw)
            struct.pack_into("!I", tcp, 4, (base_seq + offset) & 0xFFFFFFFF)
            last = offset + len(chunk) >= len(payload)
            if not last:
                tcp[13] &= ~0x01  # FIN only on the final frame
            frame = bytearray(
                frame_headers(ip.src, ip.dst, ip.proto,
                              TCP_HEADER_LEN + len(chunk))
                + tcp + chunk
            )
            position, _stored, csum = l4_csum_info(frame)
            _U16.pack_into(frame, position, csum)
            frames.append((bytes(frame), csum))
            offset += len(chunk)
            self.stats["tso_splits"] += 1
        return frames

    # -- receive ----------------------------------------------------------------

    def on_wire(self, frame, csum=None):
        """A frame arrived from the fabric: DMA it into an rx buffer.

        ``csum`` is the L4 checksum the sending NIC wrote into exactly
        these bytes; the fabric passes it only with an unmutated copy.
        The rx offload then takes it as the stored and verified sum
        instead of summing the payload again.  Without one it sums the
        frame.
        """
        self.stats["rx_frames"] += 1
        try:
            buf = self.rx_pool.alloc()
        except PoolExhausted:
            self.stats["rx_dropped_nobuf"] += 1
            return
        buf.write(0, frame)
        pkt = PktBuf(buf, data_off=0)
        pkt.data_len = len(frame)
        if self.features.hw_timestamps:
            pkt.hw_tstamp = self.host.sim.now
        if self.features.rx_csum_offload and len(frame) >= HEADERS_LEN:
            if csum is not None:
                pkt.wire_csum = csum
                pkt.csum_verified = True
            else:
                try:
                    info = l4_csum_info(frame)
                except ValueError:
                    info = None  # malformed headers: the stack drops the frame
                if info is not None:
                    pkt.wire_csum = info[1]
                    pkt.csum_verified = info[2] == info[1]
                    if not pkt.csum_verified:
                        self.stats["rx_bad_csum"] += 1
        # Hand to the host after the NIC's fixed rx latency.
        self.host.sim.schedule(self.rx_latency_ns, self.host.on_nic_rx, self, pkt)

    def __repr__(self):
        return f"<Nic {self.ip} {self.features!r}>"
