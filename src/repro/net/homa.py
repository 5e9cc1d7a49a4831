"""A Homa-like receiver-driven message transport (§5.2).

The paper's research agenda points at new reliable transports — Homa
in particular — as the force that will shrink networking latency and
make storage data-management overheads even more dominant, and notes
that the Linux Homa implementation reuses regular packet metadata so
the repurposing proposal carries over.  This module provides that
transport so the claim is runnable, not hypothetical:

- **Message-oriented RPCs**: no connections, no handshake; a request
  message and its reply are matched by a 64-bit RPC id.
- **Receiver-driven flow control**: the first ``RTT_BYTES`` of a
  message are sent *unscheduled*; the rest trickles out against GRANT
  packets issued by the receiver, which always grants the message with
  the fewest remaining bytes (SRPT) — Homa's core scheduling idea.
- **Loss recovery is receiver-driven too**: an incomplete message that
  stalls triggers RESEND requests for the missing ranges; the sender
  keeps (clones of) transmitted packets until the receiver's ACK, the
  same retained-metadata lifetime TCP gives the paper (§4.1).
- Packets carry the same metadata as TCP's (NIC hardware timestamps,
  checksum offload verdicts), so the packet-native storage engines work
  unchanged on top.

Cost model: Homa's datapath is charged at a fraction of TCP's
per-segment costs (`HOMA_COST_SCALE`), reflecting the measured
small-message latency advantage of the Linux implementation the paper
cites.  This is a modeled assumption, recorded here and in DESIGN.md.

Simplifications vs real Homa: no packet priorities (SRPT ordering is
kept, the priority queues are not), single-range RESENDs, and a fixed
unscheduled window instead of per-peer RTT estimation.
"""

import struct

from repro.net.headers import ETH_HEADER_LEN, IPV4_HEADER_LEN, ip_to_int
from repro.net.pktbuf import PktBuf
from repro.net.pool import PoolExhausted
from repro.net.tcp import RxSegment
from repro.sim.units import MILLIS

#: IANA has no Homa number; Linux Homa uses 0xFD (experimental).
IPPROTO_HOMA = 0xFD

#: One-RTT worth of unscheduled bytes (Homa's rttBytes).
RTT_BYTES = 10_000

#: Grant increment: keep this many granted-but-unsent bytes outstanding.
GRANT_WINDOW = 10_000

#: Per-packet payload: same 1500 B MTU as TCP, minus the 8 extra bytes
#: the Homa header carries over TCP's 20.
HOMA_MSS = 1452

#: Receiver timeout before asking for missing bytes.
RESEND_TIMEOUT = 5 * MILLIS
MAX_RESENDS = 10

#: Sender timeout before retransmitting an unacknowledged message.
#: Receiver-driven RESEND only works once the receiver has seen at
#: least one DATA packet; a message lost *in its entirety* (every
#: packet dropped on the wire, or never built for want of a tx buffer)
#: leaves the receiver with no state to recover from, so the sender
#: must own that case — as real Homa's sender timeout does.
SEND_TIMEOUT = 5 * MILLIS
MAX_SEND_RETRIES = 10

#: Completed-RPC memory: a request whose MSG_ACK was lost is
#: retransmitted by the sender; re-running the handler would duplicate
#: the request, so the receiver remembers recently completed RPCs and
#: answers retransmits with a fresh ACK instead.
COMPLETED_MEMORY = 4096

#: Homa's streamlined datapath, as a fraction of the TCP per-segment cost.
HOMA_COST_SCALE = 0.5

#: Client source ports count up from just above this and, after 65,535,
#: start over there, so a long-lived client never overflows the u16.
EPHEMERAL_BASE = 52_000

# Packet types.
DATA = 1
GRANT = 2
RESEND = 3
MSG_ACK = 4

HOMA_HEADER = struct.Struct("!BBHHHQIIHH")
# type, flags, checksum, sport, dport, rpc_id, offset, msg_len, payload_len, pad
# The checksum sits at offset 2 so the NIC offload can fill/verify it
# exactly as it does TCP's (the paper: Homa reuses NIC offload features).
HOMA_HEADER_LEN = HOMA_HEADER.size
#: The rpc id, 8 bytes into the Homa header: what RSS steers on.
_RPC_ID = struct.Struct("!Q")
_L4_START = ETH_HEADER_LEN + IPV4_HEADER_LEN


class HomaHeader:
    __slots__ = ("ptype", "sport", "dport", "rpc_id", "offset", "msg_len", "payload_len")

    def __init__(self, ptype, sport, dport, rpc_id, offset=0, msg_len=0, payload_len=0):
        self.ptype = ptype
        self.sport = sport
        self.dport = dport
        self.rpc_id = rpc_id
        self.offset = offset
        self.msg_len = msg_len
        self.payload_len = payload_len

    def pack(self):
        return HOMA_HEADER.pack(
            self.ptype, 0, 0, self.sport, self.dport, self.rpc_id,
            self.offset, self.msg_len, self.payload_len, 0,
        )

    @classmethod
    def unpack(cls, raw):
        (ptype, _flags, _csum, sport, dport, rpc_id,
         offset, msg_len, payload_len, _pad) = HOMA_HEADER.unpack_from(raw, 0)
        return cls(ptype, sport, dport, rpc_id, offset, msg_len, payload_len)

    def __repr__(self):
        names = {DATA: "DATA", GRANT: "GRANT", RESEND: "RESEND", MSG_ACK: "ACK"}
        return (
            f"<Homa {names.get(self.ptype, self.ptype)} rpc={self.rpc_id} "
            f"off={self.offset}/{self.msg_len}>"
        )


class _OutMessage:
    """Sender-side state for one outgoing message."""

    __slots__ = ("rpc_id", "dst_ip", "sport", "dport", "data", "sent",
                 "granted", "acked", "packets", "ranges", "retry_timer",
                 "retries", "kind")

    def __init__(self, rpc_id, dst_ip, sport, dport, data, kind="request"):
        self.rpc_id = rpc_id
        self.dst_ip = dst_ip
        self.sport = sport
        self.dport = dport
        self.data = data
        #: "request" or "reply" — span-link attribution direction.
        self.kind = kind
        self.sent = 0
        self.granted = min(len(data), RTT_BYTES)
        self.acked = False
        #: offset -> retained clone, kept until the message is ACKed.
        self.packets = {}
        #: offset -> length of every range originally transmitted; the
        #: sender-timeout retransmit replays these exact ranges so the
        #: receiver's offset-keyed dedup recognises them (grant windows
        #: cut non-MSS-aligned boundaries, so re-chunking would overlap).
        self.ranges = {}
        self.retry_timer = None
        self.retries = 0


class _InMessage:
    """Receiver-side reassembly state for one incoming message."""

    __slots__ = ("rpc_id", "peer_ip", "sport", "dport", "msg_len", "segments",
                 "received", "granted", "resend_timer", "resends")

    def __init__(self, rpc_id, peer_ip, sport, dport, msg_len):
        self.rpc_id = rpc_id
        self.peer_ip = peer_ip
        self.sport = sport
        self.dport = dport
        self.msg_len = msg_len
        #: offset -> RxSegment (retained pktbuf slices).
        self.segments = {}
        self.received = 0
        self.granted = min(msg_len, RTT_BYTES)
        self.resend_timer = None
        self.resends = 0

    @property
    def complete(self):
        return self.received >= self.msg_len

    def missing_range(self):
        """First missing (offset, length) hole."""
        expected = 0
        for offset in sorted(self.segments):
            if offset > expected:
                return expected, offset - expected
            expected = max(expected, offset + self.segments[offset].length)
        if expected < self.msg_len:
            return expected, self.msg_len - expected
        return None


class HomaRpc:
    """Server-side handle: reply to a received request."""

    __slots__ = ("transport", "rpc_id", "peer_ip", "peer_port", "local_port")

    def __init__(self, transport, rpc_id, peer_ip, peer_port, local_port):
        self.transport = transport
        self.rpc_id = rpc_id
        self.peer_ip = peer_ip
        self.peer_port = peer_port
        self.local_port = local_port

    def reply(self, data, ctx):
        self.transport._send_message(
            self.rpc_id, self.peer_ip, self.local_port, self.peer_port, data,
            ctx, kind="reply",
        )


class HomaTransport:
    """Host transport speaking the Homa-like protocol.

    Plug-compatible with :class:`~repro.net.stack.NetworkStack` for the
    host's rx/tx plumbing (``rx``, ``drain_tx``, ``core_for_packet``).
    """

    def __init__(self, host, costs, tx_pool):
        self.host = host
        self.sim = host.sim
        self.costs = costs
        self.tx_pool = tx_pool
        self.tx_headroom = ETH_HEADER_LEN + IPV4_HEADER_LEN + HOMA_HEADER_LEN + 10
        self._pending_tx = []
        self._listeners = {}          # port -> handler(rpc, message, ctx)
        self._reply_waiters = {}      # rpc_id -> callback(message, ctx)
        self._giveup_waiters = {}     # rpc_id -> callback(rpc_id)
        self._waiter_dst = {}         # rpc_id -> dst_ip while a waiter is armed
        self._out = {}                # rpc_id -> _OutMessage (latest per id)
        self._in = {}                 # (peer_ip, rpc_id, dport) -> _InMessage
        self._completed = {}          # recently completed keys (dedup memory)
        self._rpc_counter = (host.ip & 0xFFFF) << 32
        self._ephemeral = EPHEMERAL_BASE
        #: Optional live-observability hook (repro.obs.Recorder): send
        #: attempts and give-ups feed the span-link chains.  None costs
        #: one attribute load per send.
        self.recorder = None
        self.stats = {
            "tx_data": 0, "rx_data": 0, "grants": 0, "resends": 0,
            "messages_delivered": 0, "bad_csum": 0,
            "tx_dropped_nobuf": 0, "send_retries": 0, "send_give_ups": 0,
            "dup_completed": 0, "peer_aborts": 0,
        }

    # -- application surface ----------------------------------------------------

    def listen(self, port, handler):
        """``handler(rpc, message_segments, ctx)`` per complete request."""
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        self._listeners[port] = handler

    def send_request(self, dst_ip, dst_port, data, ctx, on_reply=None,
                     sport=None, on_giveup=None):
        """Fire an RPC; ``on_reply(segments, ctx)`` when the answer lands.

        ``on_giveup(rpc_id)`` fires instead if the transport abandons
        the RPC — retry budget exhausted or the peer declared dead via
        :meth:`abort_peer` — after every retained clone is released.
        Exactly one of the two callbacks runs.
        """
        self._rpc_counter += 1
        rpc_id = self._rpc_counter
        sport = sport or self._next_ephemeral()
        dst = ip_to_int(dst_ip)
        if on_reply is not None:
            self._reply_waiters[rpc_id] = on_reply
        if on_giveup is not None:
            self._giveup_waiters[rpc_id] = on_giveup
        if on_reply is not None or on_giveup is not None:
            self._waiter_dst[rpc_id] = dst
        self._send_message(rpc_id, dst, sport, dst_port, data, ctx)
        return rpc_id

    def _next_ephemeral(self):
        port = self._ephemeral + 1
        if port > 0xFFFF:
            port = EPHEMERAL_BASE + 1
        self._ephemeral = port
        return port

    # -- send side ----------------------------------------------------------------

    def _send_message(self, rpc_id, dst_ip, sport, dport, data, ctx,
                      kind="request"):
        message = _OutMessage(rpc_id, dst_ip, sport, dport, bytes(data),
                              kind=kind)
        self._out[rpc_id] = message
        if self.recorder is not None:
            self.recorder.homa_send(rpc_id, kind, retransmit=False,
                                    core=self.core_for_rpc(rpc_id).index)
        self._pump(message, ctx)
        self._arm_retry(message)

    def _arm_retry(self, message):
        if message.retry_timer is not None:
            message.retry_timer.cancel()
        message.retry_timer = self.sim.schedule(
            SEND_TIMEOUT, self._on_send_timeout, message.rpc_id
        )

    def _give_up(self, message):
        """Terminal give-up on an outgoing message: the peer is presumed
        dead.  Releases every queued retransmission clone, cancels the
        retry timer, emits the terminal ``homa.giveup`` span, and fails
        the waiters — nothing will ever answer this RPC."""
        rpc_id = message.rpc_id
        self.stats["send_give_ups"] += 1
        self._out.pop(rpc_id, None)
        if message.retry_timer is not None:
            message.retry_timer.cancel()
            message.retry_timer = None
        for clone in message.packets.values():
            clone.release()
        message.packets.clear()
        message.ranges.clear()
        self._reply_waiters.pop(rpc_id, None)
        self._waiter_dst.pop(rpc_id, None)
        if self.recorder is not None:
            self.recorder.homa_give_up(
                rpc_id, message.kind,
                core=self.core_for_rpc(rpc_id).index)
        waiter = self._giveup_waiters.pop(rpc_id, None)
        if waiter is not None:
            waiter(rpc_id)

    def _on_send_timeout(self, rpc_id):
        if not self.host.alive:
            return
        message = self._out.get(rpc_id)
        if message is None or message.acked:
            return
        message.retry_timer = None
        message.retries += 1
        if message.retries > MAX_SEND_RETRIES:
            # Peer is gone; stop holding clones (and waiters) for a
            # lost cause.
            self._give_up(message)
            return
        self.stats["send_retries"] += 1

        def resend(ctx):
            if self.recorder is not None:
                self.recorder.homa_send(
                    message.rpc_id, message.kind, retransmit=True,
                    core=self.core_for_rpc(message.rpc_id).index)
            for offset in sorted(message.ranges):
                self._send_data(message, offset, message.ranges[offset],
                                ctx, retransmit=True)

        self.host.process_on_core(self.core_for_rpc(rpc_id), resend)
        self._arm_retry(message)

    def _pump(self, message, ctx):
        """Transmit everything currently granted."""
        while message.sent < message.granted:
            take = min(HOMA_MSS, message.granted - message.sent)
            self._send_data(message, message.sent, take, ctx)
            message.sent += take

    def _send_data(self, message, offset, length, ctx, retransmit=False):
        if not retransmit:
            message.ranges[offset] = length
        header = HomaHeader(
            DATA, message.sport, message.dport, message.rpc_id,
            offset=offset, msg_len=len(message.data), payload_len=length,
        )
        pkt = self._build(header, message.dst_ip,
                          message.data[offset:offset + length], ctx)
        if pkt is None:
            # Dropped for want of a tx buffer.  The receiver's RESEND
            # machinery recovers exactly as it would from wire loss, so
            # the message still counts the range as sent.
            return
        if not retransmit:
            # Keep a clone until the receiver acknowledges the message —
            # the same retained-metadata lifetime as TCP's rtx queue.
            message.packets[offset] = pkt.clone()
        self.stats["tx_data"] += 1

    def _send_control(self, ptype, dst_ip, sport, dport, rpc_id, offset, msg_len, ctx):
        header = HomaHeader(ptype, sport, dport, rpc_id,
                            offset=offset, msg_len=msg_len)
        self._build(header, dst_ip, b"", ctx)

    def _build(self, header, dst_ip, payload, ctx):
        try:
            pkt = PktBuf.alloc(self.tx_pool, headroom=self.tx_headroom)
        except PoolExhausted:
            # PoolExhausted must not unwind the rx path (a GRANT or ACK
            # is built while the peer's DATA packet is still referenced
            # above this frame).  Dropping the packet is loss the
            # protocol already tolerates.
            self.stats["tx_dropped_nobuf"] += 1
            return None
        self.costs.charge_pktbuf_alloc(ctx)
        if payload:
            pkt.append(payload)
            self.costs.charge_copy_to_skb(ctx, len(payload))
        ctx.charge(self.costs.tcp_tx * HOMA_COST_SCALE, "net.homa")
        self.host.stack.frame_output(pkt, header.pack(), IPPROTO_HOMA,
                                     self.host.ip, dst_ip, ctx)
        self._pending_tx.append((pkt, dst_ip))
        return pkt

    def drain_tx(self):
        out = self._pending_tx
        self._pending_tx = []
        return out

    def core_for_packet(self, head):
        """RSS: steer by RPC id so one message reassembles on one core.

        Homa has no connections, so the TCP trick (follow the socket's
        core) doesn't apply; hashing the RPC id keeps every DATA/GRANT/
        RESEND/ACK of an RPC — and the server handler it completes into
        — on a stable core, which is what lets ``cores=N`` servers
        spread independent RPCs without splitting one message's
        reassembly state across slices.  ``head`` is the frame's first
        bytes, as :meth:`~repro.net.stack.NetworkStack.ip_input` takes
        them.
        """
        cpus = self.host.cpus
        if len(cpus) == 1 or len(head) < _L4_START + HOMA_HEADER_LEN:
            return cpus[0]
        (rpc_id,) = _RPC_ID.unpack_from(head, _L4_START + 8)
        return cpus[rpc_id % len(cpus)]

    def core_for_rpc(self, rpc_id):
        """The core :meth:`core_for_packet` steers this RPC's packets to."""
        cpus = self.host.cpus
        return cpus[rpc_id % len(cpus)]

    # -- receive side ---------------------------------------------------------------

    def rx(self, pkt, head, ctx):
        verdict = self.host.stack.ip_input(pkt, head, ctx, IPPROTO_HOMA,
                                           HOMA_HEADER_LEN)
        if verdict is None:
            return
        ip_header, csum_ok, raw_header = verdict
        # Integrity: verified exactly as TCP's checksum is (the NIC
        # offload, or the stack's software fallback); corrupted frames
        # die here.
        if not csum_ok:
            self.stats["bad_csum"] += 1
            pkt.release()
            return
        header = HomaHeader.unpack(raw_header)
        pkt.pull(HOMA_HEADER_LEN)
        pkt.ip = ip_header
        ctx.charge(self.costs.tcp_rx * HOMA_COST_SCALE, "net.homa")
        if header.ptype == DATA:
            self._rx_data(pkt, ip_header, header, ctx)
        elif header.ptype == GRANT:
            self._rx_grant(header, ctx)
        elif header.ptype == RESEND:
            self._rx_resend(header, ctx)
        elif header.ptype == MSG_ACK:
            self._rx_ack(header)
        pkt.release()

    # -- DATA -------------------------------------------------------------------

    def _rx_data(self, pkt, ip_header, header, ctx):
        self.stats["rx_data"] += 1
        key = (ip_header.src, header.rpc_id, header.dport)
        if key in self._completed:
            # The sender retransmitted a message we already delivered —
            # its MSG_ACK was lost.  Re-ACK; never re-run the handler.
            self.stats["dup_completed"] += 1
            self._send_control(MSG_ACK, ip_header.src, header.dport,
                               header.sport, header.rpc_id, 0,
                               header.msg_len, ctx)
            return
        message = self._in.get(key)
        if message is None:
            message = _InMessage(header.rpc_id, ip_header.src, header.sport,
                                 header.dport, header.msg_len)
            self._in[key] = message
        if header.offset in message.segments or message.complete:
            return  # duplicate
        segment = RxSegment(pkt.retain(), 0, header.payload_len)
        message.segments[header.offset] = segment
        message.received += header.payload_len
        self._arm_resend(key, message)

        if message.complete:
            self._complete(key, message, ctx)
        elif message.granted < message.msg_len and \
                message.received + GRANT_WINDOW > message.granted:
            # Receiver-driven: grant the shortest-remaining message first.
            self._grant_srpt(ctx)

    def _grant_srpt(self, ctx):
        incomplete = [m for m in self._in.values()
                      if not m.complete and m.granted < m.msg_len]
        if not incomplete:
            return
        best = min(incomplete, key=lambda m: m.msg_len - m.received)
        best.granted = min(best.msg_len, best.received + GRANT_WINDOW)
        self.stats["grants"] += 1
        self._send_control(GRANT, best.peer_ip, best.dport, best.sport,
                           best.rpc_id, best.granted, best.msg_len, ctx)

    def _complete(self, key, message, ctx):
        if message.resend_timer is not None:
            message.resend_timer.cancel()
            message.resend_timer = None
        del self._in[key]
        self._completed[key] = True
        if len(self._completed) > COMPLETED_MEMORY:
            # Bounded memory: evict the oldest completion records.
            for old in list(self._completed)[:COMPLETED_MEMORY // 4]:
                del self._completed[old]
        self.stats["messages_delivered"] += 1
        # Tell the sender it can drop its retained clones.
        self._send_control(MSG_ACK, message.peer_ip, message.dport,
                           message.sport, message.rpc_id, 0, message.msg_len, ctx)
        segments = [message.segments[off] for off in sorted(message.segments)]
        waiter = self._reply_waiters.pop(message.rpc_id, None)
        if waiter is not None:
            # The RPC resolved; its give-up path can no longer fire.
            self._giveup_waiters.pop(message.rpc_id, None)
            self._waiter_dst.pop(message.rpc_id, None)
        if self.recorder is not None:
            # Receiver-side completion: a delivered reply closes the
            # requester's chain; a delivered request precedes the
            # handler span that will join the same chain.
            self.recorder.homa_delivered(
                message.rpc_id, "reply" if waiter is not None else "request")
        if waiter is not None:
            waiter(segments, ctx)
        else:
            handler = self._listeners.get(message.dport)
            if handler is not None:
                rpc = HomaRpc(self, message.rpc_id, message.peer_ip,
                              message.sport, message.dport)
                handler(rpc, segments, ctx)
        for segment in segments:
            segment.release()

    # -- GRANT / RESEND / ACK ------------------------------------------------------

    def _rx_grant(self, header, ctx):
        message = self._out.get(header.rpc_id)
        if message is None or message.acked:
            return
        if header.offset > message.granted:
            message.granted = min(header.offset, len(message.data))
            self._pump(message, ctx)

    def _rx_resend(self, header, ctx):
        self.stats["resends"] += 1
        message = self._out.get(header.rpc_id)
        if message is None or message.acked:
            return
        asked_end = header.offset + max(header.msg_len, 1)
        # Replay the pieces first sent that overlap the asked range, as
        # the sender timeout does: the receiver keys pieces by offset,
        # so a piece cut anew could overlap one it already holds.
        for offset in sorted(message.ranges):
            length = message.ranges[offset]
            if offset < asked_end and offset + length > header.offset:
                self._send_data(message, offset, length, ctx,
                                retransmit=True)
        if asked_end > message.granted:
            # A RESEND for bytes never sent also grants them, as in
            # Homa: after a lost GRANT, each end would otherwise wait
            # for the other until both give up.
            message.granted = min(asked_end, len(message.data))
            self._pump(message, ctx)

    def _rx_ack(self, header):
        message = self._out.pop(header.rpc_id, None)
        if message is None:
            return
        message.acked = True
        if message.retry_timer is not None:
            message.retry_timer.cancel()
            message.retry_timer = None
        for clone in message.packets.values():
            clone.release()
        message.packets.clear()
        if header.rpc_id not in self._reply_waiters:
            # Fire-and-forget send with only a give-up callback: the
            # receiver acked the message, so give-up can't happen now.
            self._giveup_waiters.pop(header.rpc_id, None)
            self._waiter_dst.pop(header.rpc_id, None)

    # -- dead-peer teardown ----------------------------------------------------------

    def abort_peer(self, dst_ip):
        """Declare the peer at ``dst_ip`` dead and tear down immediately.

        The sender-timeout path takes ``MAX_SEND_RETRIES × SEND_TIMEOUT``
        (50 ms) to conclude a peer is gone; when a failure detector
        already knows (whole-host kill, failover), waiting just pins
        retransmission clones and reply waiters for a lost cause.  This:

        - gives up every outgoing message addressed to the peer
          (releases queued retransmission state, cancels retry timers,
          emits terminal ``homa.giveup`` spans, fails waiters);
        - fails reply waiters whose request was already MSG_ACKed but
          whose reply will now never arrive;
        - drops partially reassembled inbound messages from the peer
          (their RESEND requests would never be answered).

        Returns ``(aborted_out, dropped_in)`` counts.
        """
        dst = ip_to_int(dst_ip) if isinstance(dst_ip, str) else dst_ip
        self.stats["peer_aborts"] += 1
        aborted = 0
        for message in [m for m in self._out.values() if m.dst_ip == dst]:
            self._give_up(message)
            aborted += 1
        # Waiters with no _out state left: the request was delivered and
        # acked (the receiver marked that side of the chain delivered),
        # but the peer died before (or while) replying — the *reply*
        # side is what will never resolve now.
        abandoned_replies = set()
        for rpc_id in [r for r, d in self._waiter_dst.items() if d == dst]:
            self._abandon_reply(rpc_id)
            abandoned_replies.add(rpc_id)
            aborted += 1
        dropped = 0
        for key in [k for k, m in self._in.items() if m.peer_ip == dst]:
            message = self._in.pop(key)
            if message.resend_timer is not None:
                message.resend_timer.cancel()
                message.resend_timer = None
            for segment in message.segments.values():
                segment.release()
            message.segments.clear()
            dropped += 1
            # The dead sender's half-sent message can never finish and
            # its own (frozen) transport will never say so — terminate
            # the chain from this side so the trace has no orphan.  A
            # partial reply was already marked above via its waiter.
            if self.recorder is not None and \
                    message.rpc_id not in abandoned_replies:
                self.recorder.homa_give_up(
                    message.rpc_id, "request",
                    core=self.core_for_rpc(message.rpc_id).index)
        return aborted, dropped

    def _abandon_reply(self, rpc_id):
        """Fail the waiter of a reply that will never arrive: count the
        give-up, close the chain's reply side, call ``on_giveup``."""
        self.stats["send_give_ups"] += 1
        self._reply_waiters.pop(rpc_id, None)
        self._waiter_dst.pop(rpc_id, None)
        if self.recorder is not None:
            self.recorder.homa_give_up(
                rpc_id, "reply", core=self.core_for_rpc(rpc_id).index)
        waiter = self._giveup_waiters.pop(rpc_id, None)
        if waiter is not None:
            waiter(rpc_id)

    # -- receiver-driven loss recovery -----------------------------------------------

    def _arm_resend(self, key, message):
        if message.resend_timer is not None:
            message.resend_timer.cancel()
        message.resend_timer = self.sim.schedule(
            RESEND_TIMEOUT, self._on_resend_timeout, key
        )

    def _on_resend_timeout(self, key):
        if not self.host.alive:
            return
        message = self._in.get(key)
        if message is None or message.complete:
            return
        message.resends += 1
        if message.resends > MAX_RESENDS:
            # Give up: drop the partial message.  If it is the reply a
            # local request waits for, that RPC has failed.
            for segment in message.segments.values():
                segment.release()
            del self._in[key]
            if message.rpc_id in self._reply_waiters:
                self._abandon_reply(message.rpc_id)
            return

        def ask(ctx):
            hole = message.missing_range()
            if hole is not None:
                offset, length = hole
                self._send_control(RESEND, message.peer_ip, message.dport,
                                   message.sport, message.rpc_id, offset,
                                   length, ctx)

        self.host.process_on_core(self.core_for_rpc(message.rpc_id), ask)
        self._arm_resend(key, message)

    def __repr__(self):
        return f"<HomaTransport {len(self._in)} in, {len(self._out)} out>"
