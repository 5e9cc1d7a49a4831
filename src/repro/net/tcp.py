"""TCP: reliable byte-stream transport over packet metadata.

A real (if compact) TCP: three-way handshake, MSS segmentation,
cumulative ACKs, retransmission driven by RTO and fast-retransmit,
out-of-order reassembly in a red-black tree, Reno congestion control,
16-bit flow-control window, FIN teardown and TIME_WAIT.

Two properties of the implementation matter to the paper:

- **Retransmission via clones** (§4.1): every transmitted data segment
  leaves a *clone* of its packet metadata in the retransmission queue.
  The clone shares payload buffers with whatever the driver transmitted,
  so payload bytes stay alive and bit-identical until cumulatively
  ACKed — the same lifetime guarantee a persistent store needs.
- **Out-of-order segments live in an RB-tree** (§4.2): arriving
  metadata is indexed by sequence number and spliced out when the gap
  fills, demonstrating packet metadata as an efficient in-memory index.

Sequence-number arithmetic uses plain integers; initial sequence
numbers are small and streams in this reproduction stay far below
2**31, so wraparound is out of scope (asserted, not silently wrong).
"""

import enum

from repro.net.headers import ACK, FIN, PSH, RST, SYN, TCPHeader
from repro.net.pktbuf import PktBuf
from repro.net.pool import PoolExhausted
from repro.net.rbtree import RBTree
from repro.sim.units import MILLIS

#: Default maximum segment size (Ethernet MTU 1500 - 20 IP - 20 TCP).
MSS = 1460

#: Receive buffer limit; also the maximum advertised window (16-bit field).
MAX_RCV_WND = 65535

INITIAL_CWND_SEGMENTS = 10

#: Retransmission timer bounds.  Scaled down from real-world kernels
#: (200 ms min) so loss-recovery property tests converge quickly —
#: but kept well above any queueing delay the benchmarks produce
#: (~2 ms at 100 connections), or spurious retransmissions would
#: poison the measurements exactly as a too-low RTO floor would on
#: real hardware.
MIN_RTO = 20 * MILLIS
MAX_RTO = 400 * MILLIS
INITIAL_RTO = 20 * MILLIS

#: TIME_WAIT hold-down (2*MSL equivalent, scaled for simulation).
TIME_WAIT_NS = 4 * MILLIS

MAX_RETRIES = 12


class SendQueueFull(BufferError):
    """The connection's bounded send queue cannot accept more data.

    Raised *before* anything is enqueued or referenced, so the caller
    can shed cleanly (the stream stays consistent).  Bounding the queue
    is what keeps a stalled receiver from pinning unbounded buffer
    references behind a closed congestion window.
    """


class TcpState(enum.Enum):
    CLOSED = "CLOSED"
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RCVD = "SYN_RCVD"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    CLOSING = "CLOSING"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"


class RxSegment:
    """A received payload slice handed to the application.

    Wraps the packet metadata so the app can either copy bytes out
    (classic socket read) or retain the underlying buffer (PASTE-style
    zero-copy, §2.2/§4).
    """

    __slots__ = ("pktbuf", "offset", "length")

    def __init__(self, pktbuf, offset, length):
        self.pktbuf = pktbuf
        self.offset = offset
        self.length = length

    def bytes(self):
        return self.pktbuf.payload_slice(self.offset, self.length)

    def retain(self):
        """Keep the packet metadata (and thus payload) alive past delivery."""
        self.pktbuf.retain()
        return self

    def release(self):
        self.pktbuf.release()

    def __len__(self):
        return self.length

    def __repr__(self):
        return f"<RxSegment {self.length}B @{self.offset}>"


class _RtxEntry:
    """One in-flight segment: sequence range plus the retained clone."""

    __slots__ = ("seq", "length", "flags", "clone", "sent_at", "retries")

    def __init__(self, seq, length, flags, clone, sent_at):
        self.seq = seq
        self.length = length  # sequence-space length (payload + SYN/FIN)
        self.flags = flags
        self.clone = clone
        self.sent_at = sent_at
        self.retries = 0

    @property
    def end(self):
        return self.seq + self.length


class _SendItem:
    """Pending app data: either bytes to copy or a buffer slice to reference."""

    __slots__ = ("data", "buf", "offset", "length")

    def __init__(self, data=None, buf=None, offset=0, length=0):
        self.data = data
        self.buf = buf
        self.offset = offset
        self.length = length if buf is not None else len(data)


class TcpConnection:
    """One TCP connection.  Owned by a :class:`~repro.net.stack.NetworkStack`."""

    def __init__(self, stack, local_ip, local_port, remote_ip, remote_port, core, iss):
        self.stack = stack
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.core = core
        self.state = TcpState.CLOSED
        self.mss = MSS
        #: Advertised-window ceiling (16-bit field; stacks may shrink it).
        self.rcv_wnd_limit = getattr(stack, "default_rcv_wnd", MAX_RCV_WND)
        #: Delayed-ACK interval; None = immediate (quickack) pure ACKs.
        self.delack_ns = getattr(stack, "delack_ns", None)
        self._delack_timer = None

        # Send state.
        self.iss = iss
        self.snd_una = iss
        self.snd_nxt = iss
        self.snd_wnd = MAX_RCV_WND
        self.send_queue = []
        self.send_queue_bytes = 0
        #: Bound on queued-but-unsent bytes; None = unbounded (historic
        #: behaviour).  Stacks set ``send_queue_limit`` to protect their
        #: tx pool from slow or stuck receivers.
        self.send_queue_limit = getattr(stack, "send_queue_limit", None)
        self.rtx_queue = []
        self.cwnd = INITIAL_CWND_SEGMENTS * MSS
        self.ssthresh = 1 << 30
        self.dupacks = 0
        self.fin_pending = False
        self.fin_seq = None

        # Receive state.
        self.irs = 0
        self.rcv_nxt = 0
        self.rcv_wnd = self.rcv_wnd_limit
        self.ooo = RBTree()
        self.ooo_bytes = 0

        # RTT estimation (RFC 6298).
        self.srtt = None
        self.rttvar = None
        self.rto = INITIAL_RTO
        self.rto_timer = None
        self.time_wait_timer = None

        # Deferred pure-ACK flag: set when rx consumed data; cleared when
        # any segment (which always carries the ACK) goes out this slice.
        self.ack_pending = False

        #: Simulation time of the last received segment; the stack's
        #: idle reaper uses it to spot half-open peers whose RST was
        #: lost (they stop talking but never close).
        self.last_activity = stack.sim.now

        # Application callbacks (wired up by the Socket wrapper).
        self.on_data = None
        self.on_established = None
        self.on_close = None
        self.on_reset = None

        # Statistics.
        self.stats = {
            "tx_segments": 0, "rx_segments": 0, "retransmits": 0,
            "fast_retransmits": 0, "rto_fires": 0, "ooo_queued": 0,
            "dup_segments": 0, "bytes_sent": 0, "bytes_delivered": 0,
            "bad_csum": 0, "send_queue_rejects": 0, "tx_pool_aborts": 0,
        }

    # ------------------------------------------------------------------ basics

    @property
    def tuple4(self):
        return (self.local_ip, self.local_port, self.remote_ip, self.remote_port)

    def _flight_size(self):
        return self.snd_nxt - self.snd_una

    def _send_window(self):
        return min(self.cwnd, self.snd_wnd)

    def __repr__(self):
        return (
            f"<TcpConnection {self.local_port}→{self.remote_port} {self.state.value} "
            f"una={self.snd_una - self.iss} nxt={self.snd_nxt - self.iss}>"
        )

    # --------------------------------------------------------------- open/close

    def open_active(self, ctx):
        """Client side: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError(f"cannot connect from {self.state}")
        self.state = TcpState.SYN_SENT
        self._emit_segment(ctx, flags=SYN, seq=self.snd_nxt, seqlen=1)
        self.snd_nxt += 1
        self._arm_rto()

    def accept_syn(self, header, ctx):
        """Server side: a SYN arrived for this fresh connection."""
        self.irs = header.seq
        self.rcv_nxt = header.seq + 1
        self.snd_wnd = header.window
        self.state = TcpState.SYN_RCVD
        self._emit_segment(ctx, flags=SYN | ACK, seq=self.snd_nxt, seqlen=1)
        self.snd_nxt += 1
        self._arm_rto()

    def close(self, ctx):
        """Application close: FIN after pending data drains."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT, TcpState.LAST_ACK,
                          TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2, TcpState.CLOSING):
            return
        self.fin_pending = True
        self.output(ctx)

    def abort(self, ctx):
        """Send RST and tear down immediately."""
        if self.state not in (TcpState.CLOSED, TcpState.LISTEN):
            self._emit_segment(ctx, flags=RST | ACK, seq=self.snd_nxt, seqlen=0)
        self._teardown()

    def reap(self):
        """Silent teardown by the stack's idle reaper — no RST is sent.

        The peer is presumed gone (its RST or FIN was lost in transit),
        so there is nobody to notify and no tx buffer is needed.
        Firing the reset callback first lets the application drop its
        per-connection state — the partial request that a lost RST
        would otherwise pin forever.
        """
        if self.on_reset is not None:
            self.on_reset(self)
        self._teardown()

    def _teardown(self):
        self.state = TcpState.CLOSED
        self._cancel_rto()
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        if self.time_wait_timer is not None:
            self.time_wait_timer.cancel()
            self.time_wait_timer = None
        for entry in self.rtx_queue:
            entry.clone.release()
        self.rtx_queue.clear()
        # Unsent zero-copy items still hold data references taken in
        # send_buffer(); dropping them here is what makes teardown (FIN
        # or RST, graceful or not) leak-free — before this, a client
        # reset mid-response pinned the queued buffers forever.
        for item in self.send_queue:
            if item.buf is not None:
                item.buf.put()
        self.send_queue.clear()
        self.send_queue_bytes = 0
        while self.ooo:
            _, (pkt, _off, _length) = self.ooo.pop_min()
            pkt.release()
        self.ooo_bytes = 0
        self.stack.forget_connection(self)

    # ------------------------------------------------------------------- send

    def send(self, data, ctx, more=False):
        """Queue bytes for transmission (copied into packet buffers).

        ``more=True`` is MSG_MORE: enqueue without emitting, so a
        header and the payload that follows coalesce into one segment.
        """
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise RuntimeError(f"send in state {self.state}")
        if self.fin_pending:
            raise RuntimeError("send after close")
        self._check_send_room(len(data))
        self.send_queue.append(_SendItem(data=bytes(data)))
        self.send_queue_bytes += len(data)
        if not more:
            self.output(ctx)

    def send_buffer(self, buf, offset, length, ctx, more=False):
        """Queue a buffer slice zero-copy (transmitted as a frag page).

        Takes a data reference on ``buf`` for the duration of queueing
        and transmission — the caller's buffer is never copied.
        ``more=True`` is MSG_MORE (see :meth:`send`).
        """
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise RuntimeError(f"send in state {self.state}")
        if self.fin_pending:
            raise RuntimeError("send after close")
        self._check_send_room(length)
        buf.get()
        self.send_queue.append(_SendItem(buf=buf, offset=offset, length=length))
        self.send_queue_bytes += length
        if not more:
            self.output(ctx)

    def _check_send_room(self, length):
        if self.send_queue_limit is None:
            return
        if self.send_queue_bytes + length > self.send_queue_limit:
            self.stats["send_queue_rejects"] += 1
            raise SendQueueFull(
                f"send queue at {self.send_queue_bytes}B; "
                f"+{length}B exceeds the {self.send_queue_limit}B limit"
            )

    def output(self, ctx):
        """Transmit whatever the window allows from the send queue."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                              TcpState.FIN_WAIT_1, TcpState.CLOSING, TcpState.LAST_ACK):
            return
        sent_any = False
        try:
            while self.send_queue:
                window = self._send_window() - self._flight_size()
                if window <= 0:
                    break
                payload_items, length = self._gather(min(self.mss, window))
                if length == 0:
                    break
                self._emit_segment(
                    ctx, flags=ACK | PSH, seq=self.snd_nxt,
                    seqlen=length, payload_items=payload_items,
                )
                self.snd_nxt += length
                self.stats["bytes_sent"] += length
                sent_any = True
            if self.fin_pending and not self.send_queue and self.fin_seq is None:
                self._send_fin(ctx)
                sent_any = True
        except PoolExhausted:
            # The tx pool ran dry mid-stream.  The gathered bytes are
            # gone from the queue, so the byte stream can no longer be
            # kept consistent — reset the connection rather than corrupt
            # it.  output() is called from ACK processing and timers, so
            # this must be contained here, not in the application.
            self._abort_on_exhaustion(ctx)
            return
        if sent_any:
            self._arm_rto()

    def _gather(self, limit):
        """Pull up to ``limit`` bytes off the send queue as payload items."""
        items, total = [], 0
        while self.send_queue and total < limit:
            head = self.send_queue[0]
            take = min(head.length, limit - total)
            if head.buf is not None:
                items.append((head.buf.get(), head.offset, take))
                head.offset += take
                head.length -= take
                if head.length == 0:
                    head.buf.put()
                    self.send_queue.pop(0)
            else:
                items.append((None, head.data[:take], take))
                head.data = head.data[take:]
                head.length -= take
                if head.length == 0:
                    self.send_queue.pop(0)
            total += take
        self.send_queue_bytes -= total
        return items, total

    def _abort_on_exhaustion(self, ctx):
        """RST the peer if a tx buffer exists for it; vanish otherwise."""
        self.stats["tx_pool_aborts"] += 1
        if self.on_reset is not None:
            self.on_reset(self)
        try:
            self.abort(ctx)
        except PoolExhausted:
            # Not even one buffer for the RST: silent teardown; the
            # peer's retransmissions will be answered with stateless
            # RSTs once the pool recovers.
            self._teardown()

    def _send_fin(self, ctx):
        self.fin_seq = self.snd_nxt
        self._emit_segment(ctx, flags=FIN | ACK, seq=self.snd_nxt, seqlen=1)
        self.snd_nxt += 1
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        self._arm_rto()

    def _emit_segment(self, ctx, flags, seq, seqlen, payload_items=None):
        """Build one segment, hand it to the IP layer, keep a clone if needed.

        ``seqlen`` is sequence-space length (payload bytes, +1 for
        SYN/FIN).  ``payload_items`` is a list of either
        ``(buffer, offset, length)`` (zero-copy frag) or
        ``(None, bytes, length)`` (copied into the linear area).
        """
        payload_items = payload_items or []
        pkt = None
        consumed = 0
        try:
            pkt = PktBuf.alloc(self.stack.tx_pool, headroom=self.stack.tx_headroom)
            self.stack.costs.charge_pktbuf_alloc(ctx)
            payload_len = 0
            for buf, data_or_off, length in payload_items:
                if buf is None:
                    # Copied bytes fill the linear area first; a jumbo (GSO)
                    # segment spills into freshly-allocated frag pages, the
                    # way the kernel builds >MTU skbs for TSO.
                    self.stack.costs.charge_copy_to_skb(ctx, length)
                    data = data_or_off
                    take = min(len(data), pkt.tailroom)
                    if take:
                        pkt.append(data[:take])
                    cursor = take
                    while cursor < len(data):
                        page = self.stack.tx_pool.alloc()
                        chunk = data[cursor:cursor + page.size]
                        page.write(0, chunk)
                        pkt.add_frag(page, 0, len(chunk))
                        page.put()  # the frag holds its own reference
                        cursor += len(chunk)
                else:
                    pkt.add_frag(buf, data_or_off, length)
                    buf.put()  # frag took its own ref; drop the gather ref
                consumed += 1
                payload_len += length
        except PoolExhausted:
            # Leak-free unwind: drop the half-built packet (releasing
            # the frag references it took) and the gather references of
            # items not yet consumed, then let the caller decide.
            if pkt is not None:
                pkt.release()
            for buf, _data_or_off, _length in payload_items[consumed:]:
                if buf is not None:
                    buf.put()
            raise
        ack_flag = bool(flags & ACK)
        header = TCPHeader(
            self.local_port, self.remote_port,
            seq=seq, ack=self.rcv_nxt if ack_flag else 0,
            flags=flags, window=self.rcv_wnd,
        )
        self.stats["tx_segments"] += 1
        self.ack_pending = False
        if self._delack_timer is not None:
            self._delack_timer.cancel()
            self._delack_timer = None
        keep = bool(payload_len) or bool(flags & (SYN | FIN))
        if keep:
            clone = pkt.clone()
            entry = _RtxEntry(seq, seqlen, flags, clone, self.stack.sim.now)
            self._rtx_insert(entry)
        self.stack.ip_output(self, pkt, header, ctx)

    def _rtx_insert(self, entry):
        # Entries are emitted in sequence order except for retransmits,
        # which replace nothing — keep the queue sorted by seq.
        if not self.rtx_queue or entry.seq >= self.rtx_queue[-1].seq:
            self.rtx_queue.append(entry)
        else:
            index = 0
            while index < len(self.rtx_queue) and self.rtx_queue[index].seq < entry.seq:
                index += 1
            self.rtx_queue.insert(index, entry)

    def _on_delack(self):
        self._delack_timer = None
        if not self.ack_pending or self.state is TcpState.CLOSED:
            return
        self.stack.host.process_on_core(self.core, self._emit_delayed_ack)

    def _emit_delayed_ack(self, ctx):
        try:
            self._emit_segment(ctx, flags=ACK, seq=self.snd_nxt, seqlen=0)
        except PoolExhausted:
            # A pure ACK is best-effort: drop it rather than unwind the
            # timer slice; the peer's retransmission will re-trigger it.
            pass

    # ------------------------------------------------------------------ timers

    def _arm_rto(self):
        self._cancel_rto()
        if self.rtx_queue:
            self.rto_timer = self.stack.sim.schedule(self.rto, self._on_rto)

    def _cancel_rto(self):
        if self.rto_timer is not None:
            self.rto_timer.cancel()
            self.rto_timer = None

    def _on_rto(self):
        self.rto_timer = None
        if not self.rtx_queue or self.state is TcpState.CLOSED:
            return
        self.stats["rto_fires"] += 1
        entry = self.rtx_queue[0]
        entry.retries += 1
        if entry.retries > MAX_RETRIES:
            self.stack.host.process_on_core(self.core, self._give_up)
            return
        # Classic Reno RTO response: collapse to one segment, back off timer.
        self.ssthresh = max(self._flight_size() // 2, 2 * self.mss)
        self.cwnd = self.mss
        self.dupacks = 0
        self.rto = min(self.rto * 2, MAX_RTO)
        self.stack.host.process_on_core(self.core, self._retransmit_head)
        self._arm_rto()

    def _give_up(self, ctx):
        if self.on_reset is not None:
            self.on_reset(self)
        try:
            self.abort(ctx)
        except PoolExhausted:
            # No buffer for the goodbye RST: silent teardown, same as
            # _abort_on_exhaustion — the exception must not escape the
            # timer slice that called us.
            self._teardown()

    def _retransmit_head(self, ctx):
        if not self.rtx_queue:
            return
        entry = self.rtx_queue[0]
        self.stats["retransmits"] += 1
        # Retransmit a fresh clone of the stored clone: the payload bytes
        # are the very bytes transmitted originally (shared data refcount).
        pkt = entry.clone.clone()
        header = TCPHeader(
            self.local_port, self.remote_port,
            seq=entry.seq, ack=self.rcv_nxt,
            flags=entry.flags, window=self.rcv_wnd,
        )
        self.stack.ip_output(self, pkt, header, ctx)

    # ------------------------------------------------------------------- input

    def input(self, pkt, header, payload_off, payload_len, ctx):
        """Process one received segment (already demuxed to this connection)."""
        self.stats["rx_segments"] += 1
        self.last_activity = self.stack.sim.now
        # Steady-state fast path first, then the class-level dispatch
        # table (built once, below the class body) — ``input`` runs per
        # received segment, so no per-call dict construction.
        state = self.state
        if state is TcpState.ESTABLISHED:
            self._input_established(pkt, header, payload_off, payload_len, ctx)
        else:
            handler = _INPUT_DISPATCH.get(state)
            if handler is None:
                return
            handler(self, pkt, header, payload_off, payload_len, ctx)
        # Anything consumed but not yet acknowledged by an outgoing
        # segment gets a pure ACK — immediately (quickack, default) or
        # after the delayed-ACK interval, coalescing bursts.
        if self.ack_pending and self.state is not TcpState.CLOSED:
            if self.delack_ns is None:
                self._emit_delayed_ack(ctx)
            elif self._delack_timer is None:
                self._delack_timer = self.stack.sim.schedule(
                    self.delack_ns, self._on_delack
                )

    def _input_syn_sent(self, pkt, header, payload_off, payload_len, ctx):
        if header.flags & RST:
            self._handle_rst()
            return
        if not (header.flags & SYN and header.flags & ACK):
            return
        if header.ack != self.snd_nxt:
            return
        self.irs = header.seq
        self.rcv_nxt = header.seq + 1
        self.snd_una = header.ack
        self.snd_wnd = header.window
        self._ack_rtx_queue(header.ack)
        self._cancel_rto()
        self.state = TcpState.ESTABLISHED
        self.ack_pending = True
        if self.on_established is not None:
            self.on_established(self, ctx)
        self.output(ctx)

    def _input_syn_rcvd(self, pkt, header, payload_off, payload_len, ctx):
        if header.flags & RST:
            self._handle_rst()
            return
        if header.flags & SYN:
            return  # duplicate SYN; our SYN-ACK will be retransmitted on RTO
        if header.flags & ACK and header.ack == self.snd_nxt:
            self.snd_una = header.ack
            self.snd_wnd = header.window
            self._ack_rtx_queue(header.ack)
            self._cancel_rto()
            self.state = TcpState.ESTABLISHED
            if self.on_established is not None:
                self.on_established(self, ctx)
            # The handshake ACK may carry data.
            if payload_len:
                self._input_established(pkt, header, payload_off, payload_len, ctx)

    def _input_time_wait(self, pkt, header, payload_off, payload_len, ctx):
        # Retransmitted FIN: re-ACK it.
        if header.flags & FIN:
            self.ack_pending = True

    def _input_established(self, pkt, header, payload_off, payload_len, ctx):
        if header.flags & RST:
            self._handle_rst()
            return
        if header.flags & ACK:
            self._process_ack(header, ctx)
            if self.state is TcpState.CLOSED:
                return
        if payload_len:
            self._process_data(pkt, header.seq, payload_off, payload_len, ctx)
        if header.flags & FIN:
            self._process_fin(header, payload_len, ctx)
        self.output(ctx)

    def _handle_rst(self):
        if self.on_reset is not None:
            self.on_reset(self)
        self._teardown()

    # -- ACK side --------------------------------------------------------------

    def _process_ack(self, header, ctx):
        ack = header.ack
        if ack > self.snd_nxt:
            return  # acks data never sent: ignore
        self.snd_wnd = header.window
        if ack > self.snd_una:
            acked = ack - self.snd_una
            self.snd_una = ack
            self.dupacks = 0
            self._ack_rtx_queue(ack)
            self._update_cwnd(acked)
            if self.rtx_queue:
                self._arm_rto()
            else:
                self._cancel_rto()
            self._handle_fin_progress(ctx)
        elif ack == self.snd_una and self._flight_size() > 0:
            self.dupacks += 1
            if self.dupacks == 3:
                # Fast retransmit.
                self.stats["fast_retransmits"] += 1
                self.ssthresh = max(self._flight_size() // 2, 2 * self.mss)
                self.cwnd = self.ssthresh
                self._retransmit_head(ctx)
                self._arm_rto()

    def _ack_rtx_queue(self, ack):
        """Release every fully-acked clone; this is where data refs drop."""
        kept = []
        sample = None
        for entry in self.rtx_queue:
            if entry.end <= ack:
                if entry.retries == 0:
                    sample = self.stack.sim.now - entry.sent_at
                entry.clone.release()
            else:
                kept.append(entry)
        self.rtx_queue = kept
        if sample is not None:
            self._rtt_sample(sample)

    def _rtt_sample(self, sample):
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4 * self.rttvar, MIN_RTO), MAX_RTO)

    def _update_cwnd(self, acked):
        if self.cwnd < self.ssthresh:
            self.cwnd += min(acked, self.mss)  # slow start
        else:
            self.cwnd += max(1, self.mss * self.mss // self.cwnd)  # CA

    def _handle_fin_progress(self, ctx):
        if self.fin_seq is None or self.snd_una <= self.fin_seq:
            return
        # Our FIN is acknowledged.
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            if self.on_close is not None:
                self.on_close(self)
            self._teardown()

    # -- data side --------------------------------------------------------------

    def _process_data(self, pkt, seq, payload_off, payload_len, ctx):
        end = seq + payload_len
        if end <= self.rcv_nxt:
            # Entirely old: pure duplicate.
            self.stats["dup_segments"] += 1
            self.ack_pending = True
            return
        if seq > self.rcv_nxt + self.rcv_wnd:
            return  # beyond our window: drop silently
        if seq <= self.rcv_nxt:
            # In-order (possibly with an old prefix to skip).  Mark the
            # ACK *before* delivering so a response sent by the app in
            # the same slice piggybacks it.
            self.ack_pending = True
            skip = self.rcv_nxt - seq
            self._deliver(pkt, payload_off + skip, payload_len - skip, ctx)
            self._drain_ooo(ctx)
        else:
            # Out of order: retain the metadata in the RB-tree (§4.2).
            if seq not in self.ooo:
                pkt.retain()
                self.ooo.insert(seq, (pkt, payload_off, payload_len))
                self.ooo_bytes += payload_len
                self.stats["ooo_queued"] += 1
                self.stack.costs.charge_ooo_insert(ctx)
            else:
                self.stats["dup_segments"] += 1
            # Duplicate ACK asks the sender for the gap.
            self.ack_pending = True
        self._update_rcv_wnd()

    def _deliver(self, pkt, offset, length, ctx):
        """Hand an in-order payload slice (data-relative offset) to the app."""
        self.rcv_nxt += length
        self.stats["bytes_delivered"] += length
        self.stack.costs.charge_sock_deliver(ctx)
        if self.on_data is not None:
            self.on_data(self, RxSegment(pkt, offset, length), ctx)

    def _drain_ooo(self, ctx):
        """Splice contiguous out-of-order segments after the gap filled."""
        while self.ooo:
            key, (pkt, payload_off, payload_len) = self.ooo.min()
            if key > self.rcv_nxt:
                break
            self.ooo.delete(key)
            self.ooo_bytes -= payload_len
            end = key + payload_len
            if end <= self.rcv_nxt:
                pkt.release()  # fully duplicate
                continue
            skip = self.rcv_nxt - key
            self._deliver(pkt, payload_off + skip, payload_len - skip, ctx)
            pkt.release()

    def _update_rcv_wnd(self):
        self.rcv_wnd = max(0, self.rcv_wnd_limit - self.ooo_bytes)

    def _process_fin(self, header, payload_len, ctx):
        # The FIN occupies the sequence slot after the segment's payload.
        fin_seq = header.seq + payload_len
        if self.rcv_nxt < fin_seq:
            return  # data gap before the FIN; wait for retransmission
        if self.state in (TcpState.CLOSE_WAIT, TcpState.LAST_ACK,
                          TcpState.CLOSING, TcpState.TIME_WAIT):
            self.ack_pending = True  # duplicate FIN
            return
        if self.rcv_nxt > fin_seq:
            self.ack_pending = True  # FIN already consumed
            return
        self.rcv_nxt += 1
        self.ack_pending = True
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            if self.on_close is not None:
                self.on_close(self)
        elif self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()

    def _enter_time_wait(self):
        self.state = TcpState.TIME_WAIT
        self._cancel_rto()
        if self.on_close is not None:
            self.on_close(self)
        self.time_wait_timer = self.stack.sim.schedule(
            TIME_WAIT_NS, self._teardown
        )


#: state -> unbound input handler, shared by every connection.
#: ESTABLISHED (and its fast path in :meth:`TcpConnection.input`) is
#: listed too so the table is the single source of truth for which
#: states accept segments; CLOSED and LISTEN intentionally absent.
_INPUT_DISPATCH = {
    TcpState.SYN_SENT: TcpConnection._input_syn_sent,
    TcpState.SYN_RCVD: TcpConnection._input_syn_rcvd,
    TcpState.ESTABLISHED: TcpConnection._input_established,
    TcpState.FIN_WAIT_1: TcpConnection._input_established,
    TcpState.FIN_WAIT_2: TcpConnection._input_established,
    TcpState.CLOSE_WAIT: TcpConnection._input_established,
    TcpState.CLOSING: TcpConnection._input_established,
    TcpState.LAST_ACK: TcpConnection._input_established,
    TcpState.TIME_WAIT: TcpConnection._input_time_wait,
}
