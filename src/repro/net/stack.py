"""Host network stack: sockets, demux, run-to-completion processing.

:class:`Host` ties a CPU set, a NIC and a :class:`NetworkStack`
together and implements the execution discipline that produces the
paper's Figure 2: every packet (or timer) is processed run-to-
completion on one core, the core serialises work, and packets produced
during a processing slice leave the host when the slice *completes* on
that core — so a slow storage stack delays every queued request behind
it.

PASTE mode (the paper's server configuration) is a host whose NIC rx
pool lives in a **persistent-memory region**: payload is DMA'd straight
into PM, and the application can take ownership of packet buffers
(:meth:`~repro.net.tcp.RxSegment.retain` + ``steal_buffer``) and persist
them with a flush — no copy.  A DRAM rx pool gives the classic stack.
"""

import struct

from repro.net.headers import (
    ACK,
    ETH_HEADER_LEN,
    ETHERTYPE_IPV4,
    IPV4_HEADER_LEN,
    IPPROTO_TCP,
    RST,
    SYN,
    TCP_HEADER_LEN,
    IPv4Header,
    TCPHeader,
    ip_to_int,
)
from repro.net.homa import HOMA_HEADER_LEN, IPPROTO_HOMA, HomaTransport
from repro.net.nic import Nic, frame_headers, l4_csum_info
from repro.net.pktbuf import PktBuf
from repro.net.pool import BufferPool, PoolExhausted
from repro.net.tcp import TcpConnection, TcpState
from repro.pm.device import DRAMDevice
from repro.sim import ExecutionContext
from repro.sim.context import NULL_CONTEXT
from repro.sim.cpu import CpuSet

#: Wire bytes of the IPv4 ethertype, for the rx check.
_ETHERTYPE_IPV4_BYTES = ETHERTYPE_IPV4.to_bytes(2, "big")

#: Frame offset of the L4 header.
_L4_START = ETH_HEADER_LEN + IPV4_HEADER_LEN

#: Frame offset of the IPv4 protocol byte.
_IP_PROTO_OFF = ETH_HEADER_LEN + 9

#: Bytes of each received frame read for its headers: Ethernet, IPv4
#: and the longer of the TCP and Homa headers.
_RX_HEAD_LEN = _L4_START + max(TCP_HEADER_LEN, HOMA_HEADER_LEN)

#: IPv4 source and destination address, then the TCP ports: the
#: 4-tuple RSS steers on, 12 bytes into the IPv4 header.
_RSS_TUPLE = struct.Struct("!IIHH")


class Socket:
    """Application handle for one TCP connection."""

    def __init__(self, stack, conn):
        self._stack = stack
        self.conn = conn
        #: app callbacks: on_data(sock, RxSegment, ctx), on_established(sock, ctx),
        #: on_close(sock), on_reset(sock)
        self.on_data = None
        self.on_established = None
        self.on_close = None
        self.on_reset = None
        conn.on_data = self._deliver
        conn.on_established = self._established
        conn.on_close = self._closed
        conn.on_reset = self._reset

    # -- plumbing from the TCP layer -------------------------------------------

    def _deliver(self, conn, segment, ctx):
        if self.on_data is not None:
            self.on_data(self, segment, ctx)

    def _established(self, conn, ctx):
        if self.on_established is not None:
            self.on_established(self, ctx)

    def _closed(self, conn):
        if self.on_close is not None:
            self.on_close(self)

    def _reset(self, conn):
        if self.on_reset is not None:
            self.on_reset(self)

    # -- app API -----------------------------------------------------------------

    @property
    def state(self):
        return self.conn.state

    @property
    def core(self):
        return self.conn.core

    #: Fraction of the socket-send cost a corked (MSG_MORE) append pays:
    #: it queues an iovec without running the transmit machinery.
    CORKED_SEND_FRACTION = 0.3

    def _charge_send(self, ctx, more):
        if more:
            ctx.charge(
                self._stack.costs.sock_send * self.CORKED_SEND_FRACTION, "net.sock"
            )
        else:
            self._stack.costs.charge_sock_send(ctx)

    def send(self, data, ctx, more=False):
        """Write bytes to the stream (copied into packet buffers).

        ``more=True`` (MSG_MORE) enqueues without transmitting so
        consecutive writes coalesce into full segments.
        """
        self._charge_send(ctx, more)
        self.conn.send(data, ctx, more=more)

    def send_buffer(self, buf, offset, length, ctx, more=False):
        """Write a buffer slice zero-copy (psend-style, §5.1)."""
        self._charge_send(ctx, more)
        self.conn.send_buffer(buf, offset, length, ctx, more=more)

    def close(self, ctx):
        self.conn.close(ctx)

    def abort(self, ctx):
        self.conn.abort(ctx)

    def __repr__(self):
        return f"<Socket {self.conn!r}>"


class NetworkStack:
    """Protocol processing and connection demux for one host."""

    def __init__(self, host, costs, tx_pool):
        self.host = host
        self.sim = host.sim
        self.costs = costs
        self.tx_pool = tx_pool
        self.tx_headroom = ETH_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN + 10
        self._connections = {}
        self._listeners = {}
        self._pending_tx = []
        self._taps = []
        #: When set (and the NIC has TSO), new connections emit jumbo
        #: segments of this size and the NIC splits them on the wire.
        self.gso_size = None
        #: Advertised-window ceiling for new connections (16-bit max).
        self.default_rcv_wnd = 65535
        #: Delayed-ACK interval for new connections; None = quickack.
        self.delack_ns = None
        self._iss = 10_000
        self._ephemeral = 40_000
        # Idle-connection reaper (opt-in, see enable_idle_reaper).
        self.reaper_idle_ns = None
        self.reaper_scan_ns = None
        self._reaper_timer = None
        self.stats = {
            "rx_packets": 0, "rx_bad_csum": 0, "rx_no_socket": 0,
            "rx_malformed": 0, "rx_bad_ip_csum": 0,
            "tx_packets": 0, "rst_sent": 0, "rst_dropped_nobuf": 0,
            "conns_reaped": 0, "tapped": 0,
        }

    # -- packet taps -----------------------------------------------------------

    def add_tap(self, callback):
        """Register a packet-capture consumer (Figure 3's second reader).

        ``callback(pkt, ctx)`` runs for every received frame after
        protocol parsing, holding its *own* metadata reference — the
        clone/refcount machinery lets the capture path and the socket
        path share payload without copies.  The tap must ``release()``
        the packet when done (immediately after the callback returns is
        fine; retaining longer is the point of refcounts).
        """
        self._taps.append(callback)
        return callback

    def remove_tap(self, callback):
        self._taps.remove(callback)

    def _run_taps(self, pkt, ctx):
        for tap in self._taps:
            self.stats["tapped"] += 1
            tap(pkt.retain(), ctx)

    # -- application surface -------------------------------------------------

    def listen(self, port, on_accept):
        """Accept connections on ``port``; ``on_accept(socket, ctx)`` fires
        when each handshake completes."""
        if port in self._listeners:
            raise ValueError(f"port {port} already listening")
        self._listeners[port] = on_accept

    def connect(self, remote_ip, remote_port, ctx, core=None, local_port=None):
        """Active open; returns the socket immediately (SYN in flight)."""
        remote_ip = ip_to_int(remote_ip)
        if local_port is None:
            local_port = self._ephemeral
            self._ephemeral += 1
        core = core or self.host.cpus.assign()
        conn = TcpConnection(
            self, self.host.ip, local_port, remote_ip, remote_port,
            core, self._next_iss(),
        )
        self._apply_gso(conn)
        self._connections[conn.tuple4] = conn
        self._arm_reaper()
        sock = Socket(self, conn)
        conn.open_active(ctx)
        return sock

    def _apply_gso(self, conn):
        """Jumbo software segments when the NIC can split them (TSO)."""
        if self.gso_size and self.host.nic.features.tso:
            conn.mss = self.gso_size

    def _next_iss(self):
        self._iss += 100_000
        return self._iss

    def forget_connection(self, conn):
        self._connections.pop(conn.tuple4, None)

    def connection_count(self):
        return len(self._connections)

    # -- idle-connection reaper -------------------------------------------------

    def enable_idle_reaper(self, idle_ns, scan_ns=None):
        """Reap connections with no rx activity for ``idle_ns``.

        TCP never retransmits an RST, so one lost on the wire leaves
        the server side half-open forever: ESTABLISHED, no timers
        armed, the partial request's buffers pinned.  The reaper is
        the kernel's keepalive/idle-timeout analog — a periodic scan
        that silently tears down (no RST; the peer is gone) any
        connection idle past the threshold, firing its reset callback
        so the application drops per-connection state.

        Opt-in because reaping is a policy decision: a workload with
        legitimate think-time gaps longer than ``idle_ns`` would lose
        healthy connections.  ``scan_ns`` defaults to a quarter of the
        idle threshold.  The scan timer only stays armed while
        connections exist, so an idle simulation still drains.
        """
        if idle_ns <= 0:
            raise ValueError("idle_ns must be positive")
        self.reaper_idle_ns = idle_ns
        self.reaper_scan_ns = scan_ns or max(idle_ns // 4, 1)
        self._arm_reaper()

    def disable_idle_reaper(self):
        self.reaper_idle_ns = None
        self.reaper_scan_ns = None
        if self._reaper_timer is not None:
            self._reaper_timer.cancel()
            self._reaper_timer = None

    def _arm_reaper(self):
        if (self.reaper_idle_ns is None or self._reaper_timer is not None
                or not self._connections):
            return
        self._reaper_timer = self.sim.schedule(self.reaper_scan_ns, self._reap_scan)

    def _reap_scan(self):
        self._reaper_timer = None
        if self.reaper_idle_ns is None:
            return
        now = self.sim.now
        for conn in list(self._connections.values()):
            if conn.state in (TcpState.CLOSED, TcpState.LISTEN,
                              TcpState.TIME_WAIT):
                continue  # TIME_WAIT already has its own expiry timer
            if now - conn.last_activity >= self.reaper_idle_ns:
                self.stats["conns_reaped"] += 1
                conn.reap()
        self._arm_reaper()

    # -- transmit path ---------------------------------------------------------

    def ip_output(self, conn, pkt, tcp_header, ctx):
        """Add TCP/IP/Ethernet headers and queue the packet for the NIC."""
        self.costs.charge_tcp_tx(ctx)
        self.frame_output(pkt, tcp_header.pack(), IPPROTO_TCP,
                          conn.local_ip, conn.remote_ip, ctx)
        pkt.tstamp = self.sim.now
        self.stats["tx_packets"] += 1
        self._pending_tx.append((pkt, conn.remote_ip))

    def frame_output(self, pkt, l4_header, proto, src_ip, dst_ip, ctx):
        """Push ``l4_header``, then IPv4 and Ethernet, onto ``pkt``.

        The one transmit framer: TCP segments, RSTs and Homa packets
        all leave through it.  With tx checksum offload the NIC fills
        the L4 checksum on the wire; without it the checksum is
        written here, in software, and charged.
        """
        l4_len = pkt.total_len + len(l4_header)
        pkt.push(frame_headers(src_ip, dst_ip, proto, l4_len) + l4_header)
        if not self.host.nic.features.tx_csum_offload:
            position, _stored, csum = l4_csum_info(pkt.to_wire())
            pkt.buf.write(pkt.data_off + position, csum.to_bytes(2, "big"))
            self.costs.charge_sw_checksum(ctx, l4_len)
        self.costs.charge_ip_tx(ctx)
        self.costs.charge_driver_tx(ctx)

    def drain_tx(self):
        """Take the packets produced during the current processing slice."""
        out = self._pending_tx
        self._pending_tx = []
        return out

    # -- receive path -----------------------------------------------------------

    def ip_input(self, pkt, head, ctx, proto, l4_header_len):
        """The receive front half TCP and Homa share.

        Takes the Ethernet, IPv4 and L4 header bytes as ``head``, the
        one read :meth:`Host.on_nic_rx` made.  Charges the driver and
        IP costs, then drops (and releases) a frame that is too short,
        not IPv4, malformed, failing its IP checksum or not carrying
        ``proto``.  A kept frame is trimmed of Ethernet padding and
        pulled to its L4 header.  Returns ``(ip_header, l4_ok,
        l4_raw)`` — ``l4_ok`` is the NIC's checksum verdict, or a
        charged software verify when rx offload is off, and ``l4_raw``
        the ``l4_header_len`` L4 header bytes for the transport to
        unpack — or None for a dropped frame.
        """
        self.costs.charge_driver_rx(ctx)
        if pkt.data_len < _L4_START + l4_header_len:
            pkt.release()
            return None
        if head[ETH_HEADER_LEN - 2:ETH_HEADER_LEN] != _ETHERTYPE_IPV4_BYTES:
            pkt.release()
            return None
        pkt.l2_off = pkt.data_off
        pkt.pull(ETH_HEADER_LEN)
        self.costs.charge_ip_rx(ctx)
        raw_ip = head[ETH_HEADER_LEN:_L4_START]
        try:
            ip_header = IPv4Header.unpack(raw_ip)
        except ValueError:
            # Corrupted version/IHL nibble: a real stack drops the frame
            # before it ever reaches checksum verification.
            self.stats["rx_malformed"] += 1
            pkt.release()
            return None
        if not ip_header.verify_checksum(raw_ip):
            self.stats["rx_bad_ip_csum"] += 1
            pkt.release()
            return None
        if ip_header.proto != proto:
            pkt.release()
            return None
        if ip_header.total_len < IPV4_HEADER_LEN + l4_header_len:
            # Shorter than its own headers: nothing left to pull.
            self.stats["rx_malformed"] += 1
            pkt.release()
            return None
        # Trim Ethernet padding before checksum/payload accounting.
        if pkt.data_len > ip_header.total_len:
            pkt.trim(ip_header.total_len)
        pkt.l3_off = pkt.data_off
        pkt.pull(IPV4_HEADER_LEN)
        l4_raw = head[_L4_START:_L4_START + l4_header_len]
        if pkt.csum_verified or (pkt.wire_csum is not None and
                                 self.host.nic.features.rx_csum_offload):
            return ip_header, pkt.csum_verified, l4_raw
        self.costs.charge_sw_checksum(ctx, pkt.data_len)
        frame = pkt.buf.read(pkt.l2_off, pkt.data_off + pkt.data_len - pkt.l2_off)
        _position, stored, computed = l4_csum_info(frame)
        return ip_header, stored == computed, l4_raw

    def rx(self, pkt, head, ctx):
        """Full receive processing of one frame (run-to-completion);
        ``head`` as for :meth:`ip_input`."""
        self.stats["rx_packets"] += 1
        verdict = self.ip_input(pkt, head, ctx, IPPROTO_TCP, TCP_HEADER_LEN)
        if verdict is None:
            return
        ip_header, csum_ok, raw_tcp = verdict
        try:
            tcp_header = TCPHeader.unpack(raw_tcp)
        except ValueError:
            # Corrupted data-offset nibble: drop, like a real stack.
            self.stats["rx_malformed"] += 1
            pkt.release()
            return
        # Bad checksums are dropped here, exactly like a real stack, and
        # show up as retransmissions.
        if not csum_ok:
            self.stats["rx_bad_csum"] += 1
            pkt.release()
            return
        pkt.l4_off = pkt.data_off
        pkt.pull(TCP_HEADER_LEN)
        pkt.ip = ip_header
        pkt.tcp = tcp_header
        payload_len = ip_header.total_len - IPV4_HEADER_LEN - TCP_HEADER_LEN
        self.costs.charge_tcp_rx(ctx)
        if self._taps:
            self._run_taps(pkt, ctx)
        self._demux(pkt, ip_header, tcp_header, payload_len, ctx)

    def _demux(self, pkt, ip_header, tcp_header, payload_len, ctx):
        key = (ip_header.dst, tcp_header.dst_port, ip_header.src, tcp_header.src_port)
        conn = self._connections.get(key)
        if conn is not None:
            conn.input(pkt, tcp_header, 0, payload_len, ctx)
            pkt.release()
            return
        if tcp_header.flags & SYN and not (tcp_header.flags & ACK):
            on_accept = self._listeners.get(tcp_header.dst_port)
            if on_accept is not None:
                self._accept(pkt, ip_header, tcp_header, on_accept, ctx)
                pkt.release()
                return
        self.stats["rx_no_socket"] += 1
        if not tcp_header.flags & RST:
            self._send_rst(ip_header, tcp_header, payload_len)
        pkt.release()

    def _accept(self, pkt, ip_header, tcp_header, on_accept, ctx):
        core = self.host.cpus.assign()
        conn = TcpConnection(
            self, ip_header.dst, tcp_header.dst_port,
            ip_header.src, tcp_header.src_port, core, self._next_iss(),
        )
        self._apply_gso(conn)
        self._connections[conn.tuple4] = conn
        self._arm_reaper()
        sock = Socket(self, conn)
        sock.on_established = lambda s, c: on_accept(s, c)
        conn.accept_syn(tcp_header, ctx)

    def _send_rst(self, ip_header, tcp_header, payload_len):
        """Refuse a segment aimed at nothing (stateless RST)."""
        try:
            pkt = PktBuf.alloc(self.tx_pool, headroom=self.tx_headroom)
        except PoolExhausted:
            # An RST is best-effort (never retransmitted); under pool
            # pressure it drops like any other lost segment rather than
            # unwinding the receive path that still holds the rx packet.
            self.stats["rst_dropped_nobuf"] += 1
            return
        self.stats["rst_sent"] += 1
        rst = TCPHeader(
            tcp_header.dst_port, tcp_header.src_port,
            seq=tcp_header.ack, ack=tcp_header.seq + payload_len + 1,
            flags=RST | ACK, window=0,
        )
        # A stateless RST is modelled as free: it charges nothing.
        self.frame_output(pkt, rst.pack(), IPPROTO_TCP, ip_header.dst,
                          ip_header.src, NULL_CONTEXT)
        self._pending_tx.append((pkt, ip_header.src))

    def core_for_packet(self, head):
        """RSS: an existing connection's packets go to its core.

        ``head`` is the frame's first bytes, as :meth:`ip_input` takes
        them.
        """
        cpus = self.host.cpus
        if len(cpus) == 1 or len(head) < _L4_START + TCP_HEADER_LEN:
            return cpus[0]
        # A malformed version or data-offset nibble can't be steered;
        # rx() will drop the frame.
        if head[ETH_HEADER_LEN] >> 4 != 4 or head[_L4_START + 12] >> 4 < 5:
            return cpus[0]
        src, dst, src_port, dst_port = _RSS_TUPLE.unpack_from(
            head, ETH_HEADER_LEN + 12)
        conn = self._connections.get((dst, dst_port, src, src_port))
        return conn.core if conn is not None else cpus[0]


class Host:
    """A machine: cores + NIC + stack + memory, on the simulated fabric."""

    def __init__(self, sim, name, ip, fabric, costs, cores=1,
                 rx_pool_region=None, pool_slots=8192, slot_size=2048,
                 busy_poll=True, irq_latency_ns=2000.0, nic_features=None):
        self.sim = sim
        self.name = name
        self.ip = ip_to_int(ip)
        self.costs = costs
        self.cpus = CpuSet(cores)
        #: False after :meth:`kill`: the host drops rx frames and runs
        #: no further processing slices (whole-host failure injection).
        self.alive = True
        self.busy_poll = busy_poll
        self.irq_latency_ns = irq_latency_ns
        self._completion_hooks = []
        #: Aggregate of every processing slice's charges (the Table 1
        #: harness divides this by the request count for per-request rows).
        self.accounting = ExecutionContext()
        #: Optional live-observability hook (repro.obs.Recorder); None
        #: keeps the hot path allocation- and branch-cheap.
        self.recorder = None

        # Packet memory: tx always DRAM; rx DRAM unless a PM region is
        # supplied (PASTE mode).
        pool_bytes = pool_slots * slot_size
        self.pool_dram = DRAMDevice(2 * pool_bytes, name=f"{name}.pktmem")
        self.tx_pool = BufferPool(
            self.pool_dram.region(0, pool_bytes, f"{name}.txpool"),
            slot_size, name=f"{name}.txpool",
        )
        if rx_pool_region is not None:
            self.rx_pool = BufferPool(rx_pool_region, slot_size, name=f"{name}.rxpool(pm)")
        else:
            self.rx_pool = BufferPool(
                self.pool_dram.region(pool_bytes, pool_bytes, f"{name}.rxpool"),
                slot_size, name=f"{name}.rxpool",
            )

        self.nic = Nic(self, self.ip, self.rx_pool, features=nic_features)
        self.nic.attach(fabric)
        self.stack = NetworkStack(self, costs, self.tx_pool)
        #: Optional Homa-like message transport (created by enable_homa).
        self.homa = None

    @property
    def paste_mode(self):
        """True when rx packet buffers live in persistent memory."""
        return self.rx_pool.persistent

    def enable_homa(self):
        """Attach the Homa-like transport alongside TCP (§5.2)."""
        if self.homa is None:
            self.homa = HomaTransport(self, self.costs, self.tx_pool)
            if self.recorder is not None:
                # The observability layer was attached before the
                # transport existed; give it the send/retransmit hooks.
                self.recorder.attach_transport(self.homa)
        return self.homa

    # -- execution discipline ------------------------------------------------

    def _transport_for(self, head):
        """Demux by IP protocol: Homa packets bypass the TCP stack."""
        if self.homa is not None and len(head) > _IP_PROTO_OFF \
                and head[_IP_PROTO_OFF] == IPPROTO_HOMA:
            return self.homa
        return self.stack

    def kill(self):
        """Whole-host failure: stop receiving and processing, forever.

        Models pulling the power cord on everything *except* the
        persistent memory: DRAM state (sockets, reassembly buffers,
        timers) is unrecoverable, frames addressed here fall on the
        floor, and any timer that fires later finds ``alive`` False and
        does nothing.  PM namespaces survive and can be recovered by a
        replacement host — the paper's §4 durability story."""
        self.alive = False

    def on_nic_rx(self, nic, pkt):
        """NIC handed us a packet (fires at arrival + NIC latency)."""
        if not self.alive:
            # A dead host's frames vanish; release the rx buffer the
            # NIC already allocated so the pool itself stays coherent.
            pkt.release()
            return
        # The headers every receive step reads, read once: demux,
        # steering and the front half all take these bytes.
        head = pkt.payload_slice(0, min(pkt.data_len, _RX_HEAD_LEN))
        transport = self._transport_for(head)
        core = transport.core_for_packet(head)
        start = self.sim.now if self.busy_poll else self.sim.now + self.irq_latency_ns
        self.process_on_core(core, lambda ctx: transport.rx(pkt, head, ctx),
                             start=start)

    def process_on_core(self, core, fn, start=None):
        """Run ``fn(ctx)`` run-to-completion on ``core``.

        The function's charged cost occupies the core; packets it queued
        and completion hooks it registered take effect when the core
        finishes the slice.  Returns the completion time.
        """
        if not self.alive:
            # Timers scheduled before the kill may still fire; a dead
            # host executes nothing.
            return self.sim.now
        ctx = ExecutionContext()
        hooks_before = len(self._completion_hooks)
        fn(ctx)
        out_packets = self.stack.drain_tx()
        if self.homa is not None:
            out_packets.extend(self.homa.drain_tx())
        hooks = self._completion_hooks[hooks_before:]
        del self._completion_hooks[hooks_before:]
        t_end = core.execute(start if start is not None else self.sim.now, ctx.elapsed)
        # The recorder folds the slice into the accounting in the same
        # pass as its counters.
        if self.recorder is None:
            self.accounting.merge(ctx)
        else:
            self.recorder.record_slice(self, core, ctx, t_end)
        for pkt, dst_ip in out_packets:
            self.sim.at(t_end, self.nic.transmit, pkt, dst_ip)
        for hook in hooks:
            self.sim.at(t_end, hook, t_end, ctx)
        return t_end

    def call_at_completion(self, hook):
        """Register ``hook(t_end, ctx)`` to fire when this slice completes.

        Only valid while inside :meth:`process_on_core` (e.g. from an
        application callback): this is how a closed-loop client knows
        the true end-to-end completion time of a response.
        """
        self._completion_hooks.append(hook)

    def __repr__(self):
        mode = "PASTE" if self.paste_mode else "kernel"
        return f"<Host {self.name} {mode} cores={len(self.cpus)}>"
