"""``wrk``-like load generation: one request driver, three choices.

The paper's client runs wrk over persistent TCP connections, each
issuing its next request the moment the previous response lands.
Every client request in this repo — Table 1 / Figure 2, the open-loop
soak, the chaos storms and their probes — goes through the driver
below, made from three choices (docs/WORKLOADS.md, "The request
driver"):

- **transport** — :class:`WrkClient` (persistent TCP connections) or
  :class:`HomaWrkClient` (one Homa RPC per op, optionally routed per
  key, with an optional per-attempt watchdog and attempt budget);
- **pacing** — closed loops, or :class:`OpenLoopWrkClient`'s socket
  pool fed by an arrival clock, with a FIFO backlog;
- **ledger** — :class:`WrkStats` / :class:`OpenLoopStats` (RTTs) or
  :class:`AckLedger` (what the server acked, for durability oracles).

Closed-loop RTT runs from the completion of the slice that *sent* the
request to the completion of the slice that *parsed* its response
(syscall-to-syscall, like wrk), with a warmup cut.  Open-loop RTT runs
from the *scheduled arrival*, so a stalled server shows up as a
queueing wave in the tail (no coordinated omission).
"""

from collections import deque

from repro.bench.workloads import UniformSource
from repro.net.http import HttpParser, build_request
from repro.sim.units import ns_to_us

# How long a closed-loop run keeps the simulator going after its loops
# stop at ``stop_at``: time for the trailing ACKs to land.
ACK_GRACE_NS = 5_000_000.0


def _op_to_request(op):
    """Render one TrafficSource op as HTTP request bytes (or None)."""
    if op is None:
        return None
    method, key, value = op
    return build_request(method, f"/{key}", value or b"")


class WrkStats:
    """RTT ledger of one closed-loop run."""

    def __init__(self):
        self.rtts_ns = []
        self.completed = 0
        self.errors = 0
        self.measure_start = None
        self.measure_end = None

    # -- ledger protocol (called by the driver) -------------------------------

    def issue(self, op):
        """An op went out (RTT ledgers keep nothing per op)."""

    def reply(self, op, message, rpc_id=None, peer=None):
        """A response was parsed; 5xx answers count as errors."""
        if message.status is not None and message.status >= 500:
            self.errors += 1

    def record(self, started, finished, status):
        """Count a completion; return its RTT if it is a sample.

        A sample must *finish* inside the measurement window (standard
        load-generator practice — requiring the start inside too would
        bias throughput down whenever RTT is comparable to the window).
        """
        self.completed += 1
        if started is None or \
                not self.measure_start <= finished <= self.measure_end:
            return None
        rtt_ns = finished - started
        self.rtts_ns.append(rtt_ns)
        return rtt_ns

    def connection_reset(self):
        self.errors += 1

    # -- results ---------------------------------------------------------------

    @property
    def avg_rtt_us(self):
        if not self.rtts_ns:
            return 0.0
        return ns_to_us(sum(self.rtts_ns) / len(self.rtts_ns))

    def percentile_us(self, p):
        """Exact sample percentile with linear interpolation.

        ``p`` is in percent.  ``p=0`` returns the minimum, ``p=100``
        the maximum, and a single sample answers every percentile with
        itself.  Interior percentiles interpolate between the two
        nearest order statistics at ``rank = p/100 * (n-1)`` (numpy's
        default "linear" definition), so p99 over 5k samples is the
        exact percentile — not the truncated-index neighbour the old
        ``int(p/100*n)`` produced.
        """
        if not self.rtts_ns:
            return 0.0
        ordered = sorted(self.rtts_ns)
        if p <= 0:
            return ns_to_us(ordered[0])
        if p >= 100:
            return ns_to_us(ordered[-1])
        rank = p / 100.0 * (len(ordered) - 1)
        low = int(rank)
        frac = rank - low
        if frac == 0.0 or low + 1 >= len(ordered):
            return ns_to_us(ordered[low])
        return ns_to_us(ordered[low] + (ordered[low + 1] - ordered[low]) * frac)

    @property
    def throughput_krps(self):
        if self.measure_start is None or self.measure_end is None or \
                self.measure_end <= self.measure_start:
            return 0.0
        window_s = (self.measure_end - self.measure_start) / 1e9
        return len(self.rtts_ns) / window_s / 1e3

    def __repr__(self):
        return (
            f"<WrkStats n={len(self.rtts_ns)} avg={self.avg_rtt_us:.2f}us "
            f"tput={self.throughput_krps:.1f}krps>"
        )


class OpenLoopStats(WrkStats):
    """Results of one open-loop run.

    ``rtts_ns`` (and therefore :meth:`~WrkStats.percentile_us` /
    :attr:`~WrkStats.avg_rtt_us`) hold **admitted** (status-200)
    requests only, measured from *scheduled arrival* to completion —
    the tail the soak oracles bound.  The same samples also feed a
    mergeable t-digest so sweep reports carry digest-backed quantiles
    cross-checked against the exact order statistics.  Shed (503) and
    storage-full (507) answers are counted, not mixed into the tail:
    past the knee they are the *correct* server behaviour.
    """

    def __init__(self):
        super().__init__()
        from repro.obs.tdigest import TDigest

        self.digest = TDigest()
        #: Arrivals whose scheduled time fell inside the measure window.
        self.offered = 0
        self.arrivals_total = 0
        self.admitted = 0
        self.shed = 0
        self.storage_full = 0
        self.resets = 0
        self.abandoned = 0
        self.churns = 0
        self.handshakes = 0
        self.backlog_peak = 0
        self.backlog_at_stop = 0

    def reply(self, op, message, rpc_id=None, peer=None):
        """Statuses are classified at completion, in :meth:`record`."""

    def record(self, started, finished, status):
        """Only status-200 requests enter the latency tail; shed and
        full answers are counted as what they are."""
        self.completed += 1
        if not self.measure_start <= finished <= self.measure_end:
            return None
        if status == 200:
            self.admitted += 1
            rtt_ns = finished - started
            self.rtts_ns.append(rtt_ns)
            self.digest.add(rtt_ns)
            return rtt_ns
        if status == 503:
            self.shed += 1
        elif status == 507:
            self.storage_full += 1
        else:
            self.errors += 1
        return None

    @property
    def offered_krps(self):
        if self.measure_start is None or self.measure_end is None or \
                self.measure_end <= self.measure_start:
            return 0.0
        window_s = (self.measure_end - self.measure_start) / 1e9
        return self.offered / window_s / 1e3

    @property
    def goodput_krps(self):
        """Admitted completions per second — inherited throughput."""
        return self.throughput_krps

    def digest_percentile_us(self, p):
        """Digest-backed percentile (µs), mergeable across clients."""
        if not len(self.digest):
            return 0.0
        return ns_to_us(self.digest.quantile(p / 100.0))

    def __repr__(self):
        return (
            f"<OpenLoopStats offered={self.offered} admitted={self.admitted} "
            f"shed={self.shed} p99={self.percentile_us(99):.1f}us>"
        )


class AckLedger:
    """What a storm issued and what the server acked, per key.

    The chaos storms' durability oracles read it: for every key, the
    newest acked value and every value issued after that ack are the
    legal contents of the store (an unacked write may legally persist).
    Keys are bytes.  ``phase`` is stamped on each ack (the kill storm
    sets it); ``on_peer(ip, ok)`` hears every reply and every failed
    attempt (the kill storm's router counts them to detect a dead host).
    """

    def __init__(self, on_peer=None):
        self.on_peer = on_peer
        self.phase = None
        self.responses = {200: 0, 503: 0, 507: 0, 400: 0, 404: 0}
        self.attempted = 0
        self.acked = 0
        self.acked_by_phase = {}
        self.resets = 0
        self.timeouts = 0
        self.give_ups = 0
        self.retries = 0
        self.abandoned = 0
        self.last_acked = {}        # key -> value of the newest acked PUT
        self.issued_after_ack = {}  # key -> values issued after that ack
        self.acks = {}              # key -> (rpc id, phase) of that ack
        self.reads = {}             # key -> (status, body) of its last GET

    def issue(self, op):
        method, key, value = op
        if method == "PUT":
            self.attempted += 1
            self.issued_after_ack.setdefault(key.encode(), []).append(value)

    def reply(self, op, message, rpc_id=None, peer=None):
        status = message.status
        self.responses[status] = self.responses.get(status, 0) + 1
        if self.on_peer is not None:
            self.on_peer(peer, True)
        method, key, value = op
        key = key.encode()
        if method == "GET":
            self.reads[key] = (status, message.body)
        elif status == 200:
            self.last_acked[key] = value
            self.issued_after_ack[key] = []
            self.acks[key] = (rpc_id, self.phase)
            self.acked += 1
            self.acked_by_phase[self.phase] = \
                self.acked_by_phase.get(self.phase, 0) + 1

    def record(self, started, finished, status):
        return None

    def connection_reset(self):
        self.resets += 1

    def attempt_failed(self, peer, gave_up):
        """A watchdog expired, or the transport gave up on the peer."""
        if gave_up:
            self.give_ups += 1
        else:
            self.timeouts += 1
        if self.on_peer is not None:
            self.on_peer(peer, False)

    def check_durability(self, read, report, kind=None):
        """The durability oracle: ``read(key)`` must return the newest
        acked value or one issued after it.  Each other value is one
        violation on ``report``, of kind ``kind(key)`` (default
        ``"durability"``)."""
        for key, value in self.last_acked.items():
            stored = read(key)
            if stored == value or stored in self.issued_after_ack[key]:
                continue
            got = None if stored is None else bytes(stored[:48])
            report.violation(
                "durability" if kind is None else kind(key),
                f"key {key!r}: stored {got!r} is neither the acked value "
                f"nor a later issued one",
            )


class _Connection:
    """One channel of the driver (a closed loop or a pooled socket),
    carrying at most one op at a time.  ``stopped`` channels never send
    again — the churn invariant the open-loop property tests pin.
    """

    __slots__ = ("client", "conn_id", "core", "sock", "parser", "op",
                 "started", "sent", "attempt", "token", "stopped")

    def __init__(self, client, conn_id):
        self.client = client
        self.conn_id = conn_id
        self.core = None
        self.sock = None
        self.parser = HttpParser(is_response=True)
        self.op = None          # (method, key, value) awaiting its reply
        self.started = None     # RTT origin of that op
        self.sent = 0
        self.attempt = 0
        self.token = None       # identity of the live Homa attempt
        self.stopped = False

    def _established(self, sock, ctx):
        sock.on_data = self._on_data
        self.client._established(self, ctx)

    def _mark_sent(self, t_end, ctx):
        self.started = t_end

    def _on_data(self, sock, segment, ctx):
        client = self.client
        for message in self.parser.feed(segment, ctx, client.costs):
            status = message.status
            op, self.op = self.op, None
            if op is not None:
                client.stats.reply(op, message)
            message.release()
            if op is not None:
                client.host.call_at_completion(
                    lambda t_end, c, started=self.started, status=status:
                        client._record(started, t_end, status)
                )
            client._replied(self, ctx)


class WrkClient:
    """The request driver: N closed loops over persistent TCP connections.

    ``ledger`` defaults to a fresh :class:`WrkStats`; it is ``stats``
    afterwards.  The traffic is ``workload`` (any TrafficSource), or
    wrk's uniform writes built from ``method``/``key_space``/
    ``value_size``/``key_prefix``.  A loop stops at the end of the
    window or when its source is exhausted (then it hangs up).
    """

    #: Client-request kind reported to the recorder.
    protocol = "http"

    def __init__(self, host, server_ip, port=80, connections=1,
                 value_size=1024, method="PUT", key_space=1000,
                 duration_ns=20_000_000.0, warmup_ns=5_000_000.0,
                 key_prefix="key", workload=None, ledger=None):
        self.host = host
        self.costs = host.costs
        self.server_ip = server_ip
        self.port = port
        self.connections = connections
        self.value_size = value_size
        self.method = method
        self.duration_ns = duration_ns
        self.warmup_ns = warmup_ns
        #: The TrafficSource driving every loop (see
        #: repro.bench.workloads); defaults to wrk's uniform writes.
        self.workload = workload if workload is not None else UniformSource(
            method=method, key_space=key_space, value_size=value_size,
            key_prefix=key_prefix,
        )
        self.stats = ledger if ledger is not None else WrkStats()
        self._conns = []
        self.started_at = None
        self.stop_at = None

    # -- workload -----------------------------------------------------------

    def next_request(self, conn):
        op = conn.op = self.workload.next_op(conn.conn_id)
        return _op_to_request(op)

    # -- lifecycle ------------------------------------------------------------

    def start(self, stagger_ns=0.0):
        """Open every channel (channel i after ``i * stagger_ns``, so a
        SYN flood need not land in one slice); the loops then
        self-sustain."""
        self._begin()
        for conn_id in range(self.connections):
            conn = _Connection(self, conn_id)
            self._conns.append(conn)
            if stagger_ns:
                self.host.sim.schedule(conn_id * stagger_ns, self._open, conn)
            else:
                self._open(conn)
        return self

    def _begin(self):
        sim = self.host.sim
        self.started_at = sim.now
        self.stop_at = sim.now + self.warmup_ns + self.duration_ns
        self.stats.measure_start = sim.now + self.warmup_ns
        self.stats.measure_end = self.stop_at

    def run(self):
        """Start (if needed) and run the simulator until all loops stop."""
        if self.started_at is None:
            self.start()
        # Loops stop by themselves at stop_at; allow trailing ACK traffic.
        self.host.sim.run(until=self.stop_at + ACK_GRACE_NS)
        return self.stats

    def stalled(self):
        """Channels still awaiting a reply (liveness oracles, at idle)."""
        return sum(1 for conn in self._conns
                   if conn.op is not None and not conn.stopped)

    # -- transport: one persistent TCP connection per channel -----------------

    def _open(self, conn):
        conn.core = self.host.cpus.assign()
        self.host.process_on_core(conn.core,
                                  lambda ctx: self._connect(conn, ctx))

    def _connect(self, conn, ctx):
        sock = conn.sock = self.host.stack.connect(
            self.server_ip, self.port, ctx, core=conn.core
        )
        sock.on_established = conn._established
        sock.on_reset = lambda s: self._reset(conn)

    def _fire(self, conn, request, ctx):
        """Put ``request`` on the wire within the current slice."""
        self.costs.charge_http_build(ctx)
        conn.sock.send(request, ctx)
        if conn.started is None:
            self.host.call_at_completion(conn._mark_sent)

    # -- pacing: closed loop --------------------------------------------------

    def _established(self, conn, ctx):
        self._free(conn, ctx)

    def _replied(self, conn, ctx):
        self._free(conn, ctx)

    def _free(self, conn, ctx):
        """Issue ``conn``'s next op within this slice, or end its loop."""
        if conn.stopped or self.host.sim.now >= self.stop_at:
            conn.stopped = True
            return
        request = self.next_request(conn)
        if request is None:
            # The traffic source is exhausted (finite workloads, replay,
            # storm bursts): hang up like a real client.
            conn.stopped = True
            if conn.sock is not None:
                conn.sock.close(ctx)
            return
        conn.sent += 1
        conn.attempt = 0
        conn.started = None
        self.stats.issue(conn.op)
        self._fire(conn, request, ctx)

    def _reset(self, conn):
        conn.stopped = True
        conn.parser.reset()
        self.stats.connection_reset()

    # -- ledger ---------------------------------------------------------------

    def _record(self, started, finished, status, rpc_id=None):
        rtt_ns = self.stats.record(started, finished, status)
        recorder = self.host.recorder
        if rtt_ns is not None and recorder is not None:
            verdict = "error" if (status is not None and status >= 500) \
                else "ok"
            recorder.client_request(self.protocol, verdict, rtt_ns,
                                    rpc_id=rpc_id)

    def __repr__(self):
        return f"<WrkClient {self.connections} conns {self.method} {self.value_size}B>"


class HomaWrkClient(WrkClient):
    """The request driver over the Homa-like transport (§5.2).

    Each op is one Homa RPC — no connections, no handshake,
    receiver-driven flow control; ``connections`` means independent
    loops.  ``route``, when given, is a callable ``key -> server_ip``
    consulted per attempt — that's how the cluster benchmark and the
    kill storm shard one workload across hosts.

    With ``watchdog_ns`` set, an attempt that gets no reply within it,
    or that the transport gives up on, is over: the op is resent (same
    key and value, re-routed) up to ``attempts`` attempts in all, then
    abandoned.  That mode needs an :class:`AckLedger`, which counts the
    timeouts, give-ups, retries and abandoned ops.
    """

    protocol = "homa"

    def __init__(self, host, server_ip, port=80, connections=1,
                 value_size=1024, method="PUT", key_space=1000,
                 duration_ns=20_000_000.0, warmup_ns=5_000_000.0,
                 key_prefix="key", route=None, workload=None, ledger=None,
                 watchdog_ns=None, attempts=1):
        super().__init__(host, server_ip, port, connections, value_size,
                         method, key_space, duration_ns, warmup_ns,
                         key_prefix, workload, ledger)
        self.transport = host.enable_homa()
        self.route = route
        self.watchdog_ns = watchdog_ns
        self.attempts = attempts

    def _connect(self, conn, ctx):
        self._established(conn, ctx)

    def _fire(self, conn, request, ctx):
        token = conn.token = (conn.sent, conn.attempt)
        dst_ip = self.server_ip if self.route is None \
            else self.route(conn.op[1])
        self.costs.charge_http_build(ctx)
        self.costs.charge_sock_send(ctx)

        def on_reply(segments, reply_ctx):
            if conn.token != token:
                return  # the watchdog already moved on; late duplicate
            conn.token = None
            op, conn.op = conn.op, None
            status = None
            # Parse (and charge) the response like wrk would.
            parser = HttpParser(is_response=True)
            for segment in segments:
                for message in parser.feed(segment, reply_ctx, self.costs):
                    status = message.status
                    self.stats.reply(op, message, rpc_id, dst_ip)
                    message.release()
            parser.reset()
            started = conn.started
            self.host.call_at_completion(
                lambda t_end, c:
                    self._done(conn, started, t_end, status, rpc_id)
            )

        on_giveup = None if self.watchdog_ns is None else \
            (lambda _rpc_id: self._expire(conn, token, dst_ip, True))
        rpc_id = self.transport.send_request(
            dst_ip, self.port, request, ctx, on_reply=on_reply,
            on_giveup=on_giveup,
        )
        if conn.started is None:
            # A lambda, not the bound method: the golden event digests
            # (repro.bench.golden) hash each fired hook's qualname.
            self.host.call_at_completion(
                lambda t_end, c: conn._mark_sent(t_end, c)
            )
        if self.watchdog_ns is not None:
            self.host.sim.schedule(self.watchdog_ns, self._expire, conn,
                                   token, dst_ip, False)

    def _done(self, conn, started, finished, status, rpc_id):
        # RTT is first-send -> reply (started is set once per op), so a
        # retransmitted or retried RPC contributes ONE sample; the
        # span's retransmit count carries the retry attribution.
        self._record(started, finished, status, rpc_id)
        core = self.host.cpus.assign()
        self.host.process_on_core(core, lambda ctx: self._replied(conn, ctx))

    def _expire(self, conn, token, dst_ip, gave_up):
        if conn.token != token:
            return
        conn.token = None
        self.stats.attempt_failed(dst_ip, gave_up)
        self.host.process_on_core(conn.core,
                                  lambda ctx: self._retry(conn, ctx))

    def _retry(self, conn, ctx):
        conn.attempt += 1
        if conn.attempt < self.attempts:
            self.stats.retries += 1
            self._fire(conn, _op_to_request(conn.op), ctx)
            return
        self.stats.abandoned += 1
        conn.op = None
        self._replied(conn, ctx)


class OpenLoopWrkClient(WrkClient):
    """Open-loop load over a bounded socket pool (docs/WORKLOADS.md).

    ``source`` is an :class:`~repro.bench.openloop.OpenLoopSource`;
    its arrival clock drives everything.  At each arrival the request
    is stamped with its scheduled time, then:

    - an idle pooled socket sends it immediately;
    - if the arrival is marked ``new_connection`` (churn), one pooled
      socket is retired and a **fresh connection** — three-way
      handshake and all — carries the request;
    - otherwise it queues in the client-side backlog until a socket
      frees up.  Backlog wait is *included in the RTT*: that is the
      coordinated-omission honesty this client exists for.

    Arrivals stop at the end of the measurement window; whatever is
    still queued then is counted (``backlog_at_stop``) and dropped,
    in-flight requests drain, and every socket closes so leak oracles
    can compare pools against store ownership.
    """

    def __init__(self, host, server_ip, source, port=80, sockets=32,
                 duration_ns=20_000_000.0, warmup_ns=5_000_000.0,
                 drain_grace_ns=10_000_000.0, max_backlog=None):
        if sockets < 1:
            raise ValueError("need at least one pooled socket")
        super().__init__(host, server_ip, port=port, connections=sockets,
                         duration_ns=duration_ns, warmup_ns=warmup_ns,
                         workload=source, ledger=OpenLoopStats())
        self.source = source
        self.sockets = sockets
        self.drain_grace_ns = drain_grace_ns
        self.max_backlog = max_backlog
        self.use_after_close = 0
        self.inflight = 0
        self._idle = []
        self._backlog = deque()
        self._next_conn_id = 0

    # -- introspection (soak gauges read these) -------------------------------

    @property
    def backlog(self):
        return len(self._backlog)

    @property
    def open_sockets(self):
        return len(self._conns)

    # -- lifecycle ------------------------------------------------------------

    def start(self):
        self._begin()
        for _ in range(self.sockets):
            self._spawn_conn()
        self._schedule_next_arrival(self.host.sim.now)
        return self

    def run(self, max_events=50_000_000):
        if self.started_at is None:
            self.start()
        sim = self.host.sim
        sim.run(until=self.stop_at)
        # Clients hang up at the end of the window: queued-but-unsent
        # arrivals are recorded, not silently replayed after the test.
        self.stats.backlog_at_stop = len(self._backlog)
        self._backlog.clear()
        sim.run(until=self.stop_at + self.drain_grace_ns,
                max_events=max_events)
        for conn in list(self._conns):
            self._retire(conn)
        # Settle FIN handshakes so pool gauges reach their resting state.
        sim.run(until=sim.now + 5_000_000.0, max_events=max_events)
        return self.stats

    def _spawn_conn(self, pending=None):
        conn = _Connection(self, self._next_conn_id)
        self._next_conn_id += 1
        if pending is not None:
            self._carry(conn, pending)
        self._conns.append(conn)
        self._open(conn)
        return conn

    def _retire(self, conn):
        """Close a pooled socket for good (churn or end of run)."""
        if conn.stopped:
            return
        conn.stopped = True
        self._forget_conn(conn)
        sock = conn.sock
        if sock is None or sock.state.value == "CLOSED":
            return
        self.host.process_on_core(sock.core, lambda c: sock.close(c))

    def _forget_conn(self, conn):
        if conn in self._conns:
            self._conns.remove(conn)
        if conn in self._idle:
            self._idle.remove(conn)

    # -- arrival plumbing -----------------------------------------------------

    def _schedule_next_arrival(self, now):
        t, arrival = self.source.next_arrival(now)
        if t >= self.stop_at:
            return  # the offered-load window is over; stop generating
        self.host.sim.at(t, self._arrival, t, arrival)

    def _arrival(self, t, arrival):
        # Chain first: the next arrival's time must never depend on how
        # long this one takes to find a socket.
        self._schedule_next_arrival(t)
        stats = self.stats
        stats.arrivals_total += 1
        if stats.measure_start <= t <= stats.measure_end:
            stats.offered += 1
        pending = (t, arrival)
        if self._idle:
            self._dispatch(self._idle.pop(), pending)
        elif self.max_backlog is not None and \
                len(self._backlog) >= self.max_backlog:
            stats.abandoned += 1
        else:
            self._backlog.append(pending)
            if len(self._backlog) > stats.backlog_peak:
                stats.backlog_peak = len(self._backlog)

    def _dispatch(self, conn, pending):
        """Put ``pending`` on the wire via ``conn`` (or a churned one).

        Runs outside any processing slice (arrival events, deferred
        churn) — sends get their own slice on the socket's core.
        """
        self.inflight += 1
        if pending[1].new_connection:
            # Churn: this logical client has no warm connection.  A
            # pooled socket is retired and a fresh one pays the real
            # handshake before the request goes out — the arrival keeps
            # its original timestamp, so connection-setup latency lands
            # in the RTT like it does for a real first-time client.
            self.stats.churns += 1
            self._retire(conn)
            self._spawn_conn(pending)
            return
        self._carry(conn, pending)
        self.host.process_on_core(conn.sock.core,
                                  lambda ctx: self._send(conn, ctx))

    @staticmethod
    def _carry(conn, pending):
        """Load an arrival: RTT runs from its *scheduled* time."""
        conn.started, arrival = pending
        conn.op = arrival.op()

    def _send(self, conn, ctx):
        """Issue the carried arrival inside the current slice."""
        if conn.stopped:
            # Never legal: a churned-away socket got work.  Count it
            # (the invariant tests read this) and refuse loudly.
            self.use_after_close += 1
            raise RuntimeError(
                f"open-loop conn {conn.conn_id} used after close"
            )
        self._fire(conn, _op_to_request(conn.op), ctx)

    # -- pacing: open loop ----------------------------------------------------

    def _established(self, conn, ctx):
        self.stats.handshakes += 1
        if conn.op is not None:
            self._send(conn, ctx)   # the churned arrival it was opened for
        else:
            self._free(conn, ctx)

    def _replied(self, conn, ctx):
        self.inflight -= 1
        self._free(conn, ctx)

    def _free(self, conn, ctx):
        """A pooled socket came free: the oldest queued arrival goes
        next, else the socket idles."""
        if conn.stopped:
            return
        if not self._backlog:
            if conn not in self._idle:
                self._idle.append(conn)
            return
        pending = self._backlog.popleft()
        if pending[1].new_connection:
            # Churn retires sockets — never from inside this slice;
            # re-dispatch as a fresh event.
            self.host.sim.schedule(
                0.0, lambda c=conn, p=pending: self._dispatch(c, p)
            )
            return
        self.inflight += 1
        self._carry(conn, pending)
        self._send(conn, ctx)

    def _reset(self, conn):
        self.stats.resets += 1
        if conn.op is not None:
            conn.op = None
            self.inflight -= 1
            self.stats.errors += 1
        conn.stopped = True
        self._forget_conn(conn)
        if self.host.sim.now < self.stop_at:
            self._spawn_conn()  # keep the pool at size

    def __repr__(self):
        return (
            f"<OpenLoopWrkClient {self.source.rate_rps:.0f} rps over "
            f"{self.sockets} sockets>"
        )
