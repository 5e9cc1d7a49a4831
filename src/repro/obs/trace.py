"""Span-based request tracing and the live recorder.

The bench harness produces Table 1 *offline*: run a workload, divide
``host.accounting`` by the request count.  The :class:`Recorder` makes
the same attribution **live**: hosts, the fabric and the KV dispatch
layer call nullable hooks on their hot paths, and the recorder folds
every charge into a :class:`~repro.obs.registry.MetricsRegistry` —
per-stage totals (the paper's networking / data-management /
persistence classes, see :mod:`repro.obs.stages`), per-category
totals, per-request spans in a fixed-size ring buffer for post-mortem,
and callback gauges over queue depth, utilisation, pools and
connections.

Overhead discipline (the tentpole requirement):

- **Disabled is free.**  Every hook site is guarded by
  ``if recorder is not None`` — one attribute load and branch, zero
  allocation, zero metric samples.
- **Enabled is cheap.**  A slice record is one walk over the context's
  category dict (a handful of keys) against cached counter handles; a
  request span is the same walk plus one ring append.  Gauges are
  callback-backed, so keeping them "current" costs nothing between
  snapshots.

Request spans use consumed-prefix attribution: within one
run-to-completion slice, the charges accumulated *before* the dispatch
layer sees a request (driver/IP/TCP receive, HTTP parse) belong to
that request; the recorder tracks how much of the context each span
has consumed, so back-to-back requests in one slice split the slice
correctly and response transmission lands in the span that sent it.

**Span links** (Homa retransmissions): a sender-timeout retransmit of
a Homa message is the *same logical request* trying again.  The
transport reports every send attempt through nullable hooks, and the
recorder threads one chain per RPC id through the ring — each
retransmit becomes a zero-cost ``homa.rtx.*`` span linked to its
predecessor, the server's handler span joins the chain with the
retransmit count, and the client's completion span closes it with the
RTT measured from the *first* attempt (so retries never double-count
RTT or Table-1 stage totals: one logical request, one handler span,
one RTT sample).
"""

from collections import deque

from repro.obs.registry import MetricsRegistry
from repro.obs.stages import STAGE_OF, STAGES, classify
from repro.obs.tdigest import TDigest, merged

#: Ring-buffer capacity when the caller does not choose one.
DEFAULT_TRACE_CAPACITY = 1024

#: RPC chains remembered for span linking before the oldest quarter is
#: evicted (mirrors the transport's completed-RPC dedup memory).
RPC_CHAIN_MEMORY = 65536


def _negative(name, amount):
    """Raise what :meth:`Counter.inc` raises for a negative amount."""
    raise ValueError(f"counter {name}: negative increment {amount}")


class Span:
    """One request's lifecycle: stage-classed cost plus identity.

    ``span_id`` is unique per recorder; ``links`` names predecessor
    span ids in the same logical-request chain (Homa retransmissions),
    ``rpc_id``/``attempt``/``retransmits`` carry the chain identity —
    ``None``/0/() for plain unlinked spans.
    """

    __slots__ = ("kind", "status", "core", "t_end", "total_ns", "stages",
                 "span_id", "rpc_id", "attempt", "retransmits", "links")

    def __init__(self, kind, status, core, t_end, total_ns, stages,
                 span_id=0, rpc_id=None, attempt=0, retransmits=0, links=()):
        self.kind = kind
        self.status = status
        self.core = core
        self.t_end = t_end
        self.total_ns = total_ns
        self.stages = stages
        self.span_id = span_id
        self.rpc_id = rpc_id
        self.attempt = attempt
        self.retransmits = retransmits
        self.links = tuple(links)

    def as_dict(self):
        return {
            "kind": self.kind,
            "status": self.status,
            "core": self.core,
            "t_end_ns": self.t_end,
            "total_ns": self.total_ns,
            "stages": dict(self.stages),
            "span_id": self.span_id,
            "rpc_id": self.rpc_id,
            "attempt": self.attempt,
            "retransmits": self.retransmits,
            "links": list(self.links),
        }

    def __repr__(self):
        linked = f" rpc={self.rpc_id}" if self.rpc_id is not None else ""
        return (
            f"<Span {self.kind} {self.status} core={self.core} "
            f"total={self.total_ns:.0f}ns{linked}>"
        )


class TraceRing:
    """Fixed-capacity ring of completed spans (oldest evicted first)."""

    def __init__(self, capacity=DEFAULT_TRACE_CAPACITY):
        if capacity < 1:
            raise ValueError("trace ring needs capacity >= 1")
        self.capacity = capacity
        self._spans = deque(maxlen=capacity)
        self.appended = 0

    def append(self, span):
        self._spans.append(span)
        self.appended += 1

    def __len__(self):
        return len(self._spans)

    def __iter__(self):
        return iter(self._spans)

    @property
    def dropped(self):
        return max(0, self.appended - self.capacity)

    def spans(self, last=None):
        items = list(self._spans)
        return items if last is None else items[-last:]

    def dump(self, last=None):
        """JSON-ready list of the newest ``last`` spans (all by default)."""
        return [span.as_dict() for span in self.spans(last)]

    def clear(self):
        self._spans.clear()
        self.appended = 0


class _HostHandles:
    """Cached per-host counter handles so slice recording is dict-walk cheap."""

    __slots__ = ("role", "stage", "category", "slices", "slice_ns")

    def __init__(self, registry, role):
        self.role = role
        self.stage = {s: registry.counter(f"{role}.stage.{s}_ns") for s in STAGES}
        #: category -> (its counter, its stage's counter), made on the
        #: category's first nonzero charge.
        self.category = {}
        self.slices = registry.counter(f"{role}.slices")
        self.slice_ns = registry.counter(f"{role}.slice_ns")


class Recorder:
    """The live observability hub: hosts/fabric/servers report into it.

    Construct one (optionally around an existing registry), then attach
    the pieces of the world it should watch::

        recorder = Recorder(sim=testbed.sim)
        recorder.attach_host(testbed.server, "server")
        recorder.attach_host(testbed.client, "client")
        recorder.attach_fabric(testbed.fabric)
        recorder.attach_server(testbed.kv)          # request spans + kv stats
        recorder.attach_overload(controller)        # shed/reclaim/degrade

    ``repro.storage.serve`` does all of this when its config enables
    metrics.  Everything lands in :attr:`registry`; completed request
    spans additionally land in :attr:`ring`.
    """

    def __init__(self, sim=None, registry=None, trace_capacity=DEFAULT_TRACE_CAPACITY):
        self.sim = sim
        self.registry = registry if registry is not None else MetricsRegistry(sim)
        if self.registry.sim is None and sim is not None:
            self.registry.sim = sim
        self.ring = TraceRing(trace_capacity)
        self._hosts = {}          # host -> _HostHandles
        self._busy_baseline = {}  # (host, core_index) -> busy_ns at window start
        # Request-span consumed-prefix state (single in-flight slice:
        # the simulator is sequential, so one cursor suffices).
        self._span_ctx = None
        self._span_consumed = {}
        self._span_elapsed = 0.0
        # Span-link state: one chain per Homa RPC id, fed by transport
        # hooks; insertion-ordered so eviction drops the oldest.
        self._span_seq = 0
        self._rpc_chains = {}
        # Per-core request-latency digests; merged on demand into the
        # server-wide quantile view (the multicore aggregation path).
        self._core_digests = {}
        # Cached hot-path handles (created lazily on first use).
        self._wire_ns = self.registry.counter("fabric.wire_ns")
        self._wire_frames = self.registry.counter("fabric.wire_frames")
        self._requests = self.registry.counter("server.requests")
        self._request_ns = self.registry.histogram("server.request_ns")
        self._request_stage = {
            s: self.registry.counter(f"server.request.stage.{s}_ns") for s in STAGES
        }
        self._kind_counters = {}
        self._status_counters = {}
        # Eager, not lazy: the snapshot schema must not change shape
        # mid-run when the first client span lands (--watch compares
        # periodic snapshots against the final one key-for-key).
        self._client_requests = self.registry.counter("client.requests")
        self._client_rtt = self.registry.histogram("client.rtt_ns")

    # -- attachment ------------------------------------------------------------

    def attach_host(self, host, role=None):
        """Watch a host: slice recording plus core/pool/stack gauges."""
        role = role or host.name
        if host in self._hosts:
            return self
        if self.sim is None:
            self.sim = host.sim
            if self.registry.sim is None:
                self.registry.sim = host.sim
        self._hosts[host] = _HostHandles(self.registry, role)
        host.recorder = self
        registry = self.registry
        sim = host.sim
        for core in host.cpus.cores:
            key = (host, core.index)
            self._busy_baseline[key] = core.busy_time
            prefix = f"{role}.core{core.index}"
            registry.gauge(f"{prefix}.busy_ns",
                           fn=lambda c=core: c.busy_time)
            registry.gauge(f"{prefix}.queue_ns",
                           fn=lambda c=core, s=sim: c.queue_delay(s.now))
            registry.gauge(f"{prefix}.work_items",
                           fn=lambda c=core: float(c.work_items))
            registry.gauge(
                f"{prefix}.utilisation",
                fn=lambda c=core, k=key: self._utilisation(c, k),
            )
        registry.gauge(f"{role}.connections",
                       fn=lambda stack=host.stack: float(stack.connection_count()))
        if host.homa is not None:
            self.attach_transport(host.homa, role)
        for pool_name, pool in (("rx_pool", host.rx_pool), ("tx_pool", host.tx_pool)):
            prefix = f"{role}.{pool_name}"
            registry.gauge(f"{prefix}.in_use",
                           fn=lambda p=pool: float(p.in_use))
            registry.gauge(f"{prefix}.slots",
                           fn=lambda p=pool: float(p.nslots))
            registry.gauge(f"{prefix}.occupancy",
                           fn=lambda p=pool: p.occupancy)
        return self

    def _utilisation(self, core, key):
        window = self.registry.window_ns
        if window <= 0:
            return 0.0
        busy = core.busy_time - self._busy_baseline.get(key, 0.0)
        return min(1.0, max(0.0, busy / window))

    def attach_fabric(self, fabric):
        """Watch the fabric: per-frame wire time (queue + links + switch)."""
        fabric.recorder = self
        self.registry.gauge("fabric.frames",
                            fn=lambda f=fabric: float(f.frames))
        self.registry.gauge("fabric.bytes",
                            fn=lambda f=fabric: float(f.bytes))
        return self

    def attach_server(self, kv, role="server"):
        """Watch a KV front-end: request spans plus its stats dict."""
        kv.recorder = self
        self._stat_gauges(f"{role}.kv", kv.stats)
        return self

    def attach_engine(self, engine, role="engine"):
        """Ownership gauges over a packet-native store, if the engine
        has one: how many rx slots the store owns and how many
        references it holds — the counts the chaos leak oracles compare
        against the pool gauges instead of walking store internals."""
        store = getattr(engine, "store", None)
        if store is None:
            return self
        if hasattr(store, "_buffers"):
            self.registry.gauge(
                f"{role}.store.owned",
                fn=lambda s=store: float(len(s._buffers)),
            )
        if hasattr(store, "_refs"):
            self.registry.gauge(
                f"{role}.store.held_refs",
                fn=lambda s=store: float(
                    sum(len(refs) for refs in s._refs.values())
                ),
            )
        return self

    def attach_overload(self, controller, role="overload"):
        """Surface shed/reclaim/degrade decisions as snapshot values."""
        self._stat_gauges(role, controller.stats)
        self.registry.gauge(
            f"{role}.under_pressure",
            fn=lambda c=controller: 1.0 if c.under_pressure else 0.0,
        )
        return self

    def attach_openloop(self, client, role="openloop"):
        """Watch an open-loop load client: offered-load-side gauges.

        The server-side metrics say how the system copes; these say
        what it is being *asked* to cope with — offered rate,
        client-side backlog (requests that have arrived but found
        no free pooled socket), in-flight count, and the churn /
        handshake totals.  ``repro-stats --openloop --watch`` streams
        them next to the admission counters so the knee is visible
        live.
        """
        registry = self.registry
        registry.gauge(f"{role}.rate_rps",
                       fn=lambda c=client: float(c.source.rate_rps))
        registry.gauge(f"{role}.backlog",
                       fn=lambda c=client: float(c.backlog))
        registry.gauge(f"{role}.inflight",
                       fn=lambda c=client: float(c.inflight))
        registry.gauge(f"{role}.sockets",
                       fn=lambda c=client: float(c.open_sockets))
        registry.gauge(f"{role}.arrivals",
                       fn=lambda c=client: float(c.stats.arrivals_total))
        registry.gauge(f"{role}.admitted",
                       fn=lambda c=client: float(c.stats.admitted))
        registry.gauge(f"{role}.shed",
                       fn=lambda c=client: float(c.stats.shed))
        registry.gauge(f"{role}.churns",
                       fn=lambda c=client: float(c.stats.churns))
        registry.gauge(f"{role}.handshakes",
                       fn=lambda c=client: float(c.stats.handshakes))
        return self

    def attach_transport(self, transport, role=None):
        """Watch a Homa transport: send attempts, retransmit span links.

        Called automatically by :meth:`attach_host` (and by
        ``Host.enable_homa``) once both the host and its transport
        exist, whichever happens second.
        """
        if transport.recorder is self:
            return self
        transport.recorder = self
        if role is None:
            handles = self._hosts.get(transport.host)
            role = handles.role if handles is not None else transport.host.name
        self._stat_gauges(f"{role}.homa", transport.stats)
        for direction in ("request", "reply"):
            self.registry.counter(f"homa.rtx.{direction}")
            self.registry.counter(f"homa.giveup.{direction}")
        self.registry.counter("server.rpc.double_dispatch")
        return self

    def attach_replicator(self, replicator, role="repl"):
        """Watch a primary-side replicator: ack tracking + lag gauges.

        ``<role>.lag_ns`` is the last ack-tracked replication delay
        (first forward → backup ack) and ``<role>.lag_ns_max`` the
        worst observed; ``<role>.pending`` counts puts still waiting on
        a backup ack.  The counters surface every degradation decision.
        """
        replicator.recorder = self
        self._stat_gauges(role, replicator.stats)
        self.registry.gauge(
            f"{role}.pending",
            fn=lambda r=replicator: float(r.pending),
        )
        self.registry.gauge(
            f"{role}.suspect_backups",
            fn=lambda r=replicator: float(len(r.suspect)),
        )
        return self

    def attach_applier(self, applier, role="repl.apply"):
        """Watch a backup-side replication applier: apply/dedup counts."""
        self._stat_gauges(role, applier.stats)
        return self

    def _stat_gauges(self, prefix, stats):
        """One gauge ``<prefix>.<key>`` per key of a live ``stats`` dict."""
        for key in stats:
            self.registry.gauge(
                f"{prefix}.{key}",
                fn=lambda k=key: float(stats.get(k, 0)),
            )

    # -- span-link chains (Homa retransmissions) -------------------------------

    def _next_span_id(self):
        self._span_seq += 1
        return self._span_seq

    def _chain(self, rpc_id):
        chain = self._rpc_chains.get(rpc_id)
        if chain is None:
            chain = {
                "last_span_id": None,
                "server_spans": 0,
                "client_spans": 0,
                "delivered": set(),
                "gave_up": set(),
                "request": {"attempts": 0, "retransmits": 0,
                            "first_ns": None, "last_ns": None},
                "reply": {"attempts": 0, "retransmits": 0,
                          "first_ns": None, "last_ns": None},
                # Cross-host stitching: a replication RPC carrying this
                # request to another host is a child chain of this one.
                "parent": None,
                "children": [],
            }
            self._rpc_chains[rpc_id] = chain
            if len(self._rpc_chains) > RPC_CHAIN_MEMORY:
                for old in list(self._rpc_chains)[:RPC_CHAIN_MEMORY // 4]:
                    del self._rpc_chains[old]
        return chain

    def chain(self, rpc_id):
        """Read-only view of one RPC's link state (None if unknown)."""
        return self._rpc_chains.get(rpc_id)

    def chains(self):
        """{rpc_id: chain-state} for every RPC the transports reported."""
        return dict(self._rpc_chains)

    def link_rpc(self, parent_rpc_id, child_rpc_id):
        """Stitch ``child_rpc_id`` under ``parent_rpc_id``'s chain.

        Used across hosts: a primary forwarding a client request to its
        backup links the replication RPC's chain to the origin request's
        chain, so the whole multi-hop request is *one* trace — the
        client span, the primary's handler span, every retransmission,
        the replication hop(s), and the backup's apply span.
        """
        if parent_rpc_id == child_rpc_id:
            return
        child = self._chain(child_rpc_id)
        if child["parent"] is not None:
            return  # already stitched (replication retries reuse ids)
        child["parent"] = parent_rpc_id
        parent = self._chain(parent_rpc_id)
        parent["children"].append(child_rpc_id)

    def stitched(self, rpc_id):
        """Every RPC id in the trace containing ``rpc_id``, root first.

        Walks to the root of the parent links, then breadth-first over
        children.  A plain single-host RPC comes back as ``[rpc_id]``.
        """
        seen = set()
        root = rpc_id
        while True:
            chain = self._rpc_chains.get(root)
            if chain is None or chain["parent"] is None or \
                    chain["parent"] in seen:
                break
            seen.add(root)
            root = chain["parent"]
        ordered = []
        frontier = [root]
        visited = set()
        while frontier:
            current = frontier.pop(0)
            if current in visited:
                continue
            visited.add(current)
            ordered.append(current)
            chain = self._rpc_chains.get(current)
            if chain is not None:
                frontier.extend(chain["children"])
        return ordered

    def homa_send(self, rpc_id, direction, retransmit, core=-1):
        """One send attempt of a Homa message (original or retransmit).

        Originals only update chain state (the eventual handler/client
        span represents them); a retransmit additionally appends a
        zero-cost ``homa.rtx.<direction>`` span linked to the chain's
        previous span, so the retry is *visible* without double-counting
        any stage cost or RTT.
        """
        now = self.sim.now if self.sim is not None else 0.0
        chain = self._chain(rpc_id)
        side = chain[direction]
        side["attempts"] += 1
        if side["first_ns"] is None:
            side["first_ns"] = now
        side["last_ns"] = now
        if not retransmit:
            return
        side["retransmits"] += 1
        self.registry.counter(f"homa.rtx.{direction}").inc()
        span_id = self._next_span_id()
        links = () if chain["last_span_id"] is None \
            else (chain["last_span_id"],)
        self.ring.append(Span(
            kind=f"homa.rtx.{direction}", status="rtx", core=core,
            t_end=now, total_ns=0.0, stages={},
            span_id=span_id, rpc_id=rpc_id, attempt=side["attempts"] - 1,
            retransmits=side["retransmits"], links=links,
        ))
        chain["last_span_id"] = span_id

    def homa_delivered(self, rpc_id, direction):
        """The receiver completed reassembly of one direction's message."""
        self._chain(rpc_id)["delivered"].add(direction)

    def homa_give_up(self, rpc_id, direction, core=-1):
        """The sender abandoned the message after MAX_SEND_RETRIES: close
        the chain with a terminal span so no retransmit span is orphaned."""
        now = self.sim.now if self.sim is not None else 0.0
        chain = self._chain(rpc_id)
        chain["gave_up"].add(direction)
        self.registry.counter(f"homa.giveup.{direction}").inc()
        span_id = self._next_span_id()
        links = () if chain["last_span_id"] is None \
            else (chain["last_span_id"],)
        self.ring.append(Span(
            kind=f"homa.giveup.{direction}", status="giveup", core=core,
            t_end=now, total_ns=0.0, stages={},
            span_id=span_id, rpc_id=rpc_id,
            attempt=chain[direction]["attempts"],
            retransmits=chain[direction]["retransmits"], links=links,
        ))
        chain["last_span_id"] = span_id

    # -- hot-path hooks --------------------------------------------------------

    def record_slice(self, host, core, ctx, t_end):
        """Fold one completed processing slice into ``host.accounting``
        and the registry.

        One pass over the slice's charges does both: the accounting
        sums exactly as :meth:`ExecutionContext.merge` would (a slice's
        context keeps no charge trace), and each nonzero charge goes to
        its category's and its stage's counter, with the check on
        negative amounts that :meth:`Counter.inc` makes.
        """
        accounting = host.accounting
        handles = self._hosts.get(host)
        if handles is None:
            accounting.merge(ctx)
            return
        elapsed = ctx.elapsed
        accounting.elapsed += elapsed
        handles.slices.value += 1.0
        if elapsed <= 0:
            if elapsed < 0:
                _negative(handles.slice_ns.name, elapsed)
        else:
            handles.slice_ns.value += elapsed
        totals = accounting.by_category
        pairs = handles.category
        for category, ns in ctx.by_category.items():
            totals[category] = totals.get(category, 0.0) + ns
            if ns <= 0:
                if ns < 0:
                    _negative(f"{handles.role}.cat.{category}_ns", ns)
                continue
            pair = pairs.get(category)
            if pair is None:
                pair = pairs[category] = (
                    self.registry.counter(f"{handles.role}.cat.{category}_ns"),
                    handles.stage[classify(category)],
                )
            counter, stage_counter = pair
            counter.value += ns
            stage_counter.value += ns

    def record_wire(self, ns):
        """One frame's time on the wire (serialisation + queueing + hops)."""
        if ns < 0:
            _negative(self._wire_ns.name, ns)
        self._wire_frames.value += 1.0
        self._wire_ns.value += ns

    def request_begin(self, ctx):
        """Mark the dispatch layer picking up a request in ``ctx``.

        Charges already in the context but not consumed by an earlier
        span in the same slice (the receive/parse prefix) will belong
        to this request.
        """
        if ctx is not self._span_ctx:
            self._span_ctx = ctx
            self._span_consumed = {}
            self._span_elapsed = 0.0

    def request_end(self, kind, status, core, ctx, rpc_id=None):
        """Close the current request span and record it.

        ``rpc_id`` (Homa) joins the span into its RPC's link chain: the
        span links to the newest retransmit span of the same logical
        request and carries the request-direction retransmit count, and
        a second handler span for the same RPC — a dedup failure —
        increments ``server.rpc.double_dispatch`` instead of passing
        silently.
        """
        if ctx is not self._span_ctx:
            # begin was never called for this slice; attribute the
            # whole context to the span rather than dropping it.
            self._span_consumed = {}
            self._span_elapsed = 0.0
        consumed = self._span_consumed
        stages = dict.fromkeys(STAGES, 0.0)
        for category, ns in ctx.by_category.items():
            delta = ns - consumed.get(category, 0.0)
            if delta > 0:
                stages[STAGE_OF.get(category) or classify(category)] += delta
        total_ns = max(0.0, ctx.elapsed - self._span_elapsed)
        self._span_ctx = ctx
        self._span_consumed = dict(ctx.by_category)
        self._span_elapsed = ctx.elapsed
        t_end = self.sim.now if self.sim is not None else 0.0
        span_id = self._next_span_id()
        retransmits = 0
        links = ()
        if rpc_id is not None:
            chain = self._chain(rpc_id)
            if chain["last_span_id"] is not None:
                links = (chain["last_span_id"],)
            retransmits = chain["request"]["retransmits"]
            chain["server_spans"] += 1
            chain["last_span_id"] = span_id
            if chain["server_spans"] > 1:
                # One logical request ran the handler twice: the stage
                # totals above were double-charged.  Surface it.
                self.registry.counter("server.rpc.double_dispatch").inc()
        self.ring.append(Span(kind, status, core, t_end, total_ns, stages,
                              span_id=span_id, rpc_id=rpc_id,
                              retransmits=retransmits, links=links))
        self._requests.value += 1.0
        self._request_ns.observe(total_ns)
        core_digest = self._core_digests.get(core)
        if core_digest is None:
            core_digest = TDigest()
            self._core_digests[core] = core_digest
        core_digest.add(total_ns)
        request_stage = self._request_stage
        for stage, ns in stages.items():
            if ns <= 0:
                if ns < 0:
                    _negative(request_stage[stage].name, ns)
                continue
            request_stage[stage].value += ns
        kind_counter = self._kind_counters.get(kind)
        if kind_counter is None:
            kind_counter = self.registry.counter(f"server.requests.{kind}")
            self._kind_counters[kind] = kind_counter
        kind_counter.value += 1.0
        status_counter = self._status_counters.get(status)
        if status_counter is None:
            status_counter = self.registry.counter(f"server.status.{status}")
            self._status_counters[status] = status_counter
        status_counter.value += 1.0

    def client_request(self, kind, status, rtt_ns, core=-1, rpc_id=None):
        """Client-side attribution: one completed request as the load
        generator saw it.  The RTT is measured from the *first* send
        attempt to the reply, so a retransmitted RPC contributes one
        sample (with its retry waits included and its retransmit count
        on the span) — never one sample per attempt.
        """
        self._client_requests.value += 1.0
        self._client_rtt.observe(rtt_ns)
        t_end = self.sim.now if self.sim is not None else 0.0
        span_id = self._next_span_id()
        retransmits = 0
        links = ()
        if rpc_id is not None:
            chain = self._chain(rpc_id)
            if chain["last_span_id"] is not None:
                links = (chain["last_span_id"],)
            retransmits = (chain["request"]["retransmits"]
                           + chain["reply"]["retransmits"])
            chain["client_spans"] += 1
            chain["last_span_id"] = span_id
        self.ring.append(Span(
            kind=f"client.{kind}", status=status, core=core, t_end=t_end,
            total_ns=rtt_ns, stages={}, span_id=span_id, rpc_id=rpc_id,
            retransmits=retransmits, links=links,
        ))

    # -- derived views ---------------------------------------------------------

    def request_digest(self):
        """Server-wide request-latency digest: the per-core digests
        merged into one (the multicore aggregation path; equals the
        ``server.request_ns`` histogram's own digest within the bound)."""
        return merged(self._core_digests.values())

    def request_quantile(self, q):
        """Percentile-exact service-time quantile across every core."""
        return self.request_digest().quantile(q)

    def reset(self):
        """Zero the registry and re-anchor utilisation windows."""
        self.registry.reset()
        self.ring.clear()
        self._rpc_chains = {}
        self._core_digests = {}
        for (host, index), _ in list(self._busy_baseline.items()):
            self._busy_baseline[(host, index)] = host.cpus[index].busy_time

    def stage_totals(self):
        """{stage: ns} summed over every attached host."""
        totals = {stage: 0.0 for stage in STAGES}
        for handles in self._hosts.values():
            for stage, counter in handles.stage.items():
                totals[stage] += counter.value
        return totals

    def per_request(self, name, requests=None):
        """A counter's value divided by completed request spans."""
        n = requests if requests is not None else self._requests.value
        if n <= 0:
            return 0.0
        return self.registry.value(name) / n

    def table1(self, requests=None):
        """Live Table-1 view: per-request nanoseconds for every row.

        Stage classes sum over every attached host plus wire time, so
        with the whole testbed attached ``total`` approximates the
        request RTT; with only the server attached it is the server-side
        request cost.  Rows mirror :class:`repro.bench.table1.PAPER`
        (a pure-PUT workload reproduces the paper's numbers; mixed
        workloads get the same classes averaged over all requests).
        """
        n = requests if requests is not None else self._requests.value
        if n <= 0:
            return None
        totals = self.stage_totals()
        wire = self._wire_ns.value
        rows = {
            "requests": n,
            "networking": (totals["networking"] + wire) / n,
            "datamgmt": totals["datamgmt"] / n,
            "persistence": totals["persistence"] / n,
            "other": totals["other"] / n,
            "wire": wire / n,
        }
        # Data-management sub-rows, summed over attached hosts.
        for row, category in (
            ("prep", "datamgmt.prep"),
            ("checksum", "datamgmt.checksum"),
            ("copy", "datamgmt.copy"),
            ("alloc_insert", "datamgmt.insert"),
        ):
            total = 0.0
            for handles in self._hosts.values():
                pair = handles.category.get(category)
                if pair is not None:
                    total += pair[0].value
            rows[row] = total / n
        rows["total"] = (
            rows["networking"] + rows["datamgmt"]
            + rows["persistence"] + rows["other"]
        )
        return rows

    def __repr__(self):
        return (
            f"<Recorder hosts={len(self._hosts)} "
            f"requests={self._requests.value:.0f} ring={len(self.ring)}>"
        )
