"""Multi-host cluster topology: shards, replicas, failover.

``build_cluster(ClusterConfig(hosts=3))`` stands up N PASTE server
hosts — each with its own persistent-memory device, packet-native
store and Homa KV server — plus a kernel-stack client host, all on one
simulated fabric.  Keys shard across the servers by consistent hash
(:class:`~repro.cluster.hashring.HashRing`); each key's primary
forwards applied puts to its backup over Homa
(:class:`~repro.cluster.replication.Replicator`), and under
``ack_policy="sync"`` the client's 200 is *deferred* until the backup
acknowledged — a client ack means the put is durable on two hosts.

Whole-host failure is first-class: ``cluster.kill(name)`` pulls the
plug (DRAM state gone, PM survives), and ``cluster.failover(name)``
is the control-plane reaction — the dead node leaves the ring's alive
set, which *is* promotion: the route function now returns the old
backup as the key's primary.  In-flight transport state aimed at the
corpse is torn down immediately via
:meth:`~repro.net.homa.HomaTransport.abort_peer`.

The control plane itself (failure detection gossip, epoch numbers,
membership consensus) is abstracted to a shared in-process view, as a
simulation of the data plane should.  Re-replicating a promoted shard
onto a fresh backup is capture-driven: with ``capture=True`` the
fabric-wide tap records every node's delivered history, and
:func:`repro.capture.replay.reseed_from_capture` rebuilds a killed
node from packets alone and re-attaches it to the ring
(docs/CAPTURE.md).
"""

from dataclasses import dataclass, field

from repro.bench.costmodel import CostModel
from repro.bench.testbed import make_server_host
from repro.cluster.backoff import Backoff
from repro.cluster.hashring import HashRing
from repro.cluster.replication import ReplicationApplier, Replicator
from repro.net.fabric import Fabric
from repro.net.nic import NicFeatures
from repro.net.stack import Host
from repro.pm.device import PMDevice
from repro.sim.context import NULL_CONTEXT
from repro.sim.engine import Simulator
from repro.storage.kvserver import HomaKVServer, _status_of
from repro.storage.server import ServerConfig, serve

CLIENT_IP = "10.0.0.2"
CLIENT_CORES = 12

ACK_POLICIES = ("sync", "primary-only")


@dataclass
class ClusterConfig:
    """Shape of one cluster: hosts, shards, replication policy.

    ``ack_policy="sync"`` defers the client's 200 until the backup
    acknowledged the forwarded put (ack ⇒ durable on two hosts);
    ``"primary-only"`` acks after the local apply and replicates
    asynchronously.  Either way a stalled/dead backup degrades the
    node to primary-only acks after the bounded retry budget — counted
    in ``<node>.repl.degraded_acks``, never silent.
    """

    hosts: int = 3
    vnodes: int = 32
    cores: int = 1
    engine: str = "pktstore"
    ack_policy: str = "sync"
    port: int = 80
    repl_port: int = 81
    backoff: object = None          # Backoff instance; None = defaults
    metrics: bool = True
    overload: object = None
    contain_errors: bool = True
    pm_bytes: int = 96 << 20
    paste_pool_bytes: int = 8 << 20
    pool_slots: int = 2048
    client_cores: int = CLIENT_CORES
    fabric_kwargs: dict = field(default_factory=dict)
    engine_kwargs: dict = field(default_factory=dict)
    #: Record the whole fabric's delivered frame stream (repro.capture).
    #: The capture is fabric-wide — every node's rx history — so a dead
    #: node can be rebuilt from it (replay.reseed_from_capture).
    capture: bool = False
    capture_max_frames: int = None
    capture_max_bytes: int = None

    def validate(self):
        if self.hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {self.hosts}")
        for bound in ("capture_max_frames", "capture_max_bytes"):
            value = getattr(self, bound)
            if value is not None and value <= 0:
                raise ValueError(f"{bound} must be positive (or None)")
        if (self.capture_max_frames is not None or
                self.capture_max_bytes is not None) and not self.capture:
            raise ValueError(
                "capture_max_frames/capture_max_bytes need capture=True")
        if self.ack_policy not in ACK_POLICIES:
            raise ValueError(
                f"ack_policy {self.ack_policy!r} not in {ACK_POLICIES}")
        if self.repl_port == self.port:
            raise ValueError("repl_port must differ from the service port")
        if self.backoff is not None and not isinstance(self.backoff, Backoff):
            raise TypeError("backoff must be a repro.cluster.Backoff or None")
        return self


class ClusterContext:
    """What :func:`repro.storage.server.serve` needs to build a
    cluster-mode front-end: this node's identity and replication glue."""

    __slots__ = ("node_name", "replicator", "route", "peer_ips", "ack_policy")

    def __init__(self, node_name, replicator, route, peer_ips, ack_policy):
        self.node_name = node_name
        self.replicator = replicator
        self.route = route
        self.peer_ips = peer_ips
        self.ack_policy = ack_policy


class ClusterKVServer(HomaKVServer):
    """The Homa KV front-end of one cluster node.

    It parses and serves requests as the standalone Homa server does;
    only its reply differs, and only on the put path:

    - after a successful local apply of a PUT/DELETE for which this
      node is the key's primary, the *original request bytes* are
      forwarded to the key's backup (the replication stream is the
      packets — no serialization layer);
    - under ``ack_policy="sync"`` the reply to the client is deferred
      until the backup's ack (or the bounded retry budget degrades the
      node to a primary-only ack, counted);
    - requests for keys this node no longer owns are still served
      (the router may race a failover) but counted as ``misrouted``.
    """

    REPLICATED_METHODS = ("PUT", "DELETE")

    def __init__(self, host, engine, port=80, overload=None,
                 contain_errors=True, cluster_ctx=None):
        super().__init__(host, engine, port=port, overload=overload,
                         contain_errors=contain_errors)
        if cluster_ctx is None:
            raise ValueError("ClusterKVServer needs a cluster_ctx")
        self.node_name = cluster_ctx.node_name
        self.replicator = cluster_ctx.replicator
        self.route = cluster_ctx.route
        self.peer_ips = cluster_ctx.peer_ips
        self.ack_policy = cluster_ctx.ack_policy
        self.stats.update({
            "replicated_puts": 0, "repl_acked": 0, "repl_degraded": 0,
            "misrouted": 0, "deferred_replies": 0,
        })

    def _on_request(self, rpc, segments, ctx):
        # The delivered frames' bytes, kept verbatim: if this turns out
        # to be a primary-owned put, these exact bytes are forwarded to
        # the backup — the request packets are the replication stream.
        raw = b"".join(s.bytes() for s in segments)
        messages = self._parse_rpc(rpc, segments, ctx)
        core = self.transport.core_for_rpc(rpc.rpc_id).index
        # Replication forwards the whole RPC payload; a pipelined RPC
        # carrying several requests has no per-message frame boundary,
        # so only single-request RPCs replicate (the cluster client
        # always sends one request per RPC).
        if len(messages) != 1:
            raw = None
        for message in messages:
            backup = self._backup_for(message, raw)
            self._serve((rpc, message, raw, backup, core), message, core,
                        ctx, rpc.rpc_id)

    def _backup_for(self, message, raw):
        """The backup node name when this request must replicate."""
        key = (message.path or "/").split("?", 1)[0].lstrip("/").encode("utf-8")
        if self.replicator is None or raw is None or not key or \
                message.method not in self.REPLICATED_METHODS:
            return None
        route = self.route(key)
        if not route or route[0] != self.node_name:
            if route and self.node_name not in route:
                self.stats["misrouted"] += 1
            # A backup (or a misrouted node) applies locally without
            # re-forwarding; the router owns convergence.
            return None
        return route[1] if len(route) > 1 else None

    def _send_response(self, request, response, ctx):
        """Answer ``request`` — the ``(rpc, message, raw, backup, core)``
        of :meth:`_on_request` — replicating a successful primary-owned
        put to its backup first (and, under sync acks, leaving the
        answer to the backup's ack)."""
        rpc, message, raw, backup, core = request
        if backup is None or _status_of(response) != 200:
            rpc.reply(response, ctx)
            return
        self.stats["replicated_puts"] += 1
        sync = self.ack_policy == "sync"
        if sync:
            self.stats["deferred_replies"] += 1
        else:
            rpc.reply(response, ctx)
        self.replicator.replicate(
            rpc.rpc_id, raw, message.hw_tstamp, message.wire_csum,
            self.peer_ips[backup], ctx,
            self._make_on_ack(rpc, response, core, sync),
        )

    def _make_on_ack(self, rpc, response, core, sync):
        def on_ack(ok, ack_ctx):
            if ok:
                self.stats["repl_acked"] += 1
            else:
                self.stats["repl_degraded"] += 1
            if not sync:
                return
            if ack_ctx is not None:
                # The backup's ack arrived in a live rx slice; answer
                # the client from it.
                rpc.reply(response, ack_ctx)
            else:
                # Timer-driven degradation: answering needs a slice.
                self.host.process_on_core(
                    self.host.cpus[core],
                    lambda c: rpc.reply(response, c),
                )
        return on_ack


class ClusterNode:
    """One server host and everything running on it."""

    __slots__ = ("name", "ip", "host", "server", "replicator", "applier",
                 "pm_device", "pm_ns")

    def __init__(self, name, ip, host, server, replicator, applier,
                 pm_device, pm_ns):
        self.name = name
        self.ip = ip
        self.host = host
        self.server = server
        self.replicator = replicator
        self.applier = applier
        self.pm_device = pm_device
        self.pm_ns = pm_ns

    @property
    def alive(self):
        return self.host.alive

    @property
    def engine(self):
        return self.server.engine

    @property
    def kv(self):
        return self.server.kv

    def __repr__(self):
        state = "alive" if self.alive else "DEAD"
        return f"<ClusterNode {self.name} {self.ip} {state}>"


class Router:
    """Client-side routing + failure detection over the shared ring.

    ``report_failure(name)`` counts consecutive unanswered RPCs per
    node; at ``fail_threshold`` the router declares the node dead and
    triggers the cluster failover (promote backups, abort in-flight
    state).  Any success resets the count — transient loss never
    evicts a live node.
    """

    def __init__(self, cluster, fail_threshold=2):
        self.cluster = cluster
        self.fail_threshold = fail_threshold
        self._fails = {}
        self.stats = {"failures_reported": 0, "failovers_triggered": 0}

    def primary(self, key):
        return self.cluster.ring.primary(key)

    def ip_of(self, name):
        return self.cluster.nodes[name].ip

    def report_success(self, name):
        self._fails.pop(name, None)

    def report_failure(self, name):
        """Returns True when this report triggered a failover."""
        self.stats["failures_reported"] += 1
        if name not in self.cluster.ring.alive:
            return False
        count = self._fails.get(name, 0) + 1
        self._fails[name] = count
        if count < self.fail_threshold:
            return False
        self.stats["failovers_triggered"] += 1
        self.cluster.failover(name)
        return True


class Cluster:
    """Handles to the whole topology; see :func:`build_cluster`."""

    def __init__(self, config, sim, fabric, ring, nodes, client, recorder,
                 capture_tap=None):
        self.config = config
        self.sim = sim
        self.fabric = fabric
        self.ring = ring
        self.nodes = nodes          # name -> ClusterNode, ring order
        self.client = client
        self.recorder = recorder
        #: repro.capture CaptureTap over the whole fabric (None unless
        #: config.capture); feeds reseed_from_capture.
        self.capture_tap = capture_tap
        #: name -> sim time of the kill; reseed injects the dead node's
        #: pre-kill history and catches up from the survivors' after it.
        self.killed_at = {}
        self.router = Router(self)
        self.stats = {"kills": 0, "failovers": 0}
        if recorder is not None:
            for key in self.stats:
                recorder.registry.gauge(
                    f"cluster.{key}",
                    fn=lambda stats=self.stats, k=key: float(stats.get(k, 0)),
                )

    @property
    def metrics(self):
        return self.recorder.registry if self.recorder is not None else None

    def alive_nodes(self):
        return [n for n in self.nodes.values() if n.name in self.ring.alive]

    def primary_node(self, key):
        return self.nodes[self.ring.primary(key)]

    # -- failure injection + control plane ------------------------------------

    def kill(self, name):
        """Pull the plug on a host.  Detection/failover is *not*
        implied — that's the router's (or the test's) job, exactly the
        window where durability claims are earned."""
        node = self.nodes[name]
        if not node.host.alive:
            raise RuntimeError(f"{name} is already dead")
        node.host.kill()
        self.killed_at[name] = self.sim.now
        self.stats["kills"] += 1
        return node

    def failover(self, dead_name):
        """Control-plane reaction to a dead host: promote + abort.

        Removing the node from the ring's alive set *is* the
        promotion — the backup is the next alive node clockwise, so
        every shard the corpse owned now routes to its replica.  All
        survivors (and the client) immediately tear down transport
        state aimed at the corpse instead of burning the full Homa
        retry budget, and replication suspicion resets because the
        routing that produced it no longer exists.
        """
        dead = self.nodes[dead_name]
        self.ring.mark_dead(dead_name)
        self.stats["failovers"] += 1
        for node in self.alive_nodes():
            node.replicator.reset_suspicion()
            if node.host.homa is not None:
                node.host.homa.abort_peer(dead.ip)
        if self.client.homa is not None:
            self.client.homa.abort_peer(dead.ip)
        return self.nodes[dead_name]

    # -- direct store access (oracles, tests) ----------------------------------

    def read_value(self, key, ctx=NULL_CONTEXT):
        """Read ``key`` from its *current* primary's engine, no network."""
        if isinstance(key, str):
            key = key.encode("utf-8")
        return self.primary_node(key).engine.get(key, ctx)

    def __repr__(self):
        alive = len(self.ring.alive)
        return f"<Cluster {alive}/{len(self.nodes)} alive>"


def build_cluster(config=None, **overrides):
    """Build the whole topology from a :class:`ClusterConfig`."""
    if config is None:
        config = ClusterConfig(**overrides)
    elif overrides:
        raise TypeError("pass either config= or field overrides, not both")
    config.validate()

    sim = Simulator()
    fabric = Fabric(sim, **dict(config.fabric_kwargs))
    names = [f"s{i}" for i in range(config.hosts)]
    ips = {name: f"10.0.1.{i + 1}" for i, name in enumerate(names)}
    ring = HashRing(names, vnodes=config.vnodes)

    recorder = None
    if config.metrics:
        from repro.obs.trace import Recorder

        recorder = Recorder(sim=sim)

    client = Host(
        sim, "client", CLIENT_IP, fabric, CostModel.kernel(),
        cores=config.client_cores, busy_poll=False, irq_latency_ns=0.0,
        nic_features=NicFeatures(),
    )
    client.enable_homa()

    nodes = {}
    for name in names:
        nodes[name] = build_node(config, sim, fabric, name, ips[name],
                                 f"{name}-pm", ring.route, ips,
                                 recorder=recorder)

    if recorder is not None:
        recorder.attach_host(client, "client")
        recorder.attach_fabric(fabric)

    capture_tap = None
    if config.capture:
        from repro.capture.tap import CaptureTap
        from repro.net.headers import ip_to_int

        capture_tap = CaptureTap(
            fabric, max_frames=config.capture_max_frames,
            max_bytes=config.capture_max_bytes,
            meta={
                "cluster": {
                    "hosts": config.hosts, "vnodes": config.vnodes,
                    "cores": config.cores, "engine": config.engine,
                    "ack_policy": config.ack_policy, "port": config.port,
                    "repl_port": config.repl_port,
                    "pm_bytes": config.pm_bytes,
                    "paste_pool_bytes": config.paste_pool_bytes,
                    "pool_slots": config.pool_slots,
                    "engine_kwargs": dict(config.engine_kwargs),
                },
                "node_ips": {name: ip_to_int(ip)
                             for name, ip in ips.items()},
            },
        )
        if recorder is not None:
            registry = recorder.registry
            registry.gauge("cluster.capture.buffered",
                           fn=lambda t=capture_tap: float(len(t)))
            registry.gauge("cluster.capture.seen",
                           fn=lambda t=capture_tap: float(t.seen_frames))
            registry.gauge("cluster.capture.evicted",
                           fn=lambda t=capture_tap: float(t.dropped_frames))

    return Cluster(config, sim, fabric, ring, nodes, client, recorder,
                   capture_tap=capture_tap)


def build_node(config, sim, fabric, name, ip, pm_name, route, peer_ips,
               recorder=None):
    """One cluster server node of ``config`` on ``fabric``: a fresh PM
    device named ``pm_name``, the server host, its replicator, the
    cluster-mode front-end and the replication applier.  With a
    ``recorder`` every piece registers its gauges under ``name``."""
    pm_device = PMDevice(config.pm_bytes, name=pm_name)
    host, pm_ns = make_server_host(
        sim, name, ip, fabric, pm_device, cores=config.cores,
        paste_pool_bytes=config.paste_pool_bytes, pool_slots=config.pool_slots,
    )
    replicator = Replicator(
        host, config.repl_port,
        backoff=config.backoff if config.backoff is not None else Backoff(),
        recorder=recorder,
    )
    cluster_ctx = ClusterContext(
        node_name=name, replicator=replicator, route=route,
        peer_ips=peer_ips, ack_policy=config.ack_policy,
    )
    server_config = ServerConfig(
        transport="homa", engine=config.engine, port=config.port,
        cores=config.cores, contain_errors=config.contain_errors,
        overload=config.overload, engine_kwargs=dict(config.engine_kwargs),
    )
    handle = serve(host, server_config, pm_ns=pm_ns, cluster=cluster_ctx)
    applier = ReplicationApplier(handle.kv, config.repl_port)
    if recorder is not None:
        recorder.attach_host(host, name)
        recorder.attach_server(handle.kv, role=name)
        recorder.attach_engine(handle.engine, role=f"{name}.engine")
        recorder.attach_replicator(replicator, role=f"{name}.repl")
        recorder.attach_applier(applier, role=f"{name}.repl.apply")
        if handle.overload is not None:
            recorder.attach_overload(handle.overload, role=f"{name}.overload")
    return ClusterNode(name, ip, host, handle, replicator, applier,
                       pm_device, pm_ns)


def preload_cluster(cluster, entries, value_size=512, key_prefix="warm"):
    """Direct-engine preload honouring placement: primary + backup."""
    from repro.storage.engines import direct_put

    value = bytes(value_size)
    for index in range(entries):
        key = f"{key_prefix}-{index}".encode("utf-8")
        for name in cluster.ring.route(key):
            direct_put(cluster.nodes[name].engine, key, value, NULL_CONTEXT)
    return entries
