"""Unified server construction: one config, one entry point.

Before this module, standing up a server meant knowing which kwargs
each front-end took (``KVServer(zero_copy_get=...)`` vs
``HomaKVServer`` without it), building the engine through the bench
harness's private ``_make_engine``, wiring an
:class:`~repro.core.overload.OverloadController` by hand, remembering
``stack.enable_idle_reaper`` is TCP-only, and — new in this PR —
attaching a :class:`~repro.obs.trace.Recorder` to every piece.
:func:`serve` folds all of that behind a :class:`ServerConfig`::

    from repro.storage import ServerConfig, serve

    config = ServerConfig(transport="homa", engine="pktstore",
                          cores=4, overload=True, metrics=True)
    server = serve(host, config, pm_ns=pm_ns)
    server.kv        # the KVServer / HomaKVServer front-end
    server.metrics   # MetricsRegistry (None when metrics=False)

The old constructors remain as the implementation layer (and for
existing callers); new code, the testbed and the chaos harness go
through :func:`serve`.
"""

from dataclasses import dataclass, field, replace

from repro.core.overload import OverloadController
from repro.storage.engines import (
    LevelDBEngine,
    NoveLSMEngine,
    NullEngine,
    RawPMEngine,
)
from repro.storage.kvserver import HomaKVServer, KVServer
from repro.storage.lsm import leveldb_store, novelsm_store

#: Engine names build_engine understands (see bench/testbed.py's table).
ENGINES = ("null", "rawpm", "leveldb-ssd", "novelsm", "novelsm-nopersist",
           "pktstore")

TRANSPORTS = ("tcp", "homa")


@dataclass
class ServerConfig:
    """Everything that shapes one KV server, in one place.

    ==================  ======================================================
    field               meaning
    ==================  ======================================================
    transport           ``"tcp"`` (HTTP over the TCP stack) or ``"homa"``
                        (the §5.2 message transport)
    engine              storage engine name (:data:`ENGINES`)
    port                listening port
    cores               server cores; consumed by whoever builds the
                        :class:`~repro.net.stack.Host` (``make_testbed``),
                        validated by :func:`serve`
    zero_copy_get       serve GETs straight out of PM (TCP only; requires a
                        packet-native engine)
    contain_errors      per-request containment (docs/RESILIENCE.md)
    overload            ``True`` builds an :class:`OverloadController`,
                        an instance is used as-is, ``None`` disables
                        admission control
    reaper_idle_ns      enable the TCP idle-connection reaper at this
                        threshold (``None`` = off; ignored for homa, which
                        has no connections to reap)
    metrics             attach a :class:`~repro.obs.trace.Recorder` (live
                        Table-1 stage tracing + gauges)
    trace_capacity      request-span ring size when metrics are on
    memtable_arena      NoveLSM PM memtable arena bytes
    engine_kwargs       extra engine-constructor kwargs
    ack_policy          cluster mode (``serve(..., cluster=ctx)``):
                        ``"sync"`` defers the client ack until the
                        backup applied the forwarded put,
                        ``"primary-only"`` acks after the local apply;
                        ``None`` = standalone server
    ==================  ======================================================
    """

    transport: str = "tcp"
    engine: str = "novelsm"
    port: int = 80
    cores: int = 1
    zero_copy_get: bool = False
    contain_errors: bool = True
    overload: object = None
    reaper_idle_ns: float = None
    metrics: bool = False
    trace_capacity: int = 1024
    memtable_arena: int = 48 << 20
    engine_kwargs: dict = field(default_factory=dict)
    ack_policy: str = None
    #: Record this server's delivered frame stream (repro.capture): a
    #: ring-buffered tap on the fabric focused on the server's address.
    #: The resulting capture replays as a workload or rebuilds a
    #: standby (docs/CAPTURE.md).
    capture: bool = False
    #: Ring bounds when capture is on (None = unbounded).
    capture_max_frames: int = None
    capture_max_bytes: int = None

    def capture_meta(self):
        """The JSON-able provenance a capture needs to rebuild this
        server from the file alone (engine, transport, sizing)."""
        return {
            "server_config": {
                "transport": self.transport,
                "engine": self.engine,
                "port": self.port,
                "cores": self.cores,
                "zero_copy_get": self.zero_copy_get,
                "contain_errors": self.contain_errors,
                "overload": self.overload is not None,
                "reaper_idle_ns": self.reaper_idle_ns,
                "memtable_arena": self.memtable_arena,
                "engine_kwargs": dict(self.engine_kwargs),
                "ack_policy": self.ack_policy,
            },
        }

    def validate(self):
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"transport {self.transport!r} not in {TRANSPORTS}"
            )
        if self.engine not in ENGINES:
            raise ValueError(f"engine {self.engine!r} not in {ENGINES}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.zero_copy_get and self.transport == "homa":
            raise ValueError(
                "zero_copy_get is a TCP send-path feature; the Homa "
                "front-end has no zero-copy reply path yet"
            )
        if self.reaper_idle_ns is not None and self.reaper_idle_ns <= 0:
            raise ValueError("reaper_idle_ns must be positive (or None)")
        for bound in ("capture_max_frames", "capture_max_bytes"):
            value = getattr(self, bound)
            if value is not None and value <= 0:
                raise ValueError(f"{bound} must be positive (or None)")
        if (self.capture_max_frames is not None or
                self.capture_max_bytes is not None) and not self.capture:
            raise ValueError(
                "capture_max_frames/capture_max_bytes need capture=True"
            )
        if self.ack_policy is not None:
            if self.ack_policy not in ("sync", "primary-only"):
                raise ValueError(
                    f"ack_policy {self.ack_policy!r} not in "
                    f"('sync', 'primary-only') (or None for standalone)"
                )
            if self.transport != "homa":
                raise ValueError(
                    "cluster mode (ack_policy) replicates over Homa; "
                    "transport must be 'homa'"
                )
        return self

    def with_overrides(self, **kwargs):
        """A copy with the given fields replaced (dataclasses.replace)."""
        return replace(self, **kwargs)


class Server:
    """What :func:`serve` returns: the front-end plus its wiring."""

    __slots__ = ("config", "host", "engine", "kv", "overload", "recorder",
                 "capture")

    def __init__(self, config, host, engine, kv, overload, recorder,
                 capture=None):
        self.config = config
        self.host = host
        self.engine = engine
        self.kv = kv
        self.overload = overload
        self.recorder = recorder
        #: CaptureTap recording this server's frame stream (None unless
        #: config.capture).
        self.capture = capture

    @property
    def metrics(self):
        """The MetricsRegistry, or None when metrics are disabled."""
        return self.recorder.registry if self.recorder is not None else None

    @property
    def stats(self):
        return self.kv.stats

    def __repr__(self):
        return (
            f"<Server {self.config.transport}:{self.config.port} "
            f"engine={self.config.engine} cores={self.config.cores}>"
        )


def build_engine(name, host, pm_ns=None, memtable_arena=48 << 20,
                 engine_kwargs=None):
    """Construct a storage engine by name, wired to ``host``.

    ``pm_ns`` (a :class:`~repro.pm.namespace.PMNamespace`) is required
    for the PM-backed engines (rawpm, novelsm*, pktstore).
    """
    engine_kwargs = dict(engine_kwargs or {})
    if name == "null":
        return NullEngine()
    if name == "leveldb-ssd":
        from repro.pm.device import DRAMDevice
        from repro.storage.blockdev import BlockDevice

        dram = DRAMDevice(256 << 20, name="server-dram")
        ssd = BlockDevice(512 << 20, name="server-ssd")
        store = leveldb_store(dram, ssd, arena_size=32 << 20)
        return LevelDBEngine(store, host.costs)
    if pm_ns is None:
        raise ValueError(f"engine {name!r} needs a PM namespace (pm_ns=)")
    if name == "rawpm":
        region = pm_ns.create("rawpm-ring", 96 << 20)
        return RawPMEngine(region, host.costs)
    if name in ("novelsm", "novelsm-nopersist"):
        store = novelsm_store(pm_ns, arena_size=memtable_arena)
        return NoveLSMEngine(
            store, host.costs,
            persistence=(name == "novelsm"),
            **engine_kwargs,
        )
    if name == "pktstore":
        from repro.core.pktstore import PacketStoreEngine

        return PacketStoreEngine.build(host, pm_ns, **engine_kwargs)
    raise ValueError(f"unknown engine {name!r}")


def serve(host, config=None, pm_ns=None, engine=None, recorder=None,
          cluster=None, **overrides):
    """Stand up a KV server on ``host`` as described by ``config``.

    - ``engine`` injects a pre-built engine instance (``config.engine``
      then only labels it); otherwise :func:`build_engine` runs.
    - ``recorder`` reuses an existing :class:`~repro.obs.trace.Recorder`
      (the testbed's, so client and fabric share the registry) instead
      of creating one; it implies metrics even if the config says off.
    - ``cluster`` (a :class:`~repro.cluster.topology.ClusterContext`)
      selects the cluster-mode front-end: the server becomes one shard
      of a replicated cluster, forwarding primary-owned puts to its
      backup per ``config.ack_policy``.  Requires ``transport="homa"``.
    - keyword ``overrides`` tweak a shared config ad hoc:
      ``serve(host, config, port=8080)``.

    Returns a :class:`Server` handle.
    """
    config = (config or ServerConfig())
    if overrides:
        config = config.with_overrides(**overrides)
    if cluster is not None and config.ack_policy is None:
        config = config.with_overrides(ack_policy=cluster.ack_policy)
    config.validate()
    if cluster is not None and config.transport != "homa":
        raise ValueError("cluster mode requires transport='homa'")
    if len(host.cpus) != config.cores:
        raise ValueError(
            f"config says {config.cores} core(s) but host "
            f"{host.name!r} has {len(host.cpus)} — build the host from "
            f"the same config (make_testbed(config=...)) or align them"
        )

    if engine is None:
        engine = build_engine(config.engine, host, pm_ns=pm_ns,
                              memtable_arena=config.memtable_arena,
                              engine_kwargs=config.engine_kwargs)

    overload = config.overload
    if overload is True:
        overload = OverloadController()

    if config.transport == "homa":
        if cluster is not None:
            from repro.cluster.topology import ClusterKVServer

            kv = ClusterKVServer(host, engine, port=config.port,
                                 overload=overload,
                                 contain_errors=config.contain_errors,
                                 cluster_ctx=cluster)
        else:
            kv = HomaKVServer(host, engine, port=config.port, overload=overload,
                              contain_errors=config.contain_errors)
    else:
        kv = KVServer(host, engine, port=config.port,
                      zero_copy_get=config.zero_copy_get, overload=overload,
                      contain_errors=config.contain_errors)
        if config.reaper_idle_ns is not None:
            host.stack.enable_idle_reaper(config.reaper_idle_ns)

    if recorder is None and config.metrics:
        from repro.obs.trace import Recorder

        recorder = Recorder(sim=host.sim, trace_capacity=config.trace_capacity)
    if recorder is not None:
        recorder.attach_host(host, "server")
        recorder.attach_server(kv)
        recorder.attach_engine(engine)
        if overload is not None:
            recorder.attach_overload(overload)

    capture = None
    if config.capture:
        from repro.capture.tap import CaptureTap

        meta = config.capture_meta()
        meta["server_ip"] = host.ip
        meta["server_name"] = host.name
        capture = CaptureTap(
            host.nic.fabric, focus_ip=host.ip,
            max_frames=config.capture_max_frames,
            max_bytes=config.capture_max_bytes, meta=meta,
        )
        if recorder is not None:
            registry = recorder.registry
            registry.gauge("server.capture.buffered",
                           fn=lambda t=capture: float(len(t)))
            registry.gauge("server.capture.seen",
                           fn=lambda t=capture: float(t.seen_frames))
            registry.gauge("server.capture.evicted",
                           fn=lambda t=capture: float(t.dropped_frames))

    return Server(config, host, engine, kv, overload, recorder,
                  capture=capture)
