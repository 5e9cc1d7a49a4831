"""Unified server construction: one config, one entry point.

A :class:`ServerConfig` says everything that shapes one KV server —
transport, engine, cores, admission control, zero-copy GET, idle
reaper, metrics, capture — and :func:`serve` stands it up on a host:
it builds the engine, the overload controller, the TCP or Homa
front-end, the recorder and the capture tap::

    from repro.storage import ServerConfig, serve

    config = ServerConfig(transport="homa", engine="pktstore",
                          cores=4, overload=True, metrics=True)
    server = serve(host, config, pm_ns=pm_ns)
    server.kv        # the KVServer / HomaKVServer front-end
    server.metrics   # MetricsRegistry (None when metrics=False)

The host itself comes from :func:`repro.bench.testbed.make_server_host`
(``make_testbed`` builds both hosts and calls :func:`serve`).
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

#: The :class:`ServerConfig` fields a capture records, in meta order.
CAPTURED_FIELDS = ("transport", "engine", "port", "cores", "zero_copy_get",
                   "contain_errors", "overload", "reaper_idle_ns",
                   "memtable_arena", "engine_kwargs")


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
    cores               server cores; consumed by the host builder
                        (``make_server_host``), validated by :func:`serve`
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
    capture             record the server's delivered frame stream: a
                        ring-buffered fabric tap focused on its address,
                        replayable as a workload or a standby
                        (docs/CAPTURE.md)
    capture_max_frames  ring bounds when capture is on (``None`` =
    capture_max_bytes   unbounded)
    ==================  ======================================================

    :data:`CAPTURED_FIELDS` are the fields a capture records
    (:meth:`capture_meta`) and a rebuild reads back
    (:meth:`from_capture_meta`).
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
    capture: bool = False
    capture_max_frames: int = None
    capture_max_bytes: int = None

    def capture_meta(self):
        """The JSON-able provenance a capture needs to rebuild this
        server from the file alone (engine, transport, sizing)."""
        recorded = {name: getattr(self, name) for name in CAPTURED_FIELDS}
        recorded["overload"] = self.overload is not None
        recorded["engine_kwargs"] = dict(self.engine_kwargs)
        return {"server_config": recorded}

    @classmethod
    def from_capture_meta(cls, meta):
        """Inverse of :meth:`capture_meta`: the config a capture's meta
        block recorded.  A field the meta lacks keeps its default, and
        a recorded key outside :data:`CAPTURED_FIELDS` is ignored."""
        recorded = (meta or {}).get("server_config")
        if not recorded:
            raise ValueError(
                "capture has no server_config meta — record it through "
                "ServerConfig(capture=True) or pass config= explicitly"
            )
        config = cls(**{name: recorded[name] for name in CAPTURED_FIELDS
                        if name in recorded})
        config.overload = True if recorded.get("overload") else None
        config.engine_kwargs = dict(recorded.get("engine_kwargs") or {})
        return config

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


def serve(host, config=None, pm_ns=None, cluster=None):
    """Stand up a KV server on ``host`` as described by ``config``.

    ``pm_ns`` (a :class:`~repro.pm.namespace.PMNamespace`) backs the
    PM engines (:func:`build_engine`).  ``cluster`` (a
    :class:`~repro.cluster.topology.ClusterContext`) selects the
    cluster-mode front-end: the server becomes one shard of a
    replicated cluster, forwarding primary-owned puts to its backup
    per the context's ``ack_policy``.  It requires ``transport="homa"``.

    Returns a :class:`Server` handle.
    """
    config = (config or ServerConfig()).validate()
    if cluster is not None and config.transport != "homa":
        raise ValueError("cluster mode requires transport='homa'")
    if len(host.cpus) != config.cores:
        raise ValueError(
            f"config says {config.cores} core(s) but host "
            f"{host.name!r} has {len(host.cpus)} — build the host from "
            f"the same config (make_testbed(config=...)) or align them"
        )

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

    recorder = None
    if config.metrics:
        from repro.obs.trace import Recorder

        recorder = Recorder(sim=host.sim, trace_capacity=config.trace_capacity)
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
