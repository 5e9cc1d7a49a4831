"""Wall-clock attribution to layers, from spans at layer boundaries.

:data:`BOUNDARIES` declares the callables that mark where one layer of
the simulator calls into another: the event loop, the transports, the
checksums, the packet pools, the PM device, the engines and the
observability hooks.  :meth:`Tracer.run` wraps every one of them for
the duration of one call, so each invocation records a span (name,
layer, start, end, parent), and unwraps them again afterwards.  Nothing
under ``src/`` changes; the wrappers return what the wrapped callable
returns, so simulated results are identical with tracing on or off.

A layer's *self time* is the duration of its spans minus the part their
child spans cover.  Time of the traced call that no span covers lands
in ``other``, so every traced second belongs to exactly one layer.
Spans of a module-level function imported by name are declared once
per importing module, because that is where callers look the name up.
"""

import functools
import importlib
import inspect
import itertools
import json
import time

#: Layers, named after the modules whose entry points the table wraps.
LAYERS = (
    "sim", "net.tcp", "net.homa", "net.stack", "net.checksum", "net.pktbuf",
    "pm", "storage", "core.pktstore", "core.overload", "obs", "bench",
    "other",
)

#: (layer, module, qualified name) of every wrapped boundary callable.
#: ``net.stack`` covers stack, nic, fabric and http; ``net.pktbuf``
#: covers pktbuf and pool; ``bench`` the client loops and generators.
#: ``_KVDispatch._dispatch`` is the one private entry: request dispatch
#: has no public method, and without it the server's parse-and-route
#: work would be charged to the transport that delivered the request.
BOUNDARIES = (
    ("sim", "repro.sim.engine", "Simulator.run"),
    ("net.tcp", "repro.net.tcp", "TcpConnection.input"),
    ("net.tcp", "repro.net.tcp", "TcpConnection.send"),
    ("net.tcp", "repro.net.tcp", "TcpConnection.output"),
    ("net.homa", "repro.net.homa", "HomaTransport.rx"),
    ("net.homa", "repro.net.homa", "HomaTransport.send_request"),
    ("net.homa", "repro.net.homa", "HomaRpc.reply"),
    ("net.stack", "repro.net.stack", "Host.process_on_core"),
    ("net.stack", "repro.net.stack", "Host.on_nic_rx"),
    ("net.stack", "repro.net.stack", "NetworkStack.rx"),
    ("net.stack", "repro.net.stack", "NetworkStack.ip_output"),
    ("net.stack", "repro.net.stack", "NetworkStack.connect"),
    ("net.stack", "repro.net.nic", "Nic.transmit"),
    ("net.stack", "repro.net.nic", "Nic.on_wire"),
    ("net.stack", "repro.net.fabric", "Fabric.transmit"),
    ("net.stack", "repro.net.http", "HttpParser.feed"),
    ("net.checksum", "repro.net.nic", "checksum_partial"),
    ("net.checksum", "repro.net.headers", "checksum_partial"),
    ("net.checksum", "repro.storage.engines", "crc32c"),
    ("net.checksum", "repro.storage.skiplist", "crc32c"),
    ("net.checksum", "repro.core.ppktbuf", "crc32c"),
    ("net.pktbuf", "repro.net.pool", "BufferPool.alloc"),
    ("net.pktbuf", "repro.net.pool", "PacketBuffer.put"),
    ("net.pktbuf", "repro.net.pktbuf", "PktBuf.clone"),
    ("net.pktbuf", "repro.net.pktbuf", "PktBuf.to_wire"),
    ("pm", "repro.pm.device", "PMDevice.write"),
    ("pm", "repro.pm.device", "PMDevice.flush"),
    ("pm", "repro.pm.device", "PMDevice.fence"),
    ("pm", "repro.pm.device", "PMDevice.crash"),
    ("pm", "repro.pm.alloc", "PMAllocator.alloc"),
    ("pm", "repro.pm.namespace", "PMNamespace.reopen"),
    ("storage", "repro.storage.engines", "NoveLSMEngine.put"),
    ("storage", "repro.storage.engines", "NoveLSMEngine.get"),
    ("storage", "repro.storage.skiplist", "RegionSkipList.insert"),
    ("storage", "repro.storage.skiplist", "RegionSkipList.get"),
    ("storage", "repro.storage.lsm", "novelsm_reattach"),
    ("storage", "repro.storage.kvserver", "_KVDispatch._dispatch"),
    ("core.pktstore", "repro.core.pktstore", "PacketStoreEngine.put"),
    ("core.pktstore", "repro.core.pktstore", "PacketStoreEngine.get"),
    ("core.pktstore", "repro.core.pktstore", "PacketStore.put"),
    ("core.pktstore", "repro.core.pktstore", "PacketStore.get"),
    ("core.overload", "repro.core.overload", "OverloadController.admit"),
    ("core.overload", "repro.core.overload", "QueuePressure.update"),
    ("obs", "repro.obs.trace", "Recorder.record_slice"),
    ("obs", "repro.obs.trace", "Recorder.request_begin"),
    ("obs", "repro.obs.trace", "Recorder.request_end"),
    ("obs", "repro.obs.trace", "Recorder.client_request"),
    ("obs", "repro.obs.tdigest", "TDigest.add"),
    ("bench", "repro.bench.testbed", "preload"),
    ("bench", "repro.bench.wrk", "WrkClient.next_request"),
    ("bench", "repro.bench.openloop", "OpenLoopSource.next_arrival"),
    ("bench", "benchmark.workloads", "StampedSource.next_op"),
)

#: Spans kept in memory (and written out) per process; later spans only
#: feed the per-layer totals.
SPAN_CAP = 20_000


class Tracer:
    """Installs the boundary wrappers around one call at a time."""

    def __init__(self):
        #: (span_id, parent_id, name, layer, start_s, end_s); parent -1
        #: for a root span.
        self.spans = []
        self._ids = itertools.count()
        self._stack = []
        self._self_s = [0.0] * len(LAYERS)
        self._calls = [0] * len(LAYERS)
        self._root_s = [0.0]

    def run(self, fn, *args):
        """Call ``fn(*args)`` traced; returns ``(result, profile)``.

        ``profile`` maps each layer to ``{"self_s", "calls"}`` and
        ``"wall_s"`` to the call's duration, which the layers' self
        times add up to.
        """
        n = len(LAYERS)
        self._self_s[:] = [0.0] * n
        self._calls[:] = [0] * n
        self._root_s[0] = 0.0
        saved = self._install()
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
        self._self_s[LAYERS.index("other")] = wall - self._root_s[0]
        profile = {layer: {"self_s": self._self_s[i], "calls": self._calls[i]}
                   for i, layer in enumerate(LAYERS)}
        profile["wall_s"] = wall
        return result, profile

    def dump(self, path):
        """Write the kept spans as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layers": LAYERS,
                       "fields": ["id", "parent", "name", "layer", "start_s",
                                  "end_s"],
                       "spans": sorted(self.spans)}, handle)

    def _install(self):
        saved = []
        try:
            for layer, module_name, qualname in BOUNDARIES:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner).get(attr)
                kind = type(raw) if isinstance(
                    raw, (staticmethod, classmethod)) else None
                fn = raw.__func__ if kind is not None else raw
                if not inspect.isfunction(fn) or \
                        inspect.isgeneratorfunction(fn):
                    raise TypeError(
                        f"{module_name}.{qualname} is not a plain function "
                        f"defined there; fix the boundary table")
                wrapped = self._wrap(fn, f"{module_name}.{qualname}",
                                     LAYERS.index(layer))
                setattr(owner, attr, kind(wrapped) if kind else wrapped)
                saved.append((owner, attr, raw))
        except BaseException:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            raise
        return saved

    def _wrap(self, fn, name, layer):
        stack = self._stack
        self_s = self._self_s
        calls = self._calls
        root_s = self._root_s
        spans = self.spans
        cap = SPAN_CAP
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]   # [time covered by children, id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    root_s[0] += duration
                if span_id < cap:
                    spans.append((span_id, parent, name, layer, start, end))

        return traced
