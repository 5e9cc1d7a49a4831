"""Overload control for the serving path.

The paper's proposal (§4) deliberately erases the boundary between the
network stack's packet memory and the store's data memory: values live
in the rx packet pool, index records in a PM slab, memtables in a PM
arena.  The price of that coupling is that *one exhausted pool is now a
storage outage* — and, symmetrically, a full store pins rx buffers
until the NIC drops frames.  "Observations on Porting In-memory KV
stores to PM" (PAPERS.md) documents exactly this failure class in
naive PM ports.

This module is the control layer that keeps exhaustion survivable:

- **Pressure sources** — every :class:`~repro.sim.pressure.PressureSignal`
  (``BufferPool``, ``PMAllocator``, the :class:`SlabPressure` adapter
  for :class:`~repro.core.ppktbuf.PMetaSlab`, the LSM engines' memtable
  adapter and :class:`QueuePressure` over a host's CPU run queues)
  registers with :meth:`OverloadController.watch`.
- **Admission control** — :meth:`OverloadController.admit` sheds
  mutating requests while any source is pressured, after first
  attempting reclamation.
- **Emergency reclaim** — :meth:`OverloadController.relieve` runs the
  registered reclaimers (PacketStore GC, LSM rotate+flush) to free
  capacity off the request path.
- **Degrade decisions** — :meth:`should_degrade_zero_copy` tells the
  server to answer GETs from the copy path while pressured, so
  responses don't take *new* long-lived references into the scarce
  pool (a zero-copy response pins its frags in the retransmission
  queue until the client ACKs).
- **Failure → status mapping** — :func:`status_for_failure` is the
  single place the status-code contract lives (docs/RESILIENCE.md):
  503 for transient overload, 507 for a full store.
"""

from repro.core.ppktbuf import SlabExhausted
from repro.net.pool import PoolExhausted
from repro.pm.alloc import AllocationError
from repro.sim.context import NULL_CONTEXT
from repro.sim.pressure import PressureSignal

#: The status-code contract for resource exhaustion.
OVERLOADED = 503      # transient: shed request / packet pool empty — retry
STORAGE_FULL = 507    # durable state full: PM slab or arena exhausted

#: Exception types the serving layer contains per-request instead of
#: letting them unwind into TCP receive processing.
CONTAINABLE = (PoolExhausted, SlabExhausted, AllocationError, MemoryError)


def status_for_failure(exc):
    """Map a resource-exhaustion failure to its HTTP status.

    ``SlabExhausted``/``AllocationError`` mean persistent state is full
    (507: retrying without deleting something cannot succeed);
    ``PoolExhausted`` and any other ``MemoryError`` are transient
    packet-memory shortages (503: retry after backoff).  Returns None
    for exceptions outside the contract.
    """
    if isinstance(exc, (SlabExhausted, AllocationError)):
        return STORAGE_FULL
    if isinstance(exc, MemoryError):
        return OVERLOADED
    return None


class SlabPressure(PressureSignal):
    """Watermark adapter giving :class:`PMetaSlab` the pressure protocol.

    The slab is a fixed-slot allocator without listeners of its own;
    this wraps it with the same hysteresis the pools implement.  Poll
    via :meth:`update` (the overload controller does so on every
    admission decision).
    """

    def __init__(self, slab, high_watermark=0.9, low_watermark=0.7):
        super().__init__(high_watermark, low_watermark)
        self.slab = slab

    @property
    def occupancy(self):
        return self.slab.used / self.slab.nslots

    def update(self):
        self.observe(self.occupancy)


class QueuePressure(PressureSignal):
    """CPU-queue-delay pressure: the knee detector for open-loop load.

    Memory watermarks never fire past the CPU saturation knee when the
    in-flight request count is bounded (a socket pool of N can pin at
    most N rx buffers) — yet that is exactly where an open-loop soak
    lives: offered load above capacity makes core run queues grow
    without bound while every pool stays comfortable.  This source
    watches the *scheduling delay* of the least-loaded core (work
    steals to the emptiest queue, so the minimum is what a new request
    actually waits) and trips with hysteresis, giving the admission
    path a signal that engages before the latency tail does.  Unlike
    the occupancy sources it clears at ``low_ns`` inclusive.

    Polled via :meth:`update` like :class:`SlabPressure` — the
    controller calls it on every admission decision, so no timer is
    needed and the signal is exactly as fresh as the decisions it
    gates.
    """

    clears_at_low = True

    def __init__(self, host, high_ns=200_000.0, low_ns=50_000.0):
        super().__init__(high_ns, low_ns, ceiling=float("inf"))
        self.host = host

    @property
    def queue_delay_ns(self):
        """Scheduling delay a newly-arrived request would see now."""
        now = self.host.sim.now
        return min(core.queue_delay(now) for core in self.host.cpus.cores)

    def update(self):
        self.observe(self.queue_delay_ns)


class OverloadController:
    """Admission, reclamation and degrade decisions for one server.

    Wire it up with :meth:`watch` (pressure sources) and
    :meth:`add_reclaimer` (``fn(ctx) -> freed_count``); the KV servers
    do this automatically for the host pools and their engine when
    handed a controller.
    """

    def __init__(self):
        self._sources = []
        self._polled = []       # sources needing explicit update() polls
        self._reclaimers = []
        self.stats = {
            "shed": 0, "reclaims": 0, "reclaimed": 0,
            "pressure_transitions": 0, "degrade_decisions": 0,
        }

    # -- wiring ---------------------------------------------------------------

    def watch(self, source):
        """Subscribe to a pressure source (pool, arena, or adapter)."""
        if source in self._sources:
            return source
        source.add_pressure_listener(self._on_pressure)
        self._sources.append(source)
        if hasattr(source, "update"):
            self._polled.append(source)
        return source

    def add_reclaimer(self, fn):
        """Register an emergency reclaimer: ``fn(ctx) -> freed count``."""
        if fn not in self._reclaimers:
            self._reclaimers.append(fn)
        return fn

    def _on_pressure(self, source, pressured):
        self.stats["pressure_transitions"] += 1

    # -- decisions ------------------------------------------------------------

    @property
    def under_pressure(self):
        for source in self._polled:
            source.update()
        return any(source.under_pressure for source in self._sources)

    def admit(self, ctx=NULL_CONTEXT):
        """Admission decision for one mutating request.

        Under pressure this first attempts emergency reclamation; only
        if pressure persists is the request shed (False).
        """
        if not self.under_pressure:
            return True
        self.relieve(ctx)
        if not self.under_pressure:
            return True
        self.stats["shed"] += 1
        return False

    def should_degrade_zero_copy(self):
        """True while GETs should answer from the copy path."""
        degrade = self.under_pressure
        if degrade:
            self.stats["degrade_decisions"] += 1
        return degrade

    # -- reclamation ----------------------------------------------------------

    def relieve(self, ctx=NULL_CONTEXT):
        """Run every registered reclaimer once; returns items freed."""
        self.stats["reclaims"] += 1
        freed = 0
        for reclaim in self._reclaimers:
            freed += reclaim(ctx) or 0
        self.stats["reclaimed"] += freed
        return freed

    def __repr__(self):
        pressured = [s for s in self._sources if s.under_pressure]
        return (
            f"<OverloadController sources={len(self._sources)} "
            f"pressured={len(pressured)} shed={self.stats['shed']}>"
        )
