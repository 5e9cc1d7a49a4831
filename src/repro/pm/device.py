"""Byte-addressable memory devices.

:class:`MemoryDevice` is the common surface: a flat byte array with
``read``/``write`` plus explicit access-cost charging.  Two concrete
kinds exist:

- :class:`DRAMDevice` — volatile.  Contents vanish on crash.  Flush and
  fence are no-ops (there is nothing to persist into).
- :class:`PMDevice` — persistent.  Keeps one byte image (the
  CPU-visible one) and a :class:`~repro.pm.cache.FlushTracker` whose
  delta shadow holds the persisted bytes of just the lines stored to
  since they last persisted; ``crash()`` writes those lines back in
  place, so the image reverts to what reached the persistence domain.

Cost-charging convention: ``read``/``write`` do **not** implicitly
charge time, because bulk data movement (copies, checksums) is priced
by the cost model of the actor doing it and would otherwise be charged
twice.  Pointer-chasing structure code (skip lists, tree walks) calls
:meth:`MemoryDevice.charge_access` per node visit instead — that is
where the PM-vs-DRAM 346/70 ns gap enters the results.
"""

import mmap

from repro.pm.cache import FlushTracker
from repro.pm.constants import (
    CACHE_LINE,
    DRAM_ACCESS_NS,
    FENCE_NS,
    FLUSH_LINE_NS,
    PM_ACCESS_NS,
)
from repro.sim.context import NULL_CONTEXT


def zero_buffer(size):
    """A writable all-zero buffer of ``size`` bytes.

    Anonymous mmap gives demand-zero pages: allocation is O(1) and
    untouched pages cost no RSS, which matters because devices are
    sized for headroom (hundreds of MB) while most runs touch a few MB.
    Behaves like a bytearray for everything the devices do (slice
    read/write, memoryview, len); falls back to bytearray where mmap
    is unavailable.
    """
    try:
        return mmap.mmap(-1, size)
    except (ValueError, OSError):
        return bytearray(size)

#: When set, every newly constructed :class:`PMDevice` calls
#: ``_observer_factory(device)`` and keeps the result as its observer.
#: PMSan (:mod:`repro.analysis.pmsan`) installs itself here so devices
#: created *after* the sanitizer is enabled are watched automatically;
#: it attaches to pre-existing devices explicitly.  The hooks are
#: pure notifications — they never change device behaviour.
_observer_factory = None


def set_observer_factory(factory):
    """Install (or clear, with None) the PMDevice observer factory.

    Returns the previous factory so callers can restore it.
    """
    global _observer_factory
    previous = _observer_factory
    _observer_factory = factory
    return previous


class MemoryDevice:
    """Flat byte-addressable memory with a modeled access latency."""

    persistent = False

    def __init__(self, size, access_ns, name="mem"):
        if size <= 0:
            raise ValueError("device size must be positive")
        self.size = size
        self.access_ns = access_ns
        self.name = name
        self.data = zero_buffer(size)
        self.crashes = 0

    def _check(self, offset, length):
        if offset < 0 or length < 0 or offset + length > self.size:
            raise IndexError(
                f"{self.name}: access [{offset}, {offset + length}) outside device of {self.size} bytes"
            )

    def read(self, offset, length):
        """Return ``length`` bytes at ``offset`` (CPU-visible view)."""
        if offset < 0 or length < 0 or offset + length > self.size:
            self._check(offset, length)
        return bytes(self.data[offset:offset + length])

    def write(self, offset, payload):
        """Store ``payload`` at ``offset`` in the CPU-visible view."""
        length = len(payload)
        if offset < 0 or offset + length > self.size:
            self._check(offset, length)
        self.data[offset:offset + length] = payload
        return length

    def charge_access(self, ctx, count=1, category="mem.access"):
        """Charge ``count`` dependent (cache-missing) accesses to this device."""
        return ctx.charge(count * self.access_ns, category)

    # Persistence interface: no-ops on volatile devices so callers can be
    # written once and run against either kind.
    def flush(self, offset, length, ctx=NULL_CONTEXT, category="pm.flush"):
        return 0

    def fence(self, ctx=NULL_CONTEXT, category="pm.flush"):
        return 0

    def persist(self, offset, length, ctx=NULL_CONTEXT, category="pm.flush"):
        """flush + fence in one call."""
        lines = self.flush(offset, length, ctx, category)
        self.fence(ctx, category)
        return lines

    def crash(self):
        """Power loss.  Volatile contents are zeroed."""
        self.crashes += 1
        self.data = zero_buffer(self.size)

    def region(self, base, size, name=None):
        """Carve a window [base, base+size) as a :class:`Region`."""
        self._check(base, size)
        return Region(self, base, size, name or f"{self.name}+{base}")

    def __repr__(self):
        kind = "PM" if self.persistent else "DRAM"
        return f"<{kind} {self.name} {self.size}B>"


class DRAMDevice(MemoryDevice):
    """Volatile memory: fast, forgets everything on crash."""

    def __init__(self, size, access_ns=DRAM_ACCESS_NS, name="dram"):
        super().__init__(size, access_ns, name)


class PMDevice(MemoryDevice):
    """Persistent memory with explicit write-back/fence durability."""

    persistent = True

    def __init__(
        self,
        size,
        access_ns=PM_ACCESS_NS,
        flush_line_ns=FLUSH_LINE_NS,
        fence_ns=FENCE_NS,
        name="pmem",
    ):
        super().__init__(size, access_ns, name)
        self.flush_line_ns = flush_line_ns
        self.fence_ns = fence_ns
        self.tracker = FlushTracker()
        #: Sanitizer hook (see :func:`set_observer_factory`); purely
        #: observational.
        self.observer = (
            _observer_factory(self) if _observer_factory is not None else None
        )

    def write(self, offset, payload):
        length = len(payload)
        if offset < 0 or offset + length > self.size:
            self._check(offset, length)
        # Before the bytes land: the tracker shadows their pre-image.
        self.tracker.mark_store(offset, length, self.data)
        self.data[offset:offset + length] = payload
        if self.observer is not None:
            self.observer.on_store(self, offset, length)
        return length

    def flush(self, offset, length, ctx=NULL_CONTEXT, category="pm.flush"):
        """clwb the covered lines; charges per dirty line written back."""
        self._check(offset, length)
        lines = self.tracker.writeback(offset, length, self.data)
        if self.observer is not None:
            self.observer.on_flush(self, offset, length, lines)
        if lines:
            ctx.charge(lines * self.flush_line_ns, category)
        return lines

    def fence(self, ctx=NULL_CONTEXT, category="pm.flush"):
        """sfence: drain pending write-backs into the persistence domain."""
        if self.observer is not None:
            # Pre-drain, so the observer sees what this fence is about
            # to persist next to what is still volatile.
            self.observer.on_fence(self)
        drained = self.tracker.fence()
        ctx.charge(self.fence_ns, category)
        return drained

    def crash(self, rng=None, pending_persist_prob=0.5):
        """Power loss: CPU-visible view reverts to what was persisted.

        Only the unpersisted lines are rewritten, in place: ``data``
        stays the same buffer object and the cost is proportional to
        the delta shadow, not the device.

        Pending (written-back, unfenced) lines drain probabilistically
        when a **seeded** ``rng`` instance is supplied; with ``rng=None``
        they are conservatively dropped and the crash is fully
        deterministic — it never falls back to global randomness.  See
        :meth:`repro.pm.cache.FlushTracker.crash` for the contract.
        """
        self.crashes += 1
        if self.observer is not None:
            self.observer.on_crash(self)
        self.tracker.crash(self.data, rng, pending_persist_prob)

    def persisted_view(self, offset, length):
        """Read the persisted bytes (what recovery would see)."""
        self._check(offset, length)
        if self.observer is not None:
            self.observer.on_crash_visible_read(self, offset, length)
        return self.tracker.persisted_bytes(self.data, offset, length)

    def is_durable(self, offset, length):
        """True if every byte in the range matches its persisted byte.

        Byte-exact: a line rewritten with identical bytes still counts.
        """
        self._check(offset, length)
        if self.observer is not None:
            self.observer.on_crash_visible_read(self, offset, length)
        return self.tracker.is_durable(self.data, offset, length)


class Region:
    """A named window into a device, with device-relative addressing.

    Regions are how the rest of the system holds memory: a PM-backed
    "file" is a region, a packet-buffer pool is a region, an allocator
    arena is a region.  All offsets passed to a region are local.
    """

    __slots__ = ("device", "base", "size", "name")

    def __init__(self, device, base, size, name):
        self.device = device
        self.base = base
        self.size = size
        self.name = name

    @property
    def persistent(self):
        return self.device.persistent

    def _check(self, offset, length):
        if offset < 0 or length < 0 or offset + length > self.size:
            raise IndexError(
                f"region {self.name}: access [{offset}, {offset + length}) outside {self.size} bytes"
            )

    def read(self, offset, length):
        if offset < 0 or length < 0 or offset + length > self.size:
            self._check(offset, length)
        # The region was bounds-checked against the device when carved,
        # so a region-legal read is device-legal; no device subclass
        # hooks reads (writes keep going through ``device.write`` for
        # the flush tracker / observers), so read the store directly.
        start = self.base + offset
        return bytes(self.device.data[start:start + length])

    def read_u64(self, offset):
        """Little-endian u64 at ``offset`` — hot path for stored pointers."""
        if offset < 0 or offset + 8 > self.size:
            self._check(offset, 8)
        start = self.base + offset
        return int.from_bytes(self.device.data[start:start + 8], "little")

    def unpack(self, struct_obj, offset):
        """``struct_obj.unpack_from`` at region ``offset``, zero-copy.

        Reads straight from the device's backing buffer (no intermediate
        ``bytes``), which is what makes per-node header parsing cheap
        when a structure is chased pointer by pointer.
        """
        size = struct_obj.size
        if offset < 0 or offset + size > self.size:
            self._check(offset, size)
        return struct_obj.unpack_from(self.device.data, self.base + offset)

    def write(self, offset, payload):
        length = len(payload)
        if offset < 0 or offset + length > self.size:
            self._check(offset, length)
        return self.device.write(self.base + offset, payload)

    def flush(self, offset, length, ctx=NULL_CONTEXT, category="pm.flush"):
        self._check(offset, length)
        return self.device.flush(self.base + offset, length, ctx, category)

    def fence(self, ctx=NULL_CONTEXT, category="pm.flush"):
        return self.device.fence(ctx, category)

    def persist(self, offset, length, ctx=NULL_CONTEXT, category="pm.flush"):
        lines = self.flush(offset, length, ctx, category)
        self.fence(ctx, category)
        return lines

    def charge_access(self, ctx, count=1, category="mem.access"):
        return self.device.charge_access(ctx, count, category)

    def subregion(self, offset, size, name=None):
        self._check(offset, size)
        return Region(self.device, self.base + offset, size, name or f"{self.name}+{offset}")

    def global_offset(self, offset):
        """Translate a region-local offset to a device offset."""
        self._check(offset, 0)
        return self.base + offset

    def __repr__(self):
        kind = "PM" if self.persistent else "DRAM"
        return f"<Region {self.name} [{self.base}, {self.base + self.size}) {kind}>"
