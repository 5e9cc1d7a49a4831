"""Packet-buffer pools.

A :class:`BufferPool` slices a memory :class:`~repro.pm.device.Region`
into fixed-size slots and hands out refcounted :class:`PacketBuffer`
handles.  The pool's region decides the semantics:

- DRAM region → a normal kernel packet-buffer pool (skb data pages).
- PM region → PASTE's persistent packet buffers: payload DMA'd into a
  slot is *already in persistent memory*, so an application that takes
  ownership of the buffer can persist it with a flush and no copy.

Reference counting mirrors the paper's Figure 3: the *data* refcount
lives here (``PacketBuffer.refcount``); packet-metadata refcounts live
on :class:`~repro.net.pktbuf.PktBuf`.
"""

from repro.sim.context import NULL_CONTEXT
from repro.sim.pressure import PressureSignal


class PoolExhausted(MemoryError):
    """No free slots left in a buffer pool."""


class PacketBuffer:
    """A refcounted fixed-size slot of a pool's region."""

    __slots__ = ("pool", "slot", "base", "size", "refcount", "_dev", "_abs")

    def __init__(self, pool, slot, base, size):
        self.pool = pool
        self.slot = slot
        self.base = base  # region-local offset of this slot
        self.size = size
        self.refcount = 1
        # Precomputed device + absolute offset: every DMA'd frame and
        # every payload read funnels through this handle, so the
        # region indirection is hoisted out of the per-access path.
        # Slot bounds are checked here; device bounds hold because the
        # slot lies inside the pool's region by construction.
        self._dev = pool.device
        self._abs = pool.device_base + base

    def get(self):
        """Take an additional data reference."""
        if self.refcount <= 0:
            raise RuntimeError("use-after-free of packet buffer")
        self.refcount += 1
        return self

    def put(self):
        """Drop a data reference; the slot returns to the pool at zero."""
        if self.refcount <= 0:
            raise RuntimeError("double free of packet buffer")
        self.refcount -= 1
        if self.refcount == 0:
            self.pool._release(self.slot)
        return self.refcount

    def _check(self, offset, length):
        if offset < 0 or length < 0 or offset + length > self.size:
            raise IndexError(
                f"buffer slot {self.slot}: access [{offset}, {offset + length}) "
                f"outside {self.size} bytes"
            )

    def write(self, offset, data):
        length = len(data)
        if offset < 0 or offset + length > self.size:
            self._check(offset, length)
        return self._dev.write(self._abs + offset, data)

    def read(self, offset, length):
        if offset < 0 or length < 0 or offset + length > self.size:
            self._check(offset, length)
        # Device bounds hold by construction (slot ⊂ region ⊂ device)
        # and reads have no tracker/observer hooks, so read the backing
        # store directly.
        start = self._abs + offset
        return bytes(self._dev.data[start:start + length])

    def persist(self, offset, length, ctx=NULL_CONTEXT, category="pm.flush"):
        """Flush+fence this range (meaningful only on a PM-backed pool)."""
        self._check(offset, length)
        return self.pool.region.persist(self.base + offset, length, ctx, category)

    def flush(self, offset, length, ctx=NULL_CONTEXT, category="pm.flush"):
        self._check(offset, length)
        return self.pool.region.flush(self.base + offset, length, ctx, category)

    @property
    def persistent(self):
        return self.pool.persistent

    def region_offset(self, offset=0):
        """Region-local address of a byte in this slot (for persistence records)."""
        self._check(offset, 0)
        return self.base + offset

    def __repr__(self):
        return f"<PacketBuffer slot={self.slot} size={self.size} ref={self.refcount}>"


class BufferPool(PressureSignal):
    """Fixed-slot allocator over a region; LIFO reuse for cache warmth.

    Free slots are kept lazily, as in :class:`~repro.pm.alloc.PMAllocator`:
    a bump index (the lowest slot never handed out) and a stack of the
    slots released since.  ``alloc`` hands out the most recently
    released slot first, then the lowest slot never handed out, so a
    pool costs what it holds, not what it could hold.  Recovery's
    :meth:`buffer_at_slot` keeps that order: a never-used slot it adopts
    is skipped by the bump, a released one leaves the stack.

    Occupancy watermarks make the pool a *pressure signal* for the
    serving layer (``repro.core.overload``): crossing ``high_watermark``
    (fraction of slots in use) raises :attr:`under_pressure`, dropping
    back below ``low_watermark`` clears it, and registered listeners
    fire on each transition.  Storage that adopts packet buffers turns
    pool exhaustion into a storage outage — the watermarks exist so the
    server can shed or reclaim *before* the NIC starts dropping frames.
    """

    def __init__(self, region, slot_size=2048, name=None,
                 high_watermark=0.9, low_watermark=0.7):
        if slot_size <= 0:
            raise ValueError("slot size must be positive")
        super().__init__(high_watermark, low_watermark)
        self.region = region
        #: The region's device and its base on it, for the handles.
        self.device = region.device
        self.device_base = region.base
        self.slot_size = slot_size
        self.name = name or f"pool:{region.name}"
        self.nslots = region.size // slot_size
        if self.nslots == 0:
            raise ValueError(
                f"region {region.name} ({region.size}B) smaller than one slot"
            )
        #: Lowest slot never handed out; the slots above it that
        #: recovery adopted, which the bump skips.
        self._next = 0
        self._adopted = set()
        #: Released slots, the most recent last.
        self._recycled = []
        self._in_use = set()
        self.allocs = 0
        self.frees = 0
        self.high_water = 0
        self.exhaustions = 0

    @property
    def persistent(self):
        return self.region.persistent

    @property
    def in_use(self):
        return len(self._in_use)

    @property
    def available(self):
        return self.nslots - len(self._in_use)

    @property
    def occupancy(self):
        """Fraction of slots currently in use (0.0 — 1.0)."""
        return len(self._in_use) / self.nslots

    def alloc(self):
        """Take a slot; returns a fresh :class:`PacketBuffer` with refcount 1."""
        recycled = self._recycled
        if recycled:
            slot = recycled.pop()
        else:
            slot = self._next
            if slot == self.nslots:
                self.exhaustions += 1
                raise PoolExhausted(f"{self.name}: all {self.nslots} slots in use")
            self._next = slot + 1
            if self._adopted:
                self._skip_adopted()
        in_use = self._in_use
        in_use.add(slot)
        self.allocs += 1
        if len(in_use) > self.high_water:
            self.high_water = len(in_use)
        # ``observe`` is a no-op below the high watermark while the flag
        # is down, which is nearly every call: skip it then.
        level = len(in_use) / self.nslots
        if self.under_pressure or level >= self.high_watermark:
            self.observe(level)
        return PacketBuffer(self, slot, slot * self.slot_size, self.slot_size)

    def _release(self, slot):
        in_use = self._in_use
        if slot not in in_use:
            raise RuntimeError(f"{self.name}: releasing slot {slot} not in use")
        in_use.remove(slot)
        self._recycled.append(slot)
        self.frees += 1
        level = len(in_use) / self.nslots
        if self.under_pressure or level >= self.high_watermark:
            self.observe(level)

    def slot_region_base(self, slot):
        """Region-local base offset of a slot (used by recovery scans)."""
        if not 0 <= slot < self.nslots:
            raise IndexError(f"slot {slot} out of range")
        return slot * self.slot_size

    def _skip_adopted(self):
        """Move the bump index past the adopted slots it has reached."""
        adopted = self._adopted
        slot = self._next
        while slot in adopted:
            adopted.remove(slot)
            slot += 1
        self._next = slot

    def buffer_at_slot(self, slot):
        """Re-materialise a buffer handle for ``slot`` (recovery path).

        The slot is marked in-use; the returned handle owns it.  The
        other free slots keep their allocation order.
        """
        if not 0 <= slot < self.nslots:
            raise IndexError(f"slot {slot} out of range")
        if slot in self._in_use:
            raise RuntimeError(f"slot {slot} already materialised")
        if slot < self._next or slot in self._adopted:
            self._recycled.remove(slot)  # handed out before, released since
        elif slot == self._next:
            self._next = slot + 1
            self._skip_adopted()
        else:
            self._adopted.add(slot)
        self._in_use.add(slot)
        self.observe(self.occupancy)
        return PacketBuffer(self, slot, slot * self.slot_size, self.slot_size)

    def __repr__(self):
        kind = "PM" if self.persistent else "DRAM"
        return f"<BufferPool {self.name} {kind} {self.in_use}/{self.nslots} in use>"
