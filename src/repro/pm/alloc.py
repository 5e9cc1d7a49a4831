"""User-space persistent-memory allocator.

NoveLSM (and every PM storage stack) carries its own PM allocator; the
paper measures its share of the 2.78 µs buffer-allocation-and-insert
row in Table 1 and proposes obviating it by reusing the network stack's
buffer pools (§4.2).  This module is that allocator: a first-fit
free-list heap over a :class:`~repro.pm.device.Region`, with
per-allocation headers persisted in PM so the heap can be walked and
rebuilt after a crash.

Layout::

    [8 B heap_end][block][block]...
    block := [16 B header][payload, 16-byte aligned]
    header := magic(4) | payload_size(4) | flags(4) | reserved(4)

Allocation is atomic with respect to crashes: the header is written and
persisted *before* heap_end advances past the block, and a block only
counts as live once its LIVE flag is persisted.  Recovery walks blocks
up to the persisted heap_end and frees anything not marked LIVE.
"""

import struct

from repro.sim.context import NULL_CONTEXT
from repro.sim.pressure import PressureSignal

HEADER = struct.Struct("<IIII")
HEADER_SIZE = HEADER.size
MAGIC = 0xA110CA7E
FLAG_LIVE = 1
FLAG_FREE = 2
ALIGN = 16
HEAP_BASE = 8  # first 8 bytes hold heap_end

#: Modeled CPU cost of one malloc/free in the user-space PM allocator.
#: Together with skip-list insertion this reproduces Table 1's 2.78 µs
#: "buffer allocation and insertion" row.
ALLOC_NS = 500.0
FREE_NS = 200.0


class AllocationError(MemoryError):
    """Raised when the arena cannot satisfy a request."""


def _align(n):
    return (n + ALIGN - 1) // ALIGN * ALIGN


class PMAllocator(PressureSignal):
    """First-fit free-list allocator with crash-recoverable metadata.

    Like the packet pools, the arena is a *pressure signal*: crossing
    ``high_watermark`` of usable bytes sets :attr:`under_pressure` and
    fires registered listeners; falling below ``low_watermark`` clears
    it.  The serving layer uses this to trigger emergency reclamation
    before an :class:`AllocationError` lands on a request's critical
    path.
    """

    def __init__(self, region, alloc_ns=ALLOC_NS, free_ns=FREE_NS,
                 charge_category="pm.alloc", persist_category="persist"):
        self.region = region
        self.alloc_ns = alloc_ns
        self.free_ns = free_ns
        self.charge_category = charge_category
        self.persist_category = persist_category
        #: Sorted list of (offset, size) holes.  Volatile; rebuilt on recovery.
        self._holes = []
        #: offset -> payload size for live allocations.  Volatile cache.
        self._live = {}
        #: Running total of allocated block bytes (headers + aligned
        #: payloads) — kept incrementally so occupancy() is O(1).
        self._used_bytes = 0
        self._heap_end = HEAP_BASE
        self.allocation_failures = 0
        super().__init__()
        self._write_heap_end(NULL_CONTEXT)

    @classmethod
    def attach(cls, region, alloc_ns=ALLOC_NS, free_ns=FREE_NS,
               charge_category="pm.alloc", persist_category="persist"):
        """Bind to an existing heap without reformatting it.

        Call :meth:`recover` on the result to rebuild the free list
        from the persisted block headers.
        """
        alloc = cls.__new__(cls)
        alloc.region = region
        alloc.alloc_ns = alloc_ns
        alloc.free_ns = free_ns
        alloc.charge_category = charge_category
        alloc.persist_category = persist_category
        alloc._holes = []
        alloc._live = {}
        alloc._used_bytes = 0
        alloc._heap_end = HEAP_BASE
        alloc.allocation_failures = 0
        PressureSignal.__init__(alloc)
        return alloc

    # -- pressure signals ----------------------------------------------------

    def occupancy(self):
        """Fraction of usable arena bytes currently allocated (0.0 — 1.0)."""
        usable = self.region.size - HEAP_BASE
        if usable <= 0:
            return 1.0
        return min(1.0, self.used_bytes() / usable)

    # -- persistence helpers -------------------------------------------------

    def _write_heap_end(self, ctx):
        self.region.write_persist(
            0, struct.pack("<Q", self._heap_end), ctx, self.persist_category
        )

    def _write_header(self, block_off, payload_size, flags, ctx):
        self.region.write_persist(
            block_off, HEADER.pack(MAGIC, payload_size, flags, 0),
            ctx, self.persist_category,
        )

    def _read_header(self, block_off, persisted=False):
        if persisted and self.region.persistent:
            raw = self.region.device.persisted_view(
                self.region.global_offset(block_off), HEADER_SIZE
            )
        else:
            raw = self.region.read(block_off, HEADER_SIZE)
        return HEADER.unpack(raw)

    # -- public API ----------------------------------------------------------

    def alloc(self, size, ctx=NULL_CONTEXT):
        """Allocate ``size`` usable bytes; returns the payload offset."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        ctx.charge(self.alloc_ns, self.charge_category)
        need = HEADER_SIZE + _align(size)
        block_off = self._take_hole(need)
        if block_off is None:
            block_off = self._heap_end
            if block_off + need > self.region.size:
                self.allocation_failures += 1
                raise AllocationError(
                    f"{self.region.name}: cannot allocate {size} bytes "
                    f"(heap_end={self._heap_end}, size={self.region.size})"
                )
            self._heap_end = block_off + need
            self._write_header(block_off, size, FLAG_LIVE, ctx)
            self._write_heap_end(ctx)
        else:
            self._write_header(block_off, size, FLAG_LIVE, ctx)
        payload_off = block_off + HEADER_SIZE
        self._live[payload_off] = size
        self._used_bytes += need
        self.observe(self.occupancy())
        return payload_off

    def free(self, payload_off, ctx=NULL_CONTEXT):
        """Release an allocation made by :meth:`alloc`."""
        if payload_off not in self._live:
            raise AllocationError(f"free of unknown offset {payload_off}")
        ctx.charge(self.free_ns, self.charge_category)
        size = self._live.pop(payload_off)
        self._used_bytes -= HEADER_SIZE + _align(size)
        block_off = payload_off - HEADER_SIZE
        self._write_header(block_off, size, FLAG_FREE, ctx)
        self._insert_hole(block_off, HEADER_SIZE + _align(size))
        self.observe(self.occupancy())

    def usable_size(self, payload_off):
        """Payload size of a live allocation."""
        if payload_off not in self._live:
            raise AllocationError(f"unknown offset {payload_off}")
        return self._live[payload_off]

    @property
    def live_allocations(self):
        return len(self._live)

    def used_bytes(self):
        return self._used_bytes

    # -- hole management -----------------------------------------------------

    def _take_hole(self, need):
        for index, (offset, size) in enumerate(self._holes):
            if size >= need:
                if size == need:
                    self._holes.pop(index)
                else:
                    # First-fit with a split: remainder stays a hole.
                    self._holes[index] = (offset + need, size - need)
                return offset
        return None

    def _insert_hole(self, offset, size):
        self._holes.append((offset, size))
        self._holes.sort()
        # Coalesce adjacent holes in one pass.
        merged = []
        for hole in self._holes:
            if merged and merged[-1][0] + merged[-1][1] == hole[0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + hole[1])
            else:
                merged.append(list(hole))
        self._holes = [(off, size) for off, size in merged]

    # -- recovery ------------------------------------------------------------

    def recover(self):
        """Rebuild volatile state by walking persisted block headers.

        Returns the list of live payload offsets found.  Call after
        ``device.crash()`` on a freshly constructed allocator over the
        same region.
        """
        self._holes = []
        self._live = {}
        self._used_bytes = 0
        if self.region.persistent:
            raw = self.region.device.persisted_view(
                self.region.global_offset(0), 8
            )
        else:
            raw = self.region.read(0, 8)
        (heap_end,) = struct.unpack("<Q", raw)
        heap_end = max(HEAP_BASE, min(heap_end, self.region.size))
        self._heap_end = heap_end
        cursor = HEAP_BASE
        while cursor + HEADER_SIZE <= heap_end:
            magic, size, flags, _ = self._read_header(cursor, persisted=True)
            if magic != MAGIC or size <= 0:
                # Torn header at the frontier: everything beyond is garbage.
                self._heap_end = cursor
                break
            block = HEADER_SIZE + _align(size)
            if flags == FLAG_LIVE:
                self._live[cursor + HEADER_SIZE] = size
                self._used_bytes += block
            else:
                self._insert_hole(cursor, block)
            cursor += block
        self._write_heap_end(NULL_CONTEXT)
        self.observe(self.occupancy())
        return sorted(self._live)

    def __repr__(self):
        return (
            f"<PMAllocator {self.region.name} live={len(self._live)} "
            f"heap_end={self._heap_end}>"
        )
