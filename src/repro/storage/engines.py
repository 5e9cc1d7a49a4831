"""Server-side storage engines: the systems the paper compares.

Every engine speaks the same interface — ``put(key, message, ctx)`` /
``get(key, ctx)`` — and differs in which Table 1 overheads it incurs:

=================  ==========================================================
engine             overheads
=================  ==========================================================
NullEngine         none — the "networking-only" server of §3 that discards
                   the request and answers as if it were stored
RawPMEngine        copy + flush: the "net.+persist." series of Figure 2
                   (a simple app that copies and persists into PM, no
                   data management)
NoveLSMEngine      the full stack: request preparation, CRC32C checksum,
                   copy into a PM buffer, allocation + persistent skip
                   list insertion, cache flushes (Table 1's 6.39 µs of
                   data management + 1.94 µs of persistence)
=================  ==========================================================

The packet-native engine the paper *proposes* lives in
:mod:`repro.core.pktstore`, beside the rest of the proposal.
"""

import struct

from repro.net.checksum import crc32c
from repro.sim.context import FilterContext, NULL_CONTEXT
from repro.sim.pressure import PressureSignal


class _MemtablePressure(PressureSignal):
    """Pressure adapter for an LSM store's *current* memtable arena.

    The memtable (and thus its PM allocator) is replaced on every
    rotation, so a listener pinned to one allocator would go stale;
    this adapter re-resolves the live allocator on each ``update()``
    poll (the overload controller polls before every admission
    decision) and applies the usual watermark hysteresis.
    """

    def __init__(self, store):
        super().__init__()
        self.store = store

    @property
    def occupancy(self):
        memtable = self.store.memtable
        if memtable is None:
            return 0.0
        return memtable.allocator.occupancy()

    def update(self):
        self.observe(self.occupancy)


class _MemtableRelief:
    """Overload wiring shared by the LSM engines: the current memtable
    is their pressure source, and rotating it is their reclaimer."""

    def _effective_ctx(self, ctx):
        return ctx

    @property
    def pressure_sources(self):
        if not hasattr(self, "_memtable_pressure"):
            self._memtable_pressure = _MemtablePressure(self.store)
        return (self._memtable_pressure,)

    def reclaim(self, ctx=NULL_CONTEXT):
        """Emergency flush: seal the memtable to a level-0 table.

        Only possible with a block device to flush to; the
        NoveLSM-as-measured configuration (PM memtables, no SSD) has
        nowhere to move data and reports 507 honestly.
        """
        if self.store.blockdev is None or self.store.memtable is None \
                or self.store.memtable.data_bytes == 0:
            return 0
        self.store.rotate(self._effective_ctx(ctx))
        return 1


class NullEngine:
    """Discard writes, never find reads: measures pure networking."""

    name = "null"

    def __init__(self):
        self.puts = 0
        self.gets = 0

    def put(self, key, message, ctx):
        self.puts += 1

    def get(self, key, ctx):
        self.gets += 1
        return None


class RawPMEngine:
    """Copy + persist into a PM ring: persistence without data management.

    This is the paper's Figure 2 baseline ("a simple application that
    copies and persists data in the PM region without NoveLSM").  It
    keeps no index — values land in a ring buffer with a tiny length
    header — so it is *not* a usable store; it exists to isolate the
    persistence overhead.
    """

    name = "rawpm"
    _HEADER = struct.Struct("<I")

    def __init__(self, region, costs):
        self.region = region
        self.costs = costs
        self.cursor = 0
        self.puts = 0
        self.wrapped = 0

    def put(self, key, message, ctx):
        value = message.body
        need = self._HEADER.size + len(value)
        if self.cursor + need > self.region.size - 64:
            self.cursor = 0
            self.wrapped += 1
        # Data copy out of the socket buffer into the PM region
        # (Table 1 prices this at ~1.1 ns/B), then flush to persist.
        self.costs.charge_store_copy(ctx, len(value))
        self.region.write_persist(
            self.cursor, self._HEADER.pack(len(value)) + value, ctx, "persist"
        )
        self.cursor += need
        # The ring's durable cursor (at the region tail) is what a
        # restart would resume from — persisted with its own fence,
        # like any PM ring buffer.
        self.region.write_persist(
            self.region.size - 8, struct.pack("<Q", self.cursor), ctx, "persist"
        )
        self.puts += 1

    def get(self, key, ctx):
        return None  # no index: the baseline cannot serve reads


class LevelDBEngine(_MemtableRelief):
    """Disk-era LevelDB: DRAM memtable + WAL on a block device (§2.1).

    The design PM displaces: every put is durable only after its
    write-ahead-log record syncs to the SSD, so device latency sits on
    the critical path of every request — the *persistence* overhead PM
    shrinks by two orders of magnitude.  Data management (prep, CRC,
    copy, DRAM memtable insert) is otherwise the same work NoveLSM does.
    """

    name = "leveldb-ssd"

    def __init__(self, store, costs, charge_checksum=True):
        self.store = store
        self.costs = costs
        self.charge_checksum = charge_checksum
        self.puts = 0
        self.gets = 0

    def put(self, key, message, ctx=NULL_CONTEXT):
        self.costs.charge_request_prep(ctx)
        value = message.body
        if self.charge_checksum:
            self.costs.charge_crc(ctx, len(value))
        self.costs.charge_store_copy(ctx, len(value))
        # store.put appends + syncs the WAL (blockdev latencies) and
        # inserts into the DRAM memtable.
        self.store.put(bytes(key), value, ctx)
        self.puts += 1

    def get(self, key, ctx=NULL_CONTEXT):
        self.gets += 1
        return self.store.get(bytes(key), ctx)

    def delete(self, key, ctx=NULL_CONTEXT):
        self.costs.charge_request_prep(ctx)
        self.store.delete(bytes(key), ctx)

    def scan(self, start=None, end=None, ctx=NULL_CONTEXT):
        return self.store.scan(start, end, ctx)


class NoveLSMEngine(_MemtableRelief):
    """NoveLSM with the measurement hooks of the paper's §3.

    ``charge_checksum`` mirrors the paper ("we implement checksum
    calculation in NoveLSM ... it is enabled in LevelDB"); setting
    ``persistence=False`` reproduces the modified build used to isolate
    persistence overheads (flushes still happen, but cost nothing).
    """

    name = "novelsm"

    def __init__(self, store, costs, charge_checksum=True, persistence=True,
                 verify_on_read=False):
        self.store = store
        self.costs = costs
        self.charge_checksum = charge_checksum
        self.persistence = persistence
        self.verify_on_read = verify_on_read
        self.puts = 0
        self.gets = 0
        #: key -> crc of latest value (what LevelDB keeps beside data).
        self._crcs = {}

    def _effective_ctx(self, ctx):
        if self.persistence:
            return ctx
        return FilterContext(ctx, drop={"persist"})

    def put(self, key, message, ctx=NULL_CONTEXT):
        ctx = self._effective_ctx(ctx)
        # 1. Build the store's internal request structure (Table 1: 0.70 µs).
        self.costs.charge_request_prep(ctx)
        value = message.body
        # 2. Integrity checksum over the value (Table 1: 1.77 µs).
        if self.charge_checksum:
            self.costs.charge_crc(ctx, len(value))
            self._crcs[bytes(key)] = crc32c(value)
        # 3. Copy into the store's PM buffer (Table 1: 1.14 µs).
        self.costs.charge_store_copy(ctx, len(value))
        # 4. Allocation + skip-list insertion (Table 1: 2.78 µs) and
        # 5. flushes (Table 1: 1.94 µs) are charged inside the store.
        self.store.put(bytes(key), value, ctx)
        self.puts += 1

    def get(self, key, ctx=NULL_CONTEXT):
        ctx = self._effective_ctx(ctx)
        self.gets += 1
        value = self.store.get(bytes(key), ctx)
        if value is not None and self.verify_on_read and self.charge_checksum:
            self.costs.charge_crc(ctx, len(value))
            expected = self._crcs.get(bytes(key))
            if expected is not None and crc32c(value) != expected:
                raise IOError(f"stored value for {key!r} failed its checksum")
        return value

    def delete(self, key, ctx=NULL_CONTEXT):
        ctx = self._effective_ctx(ctx)
        self.costs.charge_request_prep(ctx)
        self._crcs.pop(bytes(key), None)
        self.store.delete(bytes(key), ctx)

    def scan(self, start=None, end=None, ctx=NULL_CONTEXT):
        return self.store.scan(start, end, self._effective_ctx(ctx))


class _DirectMessage:
    """Message shim for direct (non-network) engine inserts."""

    __slots__ = ("_value",)

    body_slices = ()
    hw_tstamp = None
    wire_csum = None

    def __init__(self, value):
        self._value = value

    @property
    def body(self):
        return self._value

    @property
    def content_length(self):
        return len(self._value)

    def release(self):
        pass


def direct_put(engine, key, value, ctx=NULL_CONTEXT):
    """Insert raw bytes straight into an engine, bypassing the network.

    Copy-based engines read ``message.body``, so a bodiless shim
    suffices.  Packet-native engines store *references into the packet
    pool* — a shim with no body slices would adopt zero fragments and
    record an empty value — so for those the bytes are written into
    freshly allocated pool slots (a synthetic packet carrying exactly
    the payload) and adopted by the store, same as the rx path.
    """
    key = bytes(key)
    value = bytes(value)
    store = getattr(engine, "store", None)
    pool = getattr(store, "pool", None)
    if pool is not None and hasattr(pool, "alloc") \
            and hasattr(pool, "slot_size"):
        frag_refs = []
        try:
            for off in range(0, len(value), pool.slot_size):
                chunk = value[off:off + pool.slot_size]
                buf = pool.alloc()
                buf.write(0, chunk)
                frag_refs.append((buf, 0, len(chunk)))
        except Exception:
            for buf, _offset, _length in frag_refs:
                buf.put()
            raise
        store.put(key, frag_refs, len(value), None, None, ctx)
        if hasattr(engine, "puts"):
            engine.puts += 1
        return
    engine.put(key, _DirectMessage(value), ctx)
