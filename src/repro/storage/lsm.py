"""The LSM-tree key-value store (LevelDB / NoveLSM).

A faithful-in-structure log-structured merge store:

- writes go to a skip-list **memtable** (versioned, tombstone deletes);
- when the memtable fills, it rotates and flushes to a level-0
  **SSTable**; level 0 may hold overlapping tables (newest first);
- when level 0 grows past a threshold, it is merge-**compacted** with
  level 1 into non-overlapping tables;
- a **manifest** on the block device records the live tables, and a
  **WAL** (when configured) makes un-flushed memtable writes durable.

Two configurations reproduce the paper's systems:

- :func:`leveldb_store` — DRAM memtable + WAL + compaction: the
  disk-era design (§2.1).
- :func:`novelsm_store` — PM memtable (crash-consistent persistent
  skip list), **no WAL**, and — as configured in the paper's §3
  experiment — compaction disabled so all data management happens in
  PM.  Value checksums (CRC32C) are charged by the engine layer, as
  the paper implemented them in NoveLSM.

Flush and compaction run synchronously (the simulator is single
threaded); the paper's experiment disables compaction anyway, and the
synchronous cost model is noted in DESIGN.md.
"""

import struct

from repro.net.checksum import crc32c
from repro.sim.context import NULL_CONTEXT
from repro.storage.skiplist import RegionSkipList, newest_versions
from repro.storage.sstable import SSTable, SSTableBuilder
from repro.storage.wal import WriteAheadLog

WAL_OP_PUT = 1
WAL_OP_DELETE = 2
WAL_RECORD = struct.Struct("<BHI")

MANIFEST_MAGIC = 0x4D414E49
NUM_LEVELS = 7


class LSMStore:
    """Memtable + leveled SSTables, with optional WAL and compaction."""

    def __init__(self, arena_provider, arena_size, blockdev=None, wal=None,
                 memtable_limit=16 << 20, compaction=True, max_l0_tables=4,
                 level1_table_bytes=2 << 20, manifest_base=0,
                 table_heap_base=0, seed=1, bootstrap=True):
        self._arena_provider = arena_provider
        self._arena_size = arena_size
        self.blockdev = blockdev
        self.wal = wal
        self.memtable_limit = memtable_limit
        self.compaction = compaction
        self.max_l0_tables = max_l0_tables
        self.level1_table_bytes = level1_table_bytes
        self.manifest_base = manifest_base
        self.seed = seed
        self._arena_counter = 0
        self._free_arenas = []
        self._table_counter = 0
        self._table_cursor = table_heap_base
        # ``bootstrap=False`` skips creating (and thus re-initialising!)
        # the first memtable arena — the reattach path after a crash
        # assigns a recovered memtable instead.
        self.memtable = self._new_memtable() if bootstrap else None
        self.immutable = None
        #: levels[0] is newest-first and may overlap; deeper levels are
        #: key-disjoint and sorted by first key.
        self.levels = [[] for _ in range(NUM_LEVELS)]
        self.stats = {"puts": 0, "gets": 0, "deletes": 0, "rotations": 0, "compactions": 0}

    # ----------------------------------------------------------------- arenas

    def _new_memtable(self):
        if self._free_arenas:
            # Recycle the arena of a previously-flushed memtable (what
            # deleting the immutable memtable does in real LevelDB).
            region = self._free_arenas.pop()
        else:
            region = self._arena_provider(f"memtable-{self._arena_counter}")
        self._arena_counter += 1
        return RegionSkipList.create(region, seed=self.seed + self._arena_counter)

    # -------------------------------------------------------------------- API

    def put(self, key, value, ctx=NULL_CONTEXT):
        """Insert/overwrite ``key``.  Durable per the configuration:
        WAL-synced (LevelDB) or persistently memtabled (NoveLSM)."""
        if self.wal is not None:
            record = WAL_RECORD.pack(WAL_OP_PUT, len(key), len(value)) + key + value
            self.wal.append(record, ctx)
        self.memtable.insert(key, value, ctx)
        self.stats["puts"] += 1
        self._maybe_rotate(ctx)

    def delete(self, key, ctx=NULL_CONTEXT):
        if self.wal is not None:
            record = WAL_RECORD.pack(WAL_OP_DELETE, len(key), 0) + key
            self.wal.append(record, ctx)
        self.memtable.delete(key, ctx)
        self.stats["deletes"] += 1
        self._maybe_rotate(ctx)

    def get(self, key, ctx=NULL_CONTEXT):
        """Latest value or None (missing or deleted)."""
        self.stats["gets"] += 1
        for table in (self.memtable, self.immutable):
            if table is None:
                continue
            found, value = table.get(key, ctx)
            if found:
                return value
        for sstable in self.levels[0]:  # newest first
            found, value = sstable.get(key, ctx)
            if found:
                return value
        for level in self.levels[1:]:
            for sstable in level:
                found, value = sstable.get(key, ctx)
                if found:
                    return value
        return None

    def scan(self, start=None, end=None, ctx=NULL_CONTEXT):
        """Sorted (key, value) pairs with start <= key < end.

        Correctness-oriented merge (newest version wins, tombstones
        hide): materialises the merged view, so use for range queries
        and tests, not bulk exports of huge stores.
        """
        merged = {}
        for level in reversed(self.levels[1:]):
            for sstable in level:
                for key, value, tombstone in sstable.entries(ctx):
                    merged[key] = None if tombstone else value
        for sstable in reversed(self.levels[0]):
            for key, value, tombstone in sstable.entries(ctx):
                merged[key] = None if tombstone else value
        for table in (self.immutable, self.memtable):
            if table is None:
                continue
            seen = set()
            for key, _seq, tombstone, value in table.versions():
                if key in seen:
                    continue  # first hit is newest
                seen.add(key)
                merged[key] = None if tombstone else value
        for key in sorted(merged):
            if start is not None and key < start:
                continue
            if end is not None and key >= end:
                break
            if merged[key] is not None:
                yield key, merged[key]

    # --------------------------------------------------------------- rotation

    def _maybe_rotate(self, ctx):
        if self.memtable.data_bytes < self.memtable_limit:
            return
        if not self.compaction and self.blockdev is None:
            return  # NoveLSM-as-measured: data stays in PM
        self.rotate(ctx)

    def rotate(self, ctx=NULL_CONTEXT):
        """Seal the memtable and flush it to a level-0 table."""
        self.stats["rotations"] += 1
        self.immutable = self.memtable
        self.memtable = self._new_memtable()
        self._flush_immutable(ctx)
        if self.wal is not None:
            self.wal.reset(ctx)
        if self.compaction and len(self.levels[0]) > self.max_l0_tables:
            self.compact_l0(ctx)

    def _flush_immutable(self, ctx):
        builder = SSTableBuilder()
        for key, _seq, tombstone, value in newest_versions(self.immutable.versions()):
            builder.add(key, value, tombstone)
        if builder.nentries:
            table = self._write_table(builder, ctx)
            self.levels[0].insert(0, table)
            self._write_manifest(ctx)
        self._free_arenas.append(self.immutable.region)
        self.immutable = None

    def _write_table(self, builder, ctx):
        blob = builder.finish()
        base = self._align(self._table_cursor)
        if base + len(blob) > self.blockdev.size:
            raise IOError("block device full (table heap exhausted)")
        name = f"sst-{self._table_counter}"
        self._table_counter += 1
        table = SSTable.write(self.blockdev, base, blob, ctx, name=name)
        self._table_cursor = base + len(blob)
        return table

    def _align(self, offset):
        block = self.blockdev.block_size
        return (offset + block - 1) // block * block

    # -------------------------------------------------------------- compaction

    def compact_l0(self, ctx=NULL_CONTEXT):
        """Merge every level-0 table with level 1, then cascade deeper
        levels that exceed their size budget (LevelDB's 10x fanout)."""
        merged = self.compact_level(0, ctx)
        # Leveled cascade: level i holds ~10^i * level1 budget of data.
        for level in range(1, NUM_LEVELS - 1):
            budget = self.level1_table_bytes * (10 ** level)
            if self._level_bytes(level) > budget:
                merged += self.compact_level(level, ctx)
        return merged

    def _level_bytes(self, level):
        return sum(table.length for table in self.levels[level])

    def _deepest_populated_level(self):
        for level in range(NUM_LEVELS - 1, -1, -1):
            if self.levels[level]:
                return level
        return 0

    def compact_level(self, level, ctx=NULL_CONTEXT):
        """Merge ``level`` into ``level + 1`` (whole-level merge).

        Tombstones are dropped only when the output is the deepest
        populated level — below that, a tombstone must keep hiding
        older versions that may still exist deeper down.
        """
        if level + 1 >= NUM_LEVELS:
            raise ValueError("cannot compact the deepest level")
        self.stats["compactions"] += 1
        target = level + 1
        sources = list(self.levels[level]) + list(self.levels[target])
        merged = {}
        # Oldest first so newer entries overwrite (level 0 is newest-first).
        older = list(self.levels[target])
        newer = list(reversed(self.levels[level])) if level == 0 else list(self.levels[level])
        for table in older + newer:
            for key, value, tombstone in table.entries(ctx):
                merged[key] = (value, tombstone)
        drop_tombstones = target >= self._deepest_populated_level()
        self.levels[level] = []
        self.levels[target] = []
        builder = SSTableBuilder()
        size = 0
        for key in sorted(merged):
            value, tombstone = merged[key]
            if tombstone and drop_tombstones:
                continue
            builder.add(key, value, tombstone=tombstone)
            size += len(key) + len(value)
            if size >= self.level1_table_bytes:
                self.levels[target].append(self._write_table(builder, ctx))
                builder, size = SSTableBuilder(), 0
        if builder.nentries:
            self.levels[target].append(self._write_table(builder, ctx))
        self._write_manifest(ctx)
        return len(sources)

    # ---------------------------------------------------------------- manifest

    def _write_manifest(self, ctx):
        if self.blockdev is None:
            return
        parts = [struct.pack("<II", MANIFEST_MAGIC, sum(len(l) for l in self.levels))]
        for level, tables in enumerate(self.levels):
            for table in tables:
                parts.append(struct.pack("<BQI", level, table.base, table.length))
        body = b"".join(parts)
        blob = struct.pack("<I", crc32c(body)) + body
        self.blockdev.write(self.manifest_base, blob, ctx, "manifest.write")
        self.blockdev.sync(ctx, "manifest.sync")

    def _read_manifest(self):
        head = self.blockdev.durable_view(self.manifest_base, 12)
        stored_crc, magic, count = struct.unpack("<III", head)
        if magic != MANIFEST_MAGIC:
            return None
        body_len = 8 + count * 13
        raw = self.blockdev.durable_view(self.manifest_base + 4, body_len)
        if crc32c(raw) != stored_crc:
            return None
        entries = []
        cursor = 8
        for _ in range(count):
            level, base, length = struct.unpack_from("<BQI", raw, cursor)
            cursor += 13
            entries.append((level, base, length))
        return entries

    # ---------------------------------------------------------------- recovery

    def recover(self, ctx=NULL_CONTEXT):
        """Rebuild volatile state after a crash.

        - Tables come back from the manifest.
        - With a WAL (LevelDB): the memtable is rebuilt by replay.
        - Without (NoveLSM): the persistent memtable recovers in place
          via :meth:`RegionSkipList.recover`.
        """
        if self.blockdev is not None:
            entries = self._read_manifest()
            self.levels = [[] for _ in range(NUM_LEVELS)]
            if entries:
                for level, base, length in entries:
                    table = SSTable(self.blockdev, base, length, name=f"recovered@{base}")
                    self.levels[level].append(table)
                    self._table_cursor = max(self._table_cursor, base + length)
                    self._table_counter += 1
        if self.wal is not None:
            self.memtable = self._new_memtable()
            for record in self.wal.replay(ctx):
                op, key_len, value_len = WAL_RECORD.unpack_from(record, 0)
                key = record[WAL_RECORD.size:WAL_RECORD.size + key_len]
                value = record[WAL_RECORD.size + key_len:
                               WAL_RECORD.size + key_len + value_len]
                if op == WAL_OP_PUT:
                    self.memtable.insert(key, value, ctx)
                elif op == WAL_OP_DELETE:
                    self.memtable.delete(key, ctx)
        else:
            region = self.memtable.region
            self.memtable = RegionSkipList.recover(region, seed=self.seed)
        self.immutable = None
        return self

    def __repr__(self):
        tables = sum(len(level) for level in self.levels)
        return (
            f"<LSMStore mem={self.memtable.data_bytes}B "
            f"tables={tables} wal={'yes' if self.wal else 'no'}>"
        )


# ----------------------------------------------------------------- factories

MANIFEST_BYTES = 64 << 10
WAL_BYTES = 16 << 20


def leveldb_store(dram_device, blockdev, arena_size=32 << 20,
                  memtable_limit=4 << 20, seed=1):
    """LevelDB configuration: DRAM memtable + WAL + compaction."""
    cursor = {"next": 0}

    def arena(name):
        base = cursor["next"]
        cursor["next"] += arena_size
        return dram_device.region(base, arena_size, name)

    wal = WriteAheadLog(blockdev, MANIFEST_BYTES, WAL_BYTES)
    return LSMStore(
        arena, arena_size, blockdev=blockdev, wal=wal,
        memtable_limit=memtable_limit, compaction=True,
        manifest_base=0, table_heap_base=MANIFEST_BYTES + WAL_BYTES, seed=seed,
    )


def novelsm_store(pm_namespace, arena_size=48 << 20, blockdev=None,
                  compaction=False, memtable_limit=16 << 20, seed=1):
    """NoveLSM configuration: persistent PM memtable, no log.

    The paper's §3 experiment additionally disables compaction so no
    data moves to disk during the run — the default here.
    """

    def arena(name):
        return pm_namespace.open_or_create(name, arena_size)

    table_heap = MANIFEST_BYTES if blockdev is not None else 0
    return LSMStore(
        arena, arena_size, blockdev=blockdev, wal=None,
        memtable_limit=memtable_limit, compaction=compaction,
        manifest_base=0, table_heap_base=table_heap, seed=seed,
    )


def novelsm_reattach(pm_namespace, arena_size=48 << 20, seed=1,
                     memtable_name="memtable-0"):
    """Reattach a NoveLSM store to its persisted PM memtable.

    The in-place :meth:`LSMStore.recover` only works on the live object
    that existed before ``device.crash()``.  After a real power cycle
    (or a fault-injection replay) all that exists is the device image:
    this reopens the named memtable arena through the recovered
    namespace **without re-initialising it** and rebuilds the skip list
    from its persisted bytes.
    """

    def arena(name):
        return pm_namespace.open_or_create(name, arena_size)

    store = LSMStore(
        arena, arena_size, blockdev=None, wal=None,
        compaction=False, manifest_base=0, seed=seed, bootstrap=False,
    )
    region = pm_namespace.open(memtable_name)
    store.memtable = RegionSkipList.recover(region, seed=seed + 1)
    store._arena_counter = 1
    store.count_recovered = store.memtable.count
    return store
