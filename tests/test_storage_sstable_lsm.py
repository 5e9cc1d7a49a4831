"""Unit + integration tests for SSTables and the LSM store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pm.device import DRAMDevice, PMDevice
from repro.pm.namespace import PMNamespace
from repro.sim import ExecutionContext
from repro.storage.blockdev import BlockDevice
from repro.storage.lsm import leveldb_store, novelsm_store
from repro.storage.sstable import SSTable, SSTableBuilder, SSTableError


def build_table(entries, device=None, base=0):
    device = device or BlockDevice(1 << 22)
    builder = SSTableBuilder()
    for key, value, tombstone in entries:
        builder.add(key, value, tombstone)
    return SSTable.write(device, base, builder), device


class TestSSTable:
    def test_build_and_get(self):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode(), False) for i in range(100)]
        table, _ = build_table(entries)
        assert table.nentries == 100
        assert table.get(b"k0042") == (True, b"v42")
        assert table.get(b"k9999") == (False, None)

    def test_unsorted_keys_rejected(self):
        builder = SSTableBuilder()
        builder.add(b"b", b"1")
        with pytest.raises(SSTableError):
            builder.add(b"a", b"2")
        with pytest.raises(SSTableError):
            builder.add(b"b", b"dup")

    def test_tombstones_stored(self):
        table, _ = build_table([(b"dead", b"", True), (b"live", b"v", False)])
        assert table.get(b"dead") == (True, None)
        assert table.get(b"live") == (True, b"v")

    def test_multi_block_layout_and_iteration(self):
        entries = [(f"k{i:05d}".encode(), b"x" * 200, False) for i in range(200)]
        table, _ = build_table(entries)
        assert len(table._index) > 1
        assert [k for k, _v, _t in table.entries()] == [e[0] for e in entries]

    def test_get_before_first_key(self):
        table, _ = build_table([(b"m", b"v", False)])
        assert table.get(b"a") == (False, None)

    def test_key_range(self):
        entries = [(f"k{i:03d}".encode(), b"v", False) for i in range(50)]
        table, _ = build_table(entries)
        assert table.key_range() == (b"k000", b"k049")

    def test_block_crc_detects_corruption(self):
        entries = [(f"k{i:04d}".encode(), b"val" * 50, False) for i in range(100)]
        table, device = build_table(entries)
        # Flip a byte inside the first data block.
        device.data[5] ^= 0xFF
        with pytest.raises(SSTableError):
            table.get(b"k0000")

    def test_footer_crc_detects_corruption(self):
        entries = [(b"k", b"v", False)]
        table, device = build_table(entries)
        device.data[table.length - 10] ^= 0xFF
        with pytest.raises(SSTableError):
            SSTable(device, 0, table.length)

    def test_bloom_filter_skips_absent_keys_without_reads(self):
        entries = [(f"k{i:04d}".encode(), b"v", False) for i in range(500)]
        table, device = build_table(entries)
        reads_before = device.reads
        misses = sum(
            table.get(f"zz{i}".encode()) == (False, None) for i in range(200)
        )
        assert misses == 200
        # The bloom filter should have answered nearly all of them.
        assert device.reads - reads_before < 20

    def test_read_charges_block_latency(self):
        entries = [(b"key", b"value", False)]
        table, device = build_table(entries)
        ctx = ExecutionContext()
        table.get(b"key", ctx)
        assert ctx.category("sstable.read") >= device.read_ns


def make_novelsm():
    dev = PMDevice(64 << 20)
    ns = PMNamespace(dev)
    return novelsm_store(ns, arena_size=16 << 20), dev


def make_leveldb():
    dram = DRAMDevice(64 << 20)
    blockdev = BlockDevice(128 << 20)
    return leveldb_store(dram, blockdev, arena_size=8 << 20,
                         memtable_limit=64 << 10), blockdev


class TestLSMStore:
    def test_put_get_roundtrip(self):
        store, _ = make_novelsm()
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        assert store.get(b"a") == b"1"
        assert store.get(b"missing") is None

    def test_overwrite_and_delete(self):
        store, _ = make_novelsm()
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"
        store.delete(b"k")
        assert store.get(b"k") is None

    def test_scan_merges_correctly(self):
        store, _ = make_novelsm()
        for i in range(20):
            store.put(f"k{i:02d}".encode(), str(i).encode())
        store.delete(b"k05")
        store.put(b"k07", b"updated")
        result = dict(store.scan())
        assert b"k05" not in result
        assert result[b"k07"] == b"updated"
        assert len(result) == 19

    def test_rotation_flushes_to_sstable(self):
        store, _ = make_leveldb()
        value = b"x" * 1000
        for i in range(100):  # 100 KB > 64 KB memtable limit
            store.put(f"key-{i:04d}".encode(), value)
        assert store.stats["rotations"] >= 1
        assert sum(len(level) for level in store.levels) >= 1
        for i in range(100):
            assert store.get(f"key-{i:04d}".encode()) == value

    def test_reads_cross_memtable_and_tables(self):
        store, _ = make_leveldb()
        store.put(b"old", b"in-sstable")
        store.rotate()
        store.put(b"new", b"in-memtable")
        assert store.get(b"old") == b"in-sstable"
        assert store.get(b"new") == b"in-memtable"

    def test_newer_version_wins_across_levels(self):
        store, _ = make_leveldb()
        store.put(b"k", b"v-old")
        store.rotate()
        store.put(b"k", b"v-new")
        store.rotate()
        assert store.get(b"k") == b"v-new"

    def test_compaction_preserves_contents(self):
        store, _ = make_leveldb()
        expected = {}
        for round_no in range(6):
            for i in range(30):
                key = f"key-{i:03d}".encode()
                value = f"r{round_no}-{i}".encode()
                store.put(key, value)
                expected[key] = value
            store.rotate()
        store.compact_l0()
        assert store.stats["compactions"] >= 1
        assert len(store.levels[0]) == 0
        for key, value in expected.items():
            assert store.get(key) == value

    def test_compaction_drops_tombstones(self):
        store, _ = make_leveldb()
        store.put(b"gone", b"v")
        store.rotate()
        store.delete(b"gone")
        store.rotate()
        store.compact_l0()
        assert store.get(b"gone") is None
        for level in store.levels[1:]:
            for table in level:
                for key, _value, tombstone in table.entries():
                    assert not tombstone

    def test_leveldb_wal_recovery(self):
        store, blockdev = make_leveldb()
        store.put(b"acked-1", b"v1")
        store.put(b"acked-2", b"v2")
        blockdev.crash()
        store.recover()
        assert store.get(b"acked-1") == b"v1"
        assert store.get(b"acked-2") == b"v2"

    def test_leveldb_recovery_after_rotation(self):
        store, blockdev = make_leveldb()
        store.put(b"flushed", b"in-table")
        store.rotate()
        store.put(b"logged", b"in-wal")
        blockdev.crash()
        store.recover()
        assert store.get(b"flushed") == b"in-table"
        assert store.get(b"logged") == b"in-wal"

    def test_novelsm_recovery_without_log(self):
        store, dev = make_novelsm()
        for i in range(30):
            store.put(f"k{i}".encode(), f"v{i}".encode())
        dev.crash()
        store.recover()
        for i in range(30):
            assert store.get(f"k{i}".encode()) == f"v{i}".encode()

    def test_novelsm_charges_pm_persist_leveldb_charges_wal(self):
        novelsm, _ = make_novelsm()
        leveldb, _ = make_leveldb()
        nctx, lctx = ExecutionContext(), ExecutionContext()
        novelsm.put(b"k", b"v" * 512, nctx)
        leveldb.put(b"k", b"v" * 512, lctx)
        assert nctx.category("persist") > 0
        assert nctx.category("wal.sync") == 0
        assert lctx.category("wal.sync") > 0


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "del", "rotate"]),
            st.integers(0, 15),
            st.binary(min_size=0, max_size=40),
        ),
        max_size=40,
    )
)
def test_property_lsm_model_equivalence(ops):
    """LSM == dict regardless of rotations interleaved with ops."""
    store, _ = make_leveldb()
    model = {}
    for op, key_id, value in ops:
        key = f"key-{key_id:02d}".encode()
        if op == "put":
            store.put(key, value)
            model[key] = value
        elif op == "del":
            store.delete(key)
            model.pop(key, None)
        elif store.memtable.count > 0:
            store.rotate()
    for key, value in model.items():
        assert store.get(key) == value
    live = sorted(model.items())
    assert list(store.scan()) == live


class TestDeepCompaction:
    def test_cascade_populates_deeper_levels(self):
        store, _ = make_leveldb()
        store.level1_table_bytes = 8 << 10  # tiny budgets force cascades
        expected = {}
        for round_no in range(12):
            for i in range(40):
                # All-distinct keys so merged volume exceeds L1's budget.
                key = f"key-{round_no:02d}-{i:03d}".encode()
                value = bytes([round_no + 1]) * 400
                store.put(key, value)
                expected[key] = value
            store.rotate()
        store.compact_l0()
        deep_tables = sum(len(level) for level in store.levels[2:])
        assert deep_tables > 0, "cascade never reached level 2"
        for key, value in expected.items():
            assert store.get(key) == value

    def test_tombstone_survives_intermediate_level(self):
        """A tombstone must keep hiding older versions that live deeper."""
        store, _ = make_leveldb()
        store.put(b"k", b"ancient")
        store.rotate()
        store.compact_level(0)   # value now in L1
        store.compact_level(1)   # value now in L2
        store.delete(b"k")
        store.rotate()           # tombstone in L0
        store.compact_level(0)   # tombstone merges into L1; L2 still has data
        assert store.get(b"k") is None
        store.compact_level(1)   # now it meets the value and both die
        assert store.get(b"k") is None

    def test_compacting_deepest_level_rejected(self):
        store, _ = make_leveldb()
        with pytest.raises(ValueError):
            store.compact_level(6)

    def test_recovery_restores_deep_levels(self):
        store, blockdev = make_leveldb()
        store.level1_table_bytes = 8 << 10
        for round_no in range(8):
            for i in range(30):
                store.put(f"key-{i:03d}".encode(), bytes([round_no]) * 300)
            store.rotate()
        store.compact_l0()
        layout_before = [len(level) for level in store.levels]
        blockdev.crash()
        store.recover()
        assert [len(level) for level in store.levels] == layout_before
        assert store.get(b"key-000") == bytes([7]) * 300
