"""Unit, integration and crash-property tests for the packet store."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pktstore import PacketStore
from repro.net.pool import BufferPool
from repro.pm.device import PMDevice
from repro.pm.namespace import PMNamespace
from repro.sim import ExecutionContext
from repro.storage.server import ServerConfig


def make_store(pool_slots=256, meta_bytes=1 << 20):
    dev = PMDevice((pool_slots * 2048) + meta_bytes + (1 << 16))
    ns = PMNamespace(dev)
    pool = BufferPool(ns.create("pool", pool_slots * 2048), 2048)
    store = PacketStore.create(ns.create("meta", meta_bytes), pool)
    return store, pool, dev, ns


def adopt_value(pool, payload):
    """Simulate a DMA'd request: payload lands in a pool buffer."""
    buf = pool.alloc()
    buf.write(128, payload)  # as if after headers
    return [(buf, 128, len(payload))]


class TestPutGet:
    def test_put_then_get(self):
        store, pool, _, _ = make_store()
        store.put(b"k1", adopt_value(pool, b"value-1"), 7, 1000, 0xABCD)
        store.put(b"k2", adopt_value(pool, b"value-2"), 7, 2000, 0x1234)
        assert store.get(b"k1") == b"value-1"
        assert store.get(b"k2") == b"value-2"
        assert store.get(b"nope") is None

    def test_zero_copy_no_data_movement(self):
        """The stored bytes are the adopted buffer's bytes — same slot."""
        store, pool, dev, _ = make_store()
        refs = adopt_value(pool, b"stay-put")
        buf, off, _ = refs[0]
        slot_before = buf.slot
        store.put(b"k", refs, 8, 0, 0)
        record, frags = store.get_refs(b"k")
        assert frags == [(slot_before, off, 8)]

    def test_versioning_latest_wins(self):
        store, pool, _, _ = make_store()
        store.put(b"k", adopt_value(pool, b"v1"), 2, 0, 0)
        store.put(b"k", adopt_value(pool, b"v2"), 2, 0, 0)
        assert store.get(b"k") == b"v2"
        assert store.count == 2

    def test_delete_tombstones(self):
        store, pool, _, _ = make_store()
        store.put(b"k", adopt_value(pool, b"v"), 1, 0, 0)
        store.delete(b"k")
        assert store.get(b"k") is None
        assert list(store.scan()) == []

    def test_multi_frag_value(self):
        store, pool, _, _ = make_store()
        refs = []
        expected = b""
        for i in range(3):
            chunk = bytes([65 + i]) * 100
            refs.extend(adopt_value(pool, chunk))
            expected += chunk
        store.put(b"big", refs, 300, 0, 0)
        assert store.get(b"big") == expected

    def test_frag_chain_beyond_inline_capacity(self):
        store, pool, _, _ = make_store()
        refs = []
        expected = b""
        for i in range(11):  # > 2 continuation records
            chunk = bytes([48 + i]) * 50
            refs.extend(adopt_value(pool, chunk))
            expected += chunk
        store.put(b"huge", refs, len(expected), 0, 0)
        assert store.get(b"huge") == expected
        assert store.stats["frag_chains"] == 1

    def test_scan_sorted_latest_live(self):
        store, pool, _, _ = make_store()
        for key in [b"c", b"a", b"b"]:
            store.put(key, adopt_value(pool, b"v-" + key), 3, 0, 0)
        store.delete(b"b")
        assert list(store.scan()) == [(b"a", b"v-a"), (b"c", b"v-c")]

    def test_metadata_carries_nic_timestamp_and_csum(self):
        store, pool, _, _ = make_store()
        store.put(b"k", adopt_value(pool, b"v"), 1, hw_tstamp=987654,
                  wire_csum=0x4242)
        record, _ = store.get_refs(b"k")
        assert record.hw_tstamp == 987654
        assert record.wire_csum == 0x4242

    def test_empty_key_rejected(self):
        store, pool, _, _ = make_store()
        with pytest.raises(ValueError):
            store.put(b"", adopt_value(pool, b"v"), 1, 0, 0)

    def test_costs_no_checksum_no_copy(self):
        """The §4.2 claim, enforced: no datamgmt checksum/copy charges."""
        store, pool, _, _ = make_store()
        ctx = ExecutionContext()
        store.put(b"k", adopt_value(pool, b"v" * 1024), 1024, 0, 0, ctx)
        assert ctx.category("datamgmt.checksum") == 0.0
        assert ctx.category("datamgmt.copy") == 0.0
        assert ctx.category("datamgmt.insert") > 0
        assert ctx.category("persist") > 0


class TestCrashRecovery:
    def test_contents_survive_crash(self):
        store, pool, dev, ns = make_store()
        expected = {}
        for i in range(40):
            key = f"key-{i:02d}".encode()
            value = bytes([i]) * (i + 1)
            store.put(key, adopt_value(pool, value), len(value), i, i)
            expected[key] = value
        dev.crash()
        ns2 = PMNamespace.reopen(dev)
        pool2 = BufferPool(ns2.open("pool"), 2048)
        store2, report = PacketStore.recover(ns2.open("meta"), pool2)
        assert dict(store2.scan()) == expected
        assert report.recovered == 40
        assert report.adopted_buffers == 40

    def test_unlinked_record_reclaimed(self):
        store, pool, dev, ns = make_store()
        store.put(b"committed", adopt_value(pool, b"v"), 1, 0, 0)
        # Hand-craft an in-flight insert: record persisted, never linked.
        from repro.core.ppktbuf import PPktRecord

        orphan = store.slab.alloc()
        store.slab.write_record(orphan, PPktRecord(key=b"orphan", seq=99))
        dev.crash()
        ns2 = PMNamespace.reopen(dev)
        pool2 = BufferPool(ns2.open("pool"), 2048)
        store2, report = PacketStore.recover(ns2.open("meta"), pool2)
        assert dict(store2.scan()) == {b"committed": b"v"}
        assert report.discarded_records == 1

    def test_recovered_store_accepts_new_puts(self):
        store, pool, dev, ns = make_store()
        store.put(b"old", adopt_value(pool, b"1"), 1, 0, 0)
        dev.crash()
        ns2 = PMNamespace.reopen(dev)
        pool2 = BufferPool(ns2.open("pool"), 2048)
        store2, _ = PacketStore.recover(ns2.open("meta"), pool2)
        store2.put(b"new", adopt_value(pool2, b"2"), 1, 0, 0)
        assert store2.get(b"old") == b"1"
        assert store2.get(b"new") == b"2"

    def test_recovery_does_not_reuse_adopted_buffer_slots(self):
        store, pool, dev, ns = make_store(pool_slots=8)
        for i in range(4):
            store.put(f"k{i}".encode(), adopt_value(pool, bytes([i]) * 8), 8, 0, 0)
        dev.crash()
        ns2 = PMNamespace.reopen(dev)
        pool2 = BufferPool(ns2.open("pool"), 2048)
        store2, _ = PacketStore.recover(ns2.open("meta"), pool2)
        used = {frag[0] for _k, _v in [] or []}  # noqa: placeholder
        adopted = set(store2._buffers)
        for _ in range(4):  # remaining free slots only
            buf = pool2.alloc()
            assert buf.slot not in adopted


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 99999),
    nputs=st.integers(1, 25),
)
def test_property_crash_preserves_every_completed_put(seed, nputs):
    """acked ⊆ recovered ⊆ attempted, with bit-exact values."""
    rng = random.Random(seed)
    store, pool, dev, ns = make_store()
    completed = {}
    for i in range(nputs):
        key = f"key-{rng.randrange(10)}".encode()
        value = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
        store.put(key, adopt_value(pool, value), len(value), i, i)
        completed[key] = value
    dev.crash(rng=rng)
    ns2 = PMNamespace.reopen(dev)
    pool2 = BufferPool(ns2.open("pool"), 2048)
    store2, _ = PacketStore.recover(ns2.open("meta"), pool2)
    assert dict(store2.scan()) == completed


def _stored_over(transport):
    """A pktstore server that took 0.4 ms of PUTs over ``transport``."""
    from repro.bench.testbed import make_testbed
    from repro.bench.wrk import HomaWrkClient, WrkClient

    tb = make_testbed(ServerConfig(engine="pktstore", transport=transport))
    client = HomaWrkClient if transport == "homa" else WrkClient
    client(tb.client, "10.0.0.1", connections=1,
           duration_ns=500_000, warmup_ns=100_000).run()
    return tb


class TestIntegrity:
    @pytest.mark.parametrize("transport", ["tcp", "homa"])
    def test_wire_checksum_verifies_stored_frames(self, transport):
        """End-to-end: store frames via the real stack, verify in place."""
        store = _stored_over(transport).engine.store
        assert store.count > 0
        # Every stored record's frames pass their embedded L4 checksum.
        cursor = store.slab.read_next(store.head_slot, 0)
        checked = 0
        while cursor:
            checked += store.verify_slot(cursor - 1)
            cursor = store.slab.read_next(cursor - 1, 0)
        assert checked > 0

    @pytest.mark.parametrize("transport", ["tcp", "homa"])
    def test_pm_corruption_detected_by_wire_checksum(self, transport):
        tb = _stored_over(transport)
        store = tb.engine.store
        first = store.slab.read_next(store.head_slot, 0) - 1
        store.verify_slot(first)  # intact: the check below is the flip's
        record = store.slab.read_record(first)
        buf_slot, off, length = record.frags[0]
        # Silently corrupt one stored payload byte in PM (§4: storage
        # devices are faulty; data can corrupt silently).
        base = store.pool.region.global_offset(
            store.pool.slot_region_base(buf_slot) + off
        )
        tb.pm_device.data[base] ^= 0xFF
        with pytest.raises(IOError):
            store.verify_slot(first)
