"""Tests for packet-store garbage collection (space reclamation)."""

from hypothesis import example, given, settings, strategies as st

from repro.core.pktstore import PacketStore
from repro.core.ppktbuf import SlabExhausted
from repro.net.pool import BufferPool
from repro.pm.device import PMDevice
from repro.pm.namespace import PMNamespace
from repro.sim.context import ExecutionContext


def make_store(pool_slots=256, meta_bytes=1 << 20):
    dev = PMDevice((pool_slots * 2048) + meta_bytes + (1 << 16))
    ns = PMNamespace(dev)
    pool = BufferPool(ns.create("pool", pool_slots * 2048), 2048)
    store = PacketStore.create(ns.create("meta", meta_bytes), pool)
    return store, pool, dev, ns


def adopt(pool, payload):
    buf = pool.alloc()
    buf.write(64, payload)
    return [(buf, 64, len(payload))]


class TestGC:
    def test_gc_reclaims_superseded_versions(self):
        store, pool, _, _ = make_store()
        for round_no in range(5):
            store.put(b"k", adopt(pool, f"v{round_no}".encode()), 2, 0, 0)
        assert store.count == 5
        reclaimed = store.gc()
        assert reclaimed == 4
        assert store.count == 1
        assert store.get(b"k") == b"v4"

    def test_gc_frees_packet_buffers(self):
        store, pool, _, _ = make_store()
        for i in range(10):
            store.put(b"k", adopt(pool, bytes([i]) * 100), 100, 0, 0)
        in_use_before = pool.in_use
        store.gc()
        assert pool.in_use == in_use_before - 9

    def test_gc_frees_metadata_slots(self):
        store, pool, _, _ = make_store()
        for i in range(8):
            store.put(b"k", adopt(pool, b"x"), 1, 0, 0)
        used_before = store.slab.used
        store.gc()
        assert store.slab.used == used_before - 7

    def test_gc_drops_newest_tombstones(self):
        store, pool, _, _ = make_store()
        store.put(b"dead", adopt(pool, b"v"), 1, 0, 0)
        store.delete(b"dead")
        store.put(b"live", adopt(pool, b"v"), 1, 0, 0)
        reclaimed = store.gc()
        assert reclaimed == 2  # old version + its tombstone
        assert list(store.scan()) == [(b"live", b"v")]
        assert store.get(b"dead") is None

    def test_gc_keeps_tombstones_when_asked(self):
        store, pool, _, _ = make_store()
        store.put(b"k", adopt(pool, b"v"), 1, 0, 0)
        store.delete(b"k")
        reclaimed = store.gc(drop_tombstones=False)
        assert reclaimed == 1  # only the superseded value
        assert store.get(b"k") is None  # tombstone still hides it

    def test_gc_on_clean_store_is_noop(self):
        store, pool, _, _ = make_store()
        for i in range(5):
            store.put(f"k{i}".encode(), adopt(pool, b"v"), 1, 0, 0)
        assert store.gc() == 0
        assert store.count == 5

    def test_store_fully_usable_after_gc(self):
        store, pool, _, _ = make_store()
        for i in range(4):
            store.put(b"a", adopt(pool, bytes([i])), 1, 0, 0)
            store.put(b"b", adopt(pool, bytes([i + 100])), 1, 0, 0)
        store.gc()
        store.put(b"c", adopt(pool, b"new"), 3, 0, 0)
        assert store.get(b"a") == bytes([3])
        assert store.get(b"b") == bytes([103])
        assert store.get(b"c") == b"new"
        assert [k for k, _ in store.scan()] == [b"a", b"b", b"c"]

    def test_gc_survives_crash(self):
        store, pool, dev, ns = make_store()
        for i in range(6):
            store.put(b"k", adopt(pool, bytes([i]) * 10), 10, 0, 0)
        store.put(b"other", adopt(pool, b"keep"), 4, 0, 0)
        store.gc()
        dev.crash()
        ns2 = PMNamespace.reopen(dev)
        pool2 = BufferPool(ns2.open("pool"), 2048)
        store2, report = PacketStore.recover(ns2.open("meta"), pool2)
        assert dict(store2.scan()) == {b"k": bytes([5]) * 10, b"other": b"keep"}
        assert report.recovered == 2

    def test_slots_reclaimed_by_gc_are_reusable(self):
        store, pool, _, _ = make_store(pool_slots=8)
        # Fill the pool with versions of one key, GC, then refill.
        for i in range(6):
            store.put(b"k", adopt(pool, bytes([i])), 1, 0, 0)
        store.gc()
        for i in range(5):
            store.put(f"fresh-{i}".encode(), adopt(pool, b"y"), 1, 0, 0)
        assert len(list(store.scan())) == 6


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "del", "gc"]),
            st.integers(0, 6),
            st.binary(min_size=1, max_size=64),
        ),
        max_size=40,
    )
)
def test_property_gc_never_changes_visible_contents(ops):
    """GC at any moment is invisible to readers (modulo tombstone drop)."""
    store, pool, _, _ = make_store(pool_slots=512)
    model = {}
    for op, key_id, value in ops:
        key = f"key-{key_id}".encode()
        if op == "put":
            store.put(key, adopt(pool, value), len(value), 0, 0)
            model[key] = value
        elif op == "del":
            store.delete(key)
            model.pop(key, None)
        else:
            store.gc()
        assert dict(store.scan()) == {k: v for k, v in sorted(model.items())}
    store.gc()
    assert dict(store.scan()) == model


# ---------------------------------------------------------------- differential

def reference_gc(store, ctx, drop_tombstones=True):
    """The full-scan gc the victim maps replaced, kept as the reference.

    Walks the whole level-0 list, decoding every record, and unlinks a
    key's every version but the newest, plus a newest tombstone.
    Returns the victim slots in unlink order.
    """
    victims = []
    last_key = None
    cursor = store.slab.read_next(store.head_slot, 0)
    while cursor:
        slot = cursor - 1
        record = store.slab.read_record(slot)
        cursor = store.slab.read_next(slot, 0)
        if record.key == last_key:
            victims.append((slot, record))
        else:
            last_key = record.key
            if drop_tombstones and record.tombstone:
                victims.append((slot, record))
    for slot, record in victims:
        store._unlink(slot, record, ctx)
    return [slot for slot, _record in victims]


class _World:
    """One packet store on its own PM device, with a metadata slab of
    only 8 slots so puts run into ``SlabExhausted``."""

    def __init__(self):
        self.store, self.pool, self.dev, _ns = make_store(
            pool_slots=128, meta_bytes=64 + 8 * 256)

    def crash_and_recover(self, ctx):
        self.dev.crash()
        ns = PMNamespace.reopen(self.dev)
        self.pool = BufferPool(ns.open("pool"), 2048)
        self.store, report = PacketStore.recover(ns.open("meta"), self.pool,
                                                 ctx=ctx)
        return report.recovered, report.discarded_records

    def put(self, key, pieces, ctx):
        frags = [frag for piece in pieces for frag in adopt(self.pool, piece)]
        try:
            return self.store.put(key, frags, sum(map(len, pieces)), 0, 0, ctx)
        except SlabExhausted:
            return "exhausted"

    def delete(self, key, ctx):
        try:
            return self.store.delete(key, ctx)
        except SlabExhausted:
            return "exhausted"

    def gc(self, ctx, drop_tombstones):
        """The store's own gc; returns the slots it unlinked, in order."""
        store = self.store
        unlinked = []
        unlink = store._unlink

        def spy(node_slot, record, ctx):
            unlinked.append(node_slot)
            unlink(node_slot, record, ctx)

        store._unlink = spy
        try:
            reclaimed = store.gc(ctx, drop_tombstones=drop_tombstones)
        finally:
            del store._unlink
        assert reclaimed == len(unlinked)
        return unlinked

    def state(self):
        return (list(self.store.scan()), self.store.count,
                self.store.slab.used, self.pool.in_use)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 4), st.integers(1, 6)),
        st.tuples(st.just("del"), st.integers(0, 4)),
        st.tuples(st.just("gc"), st.booleans()),
        st.tuples(st.just("crash")),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
@example(ops=[("put", 0, 1), ("put", 0, 1), ("gc", False)])
@example(ops=[("put", 0, 1), ("del", 0), ("put", 1, 1), ("gc", True)])
@example(ops=[("put", 0, 5), ("put", 0, 1), ("del", 1), ("crash",),
              ("gc", True)])
@example(ops=[("put", 0, 6)] * 8 + [("gc", True), ("put", 1, 1)])
def test_property_gc_matches_full_scan_reference(ops):
    """The victim maps reclaim exactly what the full scan did: the same
    slots in the same order, the same charges, the same contents."""
    mine, ref = _World(), _World()
    for step, op in enumerate(ops):
        ctx_mine, ctx_ref = ExecutionContext(trace=True), ExecutionContext(trace=True)
        if op[0] == "put":
            key = f"key-{op[1]}".encode()
            pieces = [f"{step}.{i}".encode() for i in range(op[2])]
            got = mine.put(key, pieces, ctx_mine), ref.put(key, pieces, ctx_ref)
        elif op[0] == "del":
            key = f"key-{op[1]}".encode()
            got = mine.delete(key, ctx_mine), ref.delete(key, ctx_ref)
        elif op[0] == "gc":
            got = (mine.gc(ctx_mine, op[1]),
                   reference_gc(ref.store, ctx_ref, op[1]))
        else:
            got = (mine.crash_and_recover(ctx_mine),
                   ref.crash_and_recover(ctx_ref))
        assert got[0] == got[1], (step, op)
        assert ctx_mine.trace == ctx_ref.trace, (step, op)
        assert mine.state() == ref.state(), (step, op)
    final_mine, final_ref = ExecutionContext(trace=True), ExecutionContext(trace=True)
    assert mine.gc(final_mine, True) == reference_gc(ref.store, final_ref)
    assert final_mine.trace == final_ref.trace
    assert mine.state() == ref.state()
