"""The two skip-list walks against record-decoding reference walks.

``RegionSkipList._find_predecessors`` and
``PacketStore._find_predecessors`` read only the bytes they compare;
the skip list takes each node's order key from its volatile ``_orders``
map, which ``insert`` and ``recover`` fill.  The reference walks below
decode each visited node the long way (the ``Region`` accessors,
``PMetaSlab.read_record``) and charge through
``Region.charge_access``.  Both must return the same predecessors and
charge the same amounts, in the same categories and order, and reject
a bad pointer or record with the same exception.
"""

import random

import pytest

from repro.core.pktstore import MAX_SEQ as STORE_MAX_SEQ, PacketStore
from repro.core.ppktbuf import MAX_HEIGHT as STORE_HEIGHT, MAX_KEY
from repro.net.pool import BufferPool
from repro.pm.device import PMDevice
from repro.pm.namespace import PMNamespace
from repro.sim import ExecutionContext
from repro.sim.context import NULL_CONTEXT
from repro.storage.skiplist import (
    COLD_LEVELS,
    HOT_VISIT_NS,
    INSERT_CATEGORY,
    MAX_HEIGHT,
    MAX_SEQ,
    RegionSkipList,
)


def reference_skiplist_walk(slist, order_key, ctx):
    preds = [slist.head_off] * MAX_HEIGHT
    node = slist.head_off
    for level in range(MAX_HEIGHT - 1, -1, -1):
        nxt = slist._next_of(node, level)
        while nxt:
            key_len, _vl, height, _fl, seq, _vc, _nc = slist._header(nxt)
            key = slist._node_key(nxt, key_len, height)
            advanced = slist._order(key, seq) < order_key
            if level == 0 or (level < slist.cold_levels and advanced):
                slist.region.charge_access(ctx, 1, INSERT_CATEGORY)
            else:
                ctx.charge(HOT_VISIT_NS, INSERT_CATEGORY)
            if not advanced:
                break
            node = nxt
            nxt = slist._next_of(node, level)
        preds[level] = node
    return preds


def reference_store_walk(store, order_key, ctx):
    slab = store.slab
    preds = [store.head_slot] * STORE_HEIGHT
    slot = store.head_slot
    for level in range(STORE_HEIGHT - 1, -1, -1):
        nxt = slab.read_next(slot, level)
        while nxt:
            record = slab.read_record(nxt - 1)
            advanced = store._order(record.key, record.seq) < order_key
            if level == 0 or (level < COLD_LEVELS and advanced):
                slab.region.charge_access(ctx, 1, "datamgmt.insert")
            else:
                ctx.charge(HOT_VISIT_NS, "datamgmt.insert")
            if not advanced:
                break
            slot = nxt - 1
            nxt = slab.read_next(slot, level)
        preds[level] = slot
    return preds


def walk_both(walk, reference, order_key):
    """Run both walks with tracing contexts; return (preds, trace) pairs."""
    ctx, ref_ctx = ExecutionContext(trace=True), ExecutionContext(trace=True)
    return (walk(order_key, ctx), ctx.trace), (reference(order_key, ref_ctx), ref_ctx.trace)


def _probes(keys, max_seq, rng):
    """Order keys to search: every key's newest and a random version,
    keys between and beyond the stored ones."""
    probes = [(key, 0) for key in keys]
    probes += [(key, max_seq - rng.randrange(1, 400)) for key in keys]
    probes += [(b"", max_seq), (b"\x00", 0), (b"\xff" * 8, 0), (b"k-0500x", 0)]
    return probes


# ----------------------------------------------------------------- skip list


def seeded_skiplist(seed, branching=4, cold_levels=COLD_LEVELS, recovered=False):
    """A list of 300 random inserts and tombstones; with ``recovered``,
    the list :meth:`RegionSkipList.recover` rebuilds after a crash."""
    size = 1 << 20
    dev = PMDevice(size)
    slist = RegionSkipList.create(dev.region(0, size, "mt"), seed=seed,
                                  branching=branching, cold_levels=cold_levels)
    rng = random.Random(seed)
    keys = [f"k-{rng.randrange(1000):04d}".encode() for _ in range(300)]
    for key in keys:
        slist.insert(key, rng.randbytes(rng.randrange(0, 64)),
                     tombstone=rng.random() < 0.05)
    if recovered:
        dev.crash()
        slist = RegionSkipList.recover(dev.region(0, size, "mt"), seed=seed,
                                       branching=branching, cold_levels=cold_levels)
    return slist, sorted(set(keys))


@pytest.mark.parametrize("seed,branching,cold_levels,recovered", [
    pytest.param(1, 4, 2, False, id="1-4-2"),
    pytest.param(7, 2, 3, False, id="7-2-3"),
    pytest.param(1, 4, 2, True, id="1-4-2-recovered"),
    pytest.param(7, 2, 3, True, id="7-2-3-recovered"),
])
def test_skiplist_walk_matches_reference(seed, branching, cold_levels, recovered):
    slist, keys = seeded_skiplist(seed, branching, cold_levels, recovered)
    assert (slist.branching, slist.cold_levels) == (branching, cold_levels)
    rng = random.Random(seed + 100)
    for probe in _probes(keys, MAX_SEQ, rng):
        ours, ref = walk_both(
            slist._find_predecessors,
            lambda order_key, ctx: reference_skiplist_walk(slist, order_key, ctx),
            probe,
        )
        assert ours == ref, probe
        assert ours[1], "a walk over a populated list visits nodes"


@pytest.mark.parametrize("seed", [1, 7])
def test_skiplist_order_map_matches_level0_after_recover(seed):
    slist, _keys = seeded_skiplist(seed, recovered=True)
    level0 = []
    node = slist._next_of(slist.head_off, 0)
    while node:
        level0.append(node)
        node = slist._next_of(node, 0)
    assert level0 and sorted(slist._orders) == sorted(level0)
    for node in level0:
        key_len, _vl, height, _fl, seq, _vc, _nc = slist._header(node)
        key = slist._node_key(node, key_len, height)
        assert slist._orders[node] == slist._order(key, seq)


def test_skiplist_pointer_past_region_end_raises_index_error():
    slist, keys = seeded_skiplist(3)
    slist._set_next(slist.head_off, MAX_HEIGHT - 1, slist.region.size + 4096,
                    NULL_CONTEXT)
    probe = slist._order(keys[0], MAX_SEQ)
    with pytest.raises(IndexError):
        reference_skiplist_walk(slist, probe, ExecutionContext())
    with pytest.raises(IndexError):
        slist._find_predecessors(probe, ExecutionContext())


# -------------------------------------------------------------- packet store


def seeded_store(seed):
    slots = 512
    dev = PMDevice(slots * 2048 + (1 << 20) + (1 << 16))
    ns = PMNamespace(dev)
    pool = BufferPool(ns.create("pool", slots * 2048), 2048)
    store = PacketStore.create(ns.create("meta", 1 << 20), pool, seed=seed)
    rng = random.Random(seed)
    keys = [f"k-{rng.randrange(1000):04d}".encode() for _ in range(300)]
    for key in keys:
        if rng.random() < 0.05:
            store.delete(key)
            continue
        buf = pool.alloc()
        buf.write(128, b"v")
        store.put(key, [(buf, 128, 1)], 1, 0, 0)
    return store, sorted(set(keys))


@pytest.mark.parametrize("seed", [1, 7])
def test_store_walk_matches_reference(seed):
    store, keys = seeded_store(seed)
    rng = random.Random(seed + 100)
    for probe in _probes(keys, STORE_MAX_SEQ, rng):
        ours, ref = walk_both(
            lambda order_key, ctx: [link - 1 for link in store._find_predecessors(order_key, ctx)],
            lambda order_key, ctx: reference_store_walk(store, order_key, ctx),
            probe,
        )
        assert ours == ref, probe
        assert ours[1], "a walk over a populated store visits records"


def _linked_slot(store):
    return store.slab.read_next(store.head_slot, 0) - 1


def test_store_pointer_past_region_end_raises_index_error():
    store, keys = seeded_store(3)
    store.slab.write_next(store.head_slot, STORE_HEIGHT - 1,
                          store.slab.nslots + 16)
    probe = store._order(keys[0], STORE_MAX_SEQ)
    with pytest.raises(IndexError):
        reference_store_walk(store, probe, ExecutionContext())
    with pytest.raises(IndexError):
        store._find_predecessors(probe, ExecutionContext())


def test_store_linked_slot_with_zeroed_magic_raises_value_error():
    store, keys = seeded_store(3)
    slot = _linked_slot(store)
    store.slab.region.write(store.slab.slot_base(slot), b"\x00\x00\x00\x00")
    probe = store._order(keys[0], STORE_MAX_SEQ)
    with pytest.raises(ValueError):
        reference_store_walk(store, probe, ExecutionContext())
    with pytest.raises(ValueError):
        store._find_predecessors(probe, ExecutionContext())


@pytest.mark.parametrize("offset,value,expect", [
    (10, 9, ValueError),       # height > MAX_HEIGHT
    (11, 5, ValueError),       # nfrags > INLINE_FRAGS
    (11, 200, ValueError),     # nfrags far past the fragment area
    (12, 0xFF, MAX_KEY),       # key_len past the record end: key capped
    (9, 0xFF, None),           # flags are not part of the order
])
def test_read_order_rejects_where_read_record_does(offset, value, expect):
    store, _keys = seeded_store(5)
    slab = store.slab
    slot = _linked_slot(store)
    slab.region.write(slab.slot_base(slot) + offset, bytes([value]))
    if expect is ValueError:
        with pytest.raises(ValueError):
            slab.read_record(slot)
        with pytest.raises(ValueError):
            slab.read_order(slot)
        return
    record = slab.read_record(slot)
    assert slab.read_order(slot) == (record.key, record.seq)
    if expect is not None:
        assert len(record.key) == expect


# ------------------------------------------------------ one traversal (§4.2)


@pytest.mark.parametrize("seed", [1, 7])
def test_packet_index_walk_equals_storage_index_walk(seed):
    """§4.2: the packet store pays the storage skip list's traversal.

    Both indexes take the same seed, so they draw the same towers, and
    the same 300 puts; every probe's walk then charges the same
    ``(category, ns)`` sequence in both.
    """
    size = 1 << 20
    slist = RegionSkipList.create(PMDevice(size).region(0, size, "mt"), seed=seed)
    slots = 512
    ns = PMNamespace(PMDevice(slots * 2048 + size + (1 << 16)))
    pool = BufferPool(ns.create("pool", slots * 2048), 2048)
    store = PacketStore.create(ns.create("meta", size), pool, seed=seed)
    rng = random.Random(seed)
    keys = [f"k-{rng.randrange(1000):04d}".encode() for _ in range(300)]
    for key in keys:
        slist.insert(key, b"v")
        buf = pool.alloc()
        buf.write(128, b"v")
        store.put(key, [(buf, 128, 1)], 1, 0, 0)
    probe_rng = random.Random(seed + 100)
    for probe in _probes(sorted(set(keys)), MAX_SEQ, probe_rng):
        traces = []
        for index in (slist, store):
            ctx = ExecutionContext(trace=True)
            index._find_predecessors(probe, ctx)
            traces.append(ctx.trace)
        assert traces[0] == traces[1], probe
        assert traces[0], "a walk over a populated index visits nodes"
