"""The lazy slot free lists hand out slots exactly as eager ones would.

:class:`BufferPool` and :class:`PMetaSlab` keep a bump index and a stack
of released slots instead of a list of every free slot.  The reference
models below are the eager form: a list of all free slots, highest
first, with ``pop``/``append``/``remove``.  Hypothesis drives both with
the same operations and compares, after every step, the slot handed
out, the exception raised, the occupancy and the counters.  Planted
variants (FIFO reuse, a pool bump that does not skip an adopted slot, a
slab adoption that forgets the holes below its highest reachable slot)
must fail the same check.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core.ppktbuf import RECORD_SIZE, PMetaSlab, SlabExhausted
from repro.net.pool import BufferPool, PoolExhausted
from repro.pm.device import DRAMDevice, PMDevice


# ---------------------------------------------------------------- references

class EagerPool:
    """Reference model of :class:`BufferPool`'s slot order and counters."""

    def __init__(self, nslots):
        self.nslots = nslots
        self.free = list(range(nslots - 1, -1, -1))
        self.in_use = set()
        self.allocs = self.frees = self.exhaustions = 0

    def alloc(self):
        if not self.free:
            self.exhaustions += 1
            raise PoolExhausted("eager")
        slot = self.free.pop()
        self.in_use.add(slot)
        self.allocs += 1
        return slot

    def release(self, slot):
        self.in_use.remove(slot)
        self.free.append(slot)
        self.frees += 1

    def adopt(self, slot):
        if not 0 <= slot < self.nslots:
            raise IndexError(slot)
        if slot in self.in_use:
            raise RuntimeError(slot)
        self.free.remove(slot)
        self.in_use.add(slot)
        return slot


class EagerSlab:
    """Reference model of :class:`PMetaSlab`'s slot order and counters."""

    def __init__(self, nslots):
        self.nslots = nslots
        self.free = list(range(nslots - 1, -1, -1))
        self.used = set()
        self.allocs = self.frees = 0

    def alloc(self):
        if not self.free:
            raise SlabExhausted("eager")
        slot = self.free.pop()
        self.used.add(slot)
        self.allocs += 1
        return slot

    def free_slot(self, slot):
        if slot not in self.used:
            raise RuntimeError(slot)
        self.used.remove(slot)
        self.free.append(slot)
        self.frees += 1

    def adopt_reachable(self, reachable):
        self.used = set(reachable)
        self.free = [slot for slot in range(self.nslots - 1, -1, -1)
                     if slot not in self.used]
        return len(self.used)


# ------------------------------------------------------------------- drivers

def _outcome(call, *args):
    """``(value, exception type)`` of one call."""
    try:
        return call(*args), None
    except Exception as exc:  # compared by type against the model
        return None, type(exc)


def check_pool(nslots, ops, pool_type=BufferPool):
    """Drive ``pool_type`` and :class:`EagerPool` in lockstep."""
    device = DRAMDevice(nslots * 64)
    pool = pool_type(device.region(0, nslots * 64, "pool"), slot_size=64)
    model = EagerPool(nslots)
    held = []
    for op, arg in ops:
        if op == "alloc":
            got = _outcome(pool.alloc)
            want = _outcome(model.alloc)
            if got[0] is not None:
                held.append(got[0])
                got = (got[0].slot, None)
        elif op == "put":
            if not held:
                continue
            buf = held.pop(arg % len(held))
            got = (buf.put(), None)
            model.release(buf.slot)
            want = (0, None)
        else:
            got = _outcome(pool.buffer_at_slot, arg)
            want = _outcome(model.adopt, arg)
            if got[0] is not None:
                held.append(got[0])
                got = (got[0].slot, None)
        assert got == want, (op, arg)
        assert pool.in_use == len(model.in_use)
        assert pool.available == len(model.free)
        assert (pool.allocs, pool.frees, pool.exhaustions) == \
            (model.allocs, model.frees, model.exhaustions)


def check_slab(nslots, ops, slab_type=PMetaSlab):
    """Drive ``slab_type`` and :class:`EagerSlab` in lockstep."""
    size = PMetaSlab.ROOT_SIZE + nslots * RECORD_SIZE
    slab = slab_type(PMDevice(size).region(0, size, "slab"))
    model = EagerSlab(nslots)
    for op, arg in ops:
        if op == "alloc":
            got = _outcome(slab.alloc)
            want = _outcome(model.alloc)
        elif op == "free":
            # Mostly a used slot; an unused one must raise in both.
            used = sorted(model.used)
            slot = used[arg % len(used)] if used and arg >= 0 \
                else -arg % nslots
            got = _outcome(slab.free, slot)
            want = _outcome(model.free_slot, slot)
        else:
            reachable = {slot for slot in range(nslots) if arg >> slot & 1}
            got = _outcome(slab.adopt_reachable, reachable)
            want = _outcome(model.adopt_reachable, reachable)
        assert got == want, (op, arg)
        assert slab.used == len(model.used)
        assert (slab.allocs, slab.frees) == (model.allocs, model.frees)


#: Small pools and slabs, so that adoptions land on slots already handed
#: out, released, or never used, and so that both run out.
MAX_SLOTS = 6

POOL_OPS = st.lists(st.tuples(
    st.sampled_from(["alloc", "put", "adopt"]),
    st.integers(-1, MAX_SLOTS),
), max_size=40)

SLAB_OPS = st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.just(0)),
    st.tuples(st.just("free"), st.integers(-2, MAX_SLOTS)),
    st.tuples(st.just("adopt"), st.integers(0, (1 << MAX_SLOTS) - 1)),
), max_size=40)

PROPERTY = settings(max_examples=200, deadline=None)


@PROPERTY
@given(nslots=st.integers(1, MAX_SLOTS), ops=POOL_OPS)
def test_pool_hands_out_slots_as_the_eager_list_does(nslots, ops):
    check_pool(nslots, ops)


@PROPERTY
@given(nslots=st.integers(2, MAX_SLOTS), ops=SLAB_OPS)
def test_slab_hands_out_slots_as_the_eager_list_does(nslots, ops):
    check_slab(nslots, ops)


def test_a_released_adopted_slot_is_reused_once():
    """Adopt a never-used slot, release it, adopt it again: it leaves the
    released stack, and the bump still skips it."""
    ops = [("adopt", 2), ("put", 0), ("adopt", 2), ("put", 0),
           ("alloc", 0), ("alloc", 0), ("alloc", 0), ("alloc", 0)]
    check_pool(3, ops)


# ------------------------------------------------------- negative controls

class _Queue(list):
    """A list whose ``pop`` takes the oldest entry: FIFO reuse."""

    def pop(self, index=0):
        return super().pop(index)


class FifoPool(BufferPool):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._recycled = _Queue()


class NoSkipPool(BufferPool):
    """Bumps straight over the slots recovery adopted."""

    def _skip_adopted(self):
        pass


class FifoSlab(PMetaSlab):
    def __init__(self, region):
        super().__init__(region)
        self._recycled = _Queue()

    def adopt_reachable(self, reachable):
        count = super().adopt_reachable(reachable)
        self._recycled = _Queue(self._recycled)
        return count


class NoStackSlab(PMetaSlab):
    """Adopts by bumping from the highest reachable slot only."""

    def adopt_reachable(self, reachable):
        count = super().adopt_reachable(reachable)
        self._recycled = []
        return count


@pytest.mark.parametrize("check, variant", [
    (check_pool, FifoPool), (check_pool, NoSkipPool),
    (check_slab, FifoSlab), (check_slab, NoStackSlab),
], ids=lambda value: getattr(value, "__name__", None))
def test_planted_variants_fail_the_check(check, variant):
    ops = POOL_OPS if check is check_pool else SLAB_OPS

    @settings(max_examples=500, deadline=None, database=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(nslots=st.integers(2, MAX_SLOTS), ops=ops)
    def run(nslots, ops):
        check(nslots, ops, variant)

    with pytest.raises(AssertionError):
        run()


# ------------------------------------------------------------ capacity cost

def test_construction_allocates_nothing_per_slot():
    """A pool of 131k slots and a slab of 1M slots cost O(1) memory."""
    pool_slots, slab_slots = 1 << 17, 1 << 20
    pool_device = DRAMDevice(pool_slots * 64)
    slab_bytes = PMetaSlab.ROOT_SIZE + slab_slots * RECORD_SIZE
    slab_device = PMDevice(slab_bytes)
    tracemalloc.start()
    try:
        pool = BufferPool(pool_device.region(0, pool_slots * 64, "pool"),
                          slot_size=64)
        slab = PMetaSlab(slab_device.region(0, slab_bytes, "slab"))
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (pool.nslots, slab.nslots) == (pool_slots, slab_slots)
    assert pool.available == pool_slots
    assert allocated < 64 << 10

