"""``write_persist`` is ``write`` + ``flush`` + ``fence``, bit for bit.

Two :class:`~repro.pm.device.PMDevice` twins run the same random
history of stores, write-backs, fences and fused calls; one twin makes
each fused call as ``write_persist``, the other as the three calls.
The twins must agree after every step on every byte, every tracker set
and counter and every charge in order, and at the end on the image a
crash leaves, whichever path the fused call took.  A copy of ``write_persist`` whose fast path skips the
``pending`` check must fail the same property.
"""

import inspect
import random
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.pm.device import PMDevice
from repro.sim.context import ExecutionContext, NULL_CONTEXT

# Suite-mode PMSan attaches an observer to every device, and an
# observed device never takes the fast path these tests are about.
pytestmark = pytest.mark.no_pmsan

SIZE = 2048  # 32 cache lines
LINE = 64

_inside = st.tuples(st.integers(0, SIZE - 1), st.integers(0, 2 * LINE)).map(
    lambda t: (t[0], min(t[1], SIZE - t[0])))
_straddle = st.tuples(
    st.integers(1, SIZE // LINE - 1), st.integers(1, LINE), st.integers(1, LINE)
).map(lambda t: (t[0] * LINE - t[1], t[1] + t[2]))
# Past either end: these raise on both twins and change nothing.
_outside = st.one_of(
    st.tuples(st.integers(-LINE, -1), st.integers(0, LINE)),
    st.tuples(st.integers(SIZE - LINE, SIZE + LINE), st.integers(LINE + 1, 2 * LINE)),
)
_span = st.one_of(_inside, _inside, _straddle, _outside)
_category = st.sampled_from(["persist", "pm.flush"])

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _span, _category),
        st.tuples(st.just("flush"), _span, _category),
        # A store written back and left unfenced: its lines go pending.
        st.tuples(st.just("stage"), _span, _category),
        st.tuples(st.just("fence"), st.none(), _category),
        st.tuples(st.just("write_persist"), _span, _category),
    ),
    min_size=4, max_size=40,
)


def _apply(device, ctx, op, offset, payload, category, fused):
    length = len(payload)
    try:
        if op in ("write", "stage"):
            device.write(offset, payload)
            if op == "stage":
                device.flush(offset, length, ctx, category)
        elif op == "flush":
            device.flush(offset, length, ctx, category)
        elif op == "fence":
            device.fence(ctx, category)
        elif fused:
            device.write_persist(offset, payload, ctx, category)
        else:
            device.write(offset, payload)
            device.flush(offset, length, ctx, category)
            device.fence(ctx, category)
    except IndexError:
        pass


def _snapshots(pending):
    return {line: bytes(buf[line * LINE - base:][:LINE])
            for line, (buf, base) in pending.items()}


def _state(device, ctx):
    tracker = device.tracker
    return {
        "data": bytes(device.data),
        "dirty": set(tracker.dirty),
        "pending": _snapshots(tracker.pending),
        "shadow": set(tracker.shadow),
        "persisted": device.persisted_view(0, SIZE),
        "counters": (tracker.stores, tracker.flushes, tracker.fences),
        "elapsed": ctx.elapsed.hex(),
        "by_category": {k: v.hex() for k, v in ctx.by_category.items()},
        "charges": list(ctx.trace),
    }


def _crash_image(device, crash_seed):
    rng = None if crash_seed is None else random.Random(crash_seed)
    device.crash(rng=rng)
    return bytes(device.data)


def _twins_agree(device_class, ops, payload_seed, crash_seed):
    """Run ``ops`` on a fused twin and a three-call twin in lockstep,
    comparing them after every step and the crash images at the end."""
    for seed in (None, crash_seed):
        rng = random.Random(payload_seed)
        fused, fused_ctx = device_class(SIZE), ExecutionContext(trace=True)
        split, split_ctx = PMDevice(SIZE), ExecutionContext(trace=True)
        for op, span, category in ops:
            offset, length = span or (0, 0)
            payload = bytes(rng.randrange(256) for _ in range(length))
            _apply(fused, fused_ctx, op, offset, payload, category, True)
            _apply(split, split_ctx, op, offset, payload, category, False)
            assert _state(fused, fused_ctx) == _state(split, split_ctx)
        assert _crash_image(fused, seed) == _crash_image(split, seed)


@settings(max_examples=150, deadline=None)
@given(ops=ops_strategy, payload_seed=st.integers(0, 2**31),
       crash_seed=st.integers(0, 2**16))
# A fused call while another line is pending: the fence drains it.
@example(ops=[("write", (0, 10), "persist"), ("flush", (0, 10), "persist"),
              ("write_persist", (64, 8), "persist")],
         payload_seed=1, crash_seed=3)
# Over a dirty line, then a multi-line span next to a shadowed one.
@example(ops=[("write", (100, 4), "persist"),
              ("write_persist", (96, 40), "pm.flush"),
              ("write", (0, 1), "persist"),
              ("write_persist", (64, 3 * LINE), "persist"),
              ("write_persist", (SIZE - 4, 8), "persist"),
              ("write_persist", (5, 0), "persist")],
         payload_seed=2, crash_seed=4)
def test_fused_call_equals_the_three_calls(ops, payload_seed, crash_seed):
    _twins_agree(PMDevice, ops, payload_seed, crash_seed)


def _device_without_pending_check():
    """A PMDevice whose fast path ignores pending write-backs."""
    source = textwrap.dedent(inspect.getsource(PMDevice.write_persist))
    guard = " and not tracker.pending"
    assert guard in source
    namespace = {"PMDevice": PMDevice, "NULL_CONTEXT": NULL_CONTEXT}
    exec("class NoPendingCheck(PMDevice):\n"
         + textwrap.indent(source.replace(guard, ""), "    "), namespace)
    return namespace["NoPendingCheck"]


def test_fast_path_without_pending_check_fails_the_property():
    mutant = _device_without_pending_check()
    check = settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)(
        given(ops=ops_strategy, payload_seed=st.integers(0, 2**31),
              crash_seed=st.integers(0, 2**16))(
            lambda ops, payload_seed, crash_seed:
                _twins_agree(mutant, ops, payload_seed, crash_seed)))
    with pytest.raises(AssertionError):
        check()


class _Observer:
    def __init__(self):
        self.events = []

    def on_store(self, device, offset, length):
        self.events.append(("store", offset, length))

    def on_flush(self, device, offset, length, lines):
        self.events.append(("flush", offset, length, lines))

    def on_fence(self, device):
        self.events.append(("fence",))


def test_observer_sees_store_flush_fence_in_order():
    device = PMDevice(SIZE)
    device.observer = observer = _Observer()
    assert device.write_persist(60, b"x" * 10, NULL_CONTEXT, "persist") == 2
    assert observer.events == [("store", 60, 10), ("flush", 60, 10, 2),
                               ("fence",)]


def test_region_forwards_and_checks_its_own_bounds():
    device = PMDevice(SIZE)
    region = device.region(128, 256)
    ctx = ExecutionContext()
    assert region.write_persist(250, b"abcdef", ctx, "persist") == 1
    assert device.read(378, 6) == b"abcdef"
    assert device.persisted_view(378, 6) == b"abcdef"
    assert ctx.by_category == {"persist": device.flush_line_ns + device.fence_ns}
    with pytest.raises(IndexError):
        region.write_persist(252, b"abcdef", ctx)
    assert device.tracker.stores == 1


def test_dram_write_persist_is_a_write():
    from repro.pm.device import DRAMDevice

    device = DRAMDevice(SIZE)
    ctx = ExecutionContext()
    assert device.write_persist(8, b"abc", ctx) == 0
    assert device.read(8, 3) == b"abc"
    assert ctx.elapsed == 0.0

