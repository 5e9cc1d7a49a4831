"""The delta-shadow devices against full-image reference semantics.

:class:`~repro.pm.device.PMDevice` keeps one byte image and derives the
persisted one from its tracker's delta shadow; the replay cursors of
:mod:`repro.testing.replay` still keep two full images.  Driving a
recording device and a cursor through the same random history of
writes, flushes, fences and seeded crashes, the two must agree on
every byte, every dirty/pending line and every durability verdict.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.testing import RecordingBlockDevice, RecordingPMDevice, make_cursor

SIZE = 1024  # 16 cache lines
LINE = 64
BLOCK = 512
BLOCK_SIZE_DEV = 8 * BLOCK

_range = st.tuples(st.integers(0, SIZE - 1), st.integers(0, 200))
_straddle = st.tuples(
    st.integers(1, SIZE // LINE - 1), st.integers(1, LINE), st.integers(1, LINE)
).map(lambda t: (t[0] * LINE - t[1], t[1] + t[2]))

pm_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.one_of(_range, _straddle)),
        st.tuples(st.just("rewrite"), _range),
        st.tuples(st.just("flush"), _range),
        st.tuples(st.just("fence"), st.none()),
        st.tuples(st.just("crash"), st.tuples(
            st.integers(0, 2**16), st.sampled_from([0.0, 0.3, 0.5, 1.0]))),
    ),
    max_size=50,
)


def _clip(span, size=SIZE):
    offset, length = span
    return offset, min(length, size - offset)


def _catch_up(cursor, trace):
    for event in trace.events[cursor.applied:]:
        cursor.apply(event)


def _snapshots(pending):
    """Per-line write-back snapshot bytes of a tracker's pending entries."""
    return {line: bytes(buf[line * LINE - base:][:LINE])
            for line, (buf, base) in pending.items()}


def _reference_crash(cursor, seed, prob):
    """Full-image crash: drain pending lines in sorted order by ``seed``."""
    rng = random.Random(seed)
    drained = [line for line in cursor.pending_units() if rng.random() < prob]
    image = cursor.crash_image(drained)
    cursor.data = bytearray(image)
    cursor.persisted = bytearray(image)
    cursor.dirty.clear()
    cursor.pending.clear()


@settings(max_examples=150, deadline=None)
@given(ops=pm_ops, payload_seed=st.integers(0, 2**31),
       probe_seed=st.integers(0, 2**31))
# Write-backs over three lines whose middle line is clean: the span
# shares one snapshot, only the dirty lines go pending, and a fence and
# a draining crash move the shared entries on.
@example(ops=[("write", (0, 200)), ("flush", (0, 200)), ("fence", None),
              ("write", (10, 4)), ("write", (150, 4)), ("flush", (0, 192)),
              ("write", (12, 1)), ("fence", None),
              ("write", (140, 4)), ("flush", (0, 192)),
              ("crash", (3, 1.0))],
         payload_seed=1, probe_seed=2)
def test_pm_device_matches_full_image_reference(ops, payload_seed, probe_seed):
    rng = random.Random(payload_seed)
    probe_rng = random.Random(probe_seed)
    device = RecordingPMDevice(SIZE)
    cursor = make_cursor(device.trace)
    tracker = device.tracker
    for op, arg in ops:
        if op == "write":
            offset, length = _clip(arg)
            device.write(offset, bytes(rng.randrange(256) for _ in range(length)))
        elif op == "rewrite":
            # Identical bytes: the lines go dirty but stay byte-durable.
            offset, length = _clip(arg)
            device.write(offset, device.read(offset, length))
        elif op == "flush":
            device.flush(*_clip(arg))
        elif op == "fence":
            device.fence()
            assert set(tracker.shadow) <= tracker.dirty
        else:
            seed, prob = arg
            image = device.data
            _catch_up(cursor, device.trace)
            device.crash(rng=random.Random(seed), pending_persist_prob=prob)
            _reference_crash(cursor, seed, prob)
            assert device.data is image
            assert not tracker.shadow
        _catch_up(cursor, device.trace)

        assert device.persisted_view(0, SIZE) == bytes(cursor.persisted)
        assert bytes(device.data) == bytes(cursor.data)
        assert tracker.dirty == cursor.dirty
        assert _snapshots(tracker.pending) == cursor.pending
        assert set(tracker.shadow) == tracker.dirty | set(tracker.pending)
        for _ in range(2):
            offset, length = _clip((probe_rng.randrange(SIZE), probe_rng.randrange(201)))
            expected = (cursor.data[offset:offset + length]
                        == cursor.persisted[offset:offset + length])
            assert device.is_durable(offset, length) == expected
            assert (device.persisted_view(offset, length)
                    == bytes(cursor.persisted[offset:offset + length]))


def test_identical_rewrite_stays_durable():
    device = RecordingPMDevice(SIZE)
    device.write(60, b"spans two lines")
    device.persist(60, 15)
    device.write(60, b"spans two lines")
    assert device.tracker.dirty == {0, 1}
    assert device.is_durable(0, SIZE)
    device.write(62, b"X")
    assert not device.is_durable(60, 15)
    assert device.is_durable(0, 60)


_block_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.tuples(
            st.integers(0, BLOCK_SIZE_DEV - 1), st.integers(1, 3 * BLOCK))),
        st.tuples(st.just("sync"), st.none()),
        st.tuples(st.just("crash"), st.none()),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(ops=_block_ops, payload_seed=st.integers(0, 2**31))
def test_block_device_matches_full_image_reference(ops, payload_seed):
    rng = random.Random(payload_seed)
    device = RecordingBlockDevice(BLOCK_SIZE_DEV, block_size=BLOCK)
    cursor = make_cursor(device.trace)
    for op, arg in ops:
        if op == "write":
            offset, length = _clip(arg, BLOCK_SIZE_DEV)
            device.write(offset, bytes(rng.randrange(256) for _ in range(length)))
        elif op == "sync":
            device.sync()
        else:
            _catch_up(cursor, device.trace)
            image = device.data
            device.crash()
            assert device.data is image
            cursor.data = cursor.crash_image()
            cursor.unsynced.clear()
        _catch_up(cursor, device.trace)
        assert bytes(device.data) == bytes(cursor.data)
        assert (device.durable_view(0, BLOCK_SIZE_DEV)
                == bytes(cursor.crash_image()))
        assert device.durable_view(BLOCK - 7, 20) == \
            bytes(cursor.crash_image()[BLOCK - 7:BLOCK + 13])
