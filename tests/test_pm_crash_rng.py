"""The seeded-rng crash contract (repro.pm.cache.FlushTracker.crash).

Every crash in the suite must be reproducible from seeds alone:
``rng=None`` never falls back to global randomness, the ``random``
module itself is rejected (hidden global state), drain decisions are
made in sorted line order so they are independent of store/flush
history, and the drain probability is validated.
"""

import random

import pytest

from repro.pm.device import DRAMDevice, PMDevice


def _dirty_pending_device(lines=(0, 2, 5, 9), size=4096):
    """A device with the given cache lines sitting in the pending queue."""
    dev = PMDevice(size)
    for line in lines:
        dev.write(line * 64, bytes([line + 1]) * 64)
        dev.flush(line * 64, 64)
    return dev


def test_crash_rejects_random_module():
    dev = _dirty_pending_device()
    with pytest.raises(TypeError, match="seeded RNG instance"):
        dev.crash(rng=random)


def test_crash_rejects_object_without_random_method():
    dev = _dirty_pending_device()
    with pytest.raises(TypeError):
        dev.crash(rng=object())


def test_crash_validates_drain_probability():
    for bad in (-0.1, 1.5):
        dev = _dirty_pending_device()
        with pytest.raises(ValueError):
            dev.crash(rng=random.Random(1), pending_persist_prob=bad)


def test_crash_without_rng_is_conservative_and_deterministic():
    images = []
    for _ in range(2):
        dev = _dirty_pending_device()
        dev.crash()  # no rng: every pending line dropped, bit-for-bit
        images.append(dev.persisted_view(0, dev.size))
    assert images[0] == images[1]
    assert images[0] == bytes(4096)


def test_same_seed_same_drain_outcome():
    outcomes = []
    for _ in range(2):
        dev = _dirty_pending_device()
        dev.crash(rng=random.Random(77), pending_persist_prob=0.5)
        outcomes.append(dev.persisted_view(0, dev.size))
    assert outcomes[0] == outcomes[1]


def test_drain_order_is_canonical_not_historical():
    """Two devices with identical pending content but different
    store/flush *order* must make identical drain decisions for the
    same seed — the tracker visits pending lines sorted, not in
    insertion order."""
    lines = (0, 2, 5, 9)
    forward = _dirty_pending_device(lines)
    backward = _dirty_pending_device(tuple(reversed(lines)))
    forward.crash(rng=random.Random(123), pending_persist_prob=0.4)
    backward.crash(rng=random.Random(123), pending_persist_prob=0.4)
    assert (forward.persisted_view(0, forward.size)
            == backward.persisted_view(0, backward.size))


def test_probability_extremes():
    dev = _dirty_pending_device((0, 1, 2))
    dev.crash(rng=random.Random(1), pending_persist_prob=1.0)
    assert dev.persisted_view(0, dev.size)[0:192] != bytes(192)  # all drained
    dev2 = _dirty_pending_device((0, 1, 2))
    dev2.crash(rng=random.Random(1), pending_persist_prob=0.0)
    assert dev2.persisted_view(0, dev2.size)[0:192] == bytes(192)  # none drained


def test_dram_crash_accepts_uniform_signature():
    """Crash-injection code power-cycles any device kind through one
    signature; DRAM ignores the knobs but must accept them."""
    dev = DRAMDevice(1024)
    dev.write(0, b"gone")
    dev.crash(rng=random.Random(1), pending_persist_prob=0.3)
    assert bytes(dev.read(0, 4)) == bytes(4)
