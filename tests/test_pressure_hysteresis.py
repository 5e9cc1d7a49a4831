"""Watermark hysteresis edges, pinned for every pressure source.

The overload controller (docs/RESILIENCE.md §2) watches five sources:
the packet pools, the PM arena allocator, the metadata slab, an LSM
engine's current memtable and the CPU run queues.  Each one trips at
exactly its high mark.  The four occupancy sources stay pressured at
exactly their low mark and clear only below it; the queue source
clears at its low mark inclusive.  Each trip counts one pressure event,
and listeners hear ``(source, flag)`` in registration order.
"""

import pytest

from repro.core.overload import QueuePressure, SlabPressure
from repro.core.ppktbuf import RECORD_SIZE, PMetaSlab
from repro.net.pool import BufferPool
from repro.pm.alloc import ALIGN, HEADER_SIZE, HEAP_BASE, PMAllocator
from repro.pm.device import DRAMDevice, PMDevice
from repro.storage.engines import NoveLSMEngine

#: Every driver below maps level k (0..10) onto k tenths of its
#: capacity, so the default marks 0.9 / 0.7 are reached exactly.
UNITS = 10


class _PoolDriver:
    def __init__(self):
        dev = DRAMDevice(UNITS * 2048)
        self.source = BufferPool(dev.region(0, UNITS * 2048, "pool"), 2048)
        self._bufs = []

    def set(self, k):
        while len(self._bufs) < k:
            self._bufs.append(self.source.alloc())
        while len(self._bufs) > k:
            self._bufs.pop().put()


class _ArenaDriver:
    BLOCK = 64

    def __init__(self):
        size = HEAP_BASE + UNITS * self.BLOCK
        dev = PMDevice(1 << 12)
        self.source = PMAllocator(dev.region(0, size, "heap"))
        self._offsets = []

    def set(self, k):
        payload = self.BLOCK - HEADER_SIZE
        assert payload % ALIGN == 0
        while len(self._offsets) < k:
            self._offsets.append(self.source.alloc(payload))
        while len(self._offsets) > k:
            self.source.free(self._offsets.pop())


class _SlabDriver:
    def __init__(self):
        size = PMetaSlab.ROOT_SIZE + UNITS * RECORD_SIZE
        dev = PMDevice(1 << 13)
        self.slab = PMetaSlab(dev.region(0, size, "meta"))
        self.source = SlabPressure(self.slab)
        self._slots = []

    def set(self, k):
        while len(self._slots) < k:
            self._slots.append(self.slab.alloc())
        while len(self._slots) > k:
            self.slab.free(self._slots.pop())
        self.source.update()


class _FakeArena:
    level = 0.0

    def occupancy(self):
        return self.level


class _FakeMemtable:
    def __init__(self):
        self.allocator = _FakeArena()


class _FakeLSM:
    def __init__(self):
        self.memtable = _FakeMemtable()


class _MemtableDriver:
    def __init__(self):
        self.store = _FakeLSM()
        (self.source,) = NoveLSMEngine(self.store, costs=None).pressure_sources

    def set(self, k):
        self.store.memtable.allocator.level = k / UNITS
        self.source.update()


class _FakeCore:
    delay = 0.0

    def queue_delay(self, now):
        return self.delay


class _FakeHost:
    def __init__(self):
        self.cpus = type("Cpus", (), {"cores": [_FakeCore()]})()
        self.sim = type("Sim", (), {"now": 0.0})()


class _QueueDriver:
    def __init__(self):
        self.host = _FakeHost()
        self.source = QueuePressure(self.host, high_ns=90.0, low_ns=70.0)

    def set(self, k):
        self.host.cpus.cores[0].delay = 10.0 * k
        self.source.update()


DRIVERS = {
    "pool": _PoolDriver,
    "arena": _ArenaDriver,
    "slab": _SlabDriver,
    "memtable": _MemtableDriver,
    "queue": _QueueDriver,
}


@pytest.mark.parametrize("kind", sorted(DRIVERS))
def test_watermark_edges(kind):
    driver = DRIVERS[kind]()
    source = driver.source
    heard = []
    source.add_pressure_listener(lambda src, on: heard.append(("a", src, on)))
    source.add_pressure_listener(lambda src, on: heard.append(("b", src, on)))
    trip = [("a", source, True), ("b", source, True)]
    clear = [("a", source, False), ("b", source, False)]

    driver.set(8)                   # just below the high mark
    assert not source.under_pressure and heard == []
    driver.set(9)                   # exactly the high mark trips
    assert source.under_pressure
    assert heard == trip
    assert source.pressure_events == 1
    driver.set(10)
    driver.set(8)                   # inside the band: no new event
    assert source.under_pressure and heard == trip

    driver.set(7)                   # exactly the low mark
    if kind == "queue":
        assert not source.under_pressure
        assert heard == trip + clear
    else:
        assert source.under_pressure and heard == trip
        driver.set(6)               # occupancy clears only below it
        assert not source.under_pressure
        assert heard == trip + clear

    driver.set(9)                   # a second trip is a second event
    assert source.pressure_events == 2
    assert heard == trip + clear + trip


def _bad_pool(high, low):
    dev = DRAMDevice(UNITS * 2048)
    BufferPool(dev.region(0, UNITS * 2048, "pool"), 2048,
               high_watermark=high, low_watermark=low)


def _bad_slab(high, low):
    SlabPressure(_SlabDriver().slab, high_watermark=high, low_watermark=low)


def _bad_queue(high, low):
    QueuePressure(_FakeHost(), high_ns=high, low_ns=low)


@pytest.mark.parametrize("build", [_bad_pool, _bad_slab, _bad_queue],
                         ids=["pool", "slab", "queue"])
@pytest.mark.parametrize("high,low", [(0.5, 0.8), (0.5, 0.0), (0.5, -0.1)])
def test_bad_watermarks_raise(build, high, low):
    with pytest.raises(ValueError):
        build(high, low)


@pytest.mark.parametrize("build", [_bad_pool, _bad_slab],
                         ids=["pool", "slab"])
def test_occupancy_high_mark_above_one_raises(build):
    with pytest.raises(ValueError):
        build(1.5, 0.7)
