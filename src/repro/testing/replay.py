"""Offline replay of a persistence-event trace to any crash point.

A :class:`PMReplayCursor` re-executes the exact cache-line semantics of
:class:`~repro.pm.cache.FlushTracker` event by event: stores dirty
lines, ``flush`` snapshots dirty lines into the write-pending queue,
``fence`` drains the queue into the persistent image.  At any point the
cursor can produce the set of images a power cut could leave behind:

- the conservative image (every pending line lost),
- the full-drain image (every pending line made it), and
- any *subset* of pending lines drained — torn/reordered write-backs,
  which real write-pending queues produce because drains are unordered.

Replaying incrementally makes an exhaustive sweep O(events) in replay
work plus one image copy per crash scenario, instead of re-running the
workload once per crash point.

Fault injection happens here too: ``drop_fences=True`` replays the same
trace as if the protocol's ``sfence`` calls were deleted,
``drop_flushes=True`` as if the ``clwb`` calls were — the two classic
PM bugs the literature keeps finding.  A correct sweep turns red under
either, which is how the framework proves it can actually detect
protocol breakage.
"""

from repro.pm.constants import CACHE_LINE
from repro.pm.device import PMDevice
from repro.storage.blockdev import BLOCK_SIZE, BlockDevice

from repro.testing.events import (
    EV_BLK_SYNC,
    EV_BLK_WRITE,
    EV_FENCE,
    EV_FLUSH,
    EV_WRITE,
    TRACE_BLOCK,
    TRACE_PM,
)


class PMReplayCursor:
    """Incremental replay of a PM trace with FlushTracker semantics."""

    def __init__(self, size, line_size=CACHE_LINE, drop_fences=False,
                 drop_flushes=False):
        self.size = size
        self.line_size = line_size
        self.drop_fences = drop_fences
        self.drop_flushes = drop_flushes
        self.data = bytearray(size)
        self.persisted = bytearray(size)
        self.dirty = set()
        self.pending = {}
        self.applied = 0

    def _lines_for(self, offset, length):
        if length <= 0:
            return range(0)
        first = offset // self.line_size
        last = (offset + length - 1) // self.line_size
        return range(first, last + 1)

    def apply(self, event):
        """Replay one event (must be called in trace order)."""
        if event.kind == EV_WRITE:
            payload = event.payload
            self.data[event.offset:event.offset + len(payload)] = payload
            self.dirty.update(self._lines_for(event.offset, len(payload)))
        elif event.kind == EV_FLUSH:
            if not self.drop_flushes:
                for line in self._lines_for(event.offset, event.length):
                    if line in self.dirty:
                        start = line * self.line_size
                        self.pending[line] = bytes(
                            self.data[start:start + self.line_size]
                        )
                        self.dirty.discard(line)
        elif event.kind == EV_FENCE:
            if not self.drop_fences:
                for line, snapshot in self.pending.items():
                    start = line * self.line_size
                    self.persisted[start:start + len(snapshot)] = snapshot
                self.pending.clear()
        else:
            raise ValueError(f"PM cursor cannot replay {event.kind!r}")
        self.applied += 1

    def pending_units(self):
        """Sorted pending line indices (the in-limbo set at a crash)."""
        return sorted(self.pending)

    def crash_image(self, drained=()):
        """The persistence-domain bytes if ``drained`` pending lines
        made it out of the write-pending queue and the rest did not."""
        image = bytearray(self.persisted)
        for line in drained:
            snapshot = self.pending[line]
            start = line * self.line_size
            image[start:start + len(snapshot)] = snapshot
        return image

    def materialize(self, image):
        """A fresh post-crash :class:`PMDevice` holding ``image``."""
        device = PMDevice(self.size, name="pmem-crashed")
        device.data = bytearray(image)
        device.crashes = 1
        return device


class BlockReplayCursor:
    """Incremental replay of a block-device trace.

    Pending units are unsynced blocks; a crash persists an arbitrary
    subset of them (torn multi-block writes), which is exactly the
    failure a WAL's per-record CRC must turn into a clean prefix.
    """

    def __init__(self, size, block_size=BLOCK_SIZE, drop_syncs=False):
        self.size = size
        self.block_size = block_size
        self.drop_syncs = drop_syncs
        self.data = bytearray(size)
        self.durable = bytearray(size)
        self.unsynced = set()
        self.applied = 0

    def _blocks_for(self, offset, length):
        if length <= 0:
            return range(0)
        first = offset // self.block_size
        last = (offset + length - 1) // self.block_size
        return range(first, last + 1)

    def apply(self, event):
        if event.kind == EV_BLK_WRITE:
            payload = event.payload
            self.data[event.offset:event.offset + len(payload)] = payload
            self.unsynced.update(self._blocks_for(event.offset, len(payload)))
        elif event.kind == EV_BLK_SYNC:
            if not self.drop_syncs:
                for block in self.unsynced:
                    start = block * self.block_size
                    self.durable[start:start + self.block_size] = \
                        self.data[start:start + self.block_size]
                self.unsynced.clear()
        else:
            raise ValueError(f"block cursor cannot replay {event.kind!r}")
        self.applied += 1

    def pending_units(self):
        return sorted(self.unsynced)

    def crash_image(self, drained=()):
        image = bytearray(self.durable)
        for block in drained:
            start = block * self.block_size
            image[start:start + self.block_size] = \
                self.data[start:start + self.block_size]
        return image

    def materialize(self, image):
        device = BlockDevice(self.size, block_size=self.block_size,
                             name="ssd-crashed")
        device.data = bytearray(image)
        return device


def make_cursor(trace, drop_fences=False, drop_flushes=False):
    """The right cursor for a trace's device kind."""
    if trace.kind == TRACE_PM:
        return PMReplayCursor(trace.device_size, trace.unit_size,
                              drop_fences=drop_fences,
                              drop_flushes=drop_flushes)
    if trace.kind == TRACE_BLOCK:
        return BlockReplayCursor(trace.device_size, trace.unit_size,
                                 drop_syncs=drop_fences)
    raise ValueError(f"unknown trace kind {trace.kind!r}")
