"""Recording devices: drop-in replacements that journal every
persistence event.

:class:`RecordingPMDevice` subclasses :class:`~repro.pm.device.PMDevice`
so every existing component — regions, namespaces, buffer pools, the
packet store, the whole simulated testbed — runs on it unchanged while
the trace accumulates.  :class:`RecordingBlockDevice` does the same for
the disk path (WAL, SSTables, manifest).

The devices behave identically to their parents; recording is purely
additive, so a workload recorded once can be replayed offline against
every crash point without re-running it (:mod:`repro.testing.replay`).
"""

from repro.pm.device import MemoryDevice, PMDevice
from repro.storage.blockdev import BlockDevice
from repro.sim.context import NULL_CONTEXT

from repro.testing.events import (
    EV_BLK_SYNC,
    EV_BLK_WRITE,
    EV_FENCE,
    EV_FLUSH,
    EV_WRITE,
    EventTrace,
    TRACE_BLOCK,
    TRACE_PM,
)


class RecordingPMDevice(PMDevice):
    """A :class:`PMDevice` that journals write/flush/fence events.

    ``clock`` is an optional zero-argument callable (e.g.
    ``lambda: sim.now``) used to stamp each event with simulated time,
    which lets integration sweeps correlate persistence events with the
    discrete-event schedule.
    """

    def __init__(self, size, clock=None, name="pmem-rec", **kwargs):
        super().__init__(size, name=name, **kwargs)
        self.trace = EventTrace(size, self.tracker.line_size, kind=TRACE_PM)
        self._clock = clock

    def _now(self):
        return self._clock() if self._clock is not None else None

    @property
    def event_count(self):
        """Number of persistence events recorded so far."""
        return len(self.trace)

    def mark_setup_complete(self):
        self.trace.mark_setup_complete()

    def write(self, offset, payload):
        written = super().write(offset, payload)
        self.trace.append(EV_WRITE, offset, bytes(payload), time=self._now())
        return written

    def flush(self, offset, length, ctx=NULL_CONTEXT, category="pm.flush"):
        lines = super().flush(offset, length, ctx, category)
        # A clwb over clean lines is a durability no-op but still a
        # program-order point; record it so crash points land on every
        # boundary the code actually crossed.
        self.trace.append(EV_FLUSH, offset, length=length, time=self._now())
        return lines

    def fence(self, ctx=NULL_CONTEXT, category="pm.flush"):
        drained = super().fence(ctx, category)
        self.trace.append(EV_FENCE, time=self._now())
        return drained

    def write_persist(self, offset, payload, ctx=NULL_CONTEXT, category="pm.flush"):
        # Never the fast path: the write, flush and fence are each
        # recorded, so crash points land between them.
        return MemoryDevice.write_persist(self, offset, payload, ctx, category)


class RecordingBlockDevice(BlockDevice):
    """A :class:`BlockDevice` that journals write/sync events."""

    def __init__(self, size, clock=None, name="ssd-rec", **kwargs):
        super().__init__(size, name=name, **kwargs)
        self.trace = EventTrace(size, self.block_size, kind=TRACE_BLOCK)
        self._clock = clock

    def _now(self):
        return self._clock() if self._clock is not None else None

    @property
    def event_count(self):
        return len(self.trace)

    def mark_setup_complete(self):
        self.trace.mark_setup_complete()

    def write(self, offset, payload, ctx=NULL_CONTEXT, category="blockdev.write"):
        written = super().write(offset, payload, ctx, category)
        self.trace.append(EV_BLK_WRITE, offset, bytes(payload), time=self._now())
        return written

    def sync(self, ctx=NULL_CONTEXT, category="blockdev.sync"):
        drained = super().sync(ctx, category)
        self.trace.append(EV_BLK_SYNC, time=self._now())
        return drained
