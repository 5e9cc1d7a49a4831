"""Time-ordered event queue.

:class:`Simulator` is the single source of truth for simulated time.
Components schedule callbacks with :meth:`Simulator.schedule` (relative
delay) or :meth:`Simulator.at` (absolute time); :meth:`Simulator.run`
drains the queue in timestamp order.

Events fire in (time, insertion-order) order, so two events scheduled
for the same instant run in the order they were scheduled.  Cancelled
events stay in the heap but are skipped when popped; this keeps
cancellation O(1), which matters for TCP retransmission timers that are
rearmed on every ACK.

Dispatch internals (this is the wall-clock hot loop of every
benchmark, see docs/PERFORMANCE.md):

- The heap holds ``(time, seq, event)`` tuples, so heap sifting
  compares tuples at C speed instead of calling ``Event.__lt__``.
- :meth:`run` pops one event at a time and fires it before looking at
  the heap again.  An event past ``until`` is pushed back, so a run
  that stops for any reason — ``until``, ``stop()``, ``max_events`` or
  a handler raising — leaves every unfired event in the queue.
- Watcher notification is skipped entirely while no watchers are
  registered (the common case for benchmarks).
"""

import heapq
import itertools

#: ``until``/``max_events`` bound of a run that has none.
_NEVER = float("inf")


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation engine (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.  Returned by ``schedule``/``at`` so callers can cancel it."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.0f} fn={getattr(self.fn, '__name__', self.fn)}{state}>"


class Simulator:
    """Discrete-event loop with a nanosecond clock."""

    def __init__(self):
        self._queue = []
        self._seq = itertools.count()
        self.now = 0.0
        self._events_fired = 0
        self._running = False
        self._watchers = []
        self._stop_requested = False

    # -- instrumentation ------------------------------------------------------

    def add_watcher(self, fn):
        """Register ``fn(event)`` to run after every fired event.

        Watchers are how fault-injection harnesses observe a run without
        perturbing it: a watcher can inspect cross-cutting state (e.g. a
        recording device's persistence-event counter) and call
        :meth:`stop` to halt the loop at a deterministic boundary.
        Returns ``fn`` so it can be passed to :meth:`remove_watcher`.
        """
        self._watchers.append(fn)
        return fn

    def remove_watcher(self, fn):
        """Unregister a watcher added with :meth:`add_watcher`."""
        self._watchers.remove(fn)

    def stop(self):
        """Ask the current :meth:`run` to return after the current event.

        Safe to call from an event handler or a watcher.  The queue is
        left intact, so a later ``run()`` resumes exactly where this one
        stopped — which is what makes crash points repeatable: stop at
        event N, power-cycle the device, and every run with the same
        seeds stops at the same instant.
        """
        self._stop_requested = True

    def _notify(self, event):
        for watcher in self._watchers:
            watcher(event)

    def schedule(self, delay, fn, *args):
        """Schedule ``fn(*args)`` to run ``delay`` ns from now.

        Returns the :class:`Event`, which can be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        # Inlined at(): delay >= 0 makes the not-in-the-past check
        # redundant, and schedule() is the hot entry point.
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, seq, fn, args)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, fn, args)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def pending(self):
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    @property
    def events_fired(self):
        """Total number of events that have executed."""
        return self._events_fired

    def step(self):
        """Run the single next event.  Returns False when the queue is empty."""
        while self._queue:
            time, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = time
            self._events_fired += 1
            event.fn(*event.args)
            if self._watchers:
                self._notify(event)
            return True
        return False

    def run(self, until=None, max_events=None):
        """Drain the event queue.

        Args:
            until: stop once simulated time would exceed this (the clock
                is advanced to ``until`` even if the queue empties first).
            max_events: safety valve against runaway event storms.

        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stop_requested = False
        fired = 0
        queue = self._queue
        heappop = heapq.heappop
        watchers = self._watchers  # aliased list: add/remove mutate in place
        horizon = _NEVER if until is None else until
        limit = _NEVER if max_events is None else max_events
        try:
            while queue and fired < limit:
                entry = heappop(queue)
                time, _seq, event = entry
                if event.cancelled:
                    continue
                if time > horizon:
                    heapq.heappush(queue, entry)
                    break
                self.now = time
                self._events_fired += 1
                event.fn(*event.args)
                fired += 1
                if watchers:
                    for watcher in watchers:
                        watcher(event)
                if self._stop_requested:
                    break
        finally:
            self._running = False
            stopped = self._stop_requested
            self._stop_requested = False
        if until is not None and self.now < until and not stopped:
            self.now = until
        return fired

    def run_until_idle(self, max_events=10_000_000):
        """Run until no events remain.  Guards against infinite event loops."""
        fired = self.run(max_events=max_events)
        if self._queue and fired >= max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )
        return fired
