"""Property tests: ``Simulator`` dispatch == a reference single-pop loop.

``Simulator.run`` (repro/sim/engine.py) is the wall-clock hot loop, so
it is written for speed: one heap pop per event, the ``until`` and
``max_events`` bounds hoisted out of the loop, an event past ``until``
pushed back.  For any interleaving of scheduling, cancellation,
watchers, ``stop()`` and ``max_events``, the fired sequence, watcher
notifications, clock, and leftover queue must match what the plain
peek-then-pop loop below produces.  This file checks exactly that with
Hypothesis-generated event programs whose events schedule, cancel, and
stop from inside their own handlers — including events scheduled at
the *current* instant, where an ordering slip would show first.
"""

import heapq
import itertools

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator


class ReferenceSimulator:
    """The naive dispatch loop: pop one event, fire it, repeat.

    API-compatible with :class:`repro.sim.engine.Simulator` for
    everything the property programs use.
    """

    def __init__(self):
        self._queue = []
        self._seq = itertools.count()
        self.now = 0.0
        self.events_fired = 0
        self._watchers = []
        self._stop_requested = False

    def add_watcher(self, fn):
        self._watchers.append(fn)
        return fn

    def stop(self):
        self._stop_requested = True

    def schedule(self, delay, fn, *args):
        assert delay >= 0
        time = self.now + delay
        seq = next(self._seq)
        entry = _RefEvent(time, seq, fn, args)
        heapq.heappush(self._queue, (time, seq, entry))
        return entry

    def pending(self):
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    def run(self, until=None, max_events=None):
        self._stop_requested = False
        fired = 0
        while self._queue:
            if max_events is not None and fired >= max_events:
                break
            time, _seq, event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and time > until:
                break
            heapq.heappop(self._queue)
            self.now = time
            self.events_fired += 1
            event.fn(*event.args)
            fired += 1
            for watcher in self._watchers:
                watcher(event)
            if self._stop_requested:
                break
        if until is not None and self.now < until and not self._stop_requested:
            self.now = until
        return fired


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


# One event spec = list of actions its handler performs when fired:
#   ("schedule", spec_index, delay)  - schedule another instance
#   ("cancel", spec_index, _)       - cancel the newest live instance of a spec
#   ("stop", _, _)                  - ask the loop to stop
_ACTIONS = st.tuples(
    st.sampled_from(["schedule", "cancel", "stop"]),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2),  # small delays force ties
)

_PROGRAMS = st.fixed_dictionaries(
    {
        "specs": st.lists(
            st.lists(_ACTIONS, max_size=3), min_size=1, max_size=8
        ),
        "roots": st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 2)),
            min_size=1,
            max_size=6,
        ),
        "watchers": st.integers(min_value=0, max_value=2),
        "max_events": st.one_of(st.none(), st.integers(0, 10)),
        "until": st.one_of(st.none(), st.integers(0, 4)),
    }
)


def _execute(sim, program):
    """Interpret ``program`` against ``sim``; returns the observations."""
    specs = program["specs"]
    n = len(specs)
    fired_log = []
    watch_logs = [[] for _ in range(program["watchers"])]
    instances = {}  # spec index -> list of live handles (newest last)
    counter = itertools.count()
    # Programs can schedule themselves at delay 0 forever; cap total
    # spawns so every run terminates.  The cap is hit in the same
    # dispatch step on both simulators, so equivalence still holds.
    spawn_budget = [64]

    def make_handler(spec_index):
        def handler(instance_id):
            fired_log.append((sim.now, instance_id, spec_index))
            for action, target, delay in specs[spec_index]:
                target %= n
                if action == "schedule":
                    _spawn(target, delay)
                elif action == "cancel":
                    live = instances.get(target)
                    if live:
                        live.pop().cancel()
                else:
                    sim.stop()

        return handler

    def _spawn(spec_index, delay):
        if spawn_budget[0] <= 0:
            return
        spawn_budget[0] -= 1
        handle = sim.schedule(delay, make_handler(spec_index), next(counter))
        instances.setdefault(spec_index, []).append(handle)

    for index in range(program["watchers"]):
        log = watch_logs[index]
        sim.add_watcher(lambda event, log=log: log.append(
            (event.time, event.seq)
        ))

    for spec_index, delay in program["roots"]:
        _spawn(spec_index % n, delay)

    fired = sim.run(until=program["until"], max_events=program["max_events"])
    # A second drain exercises leftover-queue equivalence after an
    # interrupted run (stop(), max_events or an event pushed back past
    # ``until``).
    fired += sim.run(max_events=40)
    return {
        "fired": fired,
        "log": fired_log,
        "watch": watch_logs,
        "now": sim.now,
        "events_fired": sim.events_fired,
        "pending": sim.pending(),
    }


@settings(max_examples=200, deadline=None)
@given(program=_PROGRAMS)
def test_batched_dispatch_matches_single_pop_reference(program):
    optimized = _execute(Simulator(), program)
    reference = _execute(ReferenceSimulator(), program)
    assert optimized["log"] == reference["log"]
    assert optimized["watch"] == reference["watch"]
    assert optimized["fired"] == reference["fired"]
    assert optimized["now"] == reference["now"]
    assert optimized["events_fired"] == reference["events_fired"]
    assert optimized["pending"] == reference["pending"]


@settings(max_examples=50, deadline=None)
@given(program=_PROGRAMS)
def test_watchers_see_exactly_the_fired_events(program):
    result = _execute(Simulator(), program)
    fired_keys = [(time, None) for time, _id, _spec in result["log"]]
    for log in result["watch"]:
        assert len(log) == len(fired_keys)
        assert [time for time, _seq in log] == [t for t, _ in fired_keys]
        # seqs strictly increase within one timestamp: scheduling order.
        for (t1, s1), (t2, s2) in zip(log, log[1:]):
            assert t2 > t1 or s2 > s1
