"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(5, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(100, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [100.0]
    assert sim.now == 100.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(50, fired.append, 1)
    sim.schedule(150, fired.append, 2)
    sim.run(until=100)
    assert fired == [1]
    assert sim.now == 100.0
    sim.run()
    assert fired == [1, 2]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(10, fired.append, "x")
    event.cancel()
    sim.schedule(20, fired.append, "y")
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert sim.events_fired == 0


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_events_can_schedule_more_events():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3, 4, 5]
    assert sim.now == 50.0


def test_max_events_limits_runaway_loops():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    fired = sim.run(max_events=100)
    assert fired == 100


def test_run_until_idle_raises_on_event_storm():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=50)


def test_step_runs_exactly_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(2, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert not sim.step()


def test_pending_excludes_cancelled():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    event = sim.schedule(2, lambda: None)
    event.cancel()
    assert sim.pending() == 1


def test_a_raising_handler_leaves_the_rest_of_its_instant_queued():
    sim = Simulator()
    fired = []

    def boom():
        raise RuntimeError("handler failed")

    sim.schedule(5, boom)
    sim.schedule(5, fired.append, "b")
    sim.schedule(5, fired.append, "c")
    with pytest.raises(RuntimeError, match="handler failed"):
        sim.run()
    assert sim.pending() == 2
    assert sim.events_fired == 1
    assert sim.run() == 2
    assert fired == ["b", "c"]
