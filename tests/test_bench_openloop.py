"""Open-loop arrival generation and coordinated-omission honesty.

Covers the generator's statistical contracts (seeded determinism,
Poisson interarrival mean, modulated thinning, churn marking), the
client's churn invariant (a churned-away connection is never reused),
DET-01 cleanliness of the new module, and — the reason the harness
exists — the coordinated-omission regression: against the same
deterministically-stalled server, open-loop p99 with scheduled-arrival
attribution must expose the stall that closed-loop p99 hides.
"""

import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.openloop import (
    Arrival,
    BurstModulation,
    DiurnalModulation,
    OpenLoopSource,
    plant_stall,
)
from repro.bench.testbed import SERVER_IP, make_testbed
from repro.bench.wrk import OpenLoopWrkClient, WrkClient
from repro.bench.workloads import TrafficSource
from repro.storage.server import ServerConfig


def arrivals(source, count, start=0.0):
    out = []
    for _ in range(count):
        out.append(source.next_arrival(start))
    return out


class TestOpenLoopSource:
    def test_is_a_traffic_source(self):
        source = OpenLoopSource(10_000.0)
        assert isinstance(source, TrafficSource)
        method, key, value = source.next_op()
        assert method == "PUT" and key.startswith("ol-")
        assert isinstance(value, bytes)

    def test_arrival_times_are_monotonic_and_self_advancing(self):
        source = OpenLoopSource(100_000.0, seed=3)
        times = [t for t, _ in arrivals(source, 200)]
        assert all(b > a for a, b in zip(times, times[1:]))
        # The clock ignores now_ns after the first call: asking late
        # never compresses or stretches the schedule.
        t_next, _ = source.next_arrival(times[-1] + 1e9)
        assert t_next > times[-1]
        assert t_next < times[-1] + 1e9

    def test_churn_marks_a_seeded_fraction(self):
        source = OpenLoopSource(100_000.0, churn=0.2, seed=5)
        churned = sum(1 for _, a in arrivals(source, 3000)
                      if a.new_connection)
        assert 0.15 < churned / 3000 < 0.25
        assert all(not a.new_connection
                   for _, a in arrivals(OpenLoopSource(1_000.0, seed=5), 50))

    def test_client_attribution_spans_the_population(self):
        source = OpenLoopSource(100_000.0, clients=50, seed=7)
        ids = {a.client_id for _, a in arrivals(source, 2000)}
        assert ids <= set(range(50))
        assert len(ids) > 40

    def test_read_fraction_mixes_gets(self):
        source = OpenLoopSource(100_000.0, read_fraction=0.5, seed=9)
        ops = [a.op() for _, a in arrivals(source, 1000)]
        gets = sum(1 for method, _k, v in ops if method == "GET" and v is None)
        assert 400 < gets < 600

    def test_describe_is_json_shaped(self):
        import json

        source = OpenLoopSource(
            50_000.0, burst=BurstModulation(), diurnal=DiurnalModulation())
        description = source.describe()
        assert description["source"] == "openloop"
        assert description["burst"]["kind"] == "burst"
        json.dumps(description)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            OpenLoopSource(0.0)
        with pytest.raises(ValueError):
            OpenLoopSource(1000.0, clients=0)
        with pytest.raises(ValueError):
            OpenLoopSource(1000.0, churn=1.5)
        with pytest.raises(ValueError):
            BurstModulation(duty=1.0)
        with pytest.raises(ValueError):
            DiurnalModulation(amplitude=1.0)


@settings(max_examples=20, deadline=None)
@given(rate=st.floats(1_000.0, 500_000.0), seed=st.integers(0, 1000),
       churn=st.floats(0.0, 0.5))
def test_property_same_seed_identical_stream(rate, seed, churn):
    first = OpenLoopSource(rate, churn=churn, seed=seed)
    second = OpenLoopSource(rate, churn=churn, seed=seed)
    for _ in range(100):
        t_a, a = first.next_arrival(0.0)
        t_b, b = second.next_arrival(0.0)
        assert t_a == t_b
        assert (a.client_id, a.new_connection, a.op()) == \
            (b.client_id, b.new_connection, b.op())


@settings(max_examples=15, deadline=None)
@given(rate=st.floats(10_000.0, 1_000_000.0), seed=st.integers(0, 200))
def test_property_poisson_interarrival_mean(rate, seed):
    source = OpenLoopSource(rate, seed=seed)
    times = [t for t, _ in arrivals(source, 3000)]
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = sum(gaps) / len(gaps)
    expected = 1e9 / rate
    # 3000 exponential samples: the sample mean is within ~6 standard
    # errors of 1/λ with overwhelming probability.
    assert abs(mean - expected) < 6 * expected / math.sqrt(len(gaps))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 200))
def test_property_modulated_stream_is_deterministic_and_rate_bounded(seed):
    burst = BurstModulation(factor=4.0, period_ns=1_000_000.0, duty=0.25)
    diurnal = DiurnalModulation(amplitude=0.4, period_ns=10_000_000.0)
    make = lambda: OpenLoopSource(  # noqa: E731
        50_000.0, burst=burst, diurnal=diurnal, seed=seed)
    first, second = make(), make()
    for _ in range(200):
        t_a, _ = first.next_arrival(0.0)
        t_b, _ = second.next_arrival(0.0)
        assert t_a == t_b
    assert first.peak_rate_rps == pytest.approx(50_000.0 * 4.0 * 1.4)
    for t in (0.0, 123_456.0, 5_000_000.0):
        assert 0.0 < first.rate_at(t) <= first.peak_rate_rps


class TestBurstThinning:
    def test_burst_windows_see_more_arrivals(self):
        burst = BurstModulation(factor=5.0, period_ns=2_000_000.0, duty=0.5)
        source = OpenLoopSource(100_000.0, burst=burst, seed=11)
        in_burst = out_burst = 0
        for _ in range(4000):
            t, _ = source.next_arrival(0.0)
            if burst.factor_at(t) > 1.0:
                in_burst += 1
            else:
                out_burst += 1
        # duty=0.5 at 5x: burst halves should carry ~5x the arrivals.
        assert in_burst > 3 * out_burst


class TestDet01Cleanliness:
    def test_openloop_module_is_det01_clean(self):
        from repro.analysis.pmlint import run_lint

        module = os.path.join(
            os.path.dirname(__file__), os.pardir,
            "src", "repro", "bench", "openloop.py",
        )
        report = run_lint([module], select="DET-01")
        assert not report.findings, [str(f) for f in report.findings]


class TestChurnInvariants:
    def test_churned_connections_are_never_reused(self):
        testbed = make_testbed(ServerConfig(engine="pktstore"))
        source = OpenLoopSource(
            40_000.0, clients=1_000, key_space=200, value_size=128,
            churn=0.15, seed=13)
        client = OpenLoopWrkClient(
            testbed.client, SERVER_IP, source, sockets=8,
            duration_ns=4_000_000.0, warmup_ns=1_000_000.0)
        stats = client.run()
        assert client.use_after_close == 0
        assert stats.errors == 0
        assert stats.resets == 0
        assert stats.churns > 0
        # Every churn paid a real handshake beyond the initial pool.
        assert stats.handshakes == 8 + stats.churns
        # The pool stayed bounded through all the churn.
        assert client.open_sockets <= 8

    def test_backlog_is_served_in_arrival_order(self):
        # Arrivals land while the only pooled socket is still in its
        # handshake; once it is up it must take the oldest queued one
        # first, not idle until a later arrival jumps the queue.
        times = [1_000.0, 2_000.0, 3_000.0, 200_000.0, 400_000.0]

        class FixedArrivals:
            rate_rps = 0.0

            def __init__(self):
                self.index = 0

            def next_arrival(self, now):
                if self.index >= len(times):
                    return math.inf, None
                self.index += 1
                i = self.index - 1
                return times[i], Arrival(i, False, "PUT", f"k{i}", b"v")

            def rate_at(self, now):
                return 0.0

        testbed = make_testbed(ServerConfig(engine="pktstore"))
        client = OpenLoopWrkClient(
            testbed.client, SERVER_IP, FixedArrivals(), sockets=1,
            duration_ns=1_000_000.0, warmup_ns=0.0)
        sent = []
        fire = client._fire

        def logged_fire(conn, request, ctx):
            sent.append(conn.op[1])
            fire(conn, request, ctx)

        client._fire = logged_fire
        stats = client.run()
        assert sent == [f"k{i}" for i in range(len(times))]
        assert stats.admitted == len(times)

    def test_arrival_op_shape(self):
        arrival = Arrival(7, True, "PUT", "k", b"v")
        assert arrival.op() == ("PUT", "k", b"v")
        assert "new-conn" in repr(arrival)


class TestPlantStall:
    def test_stall_freezes_the_core(self):
        testbed = make_testbed(ServerConfig(engine="pktstore"))
        plant_stall(testbed.server, 1_000_000.0, 500_000.0)
        testbed.sim.run(until=1_000_001.0)
        core = testbed.server.cpus[0]
        assert core.free_at >= 1_500_000.0

    def test_rejects_nonpositive_duration(self):
        testbed = make_testbed(ServerConfig(engine="pktstore"))
        with pytest.raises(ValueError):
            plant_stall(testbed.server, 0.0, 0.0)


class TestCoordinatedOmission:
    """The whole reason this harness exists, pinned as a regression.

    The same deterministic 2 ms stall is planted in two otherwise
    identical servers.  The closed-loop client's connections go quiet
    for the stall — at most one inflated sample per connection, far
    below p99 — while the open-loop client keeps time from *scheduled*
    arrivals, so the entire queueing wave lands in its tail.
    """

    STALL_AT = 15_000_000.0
    STALL_NS = 2_000_000.0
    WINDOW = dict(duration_ns=30_000_000.0, warmup_ns=5_000_000.0)

    def _stalled_testbed(self):
        testbed = make_testbed(ServerConfig(engine="pktstore"))
        plant_stall(testbed.server, self.STALL_AT, self.STALL_NS)
        return testbed

    def test_open_loop_p99_exposes_the_stall_closed_loop_hides(self):
        closed = WrkClient(
            self._stalled_testbed().client, SERVER_IP, connections=4,
            value_size=256, **self.WINDOW)
        closed_stats = closed.run()

        source = OpenLoopSource(
            30_000.0, clients=200_000, key_space=2_000, value_size=256,
            seed=1)
        open_client = OpenLoopWrkClient(
            self._stalled_testbed().client, SERVER_IP, source, sockets=32,
            **self.WINDOW)
        open_stats = open_client.run()

        closed_p99_ns = closed_stats.percentile_us(99) * 1_000.0
        open_p99_ns = open_stats.percentile_us(99) * 1_000.0
        # Both saw plenty of traffic.
        assert len(closed_stats.rtts_ns) > 500
        assert open_stats.admitted > 500
        # The closed loop hid the stall: its p99 stays an order of
        # magnitude below the stall duration...
        assert closed_p99_ns < self.STALL_NS / 4
        # ...while open-loop scheduled-arrival attribution exposes it:
        # p99 exceeds closed-loop p99 by a stall-derived bound.
        assert open_p99_ns > closed_p99_ns + self.STALL_NS / 4
        # Both felt it at the max — the stall really hit both servers.
        assert closed_stats.percentile_us(100) * 1_000.0 > self.STALL_NS / 2
        assert open_stats.percentile_us(100) * 1_000.0 > self.STALL_NS / 2
