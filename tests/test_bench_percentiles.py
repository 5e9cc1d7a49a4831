"""Percentile paths are exact: WrkStats interpolation, Figure 2, digests.

The regression this locks down: ``WrkStats.percentile_us`` used
truncated-index selection (``int(p/100*n)``), which returned the wrong
order statistic (off by up to one rank, degenerate at p0/p100) and fed
``Figure2Point.p99_rtt_us`` and the ``repro-stats`` workload summary.
Now it interpolates between order statistics, and on a canned 5k-sample
run both consumers must land within 1% of the exact percentile.
"""

import json
import math
import os
import random

import pytest

from repro.bench.figure2 import Figure2Point
from repro.bench.wrk import WrkStats
from repro.obs.registry import Histogram
from repro.obs.tdigest import DEFAULT_COMPRESSION
from repro.sim.units import ns_to_us


def exact_percentile(ordered, p):
    """The reference definition: linear interpolation between the two
    nearest order statistics at rank p/100 * (n-1)."""
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if frac == 0.0 or low + 1 >= len(ordered):
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * frac


def canned_run(n=5000, seed=1234):
    """A deterministic 5k-sample RTT population: lognormal body with a
    10x congested tail — the shape Figure 2's p99 claims live on."""
    rng = random.Random(seed)
    rtts = []
    for _ in range(n):
        rtt = rng.lognormvariate(10.2, 0.35)        # ~27 µs body
        if rng.random() < 0.03:
            rtt *= 10.0                             # queued outliers
        rtts.append(rtt)
    stats = WrkStats()
    stats.rtts_ns = list(rtts)
    stats.completed = n
    stats.measure_start, stats.measure_end = 0.0, 1e9
    return stats, sorted(rtts)


class TestPercentileEdgeCases:
    def test_empty_returns_zero(self):
        assert WrkStats().percentile_us(99) == 0.0

    def test_single_sample_answers_every_percentile(self):
        stats = WrkStats()
        stats.rtts_ns = [5000.0]
        for p in (0, 1, 50, 99, 100):
            assert stats.percentile_us(p) == 5.0

    def test_p0_is_min_p100_is_max(self):
        stats = WrkStats()
        stats.rtts_ns = [3000.0, 1000.0, 2000.0]
        assert stats.percentile_us(0) == 1.0
        assert stats.percentile_us(100) == 3.0

    def test_two_samples_interpolate(self):
        stats = WrkStats()
        stats.rtts_ns = [1000.0, 3000.0]
        assert stats.percentile_us(50) == 2.0
        assert stats.percentile_us(25) == 1.5

    def test_interpolation_not_truncation(self):
        # The old int(p/100*n) picked index 50 (value 51) for p50 over
        # 100 samples; the exact answer is the midpoint 50.5.
        stats = WrkStats()
        stats.rtts_ns = [float(i) * 1000 for i in range(1, 101)]
        assert stats.percentile_us(50) == pytest.approx(50.5)
        assert stats.percentile_us(99) == pytest.approx(99.01)


class TestCannedRunRegression:
    def test_wrkstats_p99_matches_exact_within_1pct(self):
        stats, ordered = canned_run()
        for p in (50, 90, 99, 99.9):
            exact = ns_to_us(exact_percentile(ordered, p))
            assert stats.percentile_us(p) == pytest.approx(exact, rel=0.01)
        # In fact the sample path is exact, not just within 1%.
        assert stats.percentile_us(99) == pytest.approx(
            ns_to_us(exact_percentile(ordered, 99)), rel=1e-12)

    def test_figure2_point_p99_matches_exact_within_1pct(self):
        stats, ordered = canned_run()
        point = Figure2Point("novelsm", 25, stats)
        exact_p99 = ns_to_us(exact_percentile(ordered, 99))
        exact_p50 = ns_to_us(exact_percentile(ordered, 50))
        assert point.p99_rtt_us == pytest.approx(exact_p99, rel=0.01)
        assert point.p50_rtt_us == pytest.approx(exact_p50, rel=0.01)
        assert point.samples == len(ordered)

    def test_histogram_digest_p99_within_1pct_of_exact(self):
        # The registry histogram's t-digest path over the same canned
        # run: percentile-exact within 1%, where the bucketed answer is
        # pinned to a power-of-two edge (up to 2x off).
        stats, ordered = canned_run()
        hist = Histogram("rtt_ns")
        for rtt in stats.rtts_ns:
            hist.observe(rtt)
        exact_p99 = exact_percentile(ordered, 99)
        assert hist.quantile(0.99) == pytest.approx(exact_p99, rel=0.01)
        # And the old bucketed answer is genuinely coarser here — the
        # digest is not re-deriving bucket edges.
        bucketed = hist.bucket_quantile(0.99)
        assert bucketed != pytest.approx(exact_p99, rel=0.01)
        assert bucketed in hist.bounds or bucketed == hist.max

    def test_digest_median_within_1pct_of_exact(self):
        stats, ordered = canned_run()
        hist = Histogram("rtt_ns")
        for rtt in stats.rtts_ns:
            hist.observe(rtt)
        exact_p50 = exact_percentile(ordered, 50)
        assert hist.quantile(0.5) == pytest.approx(exact_p50, rel=0.01)


# --------------------------------------------------------------------------
# bucket_quantile vs digest quantile on the golden scenarios.
#
# The raw-speed overhaul (the hot-path rewrites that the scenarios of
# repro.bench.golden pin) must not perturb the percentile machinery:
# the t-digest answer has to stay inside the divergence bound the fixed
# buckets imply, both on the committed golden snapshots
# (pre-optimization captures, so any drift in observe()/digest code
# shows up against frozen data) and on a live scenario run through the
# optimized stack.

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

# t-digest quantile-space error: 2*pi*sqrt(q(1-q))/compression.  The
# bound is asymptotic, so allow 2x slack, and never less than one rank.
def digest_rank_slack(q, count):
    delta = 2.0 * (2.0 * math.pi * math.sqrt(q * (1.0 - q))
                   / DEFAULT_COMPRESSION)
    return max(delta * count, 1.0)


def bucket_window(bounds, counts, total, minimum, maximum, q, slack):
    """[lo, hi] the bucket CDF allows for quantile ``q`` given ``slack``
    ranks of estimator error: lower edge of the bucket holding rank
    q*n - slack through upper edge of the bucket holding q*n + slack."""
    lo_rank = max(q * total - slack, 0.0)
    hi_rank = min(q * total + slack, float(total))
    lo = minimum
    hi = maximum
    seen = 0
    lo_found = False
    for index, count in enumerate(counts):
        next_seen = seen + count
        if not lo_found and next_seen >= lo_rank and count:
            lo = bounds[index - 1] if index > 0 else minimum
            lo_found = True
        if next_seen >= hi_rank and count:
            hi = bounds[index] if index < len(bounds) else maximum
            break
        seen = next_seen
    return min(lo, minimum if q == 0 else lo), hi


def snapshot_histograms(fixture_name):
    path = os.path.join(FIXTURE_DIR, f"speed_golden_{fixture_name}.json")
    with open(path) as handle:
        doc = json.load(handle)
    metrics = doc["metrics"]["metrics"]
    return {
        name: entry for name, entry in metrics.items()
        if entry.get("type") == "histogram" and entry["count"] > 0
    }


class TestWallClockSnapshotDivergence:
    """Golden-snapshot form: the digest quantiles recorded in the
    pre-optimization captures lie within the window their own ``le``
    buckets admit."""

    @pytest.mark.parametrize("scenario", ["wrk-tcp", "homa-storm"])
    def test_fixture_has_histograms(self, scenario):
        hists = snapshot_histograms(scenario)
        assert hists, f"{scenario} snapshot carries no histograms"
        assert any(name.endswith("rtt_ns") for name in hists)

    @pytest.mark.parametrize("scenario", ["wrk-tcp", "homa-storm"])
    def test_snapshot_quantiles_within_bucket_window(self, scenario):
        for name, entry in snapshot_histograms(scenario).items():
            bounds = [b["le"] for b in entry["buckets"][:-1]]
            counts = [b["count"] for b in entry["buckets"]]
            total = entry["count"]
            assert sum(counts) == total, f"{name}: bucket counts != count"
            for label, value in entry["quantiles"].items():
                q = float(label[1:]) / 100.0
                lo, hi = bucket_window(
                    bounds, counts, total, entry["min"], entry["max"],
                    q, digest_rank_slack(q, total),
                )
                assert lo <= value <= hi, (
                    f"{scenario}:{name} {label}={value} escapes the "
                    f"bucket-implied window [{lo}, {hi}]"
                )

    @pytest.mark.parametrize("scenario", ["wrk-tcp", "homa-storm"])
    def test_snapshot_quantiles_are_monotone(self, scenario):
        for name, entry in snapshot_histograms(scenario).items():
            ordered = [entry["quantiles"][f"p{q * 100:g}"]
                       for q in (0.5, 0.9, 0.99, 0.999)]
            assert ordered == sorted(ordered), f"{name}: quantile inversion"
            assert entry["min"] <= ordered[0]
            assert ordered[-1] <= entry["max"]


class TestLiveScenarioDivergence:
    """Live form: run the wrk-tcp scenario (scaled down) through the
    optimized stack and bound bucket_quantile() against quantile() on
    the actual Histogram objects, not just their snapshots."""

    @pytest.fixture(scope="class")
    def rtt_histogram(self):
        from repro.bench.testbed import SERVER_IP, make_testbed, preload
        from repro.bench.workloads import YcsbWorkload
        from repro.bench.wrk import WrkClient
        from repro.storage.server import ServerConfig

        config = ServerConfig(engine="novelsm", metrics=True)
        testbed = make_testbed(config=config)
        preload(testbed, entries=200, value_size=1024)
        workload = YcsbWorkload(mix="A", key_space=200, value_size=1024,
                                seed=7)
        client = WrkClient(
            testbed.client, SERVER_IP, connections=8, value_size=1024,
            duration_ns=6_000_000.0, warmup_ns=2_000_000.0,
            workload=workload,
        )
        client.run()
        hist = testbed.metrics.get("client.rtt_ns")
        assert hist is not None and hist.count > 0
        return hist

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_digest_within_bucket_window(self, rtt_histogram, q):
        hist = rtt_histogram
        lo, hi = bucket_window(
            list(hist.bounds), list(hist.counts), hist.count,
            hist.min, hist.max, q, digest_rank_slack(q, hist.count),
        )
        assert lo <= hist.quantile(q) <= hi

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_bucket_quantile_is_edge_pinned(self, rtt_histogram, q):
        # The legacy answer must still be an exact bucket upper edge
        # (or the observed max for the overflow bucket).
        value = rtt_histogram.bucket_quantile(q)
        assert value in rtt_histogram.bounds or value == rtt_histogram.max

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_divergence_bounded_by_window_width(self, rtt_histogram, q):
        # bucket_quantile and the digest may disagree, but only within
        # the window one bucket (plus digest slack) admits.
        hist = rtt_histogram
        lo, hi = bucket_window(
            list(hist.bounds), list(hist.counts), hist.count,
            hist.min, hist.max, q, digest_rank_slack(q, hist.count),
        )
        divergence = abs(hist.bucket_quantile(q) - hist.quantile(q))
        assert divergence <= (hi - lo) + 1e-9

    def test_digest_beats_buckets_on_median(self, rtt_histogram):
        # The digest median interpolates inside a bucket; the bucketed
        # median pins to an edge.  Over hundreds of distinct RTTs the
        # digest must sit strictly inside the bucket, not on its edge —
        # the property that made the t-digest worth carrying.
        hist = rtt_histogram
        assert hist.quantile(0.5) not in hist.bounds
