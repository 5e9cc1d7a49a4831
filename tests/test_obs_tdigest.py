"""Statistics-conformance suite for the t-digest sketch.

Locks the quantile pipeline down against exact order statistics: every
estimate must sit inside the documented scale-function corridor
(``|q_hat - q| <= 2*2pi*sqrt(q(1-q))/compression + 1/n`` — two nominal
cluster widths, see the module docstring), merging
per-core digests must stay within (a small multiple of) the same
bound, the structure must be deterministic — a pure function of the
insertion sequence, PMLint DET-01 — and serialisation must round-trip
exactly.  The planted mis-merge bug must FAIL the same checks, proving
the bound has teeth (the CI negative check).
"""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.tdigest import (
    DEFAULT_COMPRESSION,
    TDigest,
    _MisMergedDigest,
    _self_test,
    check_conformance,
    merged,
)

QUANTILES = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)

DISTRIBUTIONS = ("uniform", "lognormal", "bimodal", "constant",
                 "integers", "heavy_tail")


def draw_samples(rng, dist, n):
    """Deterministic sample draws across latency-shaped distributions."""
    if dist == "uniform":
        return [rng.uniform(0.0, 1e6) for _ in range(n)]
    if dist == "lognormal":
        return [rng.lognormvariate(3.0, 1.2) for _ in range(n)]
    if dist == "bimodal":
        return [rng.gauss(20_000.0, 500.0) if rng.random() < 0.9
                else rng.gauss(500_000.0, 40_000.0) for _ in range(n)]
    if dist == "constant":
        return [42.0] * n
    if dist == "integers":
        return [float(rng.randrange(0, 64)) for _ in range(n)]
    # heavy_tail: Pareto-ish, the shape that wrecks bucketed p99s.
    return [1000.0 * (rng.paretovariate(1.5)) for _ in range(n)]


def exact_quantile(ordered, q):
    """Linear-interpolation order statistic (numpy 'linear')."""
    rank = q * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if frac == 0.0 or low + 1 >= len(ordered):
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * frac


def assert_in_corridor(digest, ordered, quantiles=QUANTILES, factor=2.0):
    """The digest's estimate must be bracketed by the exact sample
    quantiles at ``q ± factor*error_bound(q) + 1/n``.  The default
    factor 2 is the documented bound (two nominal cluster widths);
    merge tests allow one more width on top."""
    n = len(ordered)
    for q in quantiles:
        estimate = digest.quantile(q)
        eps = factor * digest.error_bound(q) + 1.0 / n
        lo = ordered[max(0, int(math.floor((q - eps) * (n - 1))))]
        hi = ordered[min(n - 1, int(math.ceil((q + eps) * (n - 1))))]
        assert lo <= estimate <= hi, (
            f"q={q}: estimate {estimate!r} outside [{lo!r}, {hi!r}] "
            f"(eps={eps:.5f}, n={n})"
        )


class TestQuantileBound:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dist=st.sampled_from(DISTRIBUTIONS))
    def test_property_10k_samples_within_documented_bound(self, seed, dist):
        rng = random.Random(seed)
        samples = draw_samples(rng, dist, 10_000)
        assert check_conformance(TDigest, samples) == []

    @settings(max_examples=30, deadline=None)
    @given(samples=st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=400,
    ))
    def test_property_arbitrary_floats_within_bound(self, samples):
        assert check_conformance(TDigest, samples) == []

    def test_sorted_and_reversed_streams(self):
        ascending = [float(i) for i in range(10_000)]
        for stream in (ascending, list(reversed(ascending))):
            digest = TDigest()
            for value in stream:
                digest.add(value)
            assert_in_corridor(digest, ascending)

    def test_centroid_count_stays_bounded(self):
        digest = TDigest()
        rng = random.Random(7)
        for checkpoint in range(5):
            for _ in range(10_000):
                digest.add(rng.lognormvariate(3.0, 1.0))
            assert digest.centroid_count <= DEFAULT_COMPRESSION + 1


class TestMerge:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cores=st.integers(2, 8),
           dist=st.sampled_from(DISTRIBUTIONS))
    def test_property_per_core_merge_within_bound(self, seed, cores, dist):
        """Round-robin the stream over N per-core digests, merge, and
        the combined view must answer nearly as well as one digest fed
        everything (merging pre-clustered centroids costs at most one
        extra cluster width — factor 2 on the corridor)."""
        rng = random.Random(seed)
        samples = draw_samples(rng, dist, 10_000)
        digests = [TDigest() for _ in range(cores)]
        for index, value in enumerate(samples):
            digests[index % cores].add(value)
        combined = merged(digests)
        assert combined.count == pytest.approx(len(samples))
        assert_in_corridor(combined, sorted(samples), factor=3.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_property_merge_grouping_equivalent(self, seed):
        """(a+b)+c and a+(b+c) agree within the corridor — merge order
        may shuffle centroids but never the statistics."""
        rng = random.Random(seed)
        parts = [draw_samples(rng, "lognormal", 2_000) for _ in range(3)]
        digests = []
        for part in parts:
            digest = TDigest()
            for value in part:
                digest.add(value)
            digests.append(digest)
        a, b, c = digests
        left = merged([a, b])
        left.merge(c)
        right = merged([b, c])
        right.merge(a)
        ordered = sorted(parts[0] + parts[1] + parts[2])
        assert_in_corridor(left, ordered, factor=3.0)
        assert_in_corridor(right, ordered, factor=3.0)
        assert left.count == pytest.approx(right.count)
        assert left.min == right.min and left.max == right.max

    def test_merge_leaves_source_unchanged(self):
        source = TDigest()
        for value in range(1000):
            source.add(float(value))
        before = source.to_dict()
        sink = TDigest()
        sink.merge(source)
        assert source.to_dict() == before
        assert sink.quantile(0.5) == pytest.approx(source.quantile(0.5),
                                                   rel=0.05)

    def test_merged_of_nothing_is_empty(self):
        digest = merged([])
        assert digest.count == 0.0
        assert digest.quantile(0.9) == 0.0


class TestDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           dist=st.sampled_from(DISTRIBUTIONS))
    def test_property_same_stream_same_digest(self, seed, dist):
        """DET-01: the digest is a pure function of the insertion
        sequence — two replays produce byte-identical serialised state
        (no RNG, no wall clock anywhere in the merge path)."""
        rng = random.Random(seed)
        samples = draw_samples(rng, dist, 1_500)
        first, second = TDigest(), TDigest()
        for value in samples:
            first.add(value)
        for value in samples:
            second.add(value)
        assert first.to_dict() == second.to_dict()
        assert first.quantile(0.99) == second.quantile(0.99)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           every=st.integers(40, 400))
    def test_property_reads_change_nothing(self, seed, every):
        """Querying mid-stream (a watched run's snapshots) leaves every
        later answer as it would have been unobserved."""
        samples = draw_samples(random.Random(seed), "bimodal", 2_500)
        watched, plain = TDigest(), TDigest()
        for index, value in enumerate(samples):
            watched.add(value)
            plain.add(value)
            if index % every == 0:
                watched.quantile(0.99)
                watched.centroids()
                merged([watched])
        assert watched.to_dict() == plain.to_dict()
        assert watched.quantile(0.5) == plain.quantile(0.5)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_property_serialisation_round_trips_exactly(self, seed):
        rng = random.Random(seed)
        digest = TDigest()
        for value in draw_samples(rng, "bimodal", 3_000):
            digest.add(value)
        state = json.loads(json.dumps(digest.to_dict()))
        restored = TDigest.from_dict(state)
        assert restored.to_dict() == digest.to_dict()
        for q in QUANTILES:
            assert restored.quantile(q) == digest.quantile(q)


class TestEdgeCases:
    def test_empty_digest_answers_zero(self):
        assert TDigest().quantile(0.99) == 0.0

    def test_single_sample_answers_itself_everywhere(self):
        digest = TDigest()
        digest.add(123.456)
        for q in (0.0, 0.01, 0.5, 0.99, 1.0):
            assert digest.quantile(q) == 123.456

    def test_extremes_are_exact(self):
        digest = TDigest()
        for value in (5.0, 1.0, 9.0, 3.0):
            digest.add(value)
        assert digest.quantile(0.0) == 1.0
        assert digest.quantile(1.0) == 9.0

    def test_weighted_points_count(self):
        # A pre-weighted point is mass, not spread: quantiles below its
        # mid-rank answer its mean exactly; between the two centroid
        # mid-ranks the digest interpolates (by design), so only the
        # extremes are pinned on the heavy side.
        digest = TDigest()
        digest.add(10.0, weight=99.0)
        digest.add(1000.0, weight=1.0)
        assert digest.count == 100.0
        assert digest.quantile(0.2) == pytest.approx(10.0)
        assert digest.quantile(0.0) == 10.0
        assert digest.quantile(1.0) == 1000.0

    def test_weighted_add_conforms_like_repeated_add(self):
        # Weighted ingestion must satisfy the same corridor as feeding
        # the equivalent unit-weight stream (the states themselves may
        # cluster differently — clustering is batch-shape sensitive).
        rng = random.Random(11)
        values = sorted(set(round(rng.lognormvariate(3.0, 1.0), 3)
                            for _ in range(2000)))
        expanded = []
        digest = TDigest()
        for index, value in enumerate(values):
            weight = 1.0 + (index % 4)
            digest.add(value, weight=weight)
            expanded.extend([value] * int(weight))
        assert_in_corridor(digest, sorted(expanded))

    def test_rejects_nan_and_bad_weight(self):
        digest = TDigest()
        with pytest.raises(ValueError):
            digest.add(float("nan"))
        with pytest.raises(ValueError):
            digest.add(1.0, weight=0.0)
        with pytest.raises(ValueError):
            digest.quantile(1.5)
        with pytest.raises(ValueError):
            TDigest(compression=5)

    def test_reset_empties(self):
        digest = TDigest()
        for value in range(100):
            digest.add(float(value))
        digest.reset()
        assert digest.count == 0.0
        assert digest.quantile(0.5) == 0.0


class TestNegativeConformance:
    """The planted bug must fail — the suite can't be vacuously green."""

    def test_mis_merged_digest_violates_bound(self):
        samples = [float(i % 97) for i in range(5000)] + \
                  [1000.0 + (i * i % 9973) for i in range(5000)]
        assert check_conformance(TDigest, samples) == []
        assert check_conformance(_MisMergedDigest, samples) != []

    def test_self_test_passes(self):
        # The module's own --self-test entry: honest passes, planted
        # mis-merge is caught.  CI runs this via the CLI as well.
        assert _self_test() == 0
