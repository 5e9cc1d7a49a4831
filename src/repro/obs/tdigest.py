"""A deterministic merging t-digest: percentile-exact streaming quantiles.

The paper's claims are *tail* claims — Figure 2's data-management
penalty grows with concurrency because the single-core server queues
requests — so the live metrics pipeline must estimate p99 without
bucket-edge error.  Fixed ``le`` histograms report the upper bound of
whichever bucket the quantile lands in; with power-of-two bounds that
is up to 2x off.  The t-digest (Dunning & Ertl, "Computing extremely
accurate quantiles using t-digests") keeps a bounded set of centroids
whose sizes follow a *scale function*, small near the tails and large
in the middle, giving quantile estimates whose error shrinks exactly
where Figure 2 needs it.

This implementation is the **merging** variant:

- New points land in a buffer; when it fills, buffer + existing
  centroids are sorted by mean and greedily re-clustered in one pass.
- The scale function is ``k1``:  ``k(q) = (delta / 2pi) * asin(2q - 1)``
  with ``delta`` the compression.  A cluster may span at most one unit
  of ``k``, which caps its quantile width at
  ``(2pi / delta) * sqrt(q(1-q))`` — tight at both tails.
- After compaction the digest holds at most ``compression`` centroids
  (the k-range is ``delta/2`` and adjacent clusters cannot both be
  half-full, so the count sits near ``delta/2`` in practice).

**Error bound** (what the conformance suite checks): the estimate for
quantile ``q`` corresponds to a true sample quantile ``q_hat`` with

    |q_hat - q|  <=  2 * 2pi * sqrt(q * (1 - q)) / compression  +  1/n

— *two* nominal cluster widths in q-space, plus sample
discretisation.  One width is the k1 scale-function cap on a single
cluster; the second absorbs what the *merging* variant costs: repeated
buffer compactions (and cross-digest merges) re-cluster existing
centroids, which can stretch a cluster to up to twice its nominal
k-width.  Interior interpolation usually does several times better;
the bound is what the structure guarantees.  ``error_bound(q)``
returns the one-cluster width ``2pi*sqrt(q(1-q))/compression``;
callers compose the factor and the ``1/n`` term.

**Determinism** (PMLint DET-01): no randomness, no wall clock.  The
digest is a pure function of the insertion sequence — an instrumented
run replays byte-identically.  Reads never change it: a query answers
from the compacted view of centroids + buffer without storing it, so
how often a run is observed cannot move its later quantiles.
(Dunning's reference implementation shuffles the merge buffer; we keep
a stable sort instead and accept the slightly more ordered
clustering.)

**Merging across cores**: ``merge`` folds another digest's centroids
into this one, and ``to_dict``/``from_dict`` serialise the full state,
so per-core digests combine into one server-wide quantile view —
``merge(a, b)`` answers within the same bound as a single digest fed
both streams.

``python -m repro.obs.tdigest --self-test`` proves the conformance
properties are *able* to fail: a deliberately mis-merged digest (it
drops every other centroid during compaction, a plausible bug) must
violate the quantile bound that the honest digest satisfies.
"""

import math
from bisect import bisect_right

#: Default compression (delta).  ~100-ish centroids, q-space error
#: under 1.6% at the median and under 0.4% at p99 — far below one
#: power-of-two bucket.
DEFAULT_COMPRESSION = 200

#: Buffered points per compaction, as a multiple of the compression.
_BUFFER_FACTOR = 5


class TDigest:
    """Mergeable streaming quantile sketch (merging t-digest, k1 scale).

    >>> d = TDigest()
    >>> for v in range(10000):
    ...     d.add(float(v))
    >>> 9890 < d.quantile(0.99) < 9910
    True
    """

    __slots__ = ("compression", "_means", "_weights", "_buffer", "count",
                 "min", "max", "_view_cache")

    def __init__(self, compression=DEFAULT_COMPRESSION):
        if compression < 20:
            raise ValueError(
                f"compression {compression} too small; the error bound "
                f"2pi*sqrt(q(1-q))/delta is vacuous below ~20"
            )
        self.compression = float(compression)
        self._means = []        # centroid means, sorted after compaction
        self._weights = []      # centroid weights, parallel to _means
        self._buffer = []       # (value, weight) awaiting compaction
        #: ``(len(_buffer), means, weights)`` of the last read's view.
        self._view_cache = None
        self.count = 0.0
        self.min = None
        self.max = None

    # -- scale function --------------------------------------------------------

    def _k(self, q):
        """k1 scale: k(q) = (delta/2pi) * asin(2q - 1)."""
        return self.compression / (2.0 * math.pi) * math.asin(
            max(-1.0, min(1.0, 2.0 * q - 1.0))
        )

    def _k_inv(self, k):
        """Inverse scale: q(k) = (sin(2pi k / delta) + 1) / 2."""
        return (math.sin(2.0 * math.pi * k / self.compression) + 1.0) / 2.0

    # -- ingest ----------------------------------------------------------------

    def add(self, value, weight=1.0):
        """Fold one observation (or a pre-weighted point) in."""
        value = float(value)
        if weight <= 0:
            raise ValueError(f"t-digest weight must be positive, got {weight}")
        if value != value:  # NaN poisons every later quantile
            raise ValueError("t-digest cannot absorb NaN")
        self._buffer.append((value, float(weight)))
        self.count += weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._buffer) >= _BUFFER_FACTOR * int(self.compression):
            self._compress()

    def merge(self, other):
        """Fold another digest's centroids into this one (other unchanged)."""
        for mean, weight in zip(*other._view()):
            self._buffer.append((mean, weight))
            self.count += weight
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self._compress()
        return self

    def _compress(self):
        """Store the compacted centroids and empty the buffer."""
        if not self._buffer:
            return
        self._means, self._weights = self._view()
        self._buffer = []
        self._view_cache = None

    def _view(self):
        """``(means, weights)`` of everything added, compacted, without
        storing it; repeated reads between two adds share one pass."""
        buffer = self._buffer
        if not buffer:
            return self._means, self._weights
        cached = self._view_cache
        if cached is None or cached[0] != len(buffer):
            points = sorted(list(zip(self._means, self._weights)) + buffer)
            cached = self._view_cache = (len(buffer), *self._cluster(points))
        return cached[1], cached[2]

    def _cluster(self, points):
        """One merge pass over sorted ``points``: greedy re-clustering."""
        total = self.count
        means, weights = [], []
        cur_mean, cur_weight = points[0]
        q0 = 0.0                       # quantile mass left of current cluster
        k_limit = self._k(q0) + 1.0
        for mean, weight in points[1:]:
            q = q0 + (cur_weight + weight) / total
            if q <= self._k_inv(k_limit):
                # Still within one k-unit: absorb into the cluster.
                cur_mean += (mean - cur_mean) * weight / (cur_weight + weight)
                cur_weight += weight
            else:
                means.append(cur_mean)
                weights.append(cur_weight)
                q0 += cur_weight / total
                k_limit = self._k(q0) + 1.0
                cur_mean, cur_weight = mean, weight
        means.append(cur_mean)
        weights.append(cur_weight)
        return means, weights

    # -- query -----------------------------------------------------------------

    @property
    def centroid_count(self):
        return len(self._view()[0])

    def centroids(self):
        """[(mean, weight), ...] after compaction — sorted, bounded."""
        return list(zip(*self._view()))

    def quantile(self, q):
        """Estimate the ``q``-quantile of everything added so far.

        Piecewise-linear interpolation between adjacent centroid means,
        clamped to the observed ``min``/``max`` (so ``q=0``/``q=1`` are
        exact, and a single-sample digest returns that sample for any
        ``q``).  Empty digest: 0.0, matching ``Histogram.quantile``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        means, weights = self._view()
        if not means:
            return 0.0
        if len(means) == 1:
            return means[0]
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        # Cumulative weight through the *middle* of each centroid: a
        # centroid of weight w centred at cum-w/2 represents its mean.
        cum = 0.0
        mids = []
        for weight in weights:
            mids.append(cum + weight / 2.0)
            cum += weight
        index = bisect_right(mids, target)
        if index == 0:
            lo_x, lo_v = 0.0, self.min
            hi_x, hi_v = mids[0], means[0]
        elif index == len(mids):
            lo_x, lo_v = mids[-1], means[-1]
            hi_x, hi_v = self.count, self.max
        else:
            lo_x, lo_v = mids[index - 1], means[index - 1]
            hi_x, hi_v = mids[index], means[index]
        if hi_x <= lo_x:
            return hi_v
        frac = (target - lo_x) / (hi_x - lo_x)
        return lo_v + (hi_v - lo_v) * frac

    def error_bound(self, q):
        """Documented q-space error bound at quantile ``q`` (excludes
        the 1/n sample-discretisation term, which is the caller's)."""
        return 2.0 * math.pi * math.sqrt(max(0.0, q * (1.0 - q))) \
            / self.compression

    # -- serialization ---------------------------------------------------------

    def to_dict(self):
        """JSON-ready state; ``from_dict`` round-trips it exactly."""
        return {
            "compression": self.compression,
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "centroids": [[m, w] for m, w in zip(*self._view())],
        }

    @classmethod
    def from_dict(cls, state):
        digest = cls(compression=state["compression"])
        digest.count = float(state["count"])
        digest.min = state["min"]
        digest.max = state["max"]
        digest._means = [float(m) for m, _w in state["centroids"]]
        digest._weights = [float(w) for _m, w in state["centroids"]]
        return digest

    def reset(self):
        self._means = []
        self._weights = []
        self._buffer = []
        self._view_cache = None
        self.count = 0.0
        self.min = None
        self.max = None

    def __len__(self):
        return int(self.count)

    def __repr__(self):
        return (
            f"<TDigest n={self.count:.0f} centroids={self.centroid_count} "
            f"delta={self.compression:.0f}>"
        )


def merged(digests, compression=None):
    """One digest combining many (e.g. per-core) digests; inputs unchanged."""
    digests = list(digests)
    if compression is None:
        compression = max((d.compression for d in digests),
                          default=DEFAULT_COMPRESSION)
    out = TDigest(compression=compression)
    for digest in digests:
        out.merge(digest)
    return out


# -- conformance self-test ------------------------------------------------------
#
# The same checks tests/test_obs_tdigest.py runs under hypothesis, in
# library form so CI can also run them against a *deliberately broken*
# digest and require them to fail (the planted-bug negative check).


class _MisMergedDigest(TDigest):
    """Planted bug: compaction silently drops every other centroid.

    The kind of off-by-one a real merge loop can ship with — the digest
    still answers, monotonically, with bounded memory; only the
    *statistics* are wrong.  The conformance bound must catch it.
    """

    def _cluster(self, points):
        means, weights = super()._cluster(points)
        if len(means) > 8:
            return means[::2], weights[::2]
        return means, weights


def check_conformance(digest_cls, samples, quantiles=(0.01, 0.1, 0.25, 0.5,
                                                      0.75, 0.9, 0.99, 0.999)):
    """Check ``digest_cls`` against exact quantiles of ``samples``.

    Returns a list of violation strings (empty = conformant).  The
    check is the documented bound: the digest's estimate at ``q`` must
    sit between the exact sample quantiles at ``q ± 2*error_bound(q) +
    1/n`` (two nominal cluster widths — see the module docstring for
    why the merging variant needs the second).
    """
    digest = digest_cls()
    for value in samples:
        digest.add(value)
    ordered = sorted(samples)
    n = len(ordered)
    violations = []
    for q in quantiles:
        estimate = digest.quantile(q)
        eps = 2.0 * digest.error_bound(q) + 1.0 / n
        lo_rank = max(0, int(math.floor((q - eps) * (n - 1))))
        hi_rank = min(n - 1, int(math.ceil((q + eps) * (n - 1))))
        lo, hi = ordered[lo_rank], ordered[hi_rank]
        if not (lo <= estimate <= hi):
            violations.append(
                f"q={q}: estimate {estimate!r} outside exact-quantile "
                f"corridor [{lo!r}, {hi!r}] (eps={eps:.5f}, n={n})"
            )
    cap = int(digest.compression) + 1
    if digest.centroid_count > cap:
        violations.append(
            f"centroid count {digest.centroid_count} exceeds bound {cap}"
        )
    return violations


def _self_test():
    # Adversarial-ish deterministic sample: heavy-tailed, clustered,
    # with duplicates — no RNG (DET-01).
    samples = []
    for i in range(5000):
        samples.append(float(i % 97))              # clustered body
        samples.append(1000.0 + (i * i % 9973))    # spread tail
    honest = check_conformance(TDigest, samples)
    broken = check_conformance(_MisMergedDigest, samples)
    print(f"[tdigest] honest digest: {len(honest)} violations")
    for violation in honest:
        print(f"[tdigest]   {violation}")
    print(f"[tdigest] mis-merged digest: {len(broken)} violations "
          f"(must be > 0)")
    for violation in broken[:4]:
        print(f"[tdigest]   {violation}")
    if honest:
        print("[tdigest] FAIL: conformant digest violated its own bound")
        return 1
    if not broken:
        print("[tdigest] FAIL: the planted mis-merge went undetected — "
              "the conformance bound has no teeth")
        return 1
    print("[tdigest] OK: bound holds for the honest digest and catches "
          "the planted mis-merge")
    return 0


if __name__ == "__main__":
    import sys

    if "--self-test" in sys.argv:
        sys.exit(_self_test())
    print(__doc__)
