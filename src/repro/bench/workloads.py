"""Traffic sources: one protocol for every workload generator.

The paper's measurement uses wrk's uniform continual writes; downstream
users of a KV store usually characterise it with the YCSB mixes.  This
module provides both behind a single :class:`TrafficSource` protocol —
the same interface the chaos storms' burst phases and the capture
replayer (:mod:`repro.capture.replay`) implement, so every consumer
(`repro-stats`, `repro-chaoscheck`, `repro-capture replay`, the golden
fixtures of :mod:`repro.bench.golden`) drives traffic the same way:

- ``next_op(loop_id)`` returns the next ``(method, key, value)``
  operation for one closed loop, or ``None`` when that loop's stream
  is exhausted (open-ended sources never return ``None``);
- sources are deterministic and seedable — two sources constructed
  with the same arguments emit byte-identical operation streams, which
  is what lets the golden event digests pin runs exactly.

The YCSB mixes over a Zipfian key popularity distribution (Gray et
al.'s generator, as used by YCSB itself):

========  ======================  =======================
workload  operation mix           classic YCSB analogue
========  ======================  =======================
``A``     50 % reads, 50 % updates  session stores
``B``     95 % reads, 5 % updates   photo tagging
``C``     100 % reads               user-profile caches
``W``     100 % writes              the paper's §3 workload
========  ======================  =======================

Use with :class:`~repro.bench.wrk.WrkClient` via the ``workload=``
parameter; keys are drawn Zipf(θ)-skewed from a fixed key space that
should be preloaded (`repro.bench.testbed.preload`).
"""

import random
from collections import deque


class TrafficSource:
    """Protocol for deterministic operation generators.

    A source feeds one or more closed loops (connections, Homa
    requesters, replayed flows).  Consumers call
    ``next_op(loop_id)`` each time loop ``loop_id`` is ready to issue;
    the source answers ``(method, key_string, value_bytes_or_None)``
    or ``None`` to stop that loop.  Sources must be deterministic: no
    wall clock, no unseeded randomness (PMLint DET-01) — the same
    construction arguments must yield the same stream.
    """

    def next_op(self, loop_id=0):
        """The next operation for ``loop_id``, or ``None`` when done."""
        raise NotImplementedError

    def describe(self):
        """One-line JSON-able summary for reports."""
        return {"source": type(self).__name__}


class UniformSource(TrafficSource):
    """wrk's default workload: uniform keys, one method, fixed value.

    Reproduces the paper's §3 measurement traffic: a shared counter
    walks a fixed key space, each loop's keys namespaced by its id.
    The value is the classic wrk fill pattern.
    """

    def __init__(self, method="PUT", key_space=1000, value_size=1024,
                 key_prefix="key"):
        self.method = method
        self.key_space = key_space
        self.value_size = value_size
        self.key_prefix = key_prefix
        self._value = bytes((0x61 + (i % 23)) for i in range(value_size))
        self._counter = 0

    def next_op(self, loop_id=0):
        self._counter += 1
        key = f"{self.key_prefix}-{loop_id}-{self._counter % self.key_space}"
        if self.method == "GET":
            return "GET", key, None
        return self.method, key, self._value

    def describe(self):
        return {"source": "uniform", "method": self.method,
                "key_space": self.key_space, "value_size": self.value_size}


class ListSource(TrafficSource):
    """A fixed list of operations, issued in order by loop 0 (the
    storms' post-storm probes)."""

    def __init__(self, ops):
        self._ops = deque(ops)

    def next_op(self, loop_id=0):
        if loop_id != 0 or not self._ops:
            return None
        return self._ops.popleft()


class StormBurstSource(TrafficSource):
    """The chaos storms' PUT bursts: small private key sets, finite.

    Each loop owns ``keys_per_loop`` keys (globally numbered in loop
    order) and issues ``puts_per_loop`` PUTs round-robin over them —
    more puts than keys forces overwrites, feeding the emergency GC.
    Values carry a ``{stamp_prefix}{loop}:{key}:{index}:`` stamp plus a
    deterministic filler, so the durability oracles can attribute any
    stored byte string back to the op that wrote it.
    """

    def __init__(self, loops, puts_per_loop, keys_per_loop, value_size,
                 key_prefix="k", stamp_prefix="c"):
        self.loops = loops
        self.value_size = value_size
        self.stamp_prefix = stamp_prefix
        self._keys = [
            [f"{key_prefix}{loop_id * keys_per_loop + i}"
             for i in range(keys_per_loop)]
            for loop_id in range(loops)
        ]
        self._sent = [0] * loops
        self._limit = [puts_per_loop] * loops

    def keys_for(self, loop_id):
        """The private key set of one loop (oracle bookkeeping)."""
        return list(self._keys[loop_id])

    def extend(self, loop_id, extra):
        """Grant a loop ``extra`` more puts (the kill storm's second
        burst resumes exhausted loops this way)."""
        self._limit[loop_id] += extra

    def value_for(self, loop_id, key, index):
        stamp = f"{self.stamp_prefix}{loop_id}:{key}:{index}:".encode()
        filler = bytes((loop_id * 31 + index * 7 + i) % 256
                       for i in range(max(0, self.value_size - len(stamp))))
        return stamp + filler

    def next_op(self, loop_id=0):
        index = self._sent[loop_id]
        if index >= self._limit[loop_id]:
            return None
        self._sent[loop_id] = index + 1
        keys = self._keys[loop_id]
        key = keys[index % len(keys)]
        return "PUT", key, self.value_for(loop_id, key, index)

    def describe(self):
        return {"source": "storm-burst", "loops": self.loops,
                "puts_per_loop": self._limit[0] if self._limit else 0,
                "value_size": self.value_size}


class ZipfianGenerator:
    """Zipf-distributed integers in [0, nitems) (Gray et al. / YCSB).

    θ = 0.99 is YCSB's default skew; θ → 0 approaches uniform.

    This is the one Zipf implementation in the tree — the YCSB mixes
    and the open-loop arrival generator (:mod:`repro.bench.openloop`)
    both draw from it, and ``tests/test_bench_workloads.py`` holds the
    shape-conformance suite shared by both call sites.  Two costs are
    engineered out of the common paths:

    - ``next()`` is branch + multiply only: the ``1 + 0.5**θ`` second-
      rank threshold and the ``1 - η`` affine term are precomputed, and
      the underlying ``Random.random`` is bound once (the old code
      re-evaluated ``0.5 ** theta`` on every single draw);
    - the O(n) generalized-harmonic constant ζ(n, θ) is memoised per θ
      and extended *incrementally* — a saturation sweep that builds one
      generator per offered-load point over the same million-key space
      pays the sum once, not once per point.
    """

    #: θ → (largest n computed, ζ(n, θ)); extended incrementally.
    _ZETA_CACHE = {}

    def __init__(self, nitems, theta=0.99, seed=1):
        if nitems < 1:
            raise ValueError("need at least one item")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.nitems = nitems
        self.theta = theta
        self._rng = random.Random(seed)
        self._random = self._rng.random
        self._zetan = self._zeta(nitems, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._rank2_threshold = 1.0 + 0.5 ** theta
        if nitems <= 2:
            # zeta(n) == zeta(2) makes eta's denominator zero, but next()
            # resolves every draw through its first two branches before
            # eta is consulted (uz < zetan == 1 + 0.5**theta always).
            self._eta = 0.0
        else:
            self._eta = (1.0 - (2.0 / nitems) ** (1.0 - theta)) / (
                1.0 - self._zeta2 / self._zetan
            )
        self._one_minus_eta = 1.0 - self._eta

    @classmethod
    def _zeta(cls, n, theta):
        """ζ(n, θ) = Σ_{i=1..n} i^-θ, memoised and extended per θ.

        The cache keeps the largest prefix computed for each θ; asking
        for a larger n only sums the new tail, and asking for a smaller
        one (the ζ(2) term above) is computed directly — it's two terms.
        """
        if n <= 2:
            return 1.0 if n == 1 else 1.0 + 0.5 ** theta
        cached_n, cached = cls._ZETA_CACHE.get(theta, (2, 1.0 + 0.5 ** theta))
        if cached_n == n:
            return cached
        if cached_n < n:
            cached += sum(1.0 / i ** theta for i in range(cached_n + 1, n + 1))
            cls._ZETA_CACHE[theta] = (n, cached)
            return cached
        return sum(1.0 / i ** theta for i in range(1, n + 1))

    def next(self):
        u = self._random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._rank2_threshold:
            return 1
        return int(
            self.nitems * (self._eta * u + self._one_minus_eta) ** self._alpha
        )

    def sample(self, count):
        return [self.next() for _ in range(count)]


def check_zipf_shape(samples, nitems, theta, tolerance=0.35):
    """Verify a sample stream follows the Zipf(θ) rank-frequency shape.

    The conformance contract shared by every consumer of
    :class:`ZipfianGenerator` (the YCSB mixes, the open-loop key
    stream): the observed probability mass on the top-ranked items must
    match the analytic mass ``ζ(k, θ) / ζ(n, θ)`` within ``tolerance``
    (relative), at several prefix widths.  Raises ``AssertionError``
    with the failing prefix; returns the per-prefix (expected, observed)
    map on success so tests can report it.
    """
    if not samples:
        raise AssertionError("no samples to check")
    total = len(samples)
    zetan = ZipfianGenerator._zeta(nitems, theta)
    checked = {}
    prefixes = sorted({1, 10, max(1, nitems // 100), max(1, nitems // 10)})
    for k in prefixes:
        if k >= nitems:
            continue
        expected = ZipfianGenerator._zeta(k, theta) / zetan
        observed = sum(1 for s in samples if s < k) / total
        checked[k] = (expected, observed)
        if abs(observed - expected) > tolerance * expected:
            raise AssertionError(
                f"top-{k} mass {observed:.4f} outside ±{tolerance:.0%} of "
                f"the analytic Zipf({theta}) mass {expected:.4f} "
                f"(n={nitems}, {total} samples)"
            )
    return checked


class YcsbWorkload(TrafficSource):
    """An operation-mix + key-distribution bundle for the wrk clients.

    One shared Zipfian stream serves every loop — YCSB's key popularity
    is a property of the workload, not of any one connection — so
    ``loop_id`` is accepted (TrafficSource protocol) but ignored.
    """

    MIXES = {
        "A": 0.5,
        "B": 0.95,
        "C": 1.0,
        "W": 0.0,
    }

    def __init__(self, mix="A", key_space=1000, value_size=1024,
                 theta=0.99, seed=1, key_prefix="warm"):
        if mix not in self.MIXES:
            raise ValueError(f"unknown mix {mix!r}; pick one of {sorted(self.MIXES)}")
        self.mix = mix
        self.read_fraction = self.MIXES[mix]
        self.key_space = key_space
        self.value_size = value_size
        self.key_prefix = key_prefix
        self._zipf = ZipfianGenerator(key_space, theta, seed)
        self._rng = random.Random(seed ^ 0x5EED)
        self._value = bytes((0x41 + (i % 26)) for i in range(value_size))
        self.issued_reads = 0
        self.issued_writes = 0

    def next_op(self, loop_id=0):
        """(method, key_string, value_bytes_or_None) for the next request."""
        key = f"{self.key_prefix}-{self._zipf.next()}"
        if self._rng.random() < self.read_fraction:
            self.issued_reads += 1
            return "GET", key, None
        self.issued_writes += 1
        return "PUT", key, self._value

    def describe(self):
        return {"source": "ycsb", "mix": self.mix,
                "key_space": self.key_space, "value_size": self.value_size}

    def __repr__(self):
        return (
            f"<YcsbWorkload {self.mix} keys={self.key_space} "
            f"value={self.value_size}B θ={self._zipf.theta}>"
        )
