"""Open-loop arrival generation: offered load the server cannot silence.

The paper's Figure 2 drives the server with *closed* loops — each
connection issues its next request only after the previous response
lands.  That protocol has a well-known blind spot, **coordinated
omission**: the moment the server stalls, every closed loop stops
offering load, so the stall suppresses exactly the samples that would
have measured it.  A harness like that can't test the overload
machinery (shedding, degradation, backpressure) because the harness
itself backs off before the server has to.

This module generates *open-loop* traffic: arrivals follow a clock-
driven stochastic process that does not know or care how the server is
doing, the way requests from 10⁵–10⁶ independent users do.  Pieces:

- :class:`OpenLoopSource` — a :class:`~repro.bench.workloads.TrafficSource`
  whose ``next_arrival()`` additionally yields *when* each request
  arrives: Poisson arrivals (exponential interarrivals at the offered
  rate).  Keys are heavy-tailed Zipf over a shared key space (the one
  :class:`~repro.bench.workloads.ZipfianGenerator`, not a second
  implementation), attributed to one of ``clients`` logical clients,
  and a seeded churn coin marks arrivals that open a **fresh
  connection** (real handshake cost) instead of reusing a pooled one.
- :func:`plant_stall` — the deterministic server freeze the
  coordinated-omission regression test measures against.

The consumer is :class:`~repro.bench.wrk.OpenLoopWrkClient`, which
multiplexes these arrivals over a bounded socket pool and timestamps
every request at its *scheduled arrival* — so time spent waiting for a
socket (i.e. server-induced queueing) lands in the RTT tail instead of
vanishing.  The saturation-soak driver on top lives in
:mod:`repro.bench.soak`; see docs/WORKLOADS.md for the full story.

Everything here is seeded and sim-clock driven (PMLint DET-01): the
same construction arguments yield byte-identical arrival streams.
"""

import math
import random

from repro.bench.workloads import TrafficSource, ZipfianGenerator


class Arrival:
    """One scheduled request: who issues it, what it asks, how it connects."""

    __slots__ = ("client_id", "new_connection", "method", "key", "value")

    def __init__(self, client_id, new_connection, method, key, value):
        self.client_id = client_id
        self.new_connection = new_connection
        self.method = method
        self.key = key
        self.value = value

    def op(self):
        """The (method, key, value) triple the TrafficSource protocol speaks."""
        return self.method, self.key, self.value

    def __repr__(self):
        conn = " new-conn" if self.new_connection else ""
        return (f"<Arrival client={self.client_id} {self.method} "
                f"{self.key}{conn}>")


class OpenLoopSource(TrafficSource):
    """Clock-driven arrivals from a large population of logical clients.

    ``rate_rps`` is the *offered* load in requests per second of
    simulated time — what the population sends regardless of how the
    server responds.  ``next_arrival(now_ns)`` advances an internal
    arrival clock and returns ``(arrival_time_ns, Arrival)``; the
    stream is a Poisson process at ``rate_rps``.

    As a plain :class:`TrafficSource`, ``next_op`` yields the same
    operation stream without timing — so the protocol conformance and
    determinism contracts (and every closed-loop consumer) hold
    unchanged.

    ========== =========================================================
    knob        meaning
    ========== =========================================================
    clients     logical client population; each arrival is attributed
                uniformly to one of them (10⁵–10⁶ models the north-star
                regime; connection state stays O(socket pool))
    key_space   Zipf(θ) key universe shared by the whole population
    churn       per-arrival probability the issuing client has no warm
                connection — the consumer must pay a fresh handshake
    ========== =========================================================
    """

    def __init__(self, rate_rps, clients=100_000, key_space=10_000,
                 value_size=256, theta=0.99, read_fraction=0.0,
                 churn=0.0, seed=1, key_prefix="ol"):
        if rate_rps <= 0:
            raise ValueError("offered rate must be positive")
        if clients < 1:
            raise ValueError("need at least one logical client")
        if not 0.0 <= churn <= 1.0:
            raise ValueError("churn must be in [0, 1]")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.rate_rps = rate_rps
        self.clients = clients
        self.key_space = key_space
        self.value_size = value_size
        self.theta = theta
        self.read_fraction = read_fraction
        self.churn = churn
        self.seed = seed
        self.key_prefix = key_prefix
        # Separate streams so the op sequence (keys, methods) is
        # identical whether consumed open-loop or via next_op.
        self._timing_rng = random.Random(seed)
        self._op_rng = random.Random(seed ^ 0x0431)
        self._zipf = ZipfianGenerator(key_space, theta, seed ^ 0x21F)
        self._value = bytes((0x61 + (i % 23)) for i in range(value_size))
        self._rate_per_ns = rate_rps / 1e9
        #: Arrival clock: where the stochastic process has advanced to.
        self.arrival_clock_ns = None
        self.generated = 0

    # -- arrival stream -------------------------------------------------------

    def next_arrival(self, now_ns=None):
        """Advance the arrival process; returns ``(t_ns, Arrival)``.

        The clock starts at ``now_ns`` on the first call and is purely
        self-advancing afterwards (``now_ns`` is then ignored): arrival
        times never depend on when the consumer got around to asking —
        that independence IS the open loop.
        """
        if self.arrival_clock_ns is None:
            self.arrival_clock_ns = float(now_ns or 0.0)
        timing = self._timing_rng
        t = self.arrival_clock_ns - \
            math.log(1.0 - timing.random()) / self._rate_per_ns
        self.arrival_clock_ns = t
        self.generated += 1
        client_id = timing.randrange(self.clients)
        new_connection = self.churn > 0.0 and timing.random() < self.churn
        method, key, value = self._draw_op()
        return t, Arrival(client_id, new_connection, method, key, value)

    def _draw_op(self):
        key = f"{self.key_prefix}-{self._zipf.next()}"
        if self.read_fraction > 0.0 and \
                self._op_rng.random() < self.read_fraction:
            return "GET", key, None
        return "PUT", key, self._value

    # -- TrafficSource protocol -----------------------------------------------

    def next_op(self, loop_id=0):
        """The op stream without timing (closed-loop / replay consumers)."""
        return self._draw_op()

    def describe(self):
        return {
            "source": "openloop",
            "rate_rps": self.rate_rps,
            "clients": self.clients,
            "key_space": self.key_space,
            "value_size": self.value_size,
            "theta": self.theta,
            "read_fraction": self.read_fraction,
            "churn": self.churn,
            "seed": self.seed,
        }

    def __repr__(self):
        return (f"<OpenLoopSource {self.rate_rps:.0f} rps "
                f"clients={self.clients} θ={self.theta} "
                f"churn={self.churn}>")


def plant_stall(host, at_ns, duration_ns, core_index=0):
    """Freeze one of ``host``'s cores for ``duration_ns`` at ``at_ns``.

    Deterministic fault injection for the coordinated-omission
    regression: the core simply accepts no new work until the stall
    ends, as if a GC pause or an SMI took it away.  Everything queued
    behind the stall (and everything scheduled *during* it) is delayed
    by up to ``duration_ns`` — a closed-loop harness records one
    inflated sample per connection and goes quiet, while an open-loop
    harness keeps offering load and records the whole queueing wave.
    Returns the scheduled event so tests can cancel it.
    """
    if duration_ns <= 0:
        raise ValueError("stall duration must be positive")
    core = host.cpus[core_index]

    def freeze():
        end = host.sim.now + duration_ns
        if core.free_at < end:
            core.free_at = end

    return host.sim.at(at_ns, freeze)
