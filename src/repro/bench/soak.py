"""Saturation soaks: sweep open-loop offered load past the knee.

The paper's Figure 2 stops at 100 closed-loop connections — a regime
where the load generator politely waits whenever the server is slow.
This driver is the opposite experiment (docs/WORKLOADS.md): the
:class:`~repro.bench.openloop.OpenLoopSource` offers load the server
cannot silence, a fresh testbed is built per offered-load point, and
the sweep walks straight past the capacity knee.  The system under
test is the PR 2 overload machinery: past the knee the *correct*
behaviour is to shed load fast and keep the latency of what it still
admits bounded.

Each point runs with an :class:`~repro.core.overload.OverloadController`
watching a :class:`~repro.core.overload.QueuePressure` source over the
server's cores — memory watermarks alone never fire when a bounded
socket pool caps in-flight requests, so queue delay is the signal that
makes admission control engage at CPU saturation.

Oracles (the soak fails, exit code 1, if any trips):

================  ==========================================================
oracle            asserts
================  ==========================================================
bounded-tail      admitted (status-200) p99, scheduled-arrival attribution,
                  stays under ``--p99-budget-us`` at every point
digest-conform    the mergeable t-digest p99 matches the exact order
                  statistic within 20 % (tails must be trustworthy)
shed-engages      the top offered-load point sheds (vacuity guard: a sweep
                  that never saturates proves nothing)
shed-before-      the server's rx pool never reports an exhaustion —
exhaustion        admission control must act *before* the allocator fails
rx-leak           after drain + settle, ``server.rx_pool.in_use`` equals
                  ``engine.store.owned`` (every live rx buffer is owned by
                  the store, none leaked by the request path)
tx-leak           ``server.tx_pool.in_use`` returns to its pre-run baseline
refcount:buffer   walking the store: each owned buffer's index references
                  are consistent (no use-after-free, no leaked refs)
churn-safety      the client never reused a churned-away connection
================  ==========================================================

``--no-containment`` removes the overload controller (the negative
control): the bounded-tail / exhaustion oracles must then trip, and CI
runs it with ``--expect-violations`` to prove the acceptance isn't
vacuous — the same pattern as ``repro-chaoscheck``.

The JSON export (``--json``, schema ``repro-bench-soak/v1``) carries
the latency-vs-offered-load curve: per point offered/goodput krps,
exact p50/p99/p99.9 and the digest p99, shed/degrade/backpressure
counters, and a knee estimate interpolated from where goodput stops
tracking offered load.  ``BENCH_soak.json`` at the repo root is a committed canned
sweep; ``tests/test_bench_soak.py`` asserts the knee shape on it.
"""

import argparse
import json
import sys

from repro.bench.openloop import OpenLoopSource
from repro.bench.testbed import SERVER_IP, make_testbed
from repro.bench.wrk import OpenLoopWrkClient
from repro.core.overload import OverloadController, QueuePressure
from repro.storage.server import ServerConfig
from repro.testing.verdict import Verdict, check_refcounts, exit_status

SOAK_SCHEMA = "repro-bench-soak/v1"

#: Rx-pool slot size (bytes) used to size under-provisioned testbeds,
#: mirroring the chaos harness.
SLOT = 2048

#: Goodput must track offered load within this factor for a point to
#: count as pre-knee.
KNEE_TRACKING = 0.95

#: Relative tolerance between the digest p99 and the exact-sample p99.
DIGEST_TOLERANCE = 0.20

#: Fewest admitted samples before the tail oracles are meaningful.
MIN_TAIL_SAMPLES = 50


class SoakReport(Verdict):
    """Everything one sweep produced: points, oracles, knee estimate."""

    TAG = "soak"
    HELD = "all oracles clean"

    def __init__(self, config):
        super().__init__()
        self.config = config
        self.points = []

    @property
    def knee_krps(self):
        """Offered load where goodput stops tracking, interpolated.

        Returns None while every point still tracks (the sweep never
        crossed the knee) — the shed-engages oracle catches that.
        """
        previous = None
        for point in self.points:
            offered = point["offered_krps"]
            if offered <= 0:
                continue
            tracking = point["goodput_krps"] / offered
            if tracking < KNEE_TRACKING:
                if previous is None:
                    return offered
                prev_offered, prev_tracking = previous
                span = prev_tracking - tracking
                if span <= 0:
                    return offered
                frac = (prev_tracking - KNEE_TRACKING) / span
                return prev_offered + frac * (offered - prev_offered)
            previous = (offered, tracking)
        return None

    def as_dict(self):
        return {
            "schema": SOAK_SCHEMA,
            "config": self.config,
            "points": self.points,
            "knee_krps": self.knee_krps,
            **self.export(),
        }

    def head(self):
        lines = [
            f"[soak] {len(self.points)} offered-load points, "
            f"containment {'on' if self.config['containment'] else 'OFF'}"
        ]
        header = (f"{'offered':>9} {'goodput':>9} {'p50':>8} {'p99':>8} "
                  f"{'p99.9':>8} {'shed':>7} {'degr':>6} {'backlog':>7}")
        lines.append(f"[soak] {header}")
        for p in self.points:
            lines.append(
                f"[soak] {p['offered_krps']:>8.1f}k {p['goodput_krps']:>8.1f}k "
                f"{p['p50_us']:>7.1f}µ {p['p99_us']:>7.1f}µ "
                f"{p['p999_us']:>7.1f}µ {p['shed']:>7} "
                f"{p['degrade_decisions']:>6} {p['backlog_peak']:>7}"
            )
        knee = self.knee_krps
        lines.append(f"[soak] knee ≈ {knee:.1f} krps" if knee is not None
                     else "[soak] knee not reached")
        return lines

    def render(self):
        return self.summary()


def check_schema(doc):
    """Validate an exported soak document; returns it (CI gate)."""
    assert doc.get("schema") == SOAK_SCHEMA, doc.get("schema")
    for key in ("config", "points", "knee_krps", "violations", "ok"):
        assert key in doc, f"missing {key}"
    assert doc["points"], "no points"
    point_keys = {
        "rate_krps", "offered_krps", "goodput_krps", "admitted", "shed",
        "storage_full", "errors", "abandoned", "churns", "handshakes",
        "resets", "backlog_peak", "backlog_at_stop", "p50_us", "p99_us",
        "p999_us", "digest_p99_us", "avg_us", "degrade_decisions",
        "reclaims", "pressure_transitions", "rx_exhaustions", "under_pressure_final",
    }
    for point in doc["points"]:
        missing = point_keys - set(point)
        assert not missing, f"point missing {sorted(missing)}"
        assert point["offered_krps"] >= 0
    rates = [p["rate_krps"] for p in doc["points"]]
    assert rates == sorted(rates), "points must be sorted by rate"
    return doc


def _build_point_testbed(args, containment):
    controller = None
    if containment:
        controller = OverloadController()
    config = ServerConfig(
        engine="pktstore", cores=args["cores"],
        overload=controller, metrics=True,
    )
    testbed = make_testbed(
        config=config, paste_pool_bytes=args["pool_slots"] * SLOT,
    )
    if controller is not None:
        controller.watch(QueuePressure(
            testbed.server,
            high_ns=args["pressure_high_us"] * 1_000.0,
            low_ns=args["pressure_low_us"] * 1_000.0,
        ))
    return testbed, controller


def _leak_oracles(report, label, testbed, tx_baseline):
    registry = testbed.metrics
    rx_in_use = registry.value("server.rx_pool.in_use")
    owned = registry.value("engine.store.owned")
    if rx_in_use != owned:
        report.violation(
            "rx-leak",
            f"{label}: rx_pool.in_use {rx_in_use:.0f} != "
            f"store.owned {owned:.0f} after drain",
        )
    tx_in_use = registry.value("server.tx_pool.in_use")
    if tx_in_use > tx_baseline:
        report.violation(
            "tx-leak",
            f"{label}: tx_pool.in_use {tx_in_use:.0f} > "
            f"baseline {tx_baseline:.0f} after drain",
        )
    store = getattr(testbed.engine, "store", None)
    if store is not None:
        check_refcounts(store, report, where=f"{label}: ")


def run_point(rate_rps, args, report, containment=True):
    """One offered-load point on a fresh testbed; returns the record."""
    label = f"{rate_rps / 1e3:.0f}krps"
    point = {}
    if containment:
        report.need(
            "bounded-tail",
            lambda: point.get("admitted", 0) >= MIN_TAIL_SAMPLES,
            lambda: f"{label}: only {point.get('admitted', 0)} admitted "
                    f"samples — the point is vacuous (window too short or "
                    f"server wedged)",
        )
    testbed, controller = _build_point_testbed(args, containment)
    source = OpenLoopSource(
        rate_rps, clients=args["clients"], key_space=args["key_space"],
        value_size=args["value_size"], theta=args["theta"],
        read_fraction=args["read_fraction"], churn=args["churn"],
        seed=args["seed"],
    )
    client = OpenLoopWrkClient(
        testbed.client, SERVER_IP, source, sockets=args["sockets"],
        duration_ns=args["duration_us"] * 1_000.0,
        warmup_ns=args["warmup_us"] * 1_000.0,
    )
    testbed.recorder.attach_openloop(client)
    registry = testbed.metrics
    tx_baseline = registry.value("server.tx_pool.in_use")

    stats = client.run()
    # Settle: let retransmissions/FINs finish so gauges are at rest.
    testbed.sim.run(until=testbed.sim.now + 2_000_000.0)

    overload_stats = controller.stats if controller is not None else {}
    point.update({
        "rate_krps": rate_rps / 1e3,
        "offered_krps": stats.offered_krps,
        "goodput_krps": stats.goodput_krps,
        "admitted": stats.admitted,
        "shed": stats.shed,
        "storage_full": stats.storage_full,
        "errors": stats.errors,
        "abandoned": stats.abandoned,
        "churns": stats.churns,
        "handshakes": stats.handshakes,
        "resets": stats.resets,
        "backlog_peak": stats.backlog_peak,
        "backlog_at_stop": stats.backlog_at_stop,
        "avg_us": stats.avg_rtt_us,
        "p50_us": stats.percentile_us(50),
        "p99_us": stats.percentile_us(99),
        "p999_us": stats.percentile_us(99.9),
        "digest_p99_us": stats.digest_percentile_us(99),
        "degrade_decisions": overload_stats.get("degrade_decisions", 0),
        "reclaims": overload_stats.get("reclaims", 0),
        "pressure_transitions": overload_stats.get("pressure_transitions", 0),
        "rx_exhaustions": testbed.server.rx_pool.exhaustions,
        "under_pressure_final": bool(
            controller.under_pressure) if controller is not None else False,
    })
    report.points.append(point)

    # -- point oracles --------------------------------------------------------
    if stats.admitted >= MIN_TAIL_SAMPLES:
        if point["p99_us"] > args["p99_budget_us"]:
            report.violation(
                "bounded-tail",
                f"{label}: admitted p99 {point['p99_us']:.1f}µs over the "
                f"{args['p99_budget_us']:.0f}µs budget",
            )
        exact, digest = point["p99_us"], point["digest_p99_us"]
        if exact > 0 and abs(digest - exact) > DIGEST_TOLERANCE * exact:
            report.violation(
                "digest-conform",
                f"{label}: digest p99 {digest:.1f}µs vs exact "
                f"{exact:.1f}µs (> {DIGEST_TOLERANCE:.0%})",
            )
    if point["rx_exhaustions"] > 0:
        report.violation(
            "shed-before-exhaustion",
            f"{label}: rx pool reported {point['rx_exhaustions']} "
            f"exhaustions — admission control engaged too late",
        )
    if client.use_after_close > 0:
        report.violation(
            "churn-safety",
            f"{label}: {client.use_after_close} sends on churned "
            f"connections",
        )
    _leak_oracles(report, label, testbed, tx_baseline)
    return point


def run_soak(rates_rps, args, containment=True):
    """Sweep ``rates_rps`` (ascending), one fresh testbed per point."""
    config = dict(args)
    config["rates_krps"] = [r / 1e3 for r in rates_rps]
    config["containment"] = containment
    report = SoakReport(config)
    if containment:
        # Vacuity guard: a sweep whose top point never sheds either
        # stopped short of the knee or proves admission control inert.
        top = max(rates_rps) / 1e3
        report.need(
            "shed-engages",
            lambda: report.points and report.points[-1]["shed"] > 0,
            f"top point {top:.0f}krps shed nothing — the sweep never "
            f"saturated the server",
        )
    for rate in sorted(rates_rps):
        run_point(rate, args, report, containment=containment)
    return report


def default_args():
    """The canned-soak parameter set (BENCH_soak.json is built from
    these; tests and the CLI share them so the committed curve is
    reproducible by ``repro-bench-soak --json BENCH_soak.json``)."""
    return {
        "cores": 1,
        "sockets": 32,
        "clients": 200_000,
        "key_space": 2_000,
        "value_size": 256,
        "theta": 0.99,
        "read_fraction": 0.0,
        "churn": 0.002,
        "seed": 1,
        "duration_us": 30_000.0,
        "warmup_us": 5_000.0,
        "pool_slots": 4096,
        "pressure_high_us": 150.0,
        "pressure_low_us": 40.0,
        "p99_budget_us": 400.0,
    }


#: The committed sweep: below the knee (~42 krps on the calibrated
#: single-core testbed), at it, and past it — but inside the shed-path
#: CPU capacity (~80 krps), beyond which even answering 503s saturates
#: the core and nothing can bound the admitted tail (the "second knee",
#: docs/WORKLOADS.md).
DEFAULT_RATES_KRPS = (30.0, 45.0, 55.0, 60.0)


#: One line of ``--help`` per :func:`default_args` key; each key is a
#: flag (``key_space`` -> ``--key-space``) typed like its default.
OPTION_HELP = {
    "cores": "server cores",
    "sockets": "bounded socket pool size",
    "clients": "logical client population",
    "key_space": "Zipf key universe",
    "value_size": "PUT value bytes",
    "theta": "Zipf skew",
    "read_fraction": "GET fraction of the op mix",
    "churn": "per-arrival fresh-connection probability",
    "seed": "arrival and op-mix seed",
    "duration_us": "measured window per point, µs of sim time",
    "warmup_us": "warmup before measuring",
    "pool_slots": f"server rx pool slots (x{SLOT} bytes)",
    "pressure_high_us": "queue-delay shed threshold",
    "pressure_low_us": "queue-delay relief threshold",
    "p99_budget_us": "bounded-tail oracle budget for admitted p99",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-bench-soak",
        description="Open-loop saturation soak: sweep offered load past "
                    "the knee, oracle-check the overload machinery, and "
                    "export the latency-vs-offered-load curve.",
    )
    parser.add_argument("--rates", default=None,
                        help="comma-separated offered loads in krps "
                             f"(default: {','.join(str(r) for r in DEFAULT_RATES_KRPS)})")
    for key, default in default_args().items():
        parser.add_argument("--" + key.replace("_", "-"), type=type(default),
                            default=default, help=OPTION_HELP[key])
    parser.add_argument("--no-containment", action="store_true",
                        help="drop the overload controller (negative "
                             "control; oracles should trip)")
    parser.add_argument("--expect-violations", action="store_true",
                        help="exit 0 only if the oracles DID trip")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the soak document as JSON "
                             "('-' for stdout)")
    return parser


def main(argv=None):
    parser = build_parser()
    cli = parser.parse_args(argv)
    rates_krps = DEFAULT_RATES_KRPS if cli.rates is None else tuple(
        float(r) for r in cli.rates.split(",")
    )
    args = {key: getattr(cli, key) for key in default_args()}
    report = run_soak(
        [r * 1e3 for r in rates_krps], args,
        containment=not cli.no_containment,
    )
    print(report.render())
    if cli.json is not None:
        text = json.dumps(report.as_dict(), indent=2, sort_keys=True)
        if cli.json == "-":
            print(text)
        else:
            with open(cli.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"[soak] document written to {cli.json}")
    return exit_status(report, cli.expect_violations, "soak", "overload",
                       "admitted tail bounded, shedding engaged, no leaks")


if __name__ == "__main__":
    sys.exit(main())
