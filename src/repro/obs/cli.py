"""``repro-stats``: run a live workload and report what the server saw.

Where ``repro-table1`` reproduces the paper's breakdown *offline* (cost
accounting divided by request count, after the fact), this CLI drives a
real server — TCP or Homa, any engine, any core count — with the
observability layer attached and reports from the **live registry**:
the three-class stage breakdown per request, per-core utilisation and
queueing, pool occupancy, and the request-span ring.

Examples::

    repro-stats --table1                      # live Table 1 vs paper
    repro-stats --transport homa --cores 4    # Homa, multicore
    repro-stats --storm --json -              # chaos storm, snapshot JSON
    repro-stats --trace 5                     # last 5 request spans

``--json`` emits a single JSON document (``{"workload", "snapshot",
"table1", "trace", "watch"}``) that CI schema-checks; everything else
prints human-readable tables.

``--watch US`` takes a full registry snapshot every ``US`` µs of
*simulated* time while the workload runs, instead of only one at the
end.  Each periodic snapshot is schema-identical to the one-shot
``snapshot`` document (same keys, same metric set), so consumers can
reuse their parsers; the human-readable view adds delta and rate
columns computed between consecutive snapshots.
"""

import argparse
import json
import sys

from repro.sim.units import ns_to_us


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-stats",
        description="Run a short workload with live metrics attached and "
                    "export or pretty-print the registry snapshot, the "
                    "live Table-1 stage breakdown and the trace ring.",
    )
    workload = parser.add_argument_group("workload")
    workload.add_argument("--engine", default="novelsm",
                          help="storage engine (default: novelsm)")
    workload.add_argument("--transport", choices=("tcp", "homa"),
                          default="tcp", help="server transport")
    workload.add_argument("--cores", type=int, default=1,
                          help="server cores (default: 1)")
    workload.add_argument("--connections", type=int, default=1,
                          help="closed-loop connections (default: 1)")
    workload.add_argument("--value-size", type=int, default=1024,
                          help="PUT value bytes (default: 1024, Table 1)")
    workload.add_argument("--method", choices=("PUT", "GET"), default="PUT",
                          help="request type (default: PUT)")
    workload.add_argument("--duration-us", type=float, default=20_000.0,
                          help="measured window, µs of sim time "
                               "(default: 20000)")
    workload.add_argument("--warmup-us", type=float, default=5_000.0,
                          help="warmup before measuring (default: 5000)")
    workload.add_argument("--zero-copy", action="store_true",
                          help="zero-copy GETs (TCP + pktstore engine)")
    workload.add_argument("--overload", action="store_true",
                          help="attach an OverloadController")
    workload.add_argument("--storm", action="store_true",
                          help="run the chaos overload storm instead of "
                               "the closed-loop workload")
    workload.add_argument("--openloop", type=float, metavar="KRPS",
                          default=None,
                          help="drive open-loop offered load at KRPS "
                               "instead of closed loops (TCP + pktstore; "
                               "composes with --watch/--json)")
    workload.add_argument("--seed", type=int, default=1,
                          help="storm / open-loop seed")

    output = parser.add_argument_group("output")
    output.add_argument("--table1", action="store_true",
                        help="print the live Table-1 view against the "
                             "paper's targets")
    output.add_argument("--json", metavar="PATH", default=None,
                        help="write the snapshot document as JSON "
                             "('-' for stdout)")
    output.add_argument("--trace", type=int, metavar="N", default=0,
                        help="show (and include in JSON) the newest N "
                             "request spans")
    output.add_argument("--watch", type=float, metavar="US", default=None,
                        help="snapshot the registry every US µs of sim "
                             "time during the run; print delta/rate "
                             "columns (JSON: 'watch' list, each entry "
                             "schema-identical to 'snapshot')")
    return parser


def _run_wrk(args):
    """Closed-loop wrk workload over a metrics-enabled testbed."""
    from repro.bench.testbed import SERVER_IP, make_testbed, preload
    from repro.bench.wrk import HomaWrkClient, WrkClient
    from repro.storage import ServerConfig

    config = ServerConfig(
        engine=args.engine, transport=args.transport, cores=args.cores,
        zero_copy_get=args.zero_copy, overload=True if args.overload else None,
        metrics=True, trace_capacity=max(1024, args.trace),
    )
    testbed = make_testbed(config=config)
    if args.method == "GET":
        preload(testbed, entries=1000, value_size=args.value_size)
    client_class = HomaWrkClient if args.transport == "homa" else WrkClient
    wrk = client_class(
        testbed.client, SERVER_IP, connections=args.connections,
        value_size=args.value_size, method=args.method,
        duration_ns=args.duration_us * 1_000.0,
        warmup_ns=args.warmup_us * 1_000.0,
    )
    if args.watch:
        stats, watch = _watched_run(testbed, wrk, args.watch * 1_000.0)
    else:
        stats, watch = wrk.run(), []
    workload = {
        "mode": "wrk",
        "engine": args.engine,
        "transport": args.transport,
        "cores": args.cores,
        "connections": args.connections,
        "method": args.method,
        "value_size": args.value_size,
        "completed": stats.completed,
        "avg_rtt_us": stats.avg_rtt_us,
        "p50_rtt_us": stats.percentile_us(50),
        "p99_rtt_us": stats.percentile_us(99),
        "throughput_krps": stats.throughput_krps,
    }
    return testbed.recorder, workload, watch


def _run_openloop(args):
    """Open-loop offered load with queue-pressure admission control.

    The same wiring as one ``repro-bench-soak`` point, but a single
    rate with the full live-registry reporting — ``--watch`` streams
    the offered-side gauges (``openloop.*``) next to the admission
    counters so the knee is visible as it happens.
    """
    from repro.bench.openloop import OpenLoopSource
    from repro.bench.soak import SLOT, default_args
    from repro.bench.testbed import SERVER_IP, make_testbed
    from repro.bench.wrk import OpenLoopWrkClient
    from repro.core.overload import OverloadController, QueuePressure
    from repro.storage import ServerConfig

    defaults = default_args()
    controller = OverloadController()
    config = ServerConfig(
        engine="pktstore", transport="tcp", cores=args.cores,
        overload=controller, metrics=True,
        trace_capacity=max(1024, args.trace),
    )
    testbed = make_testbed(
        config=config, paste_pool_bytes=defaults["pool_slots"] * SLOT,
    )
    controller.watch(QueuePressure(
        testbed.server,
        high_ns=defaults["pressure_high_us"] * 1_000.0,
        low_ns=defaults["pressure_low_us"] * 1_000.0,
    ))
    source = OpenLoopSource(
        args.openloop * 1e3, clients=defaults["clients"],
        key_space=defaults["key_space"], value_size=args.value_size,
        theta=defaults["theta"], churn=defaults["churn"], seed=args.seed,
    )
    wrk = OpenLoopWrkClient(
        testbed.client, SERVER_IP, source,
        duration_ns=args.duration_us * 1_000.0,
        warmup_ns=args.warmup_us * 1_000.0,
    )
    testbed.recorder.attach_openloop(wrk)
    if args.watch:
        stats, watch = _watched_run(testbed, wrk, args.watch * 1_000.0)
    else:
        stats, watch = wrk.run(), []
    workload = {
        "mode": "openloop",
        "engine": "pktstore",
        "transport": "tcp",
        "cores": args.cores,
        "rate_krps": args.openloop,
        "sockets": wrk.sockets,
        "offered_krps": stats.offered_krps,
        "goodput_krps": stats.goodput_krps,
        "completed": stats.completed,
        "admitted": stats.admitted,
        "shed": stats.shed,
        "avg_rtt_us": stats.avg_rtt_us,
        "p50_rtt_us": stats.percentile_us(50),
        "p99_rtt_us": stats.percentile_us(99),
        "throughput_krps": stats.throughput_krps,
    }
    return testbed.recorder, workload, watch


def _watched_run(testbed, wrk, interval_ns):
    """Run ``wrk`` through its own ``run()``, snapshotting on the way.

    The client moves the clock through the ``advance`` given here, which
    stops at every interval boundary and at the end of each of the
    run's own steps to take a snapshot, so a watched run ends exactly
    as an unwatched one.  Every entry is the full
    ``registry.snapshot()`` — the same call the one-shot export uses —
    so the periodic documents are schema-identical to the final one,
    and ``watch[-1]``, taken at the end of the run, matches the final
    ``snapshot`` document's totals.
    """
    sim = testbed.sim
    registry = testbed.recorder.registry
    watch = []
    next_at = sim.now + interval_ns

    def advance(until, max_events=None):
        nonlocal next_at
        while True:
            step = min(next_at, until)
            sim.run(until=step, max_events=max_events)
            if step == next_at:
                next_at += interval_ns
            if not watch or watch[-1]["sim_now_ns"] < sim.now:
                watch.append(registry.snapshot())
            if step == until:
                return

    return wrk.run(advance=advance), watch


def _run_storm(args):
    """Chaos overload storm (always metrics-enabled)."""
    from repro.testing.chaos import OverloadStorm

    storm = OverloadStorm(transport=args.transport, cores=args.cores,
                          zero_copy=args.zero_copy, seed=args.seed)
    report = storm.run()
    workload = {
        "mode": "storm",
        "engine": "pktstore",
        "transport": args.transport,
        "cores": args.cores,
        "acked_puts": report.acked_puts,
        "attempted_puts": report.attempted_puts,
        "responses": {str(k): v for k, v in report.responses.items()},
        **report.export(),
    }
    return storm.testbed.recorder, workload, []


def render_table1(recorder):
    """Live Table-1 rows next to the paper's targets."""
    from repro.bench.report import format_table, pct_delta, us
    from repro.bench.table1 import PAPER

    live = recorder.table1()
    if live is None:
        return "[stats] no completed requests — nothing to break down"
    rows = []
    for label, key in (
        ("Networking (incl. wire)", "networking"),
        ("Request preparation", "prep"),
        ("Checksum calculation", "checksum"),
        ("Data copy", "copy"),
        ("Buffer allocation and insertion", "alloc_insert"),
        ("Data management (sum)", "datamgmt"),
        ("Flush CPU caches to PM", "persistence"),
        ("Other", "other"),
        ("Total", "total"),
    ):
        measured = ns_to_us(live[key])
        paper = PAPER.get(key)
        rows.append((
            label,
            us(paper) if paper is not None else "—",
            us(measured),
            pct_delta(measured, paper) if paper is not None else "—",
        ))
    title = (f"Live Table 1 over {live['requests']:.0f} requests "
             f"(µs per request)")
    return format_table(title, ["Stage", "paper", "live", "delta"], rows)


def render_summary(recorder, workload):
    """Human-readable digest: stages, cores, pools, request histogram."""
    from repro.bench.report import format_table

    registry = recorder.registry
    lines = []
    if workload["mode"] == "wrk":
        lines.append(
            f"[stats] {workload['method']} x{workload['completed']} over "
            f"{workload['transport']}/{workload['engine']}: "
            f"avg {workload['avg_rtt_us']:.2f} µs, "
            f"p99 {workload['p99_rtt_us']:.2f} µs, "
            f"{workload['throughput_krps']:.1f} krps"
        )
    elif workload["mode"] == "openloop":
        lines.append(
            f"[stats] open loop {workload['offered_krps']:.1f} krps offered "
            f"over {workload['sockets']} sockets: "
            f"goodput {workload['goodput_krps']:.1f} krps, "
            f"{workload['admitted']} admitted / {workload['shed']} shed, "
            f"p99 {workload['p99_rtt_us']:.2f} µs "
            f"(scheduled-arrival attribution)"
        )
    else:
        lines.append(
            f"[stats] storm over {workload['transport']}/pktstore: "
            f"{workload['acked_puts']}/{workload['attempted_puts']} PUTs "
            f"acked, responses {workload['responses']}, "
            f"{'clean' if workload['ok'] else 'VIOLATIONS'}"
        )

    requests = registry.value("server.requests")
    if requests > 0:
        stage_rows = []
        for stage in ("networking", "datamgmt", "persistence", "other"):
            total = registry.value(f"server.request.stage.{stage}_ns")
            stage_rows.append((
                stage,
                f"{ns_to_us(total / requests):.2f}",
                f"{ns_to_us(total):.1f}",
            ))
        lines.append(format_table(
            f"Server stage breakdown ({requests:.0f} request spans)",
            ["stage", "µs/req", "µs total"], stage_rows,
        ))

    core_rows = []
    for index in range(64):
        busy = registry.get(f"server.core{index}.busy_ns")
        if busy is None:
            break
        core_rows.append((
            f"core{index}",
            f"{registry.value(f'server.core{index}.utilisation'):.1%}",
            f"{ns_to_us(registry.value(f'server.core{index}.queue_ns')):.2f}",
        ))
    if core_rows:
        lines.append(format_table(
            "Server cores", ["core", "util", "queue µs"], core_rows,
        ))

    hist = registry.get("server.request_ns")
    if hist is not None and hist.count:
        lines.append(
            f"[stats] request service time: mean "
            f"{ns_to_us(hist.mean):.2f} µs, p50 "
            f"{ns_to_us(hist.quantile(0.5)):.2f} µs, p99 "
            f"{ns_to_us(hist.quantile(0.99)):.2f} µs "
            f"(t-digest), n={hist.count}"
        )
    return "\n".join(lines)


def render_watch(watch):
    """Delta/rate table over the periodic snapshots.

    Counters are cumulative, so each row differences against the
    previous snapshot; quantiles come from the (cumulative) digest at
    that instant.
    """
    from repro.bench.report import format_table

    rows = []
    prev_requests = 0.0
    prev_now = None
    for snapshot in watch:
        now = snapshot["sim_now_ns"]
        metrics = snapshot["metrics"]
        requests = metrics.get("server.requests", {}).get("value", 0.0)
        delta = requests - prev_requests
        window = (now - prev_now) if prev_now is not None else now
        rate_krps = delta / window * 1e6 if window > 0 else 0.0
        hist = metrics.get("server.request_ns", {})
        quantiles = hist.get("quantiles", {})
        rows.append((
            f"{now / 1e6:.3f}",
            f"{requests:.0f}",
            f"+{delta:.0f}",
            f"{rate_krps:.1f}",
            f"{ns_to_us(quantiles.get('p50', 0.0)):.2f}",
            f"{ns_to_us(quantiles.get('p99', 0.0)):.2f}",
        ))
        prev_requests, prev_now = requests, now
    return format_table(
        f"Watch: {len(watch)} snapshots",
        ["t (ms)", "requests", "Δreq", "krps", "p50 µs", "p99 µs"], rows,
    )


def render_trace(recorder, last):
    lines = [f"[stats] newest {min(last, len(recorder.ring))} of "
             f"{recorder.ring.appended} spans "
             f"({recorder.ring.dropped} evicted):"]
    for span in recorder.ring.spans(last=last):
        stages = ", ".join(
            f"{stage} {ns_to_us(ns):.2f}" for stage, ns in span.stages.items()
            if ns > 0
        ) or "zero-cost"
        lines.append(
            f"  t={span.t_end / 1e6:10.3f} ms  {span.kind:>6} "
            f"{span.status}  core{span.core}  "
            f"{ns_to_us(span.total_ns):7.2f} µs  [{stages} µs]"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.watch is not None and args.storm:
        parser.error("--watch drives the wrk workload; drop --storm")
    if args.watch is not None and args.watch <= 0:
        parser.error("--watch interval must be positive")
    if args.openloop is not None:
        if args.storm:
            parser.error("--openloop and --storm are exclusive")
        if args.openloop <= 0:
            parser.error("--openloop rate must be positive")
        runner = _run_openloop
    elif args.storm:
        runner = _run_storm
    else:
        runner = _run_wrk
    recorder, workload, watch = runner(args)

    if args.json is not None:
        document = {
            "workload": workload,
            "snapshot": recorder.registry.snapshot(),
            "table1": recorder.table1(),
            "trace": recorder.ring.dump(last=args.trace) if args.trace else [],
            "watch": watch,
        }
        text = json.dumps(document, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"[stats] snapshot written to {args.json}")
    else:
        print(render_summary(recorder, workload))
        if watch:
            print(render_watch(watch))

    if args.table1:
        print(render_table1(recorder))
    if args.trace and args.json is None:
        print(render_trace(recorder, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
