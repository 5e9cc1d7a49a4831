"""``repro-capture``: record, inspect, replay and rebuild captures.

Subcommands::

    repro-capture record  --out run.rpcap [--transport homa ...]
        run a wrk session against a capture-enabled testbed and save
        the server's delivered frame stream

    repro-capture inspect run.rpcap [--frames 10] [--ops]
        print provenance meta, record stats, the stream digest and
        (optionally) per-frame / per-op summaries

    repro-capture replay  run.rpcap
        parse the capture back into operations and replay them as a
        workload (CaptureSource -> wrk) against a fresh server

    repro-capture rebuild run.rpcap [--expect-digest HEX]
        rebuild a warm standby from the capture alone and print its
        recovery digest (the replay-determinism echo is always checked)

    repro-capture smoke   [--plant-drop --expect-violations]
        CI entry point: record a short storm, rebuild a standby from
        the capture, run the durability oracle between live and
        rebuilt stores.  ``--plant-drop`` removes the frame carrying a
        surviving value first; with ``--expect-violations`` the run
        *fails unless* the oracle reports the divergence.
"""

import argparse
import sys

from repro.capture.format import Capture
from repro.capture.replay import (
    CaptureSource,
    extract_ops,
    plant_drop,
    rebuild_standby,
    store_digest,
    verify_rebuild,
)
from repro.net.headers import int_to_ip
from repro.testing.verdict import exit_status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-capture",
        description="deterministic frame capture/replay "
                    "(record | inspect | replay | rebuild | smoke)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="capture a wrk serving session")
    record.add_argument("--out", required=True, help="capture file to write")
    record.add_argument("--transport", choices=("tcp", "homa"), default="tcp")
    record.add_argument("--engine", default="pktstore")
    record.add_argument("--cores", type=int, default=1)
    record.add_argument("--connections", type=int, default=8)
    record.add_argument("--value-size", type=int, default=1024)
    record.add_argument("--key-space", type=int, default=200)
    record.add_argument("--duration-us", type=float, default=3000.0)
    record.add_argument("--max-frames", type=int, default=None,
                        help="capture ring bound (oldest evicted)")

    inspect = sub.add_parser("inspect", help="describe a capture file")
    inspect.add_argument("capture")
    inspect.add_argument("--frames", type=int, default=0,
                         help="also print the first N frame records")
    inspect.add_argument("--ops", action="store_true",
                         help="parse and summarise the operation stream")

    replay = sub.add_parser("replay",
                            help="replay a capture as a live workload")
    replay.add_argument("capture")
    replay.add_argument("--merged", action="store_true",
                        help="single replay loop in capture order "
                             "(default: one loop per captured flow)")

    rebuild = sub.add_parser("rebuild",
                             help="rebuild a warm standby from a capture")
    rebuild.add_argument("capture")
    rebuild.add_argument("--expect-digest", default=None,
                         help="fail unless the rebuilt store digest matches")
    rebuild.add_argument("--max-events", type=int, default=50_000_000)

    smoke = sub.add_parser("smoke",
                           help="record + rebuild + oracle in one process")
    smoke.add_argument("--transport", choices=("tcp", "homa"), default="tcp")
    smoke.add_argument("--cores", type=int, default=1)
    smoke.add_argument("--connections", type=int, default=24)
    smoke.add_argument("--puts-per-conn", type=int, default=4)
    smoke.add_argument("--value-size", type=int, default=1200)
    smoke.add_argument("--seed", type=int, default=3)
    smoke.add_argument("--no-faults", action="store_true",
                       help="disable the storm's fault plan")
    smoke.add_argument("--plant-drop", action="store_true",
                       help="remove the frame carrying a surviving value "
                            "before the rebuild")
    smoke.add_argument("--expect-violations", action="store_true",
                       help="fail unless the oracle reports divergence")
    return parser


def _main_record(args):
    from repro.bench.testbed import make_testbed
    from repro.bench.wrk import HomaWrkClient, WrkClient
    from repro.storage.server import ServerConfig

    config = ServerConfig(
        transport=args.transport, engine=args.engine, cores=args.cores,
        capture=True, capture_max_frames=args.max_frames,
    )
    testbed = make_testbed(config=config)
    client_cls = HomaWrkClient if args.transport == "homa" else WrkClient
    duration_ns = args.duration_us * 1000.0
    wrk = client_cls(
        testbed.client, testbed.server.ip, connections=args.connections,
        value_size=args.value_size, key_space=args.key_space,
        duration_ns=duration_ns, warmup_ns=min(duration_ns / 4, 500_000.0),
    )
    wrk.start()
    testbed.sim.run_until_idle()

    capture = testbed.capture.capture()
    capture.save(args.out)
    print(f"[capture] recorded {len(capture)} frames "
          f"({sum(len(r.frame) for r in capture.records)} B) "
          f"over {capture.span_ns() / 1000.0:.1f} us -> {args.out}")
    print(f"[capture] completed requests: {wrk.stats.completed}, "
          f"stream digest {capture.digest()[:16]}…")
    print(f"[capture] live store digest {store_digest(testbed.engine)}")
    return 0


def _main_inspect(args):
    capture = Capture.load(args.capture)
    total_bytes = sum(len(r.frame) for r in capture.records)
    print(f"[capture] {args.capture}: {len(capture)} frames, "
          f"{total_bytes} B, span {capture.span_ns() / 1000.0:.1f} us")
    print(f"[capture] digest {capture.digest()}")
    if capture.truncated:
        print("[capture] WARNING: partial tail — file ends mid-record")
    for key in sorted(capture.meta):
        print(f"[capture]   meta.{key} = {capture.meta[key]!r}")
    for record in capture.records[:args.frames]:
        print(f"[capture]   {record.t_ns:14.1f} ns  "
              f"{int_to_ip(record.src_ip):>12} -> "
              f"{int_to_ip(record.dst_ip):<12} {len(record.frame):5d} B")
    if args.ops:
        ops = extract_ops(capture)
        flows = {op[0] for op in ops}
        puts = sum(1 for op in ops if op[1] == "PUT")
        print(f"[capture] ops: {len(ops)} ({puts} PUT, "
              f"{len(ops) - puts} other) across {len(flows)} flow(s)")
    return 0


def _main_replay(args):
    from repro.bench.testbed import make_testbed
    from repro.bench.wrk import HomaWrkClient, WrkClient
    from repro.storage.server import ServerConfig

    capture = Capture.load(args.capture)
    source = CaptureSource(capture, per_flow=not args.merged)
    config = ServerConfig.from_capture_meta(capture.meta)
    testbed = make_testbed(config=config)
    client_cls = (HomaWrkClient if config.transport == "homa" else WrkClient)
    wrk = client_cls(testbed.client, testbed.server.ip,
                     connections=source.loops, duration_ns=1e15,
                     workload=source)
    wrk.start()
    testbed.sim.run_until_idle()
    print(f"[capture] replayed {wrk.stats.completed}/{source.total_ops} ops "
          f"through {source.loops} loop(s) "
          f"({config.transport}/{config.engine})")
    print(f"[capture] replayed store digest {store_digest(testbed.engine)}")
    return 0


def _main_rebuild(args):
    capture = Capture.load(args.capture)
    standby = rebuild_standby(capture, max_events=args.max_events)
    inbound = capture.filter(dst_ip=standby.host.ip)
    echo_ok = standby.echo.digest() == inbound.digest()
    print(f"[capture] rebuilt standby from {standby.injected} frames "
          f"({standby.sim.events_fired} events)")
    print(f"[capture] replay echo {'MATCHES' if echo_ok else 'DIVERGED from'} "
          f"the recorded stream")
    digest = standby.digest()
    print(f"[capture] rebuilt store digest {digest}")
    if not echo_ok:
        return 1
    if args.expect_digest and digest != args.expect_digest:
        print(f"[capture] FAIL: expected {args.expect_digest}")
        return 1
    return 0


def _main_smoke(args):
    from repro.storage.server import ServerConfig
    from repro.testing.chaos import OverloadStorm

    config = ServerConfig(
        transport=args.transport, engine="pktstore", cores=args.cores,
        contain_errors=True, overload=True, metrics=True, capture=True,
        engine_kwargs={"meta_bytes": 64 * 256},
    )
    storm = OverloadStorm(
        connections=args.connections, puts_per_conn=args.puts_per_conn,
        keys_per_conn=2, value_size=args.value_size, pool_slots=96,
        config=config, storm_faults=not args.no_faults, seed=args.seed,
    )
    storm_report = storm.run()
    if not storm_report.ok:
        print("[capture-smoke] FAIL: the storm itself violated its "
              "contract; capture verdicts would be meaningless")
        print(storm_report.summary())
        return 1
    capture = storm.testbed.capture.capture()
    print(f"[capture-smoke] storm clean; captured {len(capture)} frames")

    if args.plant_drop:
        capture, key = plant_drop(capture, storm.testbed.engine)
        print(f"[capture-smoke] planted drop: removed the frame carrying "
              f"{key!r}'s surviving value")

    standby = rebuild_standby(capture)
    inbound = capture.filter(dst_ip=storm.server.ip)
    if standby.echo.digest() != inbound.digest():
        print("[capture-smoke] FAIL: replay echo diverged from the "
              "recorded stream")
        return 1
    report = verify_rebuild(storm.testbed.engine, standby.engine)
    print(report.summary())
    return exit_status(report, args.expect_violations, "capture-smoke",
                       "rebuild equivalence", "standby rebuilt from capture "
                       "alone is equivalent to the live store")


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {
        "record": _main_record,
        "inspect": _main_inspect,
        "replay": _main_replay,
        "rebuild": _main_rebuild,
        "smoke": _main_smoke,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
