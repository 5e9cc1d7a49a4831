"""``repro-crashcheck``: the exhaustive crash-point sweep, as a command.

Runs a workload against a recording device, then crashes it at every
persistence-event boundary under every configured drain mode, runs real
recovery on each image, and checks the §5.1 oracles.  Exit status 0
means zero violations (or, with ``--expect-violations``, at least one —
for wiring the negative case into CI).

Examples::

    repro-crashcheck                          # 50 acked puts, full sweep
    repro-crashcheck --workload mixed --ops 60
    repro-crashcheck --world lsm --puts 20
    repro-crashcheck --max-events 200         # CI smoke bound
    repro-crashcheck --inject drop-fences --expect-violations
"""

import argparse
import sys

from repro.testing.workloads import (
    NoveLSMWorld,
    PacketStoreWorld,
    WalWorld,
    mixed_ops,
    sequential_puts,
    value_for,
)
from repro.testing.verdict import exit_status

WORLDS = ("pktstore", "lsm", "wal")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-crashcheck",
        description="Exhaustive crash-point fault injection for the "
                    "persistence path.",
    )
    parser.add_argument("--world", choices=WORLDS, default="pktstore",
                        help="which persistence client to sweep "
                             "(default: pktstore)")
    parser.add_argument("--workload", choices=("put", "mixed"), default="put",
                        help="put = sequential acked puts; mixed = seeded "
                             "random put/delete/get interleaving")
    parser.add_argument("--puts", type=int, default=50,
                        help="puts for the 'put' workload (default: 50)")
    parser.add_argument("--ops", type=int, default=60,
                        help="ops for the 'mixed' workload (default: 60)")
    parser.add_argument("--value-size", type=int, default=64,
                        help="base value size in bytes (default: 64)")
    parser.add_argument("--modes", default="clean,drain,torn",
                        help="comma list of clean,drain,torn,reorder "
                             "(default: clean,drain,torn)")
    parser.add_argument("--torn-cap", type=int, default=4,
                        help="single-line torn scenarios per crash point")
    parser.add_argument("--reorder-samples", type=int, default=3,
                        help="sampled drain subsets per point in reorder mode")
    parser.add_argument("--max-events", type=int, default=None,
                        help="sweep only the first N events (CI smoke)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for the workload and reorder sampling")
    parser.add_argument("--inject", choices=("none", "drop-fences",
                                             "drop-flushes"),
                        default="none",
                        help="replay-level protocol fault injection")
    parser.add_argument("--include-setup", action="store_true",
                        help="also crash during world construction")
    parser.add_argument("--expect-violations", action="store_true",
                        help="invert the exit status: succeed only if the "
                             "sweep finds violations (negative testing)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print per-crash-point progress")
    return parser


def build_world(args):
    if args.world == "pktstore":
        world = PacketStoreWorld(seed=args.seed)
    elif args.world == "lsm":
        world = NoveLSMWorld(seed=args.seed)
    else:
        world = WalWorld(seed=args.seed)

    if args.world == "wal":
        # The WAL has no delete; its workload is appends (last unsynced).
        for index in range(args.puts):
            sync = index != args.puts - 1
            world.append(value_for(index, args.value_size, args.seed),
                         sync=sync)
    elif args.workload == "put":
        sequential_puts(world, n=args.puts, value_size=args.value_size)
    else:
        mixed_ops(world, n=args.ops, value_size=args.value_size,
                  seed=args.seed)
    return world


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    unknown = set(modes) - {"clean", "drain", "torn", "reorder"}
    if unknown:
        parser.error(f"--modes: unknown mode(s) {', '.join(sorted(unknown))} "
                     "(choose from clean, drain, torn, reorder)")
    if not modes:
        parser.error("--modes: need at least one of clean, drain, torn, reorder")

    world = build_world(args)
    trace = world.device.trace
    counts = ", ".join(f"{kind} {n}" for kind, n in sorted(trace.counts().items()))
    print(f"[crashcheck] world={args.world} workload={args.workload} "
          f"ops={len(world.journal)}")
    print(f"[crashcheck] trace: {len(trace)} events after setup "
          f"({trace.setup_events} setup) — {counts}")

    progress = None
    if args.verbose:
        def progress(k, limit, report):
            if k % 50 == 0 or k == limit:
                print(f"[crashcheck]   event {k}/{limit}: "
                      f"{report.scenarios} scenarios, "
                      f"{len(report.violations)} violations")

    sweep = world.sweep(
        modes=modes,
        torn_cap=args.torn_cap,
        reorder_samples=args.reorder_samples,
        max_events=args.max_events,
        include_setup=args.include_setup,
        drop_fences=args.inject == "drop-fences",
        drop_flushes=args.inject == "drop-flushes",
        seed=args.seed,
    )
    report = sweep.run(progress=progress)
    print(report.summary())

    return exit_status(report, args.expect_violations, "crashcheck",
                       "durability",
                       "every crash point recovered within contract")


if __name__ == "__main__":
    sys.exit(main())
