"""Run the benchmark: end-to-end metrics, or the traced per-layer split.

One workload, in the form ``BENCHMARK.json``'s ``command`` takes::

    python3 benchmark/run.py --workload tcp-put-1k --seed 3 --seconds 20 --trace 0

runs fresh units of the workload (see workloads.py) until ``--seconds``
have passed, and at least the ``POOLED_UNITS`` units whose simulated
samples the simulated metrics pool.  It checks every unit's outputs and
prints each metric with its unit and quartiles; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(every ``end_to_end`` metric, or with ``--trace 1`` every ``per_layer``
one).  Host metrics are medians over units.  A unit that repeats an
earlier unit's seed must repeat its simulated results exactly.  The
exit code is 1 when any check failed.

Every workload, each in a fresh process one after another::

    python3 benchmark/run.py --json results.json

writes every workload's result document, samples and quartiles
included, to ``--json`` for ``benchmark/compare.py``.

With ``--trace 1`` every unit runs twice, untraced and then traced: the
untraced units give the simulated counts, the traced ones the per-layer
wall-clock split, and the two together ``trace.overhead_frac``.  The
first spans are written to ``.bench_out/``.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT / 'src'} holds no repro package to benchmark")
    # The script's own directory would shadow the standard library's
    # ``trace``; import the benchmark as a package from the root instead.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from benchmark import workloads  # noqa: E402
from benchmark.trace import LAYERS, Tracer  # noqa: E402

SCHEMA = "repro-benchmark/v1"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) defines them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class _Checks:
    """Collects violations; pins each unit seed's simulated results."""

    def __init__(self):
        self.violations = []
        self._first = {}

    def unit(self, index, unit):
        self.violations.extend(unit["violations"])
        key = index % workloads.POOLED_UNITS
        simulated = (unit["latencies_ns"], unit["window_ns"], unit["counts"])
        if self._first.setdefault(key, simulated) != simulated:
            self.violations.append(
                f"unit {index} did not repeat the simulated results of "
                f"unit {key}, which had the same seed")


def measure(name, seed=1, seconds=0.0, trace=False, scale=1.0):
    """Run units of workload ``name``; returns the result document."""
    pooled = workloads.POOLED_UNITS
    checks = _Checks()
    tracer = Tracer() if trace else None
    units, profiles = [], []
    capacity = 0.0
    start = time.perf_counter()
    if trace and name == "openloop-knee":
        capacity, violations = workloads.knee_capacity_krps(
            workloads.unit_seed(seed, 0), scale)
        checks.violations.extend(violations)
    while len(units) < (1 if trace else pooled) or \
            time.perf_counter() - start < seconds:
        index = len(units)
        # A unit's testbed is garbage once it returns; collecting it now
        # keeps peak RSS to one unit's footprint instead of however many
        # the cycle collector let pile up.
        gc.collect()
        units.append(workloads.run_unit(name, seed, index, scale))
        checks.unit(index, units[-1])
        if tracer is not None:
            gc.collect()
            traced, profile = tracer.run(workloads.run_unit, name, seed,
                                         index, scale)
            checks.unit(index, traced)
            profiles.append(profile)

    samples = {}
    if tracer is None:
        sampled = units[:pooled]
        if sum(len(u["latencies_ns"]) for u in sampled) < 1000 * min(1, scale):
            checks.violations.append("the p99 rests on fewer than 1,000 "
                                     "samples")
        for key, value in workloads.simulated_metrics(sampled).items():
            samples[key] = [value]
        samples["host_ops_per_s"] = [u["ops"] / u["run_s"] for u in units]
        samples["setup_s"] = [u["setup_s"] for u in units]
        samples["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    else:
        for layer in LAYERS:
            samples[f"{layer}.self_s"] = [p[layer]["self_s"]
                                          for p in profiles]
            samples[f"{layer}.self_frac"] = [
                p[layer]["self_s"] / p["wall_s"] for p in profiles]
            if layer != "other":
                samples[f"{layer}.calls"] = [p[layer]["calls"]
                                             for p in profiles]
        untraced_wall = statistics.median(u["wall_s"] for u in units)
        samples["trace.overhead_frac"] = [
            p["wall_s"] / untraced_wall - 1 for p in profiles]
        for key, value in units[0]["counts"].items():
            samples[key] = [value]
        samples["knee.capacity_krps"] = [capacity]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{name}-seed{seed}.json")

    failed = sum(u["failed"] for u in units)
    return {
        "workload": name, "seed": seed, "scale": scale, "trace": trace,
        "units": len(units),
        "correct": not checks.violations and failed == 0,
        "attempted": sum(u["attempted"] for u in units), "failed": failed,
        "violations": checks.violations[:20],
        "samples": samples,
    }


def summarize(document, spec):
    """Attach units and quartiles to every declared metric."""
    declared = spec["per_layer"] if document["trace"] else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(document["samples"]):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(document['samples']))}")
    metrics = {}
    for name, unit in units.items():
        q1, median, q3 = quartiles(document["samples"][name])
        metrics[name] = {"value": median, "unit": unit, "q1": q1, "q3": q3}
    document["metrics"] = metrics
    return document


def report(document):
    """Print the metrics, then the one-line JSON result."""
    mode = "traced + untraced" if document["trace"] else "untraced"
    print(f"{document['workload']}: seed {document['seed']}, "
          f"{document['units']} {mode} unit(s)")
    for name, metric in document["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"[q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}]")
    for violation in document["violations"]:
        print(f"  CHECK FAILED: {violation}")
    print(json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in document["metrics"].items()},
    }))


def run_all(args):
    """Each workload in its own process, one at a time."""
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for name in workloads.WORKLOADS:
        part = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        part.unlink(missing_ok=True)
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scale", str(args.scale), "--json", str(part)]
        status = subprocess.run(command, check=False, cwd=ROOT).returncode
        if not part.exists():
            results[name] = {"workload": name, "correct": False,
                             "violations": [f"exited {status} without a "
                                            f"result"]}
            continue
        with open(part, encoding="utf-8") as handle:
            results[name] = json.load(handle)
    return {"schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "scale": args.scale,
            "workloads": results}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep running units until this much time passed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer split instead of "
                        "end-to-end metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply simulated work (tests use 0.05)")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the result document here")
    args = parser.parse_args(argv)

    if args.workload == "all":
        document = run_all(args)
        correct = all(w["correct"] for w in document["workloads"].values())
    else:
        document = summarize(
            measure(args.workload, args.seed, args.seconds, bool(args.trace),
                    args.scale), load_spec())
        correct = document["correct"]
        report(document)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
