"""Wall-clock speed benchmark: how fast the *simulator itself* runs.

Everything else in :mod:`repro.bench` measures simulated time; this
module measures real time.  It runs canned, fully deterministic
scenarios (seeded workloads, fixed durations) and reports how much
simulated work the process gets through per wall-clock second:

- ``wrk-tcp``              — wrk closed loop over the full TCP stack
                             against a NoveLSM server (YCSB-A mix),
- ``homa-storm``           — Homa request storm against a 4-core
                             NoveLSM server,
- ``novelsm-ingest-recovery`` — direct NoveLSM ingest into PM, a
                             deterministic crash, and reattach.

The numbers land in ``BENCH_speed.json`` at the repo root — the perf
trajectory CI gates on (``repro-bench-speed --check``).  Because raw
ops/wall-second is machine-dependent, every run also measures a
calibration score (a fixed pure-Python workload) and the gate compares
*normalized* throughput: ops per second divided by calibration
iterations per second.  See docs/PERFORMANCE.md.

Determinism is non-negotiable: the *simulated* results of every
scenario (event sequence, op counts, recovered state, metric
snapshots) must be bit-identical run to run and before/after any
optimization — ``--golden`` captures exactly that for the equivalence
suite in tests/test_speed_equivalence.py.
"""

# pmlint: disable-file=DET-01 — this module's purpose is wall-clock
# measurement; all perf_counter() results feed wall-second reporting
# only and never influence simulated behaviour.

import argparse
import hashlib
import json
import sys
import time

from repro.bench.costmodel import CostModel
from repro.bench.testbed import SERVER_IP, make_testbed, preload
from repro.bench.workloads import YcsbWorkload, ZipfianGenerator
from repro.bench.wrk import HomaWrkClient, WrkClient
from repro.cluster.topology import ClusterConfig, build_cluster, \
    preload_cluster
from repro.net.checksum import crc32c
from repro.pm.device import PMDevice
from repro.pm.namespace import PMNamespace
from repro.sim.context import NULL_CONTEXT
from repro.storage.engines import NoveLSMEngine
from repro.storage.lsm import novelsm_reattach, novelsm_store
from repro.storage.server import ServerConfig
from repro.testing.journal import OpJournal

SCHEMA = "repro-bench-speed/v1"
DEFAULT_BASELINE = "BENCH_speed.json"
DEFAULT_TOLERANCE = 0.85


def _perf_counter():
    return time.perf_counter()


def _peak_rss_kb():
    """Process high-water RSS in KiB (0 where resource is unavailable).

    Linux's ``VmHWM`` first: it belongs to this process image.
    ``ru_maxrss`` also carries the parent's RSS at fork, so a benchmark
    started from a large process (a test session) would report that.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":
        return int(usage // 1024)
    return int(usage)


# --------------------------------------------------------------- calibration

def _calibration_pass(n=120_000):
    """One fixed pure-Python workload pass; returns iterations/second."""
    data = bytes(range(256)) * 4
    start = _perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) & 0xFFFFFFFF
        if not i % 64:
            acc ^= data[i & 1023]
    elapsed = _perf_counter() - start
    if acc < 0:  # pragma: no cover - keeps the loop un-elidable
        raise AssertionError
    return n / elapsed


def calibrate(loops=3):
    """Machine-speed score: best of ``loops`` calibration passes.

    The score normalizes ops/wall-second across machines so the CI gate
    can compare a laptop-generated baseline against a CI runner.
    """
    return max(_calibration_pass() for _ in range(max(1, loops)))


# ------------------------------------------------------------ golden capture

class _EventDigest:
    """Watcher that folds the fired-event stream into one sha256.

    Hashing (time, seq, callback qualname) per event pins the *exact*
    dispatch order: any optimization that reorders, drops, duplicates,
    or re-times an event changes the digest.
    """

    def __init__(self, sim):
        self._hash = hashlib.sha256()
        self.count = 0
        sim.add_watcher(self)

    def __call__(self, event):
        fn = event.fn
        name = getattr(fn, "__qualname__", None) or repr(fn)
        self._hash.update(
            f"{event.time!r}|{event.seq}|{name}\n".encode()
        )
        self.count += 1

    def hexdigest(self):
        return self._hash.hexdigest()


def _stats_golden(stats):
    """Deterministic summary of one WrkStats (floats round-trip exactly)."""
    return {
        "completed": stats.completed,
        "errors": stats.errors,
        "rtt_count": len(stats.rtts_ns),
        "rtt_sum_ns": sum(stats.rtts_ns),
        "avg_rtt_us": stats.avg_rtt_us,
        "p50_us": stats.percentile_us(50),
        "p99_us": stats.percentile_us(99),
        "throughput_krps": stats.throughput_krps,
    }


# ------------------------------------------------------------------ scenarios

def scenario_wrk_tcp(scale=1.0, golden=False):
    """wrk closed loop (YCSB-A) over TCP against a 1-core NoveLSM server."""
    config = ServerConfig(engine="novelsm", metrics=golden)
    testbed = make_testbed(config=config)
    preload(testbed, entries=200, value_size=1024)
    workload = YcsbWorkload(mix="A", key_space=200, value_size=1024, seed=7)
    client = WrkClient(
        testbed.client, SERVER_IP, connections=8, value_size=1024,
        duration_ns=scale * 20_000_000.0, warmup_ns=2_000_000.0,
        workload=workload,
    )
    digest = _EventDigest(testbed.sim) if golden else None
    stats = client.run()
    result = {
        "ops": stats.completed,
        "events": testbed.sim.events_fired,
        "sim_ns": testbed.sim.now,
    }
    if golden:
        result["golden"] = {
            "event_digest": digest.hexdigest(),
            "events_fired": testbed.sim.events_fired,
            "sim_now_ns": testbed.sim.now,
            "stats": _stats_golden(stats),
            "reads": workload.issued_reads,
            "writes": workload.issued_writes,
            "metrics": testbed.metrics.snapshot(),
        }
    return result


def scenario_homa_storm(scale=1.0, golden=False):
    """12 closed loops of Homa RPCs against a 4-core NoveLSM server."""
    config = ServerConfig(transport="homa", engine="novelsm", cores=4,
                          metrics=golden)
    testbed = make_testbed(config=config)
    preload(testbed, entries=100, value_size=512)
    client = HomaWrkClient(
        testbed.client, SERVER_IP, connections=12, value_size=512,
        method="PUT", duration_ns=scale * 10_000_000.0,
        warmup_ns=2_000_000.0,
    )
    digest = _EventDigest(testbed.sim) if golden else None
    stats = client.run()
    result = {
        "ops": stats.completed,
        "events": testbed.sim.events_fired,
        "sim_ns": testbed.sim.now,
    }
    if golden:
        result["golden"] = {
            "event_digest": digest.hexdigest(),
            "events_fired": testbed.sim.events_fired,
            "sim_now_ns": testbed.sim.now,
            "stats": _stats_golden(stats),
            "metrics": testbed.metrics.snapshot(),
        }
    return result


class _Value:
    """Minimal message shim for driving an engine without a network."""

    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body

    body_slices = ()
    hw_tstamp = None
    wire_csum = None

    def release(self):
        pass


def scenario_novelsm_ingest_recovery(scale=1.0, golden=False):
    """Zipf-keyed NoveLSM ingest into PM, deterministic crash, reattach."""
    n_ops = max(1, int(scale * 2500))
    device = PMDevice(96 << 20, name="speed-pm")
    ns = PMNamespace(device)
    store = novelsm_store(ns, arena_size=64 << 20, memtable_limit=1 << 30,
                          seed=5)
    engine = NoveLSMEngine(store, CostModel.paste())
    journal = OpJournal(lambda: device.tracker.stores)
    zipf = ZipfianGenerator(2000, seed=11)
    value = bytes((0x41 + (i % 26)) for i in range(1024))
    for index in range(n_ops):
        key = f"ik-{zipf.next():05d}".encode()
        op = journal.begin("put", key, index)
        engine.put(key, _Value(value), NULL_CONTEXT)
        journal.commit(op)
    dirty_at_crash = len(device.tracker.dirty)
    device.crash()  # rng=None: deterministic conservative drop
    recovered_ns = PMNamespace.reopen(device)
    recovered = novelsm_reattach(recovered_ns, arena_size=64 << 20, seed=5)
    events = (device.tracker.stores + device.tracker.flushes
              + device.tracker.fences)
    result = {
        "ops": n_ops + recovered.count_recovered,
        "events": events,
        "sim_ns": 0.0,
    }
    if golden:
        mapping_hash = hashlib.sha256()
        for key, val in sorted(recovered.scan()):
            mapping_hash.update(key)
            mapping_hash.update(hashlib.sha256(val).digest())
        journal_hash = hashlib.sha256()
        for op in journal.ops:
            journal_hash.update(
                f"{op.op_id}|{op.kind}|{op.key!r}|"
                f"{op.begin_event}|{op.commit_event}\n".encode()
            )
        result["golden"] = {
            "count_recovered": recovered.count_recovered,
            "recovered_digest": mapping_hash.hexdigest(),
            "journal_digest": journal_hash.hexdigest(),
            "stores": device.tracker.stores,
            "flushes": device.tracker.flushes,
            "fences": device.tracker.fences,
            "dirty_at_crash": dirty_at_crash,
            "value_crc": crc32c(value),
        }
    return result


def scenario_cluster_2shard(scale=1.0, golden=False):
    """Sharded PUT storm over a 2-host replicated cluster (sync acks).

    Every request crosses the fabric twice before its 200: client ->
    primary, then the forwarded packet primary -> backup.  The number
    this scenario guards is the whole replication hot path — ring
    routing, store-and-forward, backup apply, deferred acks.
    """
    cluster = build_cluster(ClusterConfig(hosts=2, metrics=golden))
    preload_cluster(cluster, entries=50, value_size=512)
    route = cluster.router.primary

    def route_ip(key):
        return cluster.nodes[route(key)].ip

    client = HomaWrkClient(
        cluster.client, None, port=cluster.config.port, connections=8,
        value_size=512, method="PUT", key_space=64,
        duration_ns=scale * 8_000_000.0, warmup_ns=2_000_000.0,
        route=route_ip,
    )
    digest = _EventDigest(cluster.sim) if golden else None
    stats = client.run()
    result = {
        "ops": stats.completed,
        "events": cluster.sim.events_fired,
        "sim_ns": cluster.sim.now,
    }
    if golden:
        repl = {name: dict(node.replicator.stats)
                for name, node in cluster.nodes.items()}
        apply_stats = {name: dict(node.applier.stats)
                       for name, node in cluster.nodes.items()}
        result["golden"] = {
            "event_digest": digest.hexdigest(),
            "events_fired": cluster.sim.events_fired,
            "sim_now_ns": cluster.sim.now,
            "stats": _stats_golden(stats),
            "replication": repl,
            "apply": apply_stats,
            "metrics": cluster.metrics.snapshot(),
        }
    return result


SCENARIOS = {
    "wrk-tcp": scenario_wrk_tcp,
    "homa-storm": scenario_homa_storm,
    "novelsm-ingest-recovery": scenario_novelsm_ingest_recovery,
    "cluster-2shard": scenario_cluster_2shard,
}


# ------------------------------------------------------------------- running

def run_scenario(name, scale=1.0, golden=False):
    """Run one scenario; returns its dict with wall-clock fields added."""
    fn = SCENARIOS[name]
    start = _perf_counter()
    result = fn(scale=scale, golden=golden)
    wall_s = _perf_counter() - start
    result["wall_s"] = wall_s
    result["ops_per_wall_s"] = result["ops"] / wall_s if wall_s > 0 else 0.0
    result["events_per_wall_s"] = (
        result["events"] / wall_s if wall_s > 0 else 0.0
    )
    result["peak_rss_kb"] = _peak_rss_kb()
    return result


def run_all(scale=1.0, scenarios=None, calibration_loops=3):
    """Run the canned scenarios; returns the schema'd document."""
    names = list(scenarios or SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {name!r}; pick from {sorted(SCENARIOS)}"
            )
    score = calibrate(calibration_loops)
    doc = {
        "schema": SCHEMA,
        "scale": scale,
        "calibration": {"score": score, "loops": calibration_loops},
        "scenarios": {},
    }
    total_ops = 0
    total_wall = 0.0
    for name in names:
        result = run_scenario(name, scale=scale)
        result.pop("golden", None)
        result["normalized_ops_per_wall_s"] = result["ops_per_wall_s"] / score
        doc["scenarios"][name] = result
        total_ops += result["ops"]
        total_wall += result["wall_s"]
    aggregate_ops_per_s = total_ops / total_wall if total_wall > 0 else 0.0
    doc["aggregate"] = {
        "total_ops": total_ops,
        "total_wall_s": total_wall,
        "ops_per_wall_s": aggregate_ops_per_s,
        "normalized_ops_per_wall_s": aggregate_ops_per_s / score,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return doc


# --------------------------------------------------------------- schema check

def check_schema(doc, min_scenarios=3):
    """Validate a BENCH_speed document; raises ValueError on mismatch."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ValueError(
            f"schema mismatch: want {SCHEMA!r}, got {doc.get('schema')!r}"
        )
    calibration = doc.get("calibration")
    if not isinstance(calibration, dict) or \
            not isinstance(calibration.get("score"), (int, float)) or \
            calibration["score"] <= 0:
        raise ValueError("calibration.score must be a positive number")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or len(scenarios) < min_scenarios:
        raise ValueError(
            f"scenarios must be an object with >= {min_scenarios} entries"
        )
    required = {
        "ops": int,
        "events": int,
        "sim_ns": (int, float),
        "wall_s": (int, float),
        "ops_per_wall_s": (int, float),
        "events_per_wall_s": (int, float),
        "normalized_ops_per_wall_s": (int, float),
        "peak_rss_kb": int,
    }
    for name, entry in scenarios.items():
        if not isinstance(entry, dict):
            raise ValueError(f"scenario {name!r} must be an object")
        for field, kind in required.items():
            if not isinstance(entry.get(field), kind) or \
                    isinstance(entry.get(field), bool):
                raise ValueError(
                    f"scenario {name!r} field {field!r} must be "
                    f"{getattr(kind, '__name__', kind)}"
                )
        if entry["ops"] <= 0 or entry["wall_s"] <= 0:
            raise ValueError(f"scenario {name!r} ran no work")
    aggregate = doc.get("aggregate")
    if not isinstance(aggregate, dict) or \
            not isinstance(aggregate.get("normalized_ops_per_wall_s"),
                           (int, float)):
        raise ValueError("aggregate.normalized_ops_per_wall_s missing")
    return doc


# -------------------------------------------------------------------- checks

def compare(current, baseline, tolerance=DEFAULT_TOLERANCE, require_all=True):
    """Per-scenario normalized-throughput ratios vs a baseline document.

    Returns (ok, rows): rows of (name, baseline_norm, current_norm,
    ratio, passed).  With ``require_all`` (the CI gate), a baseline
    scenario missing from the current run fails; without it (spot
    checks of a subset), only scenarios present in both are compared.
    """
    # Subset comparisons (require_all=False) accept subset baselines too;
    # the CI gate path keeps the full >=3-scenario baseline requirement.
    check_schema(baseline, min_scenarios=3 if require_all else 1)
    check_schema(current, min_scenarios=1)
    rows = []
    ok = True
    for name, base in sorted(baseline["scenarios"].items()):
        cur = current["scenarios"].get(name)
        base_norm = base["normalized_ops_per_wall_s"]
        if cur is None:
            if require_all:
                rows.append((name, base_norm, 0.0, 0.0, False))
                ok = False
            continue
        cur_norm = cur["normalized_ops_per_wall_s"]
        ratio = cur_norm / base_norm if base_norm > 0 else 0.0
        passed = ratio >= tolerance
        ok = ok and passed
        rows.append((name, base_norm, cur_norm, ratio, passed))
    return ok, rows


def merge_best(docs):
    """Best-of-N merge: per scenario, keep the fastest observation.

    Wall-clock noise only ever makes a run *slower* than the machine
    can go, so the gate compares the best of N repeats — standard
    practice for regression thresholds on shared CI runners.
    """
    best = json.loads(json.dumps(docs[0]))
    for doc in docs[1:]:
        if doc["calibration"]["score"] > best["calibration"]["score"]:
            best["calibration"] = dict(doc["calibration"])
        for name, entry in doc["scenarios"].items():
            cur = best["scenarios"].get(name)
            if cur is None or entry["ops_per_wall_s"] > cur["ops_per_wall_s"]:
                best["scenarios"][name] = dict(entry)
    score = best["calibration"]["score"]
    total_ops = 0
    total_wall = 0.0
    for entry in best["scenarios"].values():
        entry["normalized_ops_per_wall_s"] = entry["ops_per_wall_s"] / score
        total_ops += entry["ops"]
        total_wall += entry["wall_s"]
    aggregate_ops_per_s = total_ops / total_wall if total_wall > 0 else 0.0
    best["aggregate"] = {
        "total_ops": total_ops,
        "total_wall_s": total_wall,
        "ops_per_wall_s": aggregate_ops_per_s,
        "normalized_ops_per_wall_s": aggregate_ops_per_s / score,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return best


def capture_golden(scale=1.0, scenarios=None):
    """Golden (simulated-result) capture for the equivalence suite."""
    names = list(scenarios or SCENARIOS)
    return {
        name: run_scenario(name, scale=scale, golden=True)["golden"]
        for name in names
    }


# ----------------------------------------------------------------------- CLI

def _print_table(doc, file=sys.stdout):
    print(f"calibration score: {doc['calibration']['score']:,.0f} it/s",
          file=file)
    header = (f"{'scenario':<26} {'ops':>8} {'events':>10} {'wall_s':>8} "
              f"{'ops/s':>10} {'events/s':>12} {'norm':>10}")
    print(header, file=file)
    for name, entry in doc["scenarios"].items():
        print(
            f"{name:<26} {entry['ops']:>8} {entry['events']:>10} "
            f"{entry['wall_s']:>8.3f} {entry['ops_per_wall_s']:>10.0f} "
            f"{entry['events_per_wall_s']:>12.0f} "
            f"{entry['normalized_ops_per_wall_s']:>10.6f}",
            file=file,
        )
    agg = doc["aggregate"]
    print(
        f"{'aggregate':<26} {agg['total_ops']:>8} {'-':>10} "
        f"{agg['total_wall_s']:>8.3f} {agg['ops_per_wall_s']:>10.0f} "
        f"{'-':>12} {agg['normalized_ops_per_wall_s']:>10.6f}",
        file=file,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-bench-speed",
        description="Wall-clock speed benchmark and perf-regression gate.",
    )
    parser.add_argument("--scenario", action="append", dest="scenarios",
                        metavar="NAME", choices=sorted(SCENARIOS),
                        help="run only this scenario (repeatable)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the result document to PATH ('-' stdout)")
    parser.add_argument("--update", action="store_true",
                        help=f"write the result to the baseline "
                             f"({DEFAULT_BASELINE})")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline; exit 1 "
                             "below tolerance")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help=f"minimum normalized-throughput ratio for "
                             f"--check (default {DEFAULT_TOLERANCE})")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"baseline path (default {DEFAULT_BASELINE})")
    parser.add_argument("--repeat", type=int, default=None,
                        help="best-of-N runs (default 1; --check defaults 2)")
    parser.add_argument("--golden", metavar="DIR",
                        help="write per-scenario golden fixtures into DIR")
    args = parser.parse_args(argv)

    if args.golden:
        import os

        fixtures = capture_golden(scale=args.scale, scenarios=args.scenarios)
        os.makedirs(args.golden, exist_ok=True)
        for name, golden in fixtures.items():
            path = os.path.join(args.golden, f"speed_golden_{name}.json")
            with open(path, "w") as handle:
                json.dump(golden, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {path}")
        return 0

    repeat = args.repeat if args.repeat is not None else (2 if args.check else 1)
    docs = [run_all(scale=args.scale, scenarios=args.scenarios)
            for _ in range(max(1, repeat))]
    doc = merge_best(docs) if len(docs) > 1 else docs[0]
    check_schema(doc, min_scenarios=1 if args.scenarios else 3)

    if args.json == "-":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    elif args.json:
        with open(args.json, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.update:
        with open(args.baseline, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baseline written: {args.baseline}")

    if not args.check:
        if args.json != "-":
            _print_table(doc)
        return 0

    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        print(f"no baseline at {args.baseline}; run with --update first",
              file=sys.stderr)
        return 2
    ok, rows = compare(doc, baseline, tolerance=args.tolerance,
                       require_all=not args.scenarios)
    print(f"{'scenario':<26} {'baseline':>12} {'current':>12} {'ratio':>7}  ")
    for name, base_norm, cur_norm, ratio, passed in rows:
        verdict = "ok" if passed else "REGRESSED"
        print(f"{name:<26} {base_norm:>12.6f} {cur_norm:>12.6f} "
              f"{ratio:>7.2f}  {verdict}")
    if not ok:
        print(f"FAIL: normalized throughput below {args.tolerance:.2f}x "
              f"baseline", file=sys.stderr)
        return 1
    print(f"ok: all scenarios within {args.tolerance:.2f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
