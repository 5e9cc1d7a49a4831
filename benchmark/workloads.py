"""The four workloads, each a repeatable *unit* of simulated work.

A unit builds a fresh system (set-up: testbed and preload), runs a
fixed amount of simulated work (the run phase), then checks what the
system answered.  Run lengths are fixed in simulated time or operation
counts, so a unit does the same simulated work on every commit.

The unit's inputs come from one integer, the unit seed: keys, values,
operation mix and arrival times.  The system under test gets only those
inputs; its own seeds (skip-list heights and the like) keep their
defaults.  The same unit seed gives byte-identical simulated results.

==================== =========================================================
workload             why
==================== =========================================================
tcp-put-1k           the paper's Table 1 / Figure 2 system (1-core NoveLSM over
                     TCP) at a Figure 2 concurrency: 25 closed loops of 1 KB
                     Zipf PUTs into 10k preloaded keys.  ``net`` and the
                     modelled data-management and persistence costs dominate.
homa-read-4core      the proposal's read path: 8 closed Homa loops of YCSB-B
                     (95 % GET) over 2k keys against a 4-core packet store.
                     Most events per op; TCP and the skip list are bypassed.
ingest-crash-recover no network: 10k Zipf 1 KB NoveLSM puts into a fresh 96 MB
                     PM device, a deterministic crash, reattach, verify.
                     ``pm`` and ``storage`` do the work; ``sim`` and ``net``
                     idle, so a network change should not move it.
openloop-knee        Poisson open loop against a 1-core packet store with
                     queue-delay admission control, at 30 krps (reference,
                     below the knee), 45 and 60 krps (past it).  The only
                     workload whose queue grows, and the only one with
                     ``core.overload`` and ``obs`` switched on.
==================== =========================================================

Host time is process CPU time: on a shared machine, time spent waiting
for a CPU that another tenant holds is not the simulator's cost.
"""

import time
from types import SimpleNamespace

from repro.bench import soak, testbed
from repro.bench.costmodel import CostModel
from repro.bench.workloads import YcsbWorkload, ZipfianGenerator
from repro.bench.wrk import HomaWrkClient, WrkClient, WrkStats
from repro.obs.stages import fold
from repro.pm.device import PMDevice
from repro.pm.namespace import PMNamespace
from repro.sim.context import NULL_CONTEXT, ExecutionContext
from repro.storage import lsm
from repro.storage.engines import NoveLSMEngine, direct_put
from repro.storage.server import ServerConfig
from repro.testing.journal import OpJournal
from repro.testing.oracle import KVDurabilityOracle

VALUE_SIZE = 1024
THETA = 0.99
KEY_PREFIX = "warm"
WARMUP_NS = 2_000_000.0

#: Simulated counts each unit reports (0 where a workload has no such
#: thing, e.g. frames without a network).
COUNT_NAMES = (
    "sim.samples", "sim.events_per_op", "net.frames_per_op",
    "net.retransmits", "net.handshakes",
    "model.net_us", "model.datamgmt_us", "model.persist_us", "model.prep_us",
    "model.checksum_us", "model.copy_us", "model.insert_us",
    "cpu.server_busy_frac",
    "pm.stores_per_op", "pm.flushes_per_op", "pm.fences_per_op",
    "pm.dirty_at_crash",
    "overload.shed", "overload.pressure_transitions",
    "client.backlog_peak", "client.backlog_at_stop", "client.fail_frac",
    "storage.recovered",
    "knee.p99_us.45k", "knee.p99_us.60k", "knee.fail_frac.60k",
)

#: openloop-knee probes: (offered krps, measured window in ms).  The
#: reference probe runs longest: the simulated metrics come from it.
#: Past the knee few requests are admitted, and below ~40 ms the soak's
#: digest-vs-exact p99 oracle starts to trip on too small a tail.
OPENLOOP_PROBES = ((30.0, 100.0), (45.0, 40.0), (60.0, 40.0))

#: Capacity search: bisect the offered rate over this range (krps) until
#: the bracket is narrower than the resolution, one short probe per step.
CAPACITY_RANGE_KRPS = (16.0, 64.0)
CAPACITY_RESOLUTION_KRPS = 1.0
CAPACITY_WINDOW_MS = 30.0
#: A probe meets the latency limit when at most this share of its
#: arrivals goes unanswered or is refused, the admitted p99 is within
#: the soak budget, and at most this share is still queued at stop.
CAPACITY_MISS_SHARE = 0.01


cpu_clock = time.process_time


def scaled(count, scale, floor):
    return max(floor, int(count * scale))


class StampedSource(YcsbWorkload):
    """A YCSB mix over the preloaded key space, with unique PUT values.

    Every PUT value starts with ``<key>#<issue number>#``, so a stored
    value names the request that wrote it.  Per key the source keeps each
    PUT's issue number and the issue number at which its loop next asked
    for work — closed loops ask only after the previous answer landed, so
    that bounds its acknowledgement from above.  A PUT acknowledged
    before the key's newest PUT was issued cannot be the final value.
    """

    def __init__(self, mix, key_space, seed):
        super().__init__(mix=mix, key_space=key_space, value_size=VALUE_SIZE,
                         theta=THETA, seed=seed, key_prefix=KEY_PREFIX)
        self.issued = 0
        #: key -> [[issue number, ack bound or None, value], ...]
        self.puts = {}
        self._open = {}

    def next_op(self, loop_id=0):
        self.issued += 1
        previous = self._open.pop(loop_id, None)
        if previous is not None:
            previous[1] = self.issued
        method, key, value = super().next_op(loop_id)
        if method != "PUT":
            return method, key, value
        stamp = f"{key}#{self.issued}#".encode()
        value = stamp + value[len(stamp):]
        record = [self.issued, None, value]
        self.puts.setdefault(key, []).append(record)
        self._open[loop_id] = record
        return method, key, value

    def readback_violations(self, engine):
        """Keys whose stored value is not a legitimate final PUT."""
        violations = []
        for key, records in self.puts.items():
            newest = max(issued for issued, _ack, _value in records)
            allowed = {value for issued, ack, value in records
                       if issued == newest or ack is None or ack > newest}
            if engine.get(key.encode(), NULL_CONTEXT) not in allowed:
                violations.append(f"{key}: stored value is not its last "
                                  f"acknowledged PUT")
        return violations


def _counts(**values):
    counts = dict.fromkeys(COUNT_NAMES, 0.0)
    unknown = set(values) - set(COUNT_NAMES)
    if unknown:
        raise KeyError(f"undeclared counts {sorted(unknown)}")
    counts.update(values)
    return counts


def _pm_counts(device):
    tracker = device.tracker
    return tracker.stores, tracker.flushes, tracker.fences


def _model(accounting, ops):
    """Per-op modelled µs by paper stage and Table 1 row."""
    stages = fold(accounting.by_category)
    per_op = lambda ns: ns / ops / 1e3
    return {
        "model.net_us": per_op(stages["networking"]),
        "model.datamgmt_us": per_op(stages["datamgmt"]),
        "model.persist_us": per_op(stages["persistence"]),
        "model.prep_us": per_op(accounting.category("datamgmt.prep")),
        "model.checksum_us": per_op(accounting.category("datamgmt.checksum")),
        "model.copy_us": per_op(accounting.category("datamgmt.copy")),
        "model.insert_us": per_op(accounting.category("datamgmt.insert")),
    }


def _pm_per_op(pairs, ops):
    """PM stores/flushes/fences per op over (device, counts before) pairs."""
    totals = [0, 0, 0]
    for device, before in pairs:
        for i, (after, start) in enumerate(zip(_pm_counts(device), before)):
            totals[i] += after - start
    return {"pm.stores_per_op": totals[0] / ops,
            "pm.flushes_per_op": totals[1] / ops,
            "pm.fences_per_op": totals[2] / ops}


def _retransmits(bed):
    """Loss-recovery sends on both hosts.

    TCP keeps its counters per connection and the stack exposes no
    total, so this reads the stack's connection table; connections
    already closed (the open loop retires its sockets) are not counted.
    """
    total = 0
    for host in (bed.server, bed.client):
        if host.homa is not None:
            total += host.homa.stats["send_retries"] + \
                host.homa.stats["resends"]
        for conn in host.stack._connections.values():
            total += conn.stats["retransmits"]
    return total


def _busy_frac(beds):
    busy = sum(bed.server.cpus.total_busy() for bed in beds)
    capacity = sum(len(bed.server.cpus) * bed.sim.now for bed in beds)
    return busy / capacity


def _result(setup_s, run_s, ops, attempted, failed, violations, stats,
            window_ns, counts):
    """A unit's record.  ``stats`` holds the latency samples (ns) of the
    measured window; ``window_ns`` is the simulated time they span."""
    return {
        "setup_s": setup_s, "run_s": run_s, "ops": ops,
        "attempted": attempted, "failed": failed, "violations": violations,
        "latencies_ns": list(stats.rtts_ns), "window_ns": window_ns,
        "counts": counts,
    }


# ---------------------------------------------------------------- workloads

def _closed_loop(seed, scale, transport, engine, cores, loops, key_space,
                 mix, measure_ns):
    keys = scaled(key_space, scale, 100)
    start = cpu_clock()
    bed = testbed.make_testbed(ServerConfig(
        transport=transport, engine=engine, cores=cores))
    testbed.preload(bed, entries=keys, value_size=VALUE_SIZE,
                    key_prefix=KEY_PREFIX)
    pm_before = _pm_counts(bed.pm_device)
    ready = cpu_clock()
    source = StampedSource(mix, keys, seed)
    client_type = HomaWrkClient if transport == "homa" else WrkClient
    client = client_type(
        bed.client, testbed.SERVER_IP, connections=loops,
        value_size=VALUE_SIZE, duration_ns=measure_ns * scale,
        warmup_ns=WARMUP_NS, workload=source,
    )
    stats = client.run()
    done = cpu_clock()

    served = bed.kv.stats["puts"] + bed.kv.stats["gets"]
    failed = stats.errors + source.issued - stats.completed
    counts = _counts(
        **{"sim.samples": len(stats.rtts_ns),
           "sim.events_per_op": bed.sim.events_fired / stats.completed,
           "net.frames_per_op": bed.fabric.frames / stats.completed,
           "net.retransmits": _retransmits(bed),
           "net.handshakes": bed.kv.stats["connections"]
           if transport == "tcp" else 0,
           "cpu.server_busy_frac": _busy_frac([bed]),
           "client.fail_frac": failed / source.issued},
        **_model(bed.server.accounting, served),
        **_pm_per_op([(bed.pm_device, pm_before)], served),
    )
    violations = source.readback_violations(bed.engine)
    return _result(ready - start, done - ready, stats.completed,
                   source.issued, failed + len(violations), violations,
                   stats, stats.measure_end - stats.measure_start, counts)


def tcp_put_1k(seed, scale):
    return _closed_loop(seed, scale, transport="tcp", engine="novelsm",
                        cores=1, loops=25, key_space=10_000, mix="W",
                        measure_ns=100_000_000.0)


def homa_read_4core(seed, scale):
    # 8 loops, not 16: at 16 the loops fall into convoys on the 4 cores
    # whose phase the seed decides, and p50 swings by 5 % between seeds
    # (README, known limits).  30 ms keeps one host under the 13.5k RPCs
    # at which the Homa client's source ports run out.
    return _closed_loop(seed, scale, transport="homa", engine="pktstore",
                        cores=4, loops=8, key_space=2_000, mix="B",
                        measure_ns=30_000_000.0)


INGEST_KEYS = 2_000
INGEST_PUTS = 10_000
INGEST_DEVICE_BYTES = 96 << 20
INGEST_ARENA_BYTES = 64 << 20


def ingest_crash_recover(seed, scale):
    keys = scaled(INGEST_KEYS, scale, 100)
    puts = scaled(INGEST_PUTS, scale, 200)
    filler = bytes(0x61 + i % 23 for i in range(VALUE_SIZE))

    def value_for(key, index):
        stamp = key + b"#%d#" % index
        return stamp + filler[len(stamp):]

    start = cpu_clock()
    device = PMDevice(INGEST_DEVICE_BYTES, name="ingest-pm")
    store = lsm.novelsm_store(PMNamespace(device),
                              arena_size=INGEST_ARENA_BYTES,
                              memtable_limit=1 << 30)
    engine = NoveLSMEngine(store, CostModel.paste())
    journal = OpJournal(lambda: device.tracker.stores)
    for index in range(keys):
        key = f"{KEY_PREFIX}-{index}".encode()
        op = journal.begin("put", key, value_for(key, -1))
        direct_put(engine, key, op.value)
        journal.commit(op)
    pm_before = _pm_counts(device)
    ready = cpu_clock()

    zipf = ZipfianGenerator(keys, THETA, seed)
    accounting = ExecutionContext()
    service = WrkStats()
    for index in range(puts):
        key = f"{KEY_PREFIX}-{zipf.next()}".encode()
        op = journal.begin("put", key, value_for(key, index))
        ctx = ExecutionContext()
        direct_put(engine, key, op.value, ctx)
        journal.commit(op)
        service.rtts_ns.append(ctx.elapsed)
        accounting.merge(ctx)
    dirty_at_crash = len(device.tracker.dirty)
    crash_point = device.tracker.stores
    device.crash()
    recovered = lsm.novelsm_reattach(PMNamespace.reopen(device),
                                     arena_size=INGEST_ARENA_BYTES)
    done = cpu_clock()

    counts = _counts(
        **{"sim.samples": puts,
           "pm.dirty_at_crash": dirty_at_crash,
           "storage.recovered": recovered.count_recovered},
        **_model(accounting, puts),
        **_pm_per_op([(device, pm_before)], puts),
    )
    mapping = dict(recovered.scan())
    violations = KVDurabilityOracle().check(
        SimpleNamespace(mapping=lambda: mapping),
        SimpleNamespace(event_index=crash_point), journal)
    if recovered.count_recovered <= 0:
        violations.append("reattach recovered nothing")
    return _result(ready - start, done - ready, puts, puts, len(violations),
                   violations, service, accounting.elapsed, counts)


class _Captured:
    """Keeps the testbeds and clients ``soak.run_point`` builds, and times
    the testbed builds.

    ``run_point`` builds both inside and returns only a summary; swapping
    the two names it calls is how set-up time, latency samples and the
    testbed's public state reach the benchmark without a second code
    path for the probe.
    """

    def __init__(self):
        self.beds = []
        self.clients = []
        self.pm_before = []
        self.setup_s = 0.0

    def __enter__(self):
        self._saved = soak.make_testbed, soak.OpenLoopWrkClient
        make_testbed, client_type = self._saved
        captured = self

        def timed_make_testbed(*args, **kwargs):
            start = cpu_clock()
            bed = make_testbed(*args, **kwargs)
            captured.setup_s += cpu_clock() - start
            captured.beds.append(bed)
            captured.pm_before.append(_pm_counts(bed.pm_device))
            return bed

        class KeptClient(client_type):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                captured.clients.append(self)

        soak.make_testbed, soak.OpenLoopWrkClient = \
            timed_make_testbed, KeptClient
        return self

    def __exit__(self, *exc):
        soak.make_testbed, soak.OpenLoopWrkClient = self._saved


def _probe(rate_krps, window_ms, seed, scale, report):
    args = soak.default_args()
    args.update(seed=seed, duration_us=window_ms * 1e3 * scale)
    return soak.run_point(rate_krps * 1e3, args, report)


def _unchecked(report):
    """Oracle violations except bounded-tail, which feeds capacity."""
    return [f"{kind}: {detail}" for kind, detail in report.violations
            if kind != "bounded-tail"]


def _offered(point, window_ms, scale):
    """Arrivals scheduled inside a probe's measured window."""
    return round(point["offered_krps"] * window_ms * scale)


def _miss_share(point):
    """Share of a probe's arrivals not answered 200 inside the window."""
    offered = point["offered_krps"]
    return 1.0 - point["goodput_krps"] / offered if offered else 1.0


def openloop_knee(seed, scale):
    report = soak.SoakReport(soak.default_args())
    start = cpu_clock()
    with _Captured() as captured:
        points = [_probe(rate, window, seed, scale, report)
                  for rate, window in OPENLOOP_PROBES]
    done = cpu_clock()

    beds = captured.beds
    reference, at_45k, at_60k = points
    ops = sum(p["admitted"] + p["shed"] + p["storage_full"] + p["errors"]
              for p in points)
    served = sum(bed.kv.stats["puts"] + bed.kv.stats["gets"] for bed in beds)
    accounting = ExecutionContext()
    for bed in beds:
        accounting.merge(bed.server.accounting)
    counts = _counts(
        **{"sim.samples": reference["admitted"],
           "sim.events_per_op": sum(b.sim.events_fired for b in beds) / ops,
           "net.frames_per_op": sum(b.fabric.frames for b in beds) / ops,
           "net.retransmits": sum(_retransmits(b) for b in beds),
           "net.handshakes": sum(p["handshakes"] for p in points),
           "cpu.server_busy_frac": _busy_frac(beds),
           "overload.shed": sum(p["shed"] for p in points),
           "overload.pressure_transitions":
               sum(p["pressure_transitions"] for p in points),
           "client.backlog_peak": max(p["backlog_peak"] for p in points),
           "client.backlog_at_stop": sum(p["backlog_at_stop"] for p in points),
           "client.fail_frac": _miss_share(reference),
           "knee.p99_us.45k": at_45k["p99_us"],
           "knee.p99_us.60k": at_60k["p99_us"],
           "knee.fail_frac.60k": _miss_share(at_60k)},
        **_model(accounting, served),
        **_pm_per_op(zip((b.pm_device for b in beds), captured.pm_before),
                     served),
    )
    stats = captured.clients[0].stats
    attempted = sum(_offered(p, window, scale)
                    for p, (_rate, window) in zip(points, OPENLOOP_PROBES))
    return _result(captured.setup_s, done - start - captured.setup_s, ops,
                   attempted, sum(p["errors"] + p["abandoned"] for p in points),
                   _unchecked(report), stats,
                   stats.measure_end - stats.measure_start, counts)


def knee_capacity_krps(seed, scale):
    """Highest offered rate (krps) that meets the latency limit.

    Bisection over :data:`CAPACITY_RANGE_KRPS`; returns the lower end
    of the final bracket and the oracle violations seen on the way.
    """
    low, high = CAPACITY_RANGE_KRPS
    report = soak.SoakReport(soak.default_args())
    budget_us = soak.default_args()["p99_budget_us"]
    while high - low > CAPACITY_RESOLUTION_KRPS:
        rate = (low + high) / 2
        point = _probe(rate, CAPACITY_WINDOW_MS, seed, scale, report)
        offered = _offered(point, CAPACITY_WINDOW_MS, scale)
        meets = (_miss_share(point) <= CAPACITY_MISS_SHARE
                 and point["p99_us"] <= budget_us
                 and point["backlog_at_stop"] <= CAPACITY_MISS_SHARE * offered)
        low, high = (rate, high) if meets else (low, rate)
    return low, _unchecked(report)


WORKLOADS = {
    "tcp-put-1k": tcp_put_1k,
    "homa-read-4core": homa_read_4core,
    "ingest-crash-recover": ingest_crash_recover,
    "openloop-knee": openloop_knee,
}

#: Units with distinct seeds whose samples the simulated metrics pool.
#: Fixed, so the simulated metrics do not depend on how many units the
#: host got through in the measured time.
POOLED_UNITS = 4


def unit_seed(seed, index):
    """Seed of the ``index``-th unit of a run; units cycle through
    :data:`POOLED_UNITS` seeds, so later units repeat earlier inputs."""
    return seed * 1_000 + index % POOLED_UNITS


def run_unit(name, seed, index=0, scale=1.0):
    """The ``index``-th unit of workload ``name`` for run seed ``seed``."""
    start = time.perf_counter()
    result = WORKLOADS[name](unit_seed(seed, index), scale)
    result["wall_s"] = time.perf_counter() - start
    return result


def simulated_metrics(units):
    """End-to-end simulated metrics over the pooled samples of ``units``."""
    pooled = WrkStats()
    for unit in units:
        pooled.rtts_ns.extend(unit["latencies_ns"])
    window_ns = sum(unit["window_ns"] for unit in units)
    return {"sim_p50_us": pooled.percentile_us(50),
            "sim_p99_us": pooled.percentile_us(99),
            "sim_goodput_krps": len(pooled.rtts_ns) / window_ns * 1e6}
