"""Golden fixtures: the simulated results of four canned scenarios.

Each scenario is a seeded, fixed-duration run:

- ``wrk-tcp``              — wrk closed loop over the full TCP stack
                             against a NoveLSM server (YCSB-A mix),
- ``homa-storm``           — Homa request storm against a 4-core
                             NoveLSM server,
- ``novelsm-ingest-recovery`` — direct NoveLSM ingest into PM, a
                             deterministic crash, and reattach,
- ``cluster-2shard``       — sharded PUT storm over a 2-host
                             replicated cluster.

:func:`run_scenario` returns the run's op and event counts plus a
``golden`` document: the digest of the exact fired-event sequence, the
wrk latency stats, the metrics snapshot and, for the ingest, digests of
the recovered mapping and the op journal.  The fixtures
``tests/fixtures/speed_golden_*.json`` hold those documents, and
``tests/test_speed_equivalence.py`` asserts that the code still
reproduces them byte for byte.  Regenerate them, only after an
intentional behaviour change, with::

    PYTHONPATH=src python -m repro.bench.golden tests/fixtures
"""

import argparse
import hashlib
import json
import os
import sys

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


class _EventDigest:
    """Watcher that folds the fired-event stream into one sha256.

    Hashing (time, seq, callback qualname) per event pins the *exact*
    dispatch order: any optimization that reorders, drops, duplicates,
    or re-times an event changes the digest.
    """

    def __init__(self, sim):
        self._hash = hashlib.sha256()
        sim.add_watcher(self)

    def __call__(self, event):
        fn = event.fn
        name = getattr(fn, "__qualname__", None) or repr(fn)
        self._hash.update(
            f"{event.time!r}|{event.seq}|{name}\n".encode()
        )

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


def _client_run(sim, client):
    """Run ``client`` under an event digest; the result dict of a scenario."""
    digest = _EventDigest(sim)
    stats = client.run()
    return {
        "ops": stats.completed,
        "events": sim.events_fired,
        "sim_ns": sim.now,
        "golden": {
            "event_digest": digest.hexdigest(),
            "events_fired": sim.events_fired,
            "sim_now_ns": sim.now,
            "stats": _stats_golden(stats),
        },
    }


# ------------------------------------------------------------------ scenarios

def scenario_wrk_tcp(scale=1.0):
    """wrk closed loop (YCSB-A) over TCP against a 1-core NoveLSM server."""
    testbed = make_testbed(config=ServerConfig(engine="novelsm",
                                               metrics=True))
    preload(testbed, entries=200, value_size=1024)
    workload = YcsbWorkload(mix="A", key_space=200, value_size=1024, seed=7)
    client = WrkClient(
        testbed.client, SERVER_IP, connections=8, value_size=1024,
        duration_ns=scale * 20_000_000.0, warmup_ns=2_000_000.0,
        workload=workload,
    )
    result = _client_run(testbed.sim, client)
    result["golden"].update(reads=workload.issued_reads,
                            writes=workload.issued_writes,
                            metrics=testbed.metrics.snapshot())
    return result


def scenario_homa_storm(scale=1.0):
    """12 closed loops of Homa RPCs against a 4-core NoveLSM server."""
    config = ServerConfig(transport="homa", engine="novelsm", cores=4,
                          metrics=True)
    testbed = make_testbed(config=config)
    preload(testbed, entries=100, value_size=512)
    client = HomaWrkClient(
        testbed.client, SERVER_IP, connections=12, value_size=512,
        method="PUT", duration_ns=scale * 10_000_000.0,
        warmup_ns=2_000_000.0,
    )
    result = _client_run(testbed.sim, client)
    result["golden"]["metrics"] = testbed.metrics.snapshot()
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


def scenario_novelsm_ingest_recovery(scale=1.0):
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
    tracker = device.tracker
    events = tracker.stores + tracker.flushes + tracker.fences
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
    return {
        "ops": n_ops + recovered.count_recovered,
        "events": events,
        "sim_ns": 0.0,
        "golden": {
            "count_recovered": recovered.count_recovered,
            "recovered_digest": mapping_hash.hexdigest(),
            "journal_digest": journal_hash.hexdigest(),
            "stores": tracker.stores,
            "flushes": tracker.flushes,
            "fences": tracker.fences,
            "dirty_at_crash": dirty_at_crash,
            "value_crc": crc32c(value),
        },
    }


def scenario_cluster_2shard(scale=1.0):
    """Sharded PUT storm over a 2-host replicated cluster (sync acks).

    Every request crosses the fabric twice before its 200: client ->
    primary, then the forwarded packet primary -> backup.  The
    fixture pins the whole replication hot path — ring routing,
    store-and-forward, backup apply, deferred acks.
    """
    cluster = build_cluster(ClusterConfig(hosts=2, metrics=True))
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
    result = _client_run(cluster.sim, client)
    result["golden"].update(
        replication={name: dict(node.replicator.stats)
                     for name, node in cluster.nodes.items()},
        apply={name: dict(node.applier.stats)
               for name, node in cluster.nodes.items()},
        metrics=cluster.metrics.snapshot(),
    )
    return result


SCENARIOS = {
    "wrk-tcp": scenario_wrk_tcp,
    "homa-storm": scenario_homa_storm,
    "novelsm-ingest-recovery": scenario_novelsm_ingest_recovery,
    "cluster-2shard": scenario_cluster_2shard,
}


def run_scenario(name, scale=1.0):
    """Run one scenario: ``{"ops", "events", "sim_ns", "golden"}``."""
    if name not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {name!r}; pick from {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name](scale=scale)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Write every scenario's golden fixture into DIR.",
    )
    parser.add_argument("dir", metavar="DIR")
    args = parser.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)
    for name in SCENARIOS:
        path = os.path.join(args.dir, f"speed_golden_{name}.json")
        with open(path, "w") as handle:
            json.dump(run_scenario(name)["golden"], handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
