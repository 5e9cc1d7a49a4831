"""Whole-host-kill chaos: does a client ack survive the host that gave it?

:mod:`repro.testing.chaos` storms one server until its pools give out;
this module storms a *cluster* until a host dies.  A closed-loop fleet
of Homa requesters PUTs through the consistent-hash router while the
storm pulls the plug on a primary mid-burst.  Failure detection is the
router's: unanswered RPCs accumulate per node and at the threshold the
router triggers the failover (ring eviction = backup promotion +
transport teardown), with a scheduled failsafe bounding detection in
case the squall of traffic misses the corpse.  Then the oracles:

- **durability** — every client-acked PUT is readable from the key's
  *current* primary after the kill and failover.  Under
  ``ack_policy="sync"`` an ack means two hosts applied the put, so the
  promoted backup must serve it — this is the claim the replication
  design exists to earn;
- **refcount exactness** — on every surviving host, the rx pool's
  in-use count equals the store's owned count and each adopted
  buffer's refcount equals the references the store holds (the same
  per-slot walk as the single-host storm, per survivor);
- **span stitching** — a replicated put is *one* trace: the origin
  RPC's chain and the replication RPC's chain are stitched
  (``Recorder.stitched``), no retransmitted message is left an orphan
  (terminal give-up spans cover messages aimed at the corpse), and no
  logical request ran a handler twice;
- **vacuity** — a storm that never killed anyone, never failed over,
  never acked a put on both sides of the kill, or never acked a put on
  a shard the victim owned has tested nothing, and fails loudly.
"""

import math

from repro.bench.workloads import ListSource, StormBurstSource
from repro.bench.wrk import AckLedger, HomaWrkClient
from repro.cluster.topology import ClusterConfig, build_cluster
from repro.sim.units import MILLIS
from repro.testing.chaos import StormReport, check_span_links
from repro.testing.verdict import check_refcounts

#: Per-attempt client watchdog.  Far below Homa's 50 ms give-up: the
#: router's failure detection is driven by these expiries, and two of
#: them must fire before the failover (fail_threshold=2).
WATCHDOG_NS = 10 * MILLIS

#: Attempts per logical put before the loop abandons it (counted).
#: Each attempt re-routes through the live ring, so after the failover
#: the same key lands on the promoted backup.
MAX_ATTEMPTS = 8


class ClusterChaosReport(StormReport):
    """Outcome of one host-kill storm."""

    TAG = "cluster-chaos"
    HELD = "contract held: every acked put survived the host that acked it"

    def __init__(self):
        super().__init__()
        self.victim = None
        self.kills = 0
        self.failovers = 0
        self.failover_by = None       # "router" or "failsafe"
        self.stitched_families = 0
        self.degraded_acks = 0
        self.repl_stats = {}

    def tally(self, ledger):
        super().tally(ledger)
        self.acked_by_phase = {"pre": 0, "kill": 0, "post": 0,
                               **ledger.acked_by_phase}
        self.retries = ledger.retries
        self.abandoned_puts = ledger.abandoned

    def head(self):
        lines = [
            f"[cluster-chaos] puts acked {self.acked_puts}/"
            f"{self.attempted_puts} "
            f"(pre-kill {self.acked_by_phase['pre']}, "
            f"kill-window {self.acked_by_phase['kill']}, "
            f"post-failover {self.acked_by_phase['post']}), "
            f"retries {self.retries}, timeouts {self.timeouts}, "
            f"give-ups {self.give_ups}",
            f"[cluster-chaos] victim {self.victim}: kills {self.kills}, "
            f"failover by {self.failover_by or 'NOBODY'}, "
            f"degraded acks {self.degraded_acks}",
            f"[cluster-chaos] span stitching: {self.stitched_families} "
            f"replicated put(s) traced across hosts",
        ]
        if self.repl_stats:
            lines.append("[cluster-chaos] replication: " + ", ".join(
                f"{k} {v}" for k, v in sorted(self.repl_stats.items())
                if not k.startswith("lag")))
        return lines


class HostKillStorm:
    """Build the cluster, storm it, kill a primary, check the contract."""

    def __init__(self, hosts=3, loops=8, puts_per_loop=5, keys_per_loop=2,
                 value_size=1024, ack_policy="sync", seed=1, cores=1,
                 pool_slots=512, kill_delay_ns=200_000.0,
                 failsafe_ns=45 * MILLIS, max_events=20_000_000,
                 config=None):
        if config is None:
            config = ClusterConfig(hosts=hosts, cores=cores,
                                   ack_policy=ack_policy,
                                   pool_slots=pool_slots)
        if not config.metrics:
            raise ValueError(
                "HostKillStorm needs config.metrics=True: the oracles "
                "read the shared recorder's gauges and span chains")
        self.config = config
        self.loops = loops
        self.puts_per_loop = puts_per_loop
        self.kill_delay_ns = kill_delay_ns
        self.failsafe_ns = failsafe_ns
        self.max_events = max_events

        # The kill storm's bursts are the same TrafficSource protocol
        # as every other generator, with cluster-specific key/stamp
        # prefixes so values attribute to the loop that wrote them.
        self.source = StormBurstSource(
            loops, puts_per_loop, keys_per_loop, value_size,
            key_prefix="ck", stamp_prefix="l",
        )

        self.cluster = build_cluster(config)
        self.sim = self.cluster.sim
        self.client = self.cluster.client
        self.router = self.cluster.router
        self.recorder = self.cluster.recorder
        self.metrics = self.cluster.metrics
        self.port = config.port
        self.report = ClusterChaosReport()
        self._node_of = {node.ip: name
                         for name, node in self.cluster.nodes.items()}
        self.ledger = AckLedger(on_peer=self._peer_result)
        self.ledger.phase = "pre"
        self.victim = None
        self._victim_keys = []
        self._bursts = []

    # -- phase / failure plumbing ---------------------------------------------

    def _route(self, key):
        return self.router.ip_of(self.router.primary(key))

    def _peer_result(self, ip, ok):
        """Loop-observed outcome; a router-triggered failover flips the
        storm into its post-failover phase."""
        name = self._node_of[ip]
        if ok:
            self.router.report_success(name)
        elif self.router.report_failure(name):
            self.ledger.phase = "post"
            if self.report.failover_by is None:
                self.report.failover_by = "router"

    def _kill_victim(self):
        self.cluster.kill(self.victim)
        self.ledger.phase = "kill"

    def _failsafe(self):
        """Detection bound: if the router hasn't evicted the victim by
        now (e.g. the burst drained before two watchdogs expired), the
        control plane's timer does."""
        if self.victim in self.cluster.ring.alive:
            self.cluster.failover(self.victim)
            self.ledger.phase = "post"
            if self.report.failover_by is None:
                self.report.failover_by = "failsafe"

    # -- phases ---------------------------------------------------------------

    def _driver(self, workload, loops, ledger):
        """Closed Homa loops routed by the live ring, one watchdog per
        attempt, until ``workload`` is exhausted."""
        return HomaWrkClient(
            self.client, None, self.port, loops, duration_ns=math.inf,
            warmup_ns=0.0, route=self._route, workload=workload,
            ledger=ledger, watchdog_ns=WATCHDOG_NS, attempts=MAX_ATTEMPTS,
        )

    def _burst(self):
        burst = self._driver(self.source, self.loops, self.ledger)
        self._bursts.append(burst)
        burst.start(stagger_ns=2_000.0)

    def _pick_victim(self):
        """The primary owning the most loop keys: guaranteed to hold
        acked data, so its death puts the durability claim on trial."""
        keys = [key.encode() for loop_id in range(self.loops)
                for key in self.source.keys_for(loop_id)]
        owned = {}
        for key in keys:
            owned[self.router.primary(key)] = \
                owned.get(self.router.primary(key), 0) + 1
        self.victim = max(sorted(owned), key=lambda n: owned[n])
        self.report.victim = self.victim
        self._victim_keys = [key for key in keys
                             if self.router.primary(key) == self.victim]

    def _second_burst(self):
        """The post-kill burst: every loop issues the same count again,
        retrying through detection and failover."""
        for loop_id in range(self.loops):
            self.source.extend(loop_id, self.puts_per_loop)
        self._burst()
        self.sim.schedule(self.kill_delay_ns, self._kill_victim)
        self.sim.schedule(self.failsafe_ns, self._failsafe)

    def _probe(self):
        """End-to-end read-your-acked-writes: GET a victim-owned key
        over the network from whatever the ring now routes to."""
        acked = self.ledger.last_acked
        key = next((k for k in self._victim_keys if k in acked), None)
        if key is None:
            return  # the vacuity oracle flags this separately
        allowed = [acked[key]] + self.ledger.issued_after_ack[key]
        probe = self._driver(ListSource([("GET", key.decode(), None)]), 1,
                             AckLedger())
        probe.start()
        self.sim.run_until_idle(max_events=self.max_events)
        status, body = probe.stats.reads.get(key, (None, None))
        self.report.probe_ok = status == 200 and body in allowed
        if not self.report.probe_ok:
            self.report.violation(
                "durability:probe",
                f"post-failover GET /{key.decode()} got {status!r} — the "
                f"promoted primary does not serve the acked put over the "
                f"network",
            )

    # -- oracles --------------------------------------------------------------

    def _check_oracles(self):
        report = self.report
        metrics = self.metrics
        self.sim.run(until=self.sim.now + MILLIS)

        # Liveness: no survivor core may be sitting on queued work.
        for node in self.cluster.alive_nodes():
            for index in range(len(node.host.cpus)):
                queued = metrics.value(f"{node.name}.core{index}.queue_ns")
                if queued > 0:
                    report.violation(
                        "liveness:core-queue",
                        f"{node.name} core {index} still has "
                        f"{queued:.0f} ns of queued work after the drain",
                    )
        stalled = sum(burst.stalled() for burst in self._bursts)
        if stalled:
            report.violation(
                "liveness:stalled",
                f"{stalled} loop(s) still awaiting a response at idle",
            )

        # Refcount exactness, per survivor: the rx pool and the store
        # agree, and every adopted buffer's refcount equals the
        # references the store holds on it.
        for node in self.cluster.alive_nodes():
            rx_in_use = metrics.value(f"{node.name}.rx_pool.in_use")
            owned = metrics.value(f"{node.name}.engine.store.owned")
            if rx_in_use != owned:
                report.violation(
                    "leak:server-rx",
                    f"{node.name}: rx_pool.in_use = {rx_in_use:.0f} but "
                    f"store.owned = {owned:.0f}",
                )
            store = getattr(node.engine, "store", None)
            if store is not None:
                check_refcounts(store, report, where=f"{node.name} ")

        self._check_span_stitching()
        self._check_durability()

    def _check_durability(self):
        """Every acked put is readable from the key's current primary —
        including every key the dead host used to own."""
        self.ledger.check_durability(
            self.cluster.read_value, self.report,
            kind=lambda key: ("durability:failover"
                              if key in self._victim_keys else "durability"),
        )

    def _check_span_stitching(self):
        """One request, one trace — across hosts, kills and retries."""
        report = self.report
        recorder = self.recorder
        # Orphans and double dispatch (abort_peer's terminal give-ups
        # cover messages aimed at — or half-received from — the corpse).
        check_span_links(recorder, self.metrics, report)

        # Stitching: an acked put outside the detection window had a
        # live backup, so its origin RPC must trace into at least one
        # replication RPC.  (Kill-window acks may legitimately have
        # degraded via the suspect fast-path without a forward.)
        families = 0
        for key, (rpc_id, phase) in self.ledger.acks.items():
            if len(recorder.stitched(rpc_id)) > 1:
                families += 1
            elif phase in ("pre", "post") and \
                    len(self.cluster.ring.alive) >= 2:
                report.violation(
                    "spanlink:unstitched",
                    f"key {key!r}: acked rpc {rpc_id} ({phase}-phase) has "
                    f"no replication hop in its trace",
                )
        report.stitched_families = families

    def _declare_needs(self):
        """A kill storm that killed nothing, detected nothing or acked
        nothing on either side of the cut proves nothing."""
        report = self.report
        report.need("vacuous:no-requests", lambda: report.attempted_puts,
                    "the storm issued zero PUTs")
        report.need("vacuous:no-kill", lambda: report.kills,
                    "no host was ever killed — nothing failed")
        report.need(
            "vacuous:no-failover", lambda: report.failovers,
            "the victim was never evicted — neither the router's "
            "failure detection nor the failsafe fired",
        )
        report.need(
            "vacuous:no-pre-kill-acks", lambda: report.acked_by_phase["pre"],
            "zero puts were acked before the kill — the victim "
            "died holding nothing worth checking",
        )
        report.need(
            "vacuous:no-post-failover-acks",
            lambda: report.acked_by_phase["post"],
            "zero puts were acked after the failover — promotion "
            "was never exercised by live traffic",
        )
        report.need(
            "vacuous:victim-untouched",
            lambda: any(key in self._victim_keys
                        for key in self.ledger.last_acked),
            lambda: f"no acked put landed on a shard {self.victim} owned "
                    f"— the kill endangered nothing",
        )

    # -- run ------------------------------------------------------------------

    def run(self):
        self._declare_needs()
        self._burst()
        try:
            self.sim.run_until_idle(max_events=self.max_events)
            self._pick_victim()
            self._second_burst()
            self.sim.run_until_idle(max_events=self.max_events)
            self._probe()
        except Exception as exc:  # noqa: BLE001 — a crash IS the finding
            self.report.crashed = exc
            self.report.violation("crash", f"{type(exc).__name__}: {exc}")
            self._finalize()
            return self.report
        self._finalize()
        self._check_oracles()
        return self.report

    def _finalize(self):
        self.report.tally(self.ledger)
        self.report.kills = self.cluster.stats["kills"]
        self.report.failovers = self.cluster.stats["failovers"]
        totals = {}
        for node in self.cluster.nodes.values():
            for key, value in node.replicator.stats.items():
                if key.startswith("lag"):
                    continue
                totals[key] = totals.get(key, 0) + value
            totals["applied"] = (totals.get("applied", 0)
                                 + node.applier.stats["applied"])
            totals["dup_suppressed"] = (totals.get("dup_suppressed", 0)
                                        + node.applier.stats["dup_suppressed"])
        self.report.repl_stats = totals
        self.report.degraded_acks = totals.get("degraded_acks", 0)


def run_host_kill_storm(**kwargs):
    """Convenience: build and run one kill storm; returns the report."""
    return HostKillStorm(**kwargs).run()
