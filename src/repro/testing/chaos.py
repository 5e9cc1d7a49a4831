"""Overload chaos world: does the server survive the traffic it measures?

The crash sweep (:mod:`repro.testing.harness`) proves the *persistence*
path honest; this module does the same for the *serving* path.  It
drives a deliberately under-provisioned testbed — a PM packet pool and
metadata slab sized to exhaust under a many-connection PUT burst —
through pool-exhaustion bursts, fabric loss/duplication storms and
slow-client stalls, then checks the §4 coupling's failure-containment
contract:

- **liveness** — the server answers every surviving connection and a
  post-storm probe; overload surfaces as 503/507 responses, never as an
  exception unwinding the TCP receive path;
- **durability** — every acked PUT's value is still readable after the
  storm (the newest acked, or a later issued, version per key);
- **no leaks** — after the storm drains, tx pools are empty, every
  in-use rx slot is owned by the store, and each adopted buffer's
  refcount equals the references the store actually holds.

Running the same storm with ``contain=False`` (no overload controller,
``contain_errors=False``) must *fail* — the sweep records the crash or
stall as a violation.  That negative check wires into CI via
``repro-chaoscheck --no-containment --expect-violations``, proving the
detector detects.
"""

import math
import random

from repro.bench.testbed import SERVER_IP, make_testbed
from repro.bench.workloads import ListSource, StormBurstSource
from repro.bench.wrk import AckLedger, HomaWrkClient, WrkClient
from repro.net.fabric import LinkFaults
from repro.net.http import build_request
from repro.sim.units import MILLIS
from repro.storage.server import ServerConfig
from repro.testing.verdict import Verdict, check_refcounts, exit_status

PORT = 80

#: Slot size of the host pools (mirrors Host's default).
SLOT = 2048

#: Per-RPC client watchdog of the Homa storm.  Homa has no connections,
#: so there is no stream to stall; the fault squall lands on
#: DATA/GRANT/ACK packets and exercises sender-timeout retransmission.
#: An RPC that gets no reply in time, or that the transport gives up
#: on, is counted (timeout / give-up) and its loop moves on, the way a
#: real RPC client would.
WATCHDOG_NS = 80 * MILLIS


class StormReport(Verdict):
    """One storm's verdict, plus its loops' ack counters."""

    TAG = "chaos"
    HELD = "contract held: live, durable, leak-free"

    def __init__(self):
        super().__init__()
        self.crashed = None
        self.probe_ok = False
        self.tally(AckLedger())

    def tally(self, ledger):
        """Copy the storm ledger's counters."""
        self.responses = dict(ledger.responses)
        self.attempted_puts = ledger.attempted
        self.acked_puts = ledger.acked
        self.resets = ledger.resets
        self.timeouts = ledger.timeouts
        self.give_ups = ledger.give_ups


class ChaosReport(StormReport):
    """Outcome of one overload storm."""

    def __init__(self):
        super().__init__()
        self.stall_aborts = 0
        #: (rpc, direction) pairs that retransmitted at least once —
        #: how much the span-link oracle actually exercised (homa only).
        self.retransmitted_rpcs = 0
        self.server_stats = {}
        self.overload_stats = {}

    def head(self):
        lines = [
            f"[chaos] puts acked {self.acked_puts}/{self.attempted_puts}, "
            f"responses {dict(self.responses)}, resets {self.resets}, "
            f"timeouts {self.timeouts}, give-ups {self.give_ups}",
        ]
        if self.retransmitted_rpcs:
            lines.append(
                f"[chaos] span links: {self.retransmitted_rpcs} "
                f"message(s) retransmitted, all chains resolved"
            )
        if self.server_stats:
            keys = ("shed", "contained_errors", "degraded_gets",
                    "dropped_responses", "parse_errors")
            lines.append("[chaos] server: " + ", ".join(
                f"{k} {self.server_stats.get(k, 0)}" for k in keys))
        if self.overload_stats:
            lines.append("[chaos] overload: " + ", ".join(
                f"{k} {v}" for k, v in sorted(self.overload_stats.items())))
        return lines


def check_span_links(recorder, metrics, report):
    """Span-link oracle (Homa): every retransmitted RPC resolves.

    The recorder threads one chain per RPC id through the trace ring
    (see :mod:`repro.obs.trace`).  After a storm drains, each direction
    that retransmitted must have ended in delivery or an explicit
    give-up — a chain that did neither is an orphan: retransmit spans
    dangling with no terminal span.  And no logical request may have
    run a handler twice — that would double-count its stages in the
    live Table-1 totals (the transport's completed-RPC dedup exists
    exactly to prevent it).  Returns the number of (rpc, direction)
    pairs that retransmitted.
    """
    retransmitted = 0
    for rpc_id, chain in recorder.chains().items():
        for direction in ("request", "reply"):
            count = chain[direction]["retransmits"]
            if count == 0:
                continue
            retransmitted += 1
            if direction not in chain["delivered"] and \
                    direction not in chain["gave_up"]:
                report.violation(
                    "spanlink:orphan",
                    f"rpc {rpc_id} {direction}: {count} retransmit(s) but "
                    f"the message was neither delivered nor given up",
                )
    double = metrics.value("server.rpc.double_dispatch")
    if double:
        report.violation(
            "spanlink:double-dispatch",
            f"{double:.0f} RPC(s) ran a handler more than once — their "
            f"stage costs are double-counted in Table 1",
        )
    return retransmitted


class _StallConn:
    """A slow client: sends half a PUT, stalls, then resets.

    The half-request's body slices sit retained in the server's parser;
    the RST must release them (connection-level resilience) or the
    stall permanently pins pool slots.
    """

    def __init__(self, world, conn_id, value_size, stall_ns):
        self.world = world
        self.conn_id = conn_id
        self.value_size = value_size
        self.stall_ns = stall_ns
        self.sock = None

    def start(self, ctx):
        self.sock = self.world.client.stack.connect(SERVER_IP, PORT, ctx)
        self.sock.on_established = self._send_half

    def _send_half(self, sock, ctx):
        request = build_request(
            "PUT", f"/stall-{self.conn_id}", bytes(self.value_size)
        )
        sock.send(request[:len(request) // 2], ctx)
        self.world.sim.schedule(self.stall_ns, self._abort)

    def _abort(self):
        if self.sock.state.value != "CLOSED":
            self.world.report.stall_aborts += 1
            self.world.client.process_on_core(
                self.sock.core, lambda ctx: self.sock.abort(ctx)
            )


class OverloadStorm:
    """Build the under-provisioned testbed and run the storm."""

    def __init__(self, connections=100, puts_per_conn=6, keys_per_conn=2,
                 value_size=1400, pool_slots=256, slab_slots=None,
                 contain=True, zero_copy=False, stalls=4,
                 storm_faults=True, seed=1, max_events=20_000_000,
                 reaper_idle_ns=None, transport="tcp", cores=1, config=None,
                 source=None):
        self.connections = connections
        self.value_size = value_size
        # The storm's burst phase is a TrafficSource like any other
        # generator; passing one in substitutes the traffic (e.g. a
        # captured stream) while the oracles stay unchanged.
        self.source = source if source is not None else StormBurstSource(
            connections, puts_per_conn, keys_per_conn, value_size,
        )
        # Default slab sizing: enough for steady state (live keys) but
        # well short of the versions the burst creates, so the slab —
        # not just the pool — sees pressure.
        if slab_slots is None:
            slab_slots = max(64, connections * keys_per_conn * 2)
        self.stalls = stalls
        self.storm_faults = storm_faults
        self.seed = seed
        self.max_events = max_events

        # One ServerConfig shapes the whole server side; the individual
        # kwargs are folded into one (and metrics are always on — the
        # oracles read the gauges).
        if config is None:
            config = ServerConfig(
                transport=transport,
                engine="pktstore",
                cores=cores,
                zero_copy_get=zero_copy,
                contain_errors=contain,
                overload=True if contain else None,
                reaper_idle_ns=(reaper_idle_ns if transport == "tcp"
                                else None),
                metrics=True,
                engine_kwargs={"meta_bytes": slab_slots * 256},
            )
        if not config.metrics:
            raise ValueError(
                "OverloadStorm needs config.metrics=True: the liveness "
                "and leak oracles read the recorder's gauges"
            )
        self.config = config
        self.transport = config.transport
        self.contain = config.contain_errors

        self.testbed = make_testbed(
            config=config,
            paste_pool_bytes=pool_slots * SLOT,
        )
        self.overload = self.testbed.overload
        self.metrics = self.testbed.metrics
        self.sim = self.testbed.sim
        self.client = self.testbed.client
        self.server = self.testbed.server
        self.report = ChaosReport()
        self._faults = None

    # -- baseline / oracle ----------------------------------------------------

    def _capture_baseline(self):
        metrics = self.metrics
        self.baseline = {
            "server_tx": metrics.value("server.tx_pool.in_use"),
            "client_tx": metrics.value("client.tx_pool.in_use"),
            "client_rx": metrics.value("client.rx_pool.in_use"),
        }

    def _check_oracles(self):
        """Liveness and leak checks against the recorder's gauges.

        The pool/store comparisons read the live metrics registry — the
        same numbers an operator would see from ``repro-stats`` — so the
        oracles hold for any transport and any core count without
        knowing server internals.  Only the refcount-*exact* oracle
        still walks the store's tables: per-slot expected-vs-actual
        refcounts are deliberately finer than any gauge.
        """
        report = self.report
        metrics = self.metrics
        store = self.testbed.engine.store

        # Settle: run_until_idle leaves the clock at the last *event*,
        # which can precede the end of the last core slice by a few µs;
        # advancing past it makes queue_ns a true stuck-work detector.
        self.sim.run(until=self.sim.now + MILLIS)

        # Liveness: at drain, no server core may still have queued work.
        for index in range(len(self.server.cpus)):
            queued = metrics.value(f"server.core{index}.queue_ns")
            if queued > 0:
                report.violation(
                    "liveness:core-queue",
                    f"server core {index} still has {queued:.0f} ns of "
                    f"queued work after the storm drained",
                )

        # Leak oracles: after the storm drains, transient users of every
        # pool are gone; only the store legitimately holds rx slots.
        for gauge_name, base_key, kind in (
            ("server.tx_pool.in_use", "server_tx", "leak:server-tx"),
            ("client.tx_pool.in_use", "client_tx", "leak:client-tx"),
            ("client.rx_pool.in_use", "client_rx", "leak:client-rx"),
        ):
            in_use = metrics.value(gauge_name)
            if in_use != self.baseline[base_key]:
                report.violation(
                    kind,
                    f"{gauge_name} = {in_use:.0f} "
                    f"(baseline {self.baseline[base_key]:.0f})",
                )
        rx_in_use = metrics.value("server.rx_pool.in_use")
        store_owned = metrics.value("engine.store.owned")
        if rx_in_use != store_owned:
            # Internals only for the diagnostic detail, not the verdict.
            stray = sorted(set(store.pool._in_use) - set(store._buffers))
            missing = sorted(set(store._buffers) - set(store.pool._in_use))
            report.violation(
                "leak:server-rx",
                f"server.rx_pool.in_use = {rx_in_use:.0f} but "
                f"engine.store.owned = {store_owned:.0f} "
                f"(stray {stray[:8]}, freed-but-referenced {missing[:8]})",
            )

        check_refcounts(store, report)
        if self.transport == "homa":
            # Retransmit vacuity is recorded, not a violation: whether
            # the squall forced retransmits depends on seed and sizing,
            # and a quiet storm still proves liveness/durability.  The
            # dedicated span-link test asserts retransmitted_rpcs > 0 on
            # a seed that does storm.
            report.retransmitted_rpcs = check_span_links(
                self.testbed.recorder, metrics, report)
        # Durability oracle: the newest acked value (or a later issued
        # one) per key is what the store serves.
        self.ledger.check_durability(self.testbed.engine.get, report)

    def _declare_needs(self):
        """A storm that stressed nothing proves nothing — fail loudly.

        A quiet pass is worse than a failure: the oracles all "hold"
        while the code under test never ran.  The storm must issue and
        ack PUTs, its fault squall (when requested) must touch a frame,
        its stall clients (when requested) must reset, and with
        containment on it must actually overload the server.
        (Retransmit vacuity stays advisory — see :meth:`_check_oracles`
        — because whether the squall forces a retransmit is
        legitimately seed-dependent; whether it drops any frame at all,
        across a multi-thousand-frame storm, is not.)
        """
        report = self.report
        report.need("vacuous:no-requests", lambda: report.attempted_puts,
                    "the storm phase issued zero PUTs — nothing was tested")
        report.need("liveness:no-progress", lambda: report.acked_puts,
                    "not a single PUT was acked")
        if self.storm_faults:
            report.need(
                "vacuous:no-faults", self._faults_landed,
                "a fault squall was requested but zero frames were "
                "dropped/duplicated/corrupted/reordered — the storm "
                "finished before the squall window or traffic never "
                "crossed the fabric",
            )
        expected_stalls = 0 if self.transport == "homa" else self.stalls
        if expected_stalls:
            report.need(
                "vacuous:no-stalls", lambda: report.stall_aborts,
                f"{expected_stalls} stall client(s) requested but none "
                f"ever aborted mid-request — the slow-client phase "
                f"never ran",
            )
        if self.contain:
            report.need(
                "config:no-overload",
                lambda: report.responses.get(503, 0) or
                report.responses.get(507, 0),
                "storm never triggered shedding — the world is not "
                "under-provisioned enough to test anything",
            )

    def _faults_landed(self):
        faults = self._faults
        return faults is not None and (faults.dropped + faults.duplicated +
                                       faults.corrupted + faults.reordered)

    # -- phases ---------------------------------------------------------------

    def _driver(self, workload, connections, ledger):
        """Closed loops over the storm's transport that run until
        ``workload`` is exhausted."""
        kwargs = dict(duration_ns=math.inf, warmup_ns=0.0,
                      workload=workload, ledger=ledger)
        if self.transport == "homa":
            return HomaWrkClient(self.client, SERVER_IP, PORT, connections,
                                 watchdog_ns=WATCHDOG_NS, **kwargs)
        return WrkClient(self.client, SERVER_IP, PORT, connections, **kwargs)

    def _launch(self):
        self.ledger = AckLedger()
        self.burst = self._driver(self.source, self.connections, self.ledger)
        # Stagger connection setup so the SYN flood itself doesn't
        # serialise into one processing slice.
        self.burst.start(stagger_ns=2_000.0)
        # Stall clients are a TCP stream phenomenon (half a request
        # parked in the server's parser); Homa messages are atomic, so
        # the storm skips them there.
        stalls = 0 if self.transport == "homa" else self.stalls
        for stall_id in range(stalls):
            # Abort after the fault squall clears (60 ms): a RST is never
            # retransmitted, so one lost to the squall would leave the
            # server connection half-open with the partial request pinned
            # — a TCP property, not a containment bug.  The server-side
            # idle reaper (NetworkStack.enable_idle_reaper, opt in via
            # reaper_idle_ns=) bounds that pin to the idle timeout.
            stall = _StallConn(self, stall_id, self.value_size,
                               stall_ns=70 * MILLIS)
            core = self.client.cpus[stall_id % len(self.client.cpus)]
            self.sim.schedule(
                1_000.0 + stall_id * 3_000.0,
                lambda s=stall, co=core: self.client.process_on_core(
                    co, s.start
                ),
            )
        if self.storm_faults:
            # A loss+duplication squall mid-burst; clears before drain.
            # Keep the handle: the vacuity oracle reads its counters.
            # Opens at 0.5 ms — fast multi-core configs drain their PUT
            # burst within a few ms, and a squall that opens after the
            # last data frame is vacuous (the guard that now fails such
            # a run is what caught the old 5 ms open being exactly that
            # for the CI smoke sizings).
            self._faults = LinkFaults(random.Random(self.seed), loss=0.02,
                                      duplicate=0.02)
            self.sim.schedule(MILLIS / 2, self._set_faults, self._faults)
            self.sim.schedule(60 * MILLIS, self._set_faults, None)

    def _set_faults(self, faults):
        self.testbed.fabric.faults = faults

    def _probe(self):
        """Post-storm liveness: a fresh request must get an answer."""
        keys_for = getattr(self.source, "keys_for", None)
        keys = [key for conn_id in range(self.connections)
                for key in keys_for(conn_id)] if keys_for else []
        key = keys[0] if keys else "probe"
        probe = self._driver(ListSource([("GET", key, None)]), 1,
                             AckLedger())
        probe.start()
        self.sim.run_until_idle(max_events=self.max_events)
        status = probe.stats.reads.get(key.encode(), (None, None))[0]
        self.report.probe_ok = status in (200, 404, 503)
        if not self.report.probe_ok:
            self.report.violation(
                "liveness:probe",
                f"post-storm GET got {status!r} (expected 200/404/503)",
            )

    # -- run ------------------------------------------------------------------

    def run(self):
        self._declare_needs()
        self._capture_baseline()
        self._launch()
        try:
            self.sim.run_until_idle(max_events=self.max_events)
            self._probe()
        except Exception as exc:  # noqa: BLE001 — a crash IS the finding
            self.report.crashed = exc
            self.report.violation(
                "crash", f"{type(exc).__name__}: {exc}"
            )
            self._finalize()
            return self.report

        self._finalize()
        dead = self.burst.stalled()
        if dead:
            self.report.violation(
                "liveness:stalled",
                f"{dead} connection(s) still awaiting a response at idle",
            )
        self._check_oracles()
        return self.report

    def _finalize(self):
        self.report.tally(self.ledger)
        self.report.server_stats = dict(self.testbed.kv.stats)
        if self.overload is not None:
            self.report.overload_stats = dict(self.overload.stats)


def run_overload_storm(**kwargs):
    """Convenience: build and run one storm; returns the ChaosReport."""
    return OverloadStorm(**kwargs).run()


# -- CLI ----------------------------------------------------------------------


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-chaoscheck",
        description="Overload chaos storm against the serving path: "
                    "pool-exhaustion bursts, fabric fault squalls and "
                    "slow-client stalls, with liveness/durability/leak "
                    "oracles.",
    )
    parser.add_argument("--cluster", action="store_true",
                        help="run the whole-host-kill cluster storm "
                             "instead of the single-server overload storm "
                             "(see repro.testing.chaos_cluster)")
    parser.add_argument("--hosts", type=int, default=3,
                        help="cluster mode: server hosts (default: 3)")
    parser.add_argument("--ack-policy", choices=("sync", "primary-only"),
                        default="sync",
                        help="cluster mode: when the client's 200 is sent "
                             "relative to the backup's ack (default: sync)")
    parser.add_argument("--transport", choices=("tcp", "homa"),
                        default="tcp",
                        help="serve over HTTP/TCP or the Homa-like "
                             "message transport (default: tcp)")
    parser.add_argument("--cores", type=int, default=1,
                        help="server cores (default: 1)")
    parser.add_argument("--connections", type=int, default=100,
                        help="burst connections (default: 100)")
    parser.add_argument("--puts-per-conn", type=int, default=6,
                        help="PUTs per connection (default: 6)")
    parser.add_argument("--keys-per-conn", type=int, default=2,
                        help="private keys per connection; smaller than "
                             "--puts-per-conn forces overwrites, feeding "
                             "the emergency GC (default: 2)")
    parser.add_argument("--value-size", type=int, default=1400,
                        help="PUT value size in bytes (default: 1400)")
    parser.add_argument("--pool-slots", type=int, default=256,
                        help="PM packet-pool slots — small enough that the "
                             "burst exhausts it (default: 256)")
    parser.add_argument("--slab-slots", type=int, default=None,
                        help="metadata slab slots (default: sized to "
                             "pressure under the burst)")
    parser.add_argument("--stalls", type=int, default=4,
                        help="slow clients that stall mid-request then "
                             "reset (default: 4)")
    parser.add_argument("--no-faults", action="store_true",
                        help="skip the mid-burst loss/duplication squall")
    parser.add_argument("--zero-copy", action="store_true",
                        help="serve GETs zero-copy (exercises degrade-to-"
                             "copy under pressure)")
    parser.add_argument("--no-containment", action="store_true",
                        help="run without the overload controller and with "
                             "error containment disabled (negative testing)")
    parser.add_argument("--expect-violations", action="store_true",
                        help="invert the exit status: succeed only if the "
                             "storm finds violations")
    parser.add_argument("--max-events", type=int, default=20_000_000,
                        help="simulator event budget (default: 20M)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed for fault injection and value patterns")
    return parser


def _main_cluster(args):
    """``repro-chaoscheck --cluster``: the whole-host-kill storm.

    The overload-storm knobs map onto the cluster storm: connections
    become client loops, puts-per-conn the per-burst put count (the
    storm runs two bursts, the kill lands inside the second).
    """
    from repro.testing.chaos_cluster import run_host_kill_storm

    print(f"[cluster-chaos] storm: {args.hosts} hosts x{args.cores}core, "
          f"ack_policy={args.ack_policy}, {args.connections} loops x "
          f"2x{args.puts_per_conn} PUTs ({args.value_size} B), "
          f"pool {args.pool_slots} slots, seed {args.seed}")
    report = run_host_kill_storm(
        hosts=args.hosts,
        cores=args.cores,
        ack_policy=args.ack_policy,
        loops=args.connections,
        puts_per_loop=args.puts_per_conn,
        keys_per_loop=args.keys_per_conn,
        value_size=args.value_size,
        pool_slots=args.pool_slots,
        seed=args.seed,
        max_events=args.max_events,
    )
    print(report.summary())
    return exit_status(report, args.expect_violations, "cluster-chaos",
                       "failover", "acked puts survived the host kill, "
                       "refcounts exact, traces stitched")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cluster:
        return _main_cluster(args)
    contain = not args.no_containment
    print(f"[chaos] storm: {args.transport} x{args.cores}core, "
          f"{args.connections} conns x "
          f"{args.puts_per_conn} PUTs ({args.value_size} B), "
          f"pool {args.pool_slots} slots, stalls {args.stalls}, "
          f"faults {'off' if args.no_faults else 'on'}, "
          f"containment {'on' if contain else 'OFF'}")
    report = run_overload_storm(
        transport=args.transport,
        cores=args.cores,
        connections=args.connections,
        puts_per_conn=args.puts_per_conn,
        keys_per_conn=args.keys_per_conn,
        value_size=args.value_size,
        pool_slots=args.pool_slots,
        slab_slots=args.slab_slots,
        contain=contain,
        zero_copy=args.zero_copy,
        stalls=args.stalls,
        storm_faults=not args.no_faults,
        seed=args.seed,
        max_events=args.max_events,
    )
    print(report.summary())
    return exit_status(report, args.expect_violations, "chaos", "overload",
                       "server stayed live, acked writes durable, no "
                       "leaks after the storm")


if __name__ == "__main__":
    import sys

    sys.exit(main())
