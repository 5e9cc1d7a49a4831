"""Failover end-to-end: kill a host, promote its backup, keep serving.

The durability claim under test: with ``ack_policy="sync"``, a
client-acked PUT is durable on two hosts, so killing the primary and
failing over must leave the put readable — from the engine directly
and over the network from the promoted node.  Plus the trimmings:
cross-host span stitching, replication-lag gauges, graceful
degradation when the *backup* dies, and the host-kill chaos storm
that wraps all of it in oracles.
"""

import pytest

from repro.cluster.backoff import Backoff
from repro.cluster.topology import ClusterConfig, ClusterContext, build_cluster
from repro.net.http import HttpParser, build_request
from repro.storage.server import ServerConfig, serve
from repro.testing.chaos_cluster import HostKillStorm

FAST_BACKOFF = Backoff(base_ns=500_000.0, multiplier=2.0,
                       cap_ns=2_000_000.0, max_retries=3)


def _request(cluster, method, key, value=b"", to=None):
    """One RPC from the client to ``key``'s current primary (or ``to``)."""
    result = {"status": None, "body": None, "rpc_id": None}
    name = to if to is not None else cluster.ring.primary(key)
    ip = cluster.nodes[name].ip
    parser = HttpParser(is_response=True)

    def on_reply(segments, ctx):
        for segment in segments:
            for message in parser.feed(segment):
                result["status"] = message.status
                result["body"] = message.body
                message.release()

    def start(ctx):
        result["rpc_id"] = cluster.client.homa.send_request(
            ip, cluster.config.port,
            build_request(method, "/" + key.decode(), value),
            ctx, on_reply=on_reply)

    cluster.client.process_on_core(cluster.client.cpus[0], start)
    cluster.sim.run_until_idle(max_events=5_000_000)
    return result


class TestSyncReplicationPath:
    def test_acked_put_is_on_both_hosts(self):
        cluster = build_cluster(ClusterConfig(hosts=3))
        key, value = b"both", b"hosts" * 20
        primary = cluster.ring.primary(key)
        backup = cluster.ring.backup(key)
        assert _request(cluster, "PUT", key, value)["status"] == 200
        assert cluster.nodes[primary].engine.get(key) == value
        assert cluster.nodes[backup].engine.get(key) == value
        kv_stats = cluster.nodes[primary].kv.stats
        assert kv_stats["replicated_puts"] == 1
        assert kv_stats["repl_acked"] == 1
        assert kv_stats["deferred_replies"] == 1

    def test_replication_lag_gauge_is_live(self):
        cluster = build_cluster(ClusterConfig(hosts=3))
        key = b"lagged"
        primary = cluster.ring.primary(key)
        assert _request(cluster, "PUT", key, b"v" * 32)["status"] == 200
        lag = cluster.metrics.value(f"{primary}.repl.lag_ns_last")
        assert lag > 0
        assert cluster.metrics.value(f"{primary}.repl.lag_ns_max") >= lag
        assert cluster.metrics.value(f"{primary}.repl.pending") == 0

    def test_cross_host_spans_stitch_into_one_trace(self):
        cluster = build_cluster(ClusterConfig(hosts=3))
        result = _request(cluster, "PUT", b"traced", b"t" * 32)
        assert result["status"] == 200
        stitched = cluster.recorder.stitched(result["rpc_id"])
        # Origin RPC plus at least the replication hop.
        assert stitched[0] == result["rpc_id"]
        assert len(stitched) >= 2

    def test_provenance_restored_on_backup(self):
        """The backup indexes the *client's* packet provenance, not the
        replication hop's — the forwarded bytes carry it."""
        cluster = build_cluster(ClusterConfig(hosts=2))
        key = b"prov"
        backup = cluster.ring.backup(key)
        assert _request(cluster, "PUT", key, b"p" * 48)["status"] == 200
        applier = cluster.nodes[backup].applier
        assert applier.stats["applied"] == 1


class TestFailover:
    def test_acked_put_survives_primary_kill(self):
        cluster = build_cluster(ClusterConfig(hosts=3))
        key, value = b"survive", b"the-kill" * 12
        primary = cluster.ring.primary(key)
        backup = cluster.ring.backup(key)
        assert _request(cluster, "PUT", key, value)["status"] == 200

        cluster.kill(primary)
        cluster.failover(primary)

        # Promotion: the old backup is the new primary.
        assert cluster.ring.primary(key) == backup
        assert cluster.read_value(key) == value
        # And over the network, from the promoted node.
        result = _request(cluster, "GET", key)
        assert result["status"] == 200
        assert result["body"] == value

    def test_promoted_primary_replicates_onward(self):
        cluster = build_cluster(ClusterConfig(hosts=3))
        key = b"onward"
        primary = cluster.ring.primary(key)
        assert _request(cluster, "PUT", key, b"one" * 8)["status"] == 200
        cluster.kill(primary)
        cluster.failover(primary)
        new_primary = cluster.ring.primary(key)
        new_backup = cluster.ring.backup(key)
        assert new_backup is not None and new_backup != primary
        assert _request(cluster, "PUT", key, b"two" * 8)["status"] == 200
        assert cluster.nodes[new_backup].engine.get(key) == b"two" * 8
        assert cluster.nodes[new_primary].kv.stats["repl_acked"] >= 1

    def test_dead_backup_degrades_to_primary_only_ack(self):
        cluster = build_cluster(
            ClusterConfig(hosts=3, backoff=FAST_BACKOFF))
        key, value = b"degrade", b"still-acked" * 6
        primary = cluster.ring.primary(key)
        backup = cluster.ring.backup(key)
        cluster.kill(backup)   # backup dead, no failover declared
        result = _request(cluster, "PUT", key, value)
        # The client still gets its 200 after the bounded retry budget.
        assert result["status"] == 200
        replicator = cluster.nodes[primary].replicator
        assert replicator.stats["give_ups"] == 1
        assert replicator.stats["degraded_acks"] == 1
        assert cluster.nodes[primary].kv.stats["repl_degraded"] == 1
        assert cluster.read_value(key) == value

    def test_failover_resets_suspicion(self):
        cluster = build_cluster(
            ClusterConfig(hosts=3, backoff=FAST_BACKOFF))
        key = b"resus"
        primary = cluster.ring.primary(key)
        backup = cluster.ring.backup(key)
        cluster.kill(backup)
        _request(cluster, "PUT", key, b"x" * 16)
        assert cluster.nodes[backup].ip in \
            cluster.nodes[primary].replicator.suspect
        cluster.failover(backup)
        assert not cluster.nodes[primary].replicator.suspect

    def test_kill_twice_raises(self):
        cluster = build_cluster(ClusterConfig(hosts=2))
        cluster.kill("s0")
        with pytest.raises(RuntimeError):
            cluster.kill("s0")

    def test_dead_host_drops_frames_silently(self):
        cluster = build_cluster(ClusterConfig(hosts=2))
        key = b"void"
        victim = cluster.ring.primary(key)
        cluster.kill(victim)
        result = _request(cluster, "PUT", key, b"x", to=victim)
        # No reply ever comes; the RPC is abandoned at idle (the Homa
        # give-up needs 50 ms of sim time, which run_until_idle gives).
        assert result["status"] is None


class TestRouterDetection:
    def test_threshold_failures_trigger_failover(self):
        cluster = build_cluster(ClusterConfig(hosts=3))
        router = cluster.router
        assert not router.report_failure("s0")
        assert router.report_failure("s0")      # threshold = 2
        assert router.stats["failovers_triggered"] == 1
        assert "s0" not in cluster.ring.alive

    def test_success_resets_the_count(self):
        cluster = build_cluster(ClusterConfig(hosts=3))
        router = cluster.router
        assert not router.report_failure("s1")
        router.report_success("s1")
        assert not router.report_failure("s1")
        assert "s1" in cluster.ring.alive

    def test_reports_against_evicted_node_are_noops(self):
        cluster = build_cluster(ClusterConfig(hosts=3))
        cluster.failover("s2")
        assert not cluster.router.report_failure("s2")
        assert cluster.stats["failovers"] == 1


class TestServeValidation:
    def test_cluster_mode_requires_homa(self):
        cluster = build_cluster(ClusterConfig(hosts=2))
        node = cluster.nodes["s0"]
        ctx = ClusterContext("s0", node.replicator, cluster.ring.route,
                             {"s0": node.ip}, "sync")
        with pytest.raises(ValueError, match="homa"):
            serve(node.host, ServerConfig(transport="tcp"), pm_ns=node.pm_ns,
                  cluster=ctx)

    def test_cluster_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(hosts=0).validate()
        with pytest.raises(ValueError):
            ClusterConfig(ack_policy="never").validate()
        with pytest.raises(ValueError):
            ClusterConfig(repl_port=80, port=80).validate()
        with pytest.raises(TypeError):
            ClusterConfig(backoff=123).validate()


class TestHostKillStorm:
    """The chaos acceptance check, as a test: kill a primary mid-storm
    and every oracle — durability, refcounts, span stitching, vacuity
    — must hold."""

    def test_storm_contract_holds_sync(self):
        report = HostKillStorm(hosts=3, loops=6, puts_per_loop=4,
                               value_size=600, seed=3).run()
        assert report.crashed is None
        assert report.ok, report.summary()
        # Non-vacuous by oracle, but pin the headline numbers too.
        assert report.kills == 1
        assert report.failovers == 1
        assert report.acked_by_phase["pre"] > 0
        assert report.acked_by_phase["post"] > 0
        assert report.stitched_families > 0
        assert report.probe_ok

    def test_storm_contract_holds_primary_only(self):
        report = HostKillStorm(hosts=3, loops=6, puts_per_loop=4,
                               value_size=600, ack_policy="primary-only",
                               seed=7).run()
        assert report.crashed is None
        assert report.ok, report.summary()
