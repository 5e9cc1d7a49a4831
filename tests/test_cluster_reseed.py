"""Cluster reseed: rebuild a killed node from the fabric capture.

PR 7 left promoted shards unreplicated after failover; the capture
closes that gap.  A host-kill storm runs with the cluster-wide tap on,
then ``reseed_from_capture`` rebuilds the victim from packets alone —
its pre-kill history plus the survivors' post-kill traffic — verifies
it key-by-key against the promoted primaries, and re-attaches it to
the ring as the fresh backup.
"""

import pytest

from repro.capture.replay import reseed_from_capture, verify_reseed
from repro.cluster.topology import ClusterConfig, build_cluster
from repro.testing.chaos_cluster import HostKillStorm


def run_storm():
    config = ClusterConfig(hosts=3, ack_policy="sync", capture=True,
                           metrics=True)
    storm = HostKillStorm(config=config, loops=8, puts_per_loop=5, seed=1)
    report = storm.run()
    assert report.ok, report.violations
    assert storm.victim is not None
    return storm


class TestReseedFromCapture:
    @pytest.fixture(scope="class")
    def reseeded(self):
        storm = run_storm()
        result = reseed_from_capture(storm.cluster, storm.victim)
        return storm, result

    def test_reseed_verifies_and_attaches(self, reseeded):
        storm, result = reseeded
        assert result.ok, result.summary()
        assert result.attached
        assert result.violations == []
        assert result.checked > 0
        assert result.injected > 0
        # the post-kill delta really came from the survivors' traffic
        assert result.caught_up > 0

    def test_rebuilt_node_took_over_the_ring_slot(self, reseeded):
        storm, result = reseeded
        cluster = storm.cluster
        assert storm.victim in cluster.ring.alive
        assert cluster.nodes[storm.victim] is result.node
        assert storm.victim not in cluster.killed_at
        # its NIC now sits on the shared fabric, not the private one
        assert result.node.host.nic.fabric is cluster.fabric

    def test_cluster_serves_after_revival(self, reseeded):
        # The revived node must not wedge the cluster: the simulator
        # drains cleanly with the rebuilt host attached.
        storm, _result = reseeded
        storm.cluster.sim.run_until_idle(max_events=1_000_000)

    def test_capture_gauges_report_the_tap(self, reseeded):
        storm, _result = reseeded
        assert storm.metrics.value("cluster.capture.seen") > 0
        assert storm.metrics.value("cluster.capture.buffered") > 0
        assert storm.metrics.value("cluster.capture.evicted") == 0


class TestReseedPreconditions:
    def test_reseed_requires_capture(self):
        config = ClusterConfig(hosts=3, metrics=True)
        cluster = build_cluster(config)
        name = next(iter(cluster.nodes))
        cluster.kill(name)
        cluster.failover(name)
        with pytest.raises(ValueError, match="capture"):
            reseed_from_capture(cluster, name)

    def test_reseed_refuses_live_nodes(self):
        config = ClusterConfig(hosts=3, capture=True, metrics=True)
        cluster = build_cluster(config)
        name = next(iter(cluster.nodes))
        with pytest.raises(RuntimeError, match="alive"):
            reseed_from_capture(cluster, name)

    def test_reseed_that_checks_no_key_stays_detached(self):
        # A kill before any traffic: the standby holds nothing and no
        # shard key is checkable, so the reseed verified nothing and
        # must not re-attach the node.
        config = ClusterConfig(hosts=3, capture=True, metrics=True)
        cluster = build_cluster(config)
        name = sorted(cluster.nodes)[0]
        cluster.kill(name)
        cluster.failover(name)
        result = reseed_from_capture(cluster, name)
        assert result.checked == 0
        assert not result.ok
        assert [kind for kind, _ in result.violations] == ["vacuous:no-keys"]
        assert not result.attached
        assert name not in cluster.ring.alive
        assert cluster.nodes[name] is not result.node

    def test_verify_reseed_flags_missing_keys(self):
        # An empty standby cannot match the promoted primaries.
        storm = run_storm()
        cluster = storm.cluster

        class EmptyEngine:
            @staticmethod
            def scan():
                return iter(())

        violations, checked = verify_reseed(cluster, EmptyEngine(),
                                            storm.victim)
        assert checked > 0
        assert violations
