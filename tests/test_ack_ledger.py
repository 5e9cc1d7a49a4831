"""The storms' shared durability oracle, and its negative controls.

``AckLedger.check_durability`` is the one durability check both chaos
storms call.  A clean storm proves nothing about it unless a planted
defect also fails it: here a store that serves an *older* value for
one acked key must yield exactly one ``durability`` violation, through
the same oracle routine each storm runs after its drain.
"""

import pytest

from repro.bench.wrk import AckLedger
from repro.testing.chaos import ChaosReport, OverloadStorm
from repro.testing.chaos_cluster import ClusterChaosReport, HostKillStorm


class _Reply:
    def __init__(self, status, body=b""):
        self.status = status
        self.body = body


def _put(ledger, key, value, status):
    op = ("PUT", key, value)
    ledger.issue(op)
    ledger.reply(op, _Reply(status), rpc_id=7)


class TestLedger:
    def test_newest_ack_or_later_issue_is_legal(self):
        ledger = AckLedger()
        _put(ledger, "k", b"v0", 200)
        _put(ledger, "k", b"v1", 200)
        _put(ledger, "k", b"v2", 503)
        report = ChaosReport()
        for stored in (b"v1", b"v2"):
            ledger.check_durability(lambda key: stored, report)
        assert report.ok
        ledger.check_durability(lambda key: b"v0", report)
        ledger.check_durability(lambda key: None, report)
        assert [kind for kind, _ in report.violations] == \
            ["durability", "durability"]

    def test_counters_and_reads(self):
        ledger = AckLedger()
        ledger.phase = "pre"
        _put(ledger, "k", b"v0", 200)
        _put(ledger, "k", b"v1", 503)
        get = ("GET", "k", None)
        ledger.issue(get)
        ledger.reply(get, _Reply(200, b"v0"))
        assert (ledger.attempted, ledger.acked) == (2, 1)
        assert ledger.responses[200] == 2 and ledger.responses[503] == 1
        assert ledger.acks == {b"k": (7, "pre")}
        assert ledger.acked_by_phase == {"pre": 1}
        assert ledger.reads == {b"k": (200, b"v0")}

    def test_custom_kind(self):
        ledger = AckLedger()
        _put(ledger, "k", b"v0", 200)
        report = ChaosReport()
        ledger.check_durability(lambda key: b"x", report,
                                kind=lambda key: "durability:failover")
        assert [kind for kind, _ in report.violations] == \
            ["durability:failover"]


def _older_value(source, ledger, exclude=()):
    """One acked key and the value its loop wrote to it a round before
    the acked one — issued *before* the ack, so never legal."""
    rounds = {}
    for key, value in ledger.last_acked.items():
        stamp, _key, index, _rest = value.split(b":", 3)
        loop = int(stamp[len(source.stamp_prefix):])
        earlier = int(index) - len(source.keys_for(loop))
        if earlier >= 0 and key not in exclude:
            rounds[key] = source.value_for(loop, key.decode(), earlier)
    assert rounds, "no acked key was overwritten; resize the storm"
    key = sorted(rounds)[0]
    return key, rounds[key]


def _stale_read(read, key, older):
    def tampered(wanted, *args, **kwargs):
        if wanted == key:
            return older
        return read(wanted, *args, **kwargs)
    return tampered


@pytest.mark.parametrize("kwargs", [
    dict(connections=40, puts_per_conn=5, pool_slots=96, stalls=2, seed=3),
    dict(transport="homa", connections=60, puts_per_conn=6, pool_slots=128,
         seed=5),
], ids=["tcp", "homa"])
def test_overload_storm_flags_an_older_value(kwargs):
    storm = OverloadStorm(**kwargs)
    assert storm.run().ok, storm.report.summary()
    key, older = _older_value(storm.source, storm.ledger)
    engine = storm.testbed.engine
    engine.get = _stale_read(engine.get, key, older)
    storm.report = ChaosReport()
    storm._check_oracles()
    assert [kind for kind, _ in storm.report.violations] == ["durability"]
    assert repr(key) in storm.report.violations[0][1]


def test_host_kill_storm_flags_an_older_value():
    storm = HostKillStorm(hosts=3, loops=6, puts_per_loop=4, value_size=600,
                          seed=3)
    assert storm.run().ok, storm.report.summary()
    key, older = _older_value(storm.source, storm.ledger,
                              exclude=storm._victim_keys)
    cluster = storm.cluster
    cluster.read_value = _stale_read(cluster.read_value, key, older)
    storm.report = ClusterChaosReport()
    storm._finalize()
    storm._check_oracles()
    assert [kind for kind, _ in storm.report.violations] == ["durability"]
    assert repr(key) in storm.report.violations[0][1]
