"""Capture -> standby rebuild and capture -> workload replay.

The tentpole guarantees, end to end:

- a warm standby rebuilt *from the capture alone* is equivalent to the
  live store (durability oracle clean, identical recovery digests) on
  both transports;
- replay is deterministic — the standby's delivered-frame echo matches
  the recorded inbound stream byte for byte, and two rebuilds agree;
- the oracle is a real check: a planted frame drop makes it fail;
- a capture replayed as a *workload* (CaptureSource through wrk)
  reproduces the original operation stream and final store.
"""

import random

import pytest

from repro.bench.testbed import make_testbed
from repro.bench.wrk import HomaWrkClient, WrkClient
from repro.capture.replay import (
    CaptureSource,
    extract_ops,
    plant_drop,
    rebuild_standby,
    store_digest,
    store_mapping,
    verify_rebuild,
)
from repro.net.fabric import LinkFaults
from repro.storage.server import ServerConfig


def record_session(config, value_size=512, connections=3,
                   duration_ns=600_000.0):
    """Run a short wrk session on a capture-enabled testbed."""
    testbed = make_testbed(config=config)
    client_cls = (HomaWrkClient if config.transport == "homa" else WrkClient)
    wrk = client_cls(
        testbed.client, testbed.server.ip, connections=connections,
        value_size=value_size, duration_ns=duration_ns,
        warmup_ns=duration_ns / 4,
    )
    wrk.start()
    testbed.sim.run_until_idle()
    assert wrk.stats.completed > 0
    return testbed, testbed.capture.capture()


class TestRebuildEquivalence:
    def test_tcp_novelsm_rebuild_matches_live(self):
        testbed, capture = record_session(
            ServerConfig(engine="novelsm", capture=True))
        standby = rebuild_standby(capture)
        report = verify_rebuild(testbed.engine, standby.engine)
        assert report.ok, report.summary()
        assert standby.digest() == store_digest(testbed.engine)

    def test_homa_pktstore_rebuild_matches_live(self):
        testbed, capture = record_session(
            ServerConfig(transport="homa", engine="pktstore", cores=2,
                         capture=True),
            value_size=2048)
        standby = rebuild_standby(capture)
        report = verify_rebuild(testbed.engine, standby.engine)
        assert report.ok, report.summary()

    def test_rebuild_needs_no_live_state(self, tmp_path):
        # Everything the standby needs rides in the file: config, world
        # sizing, addresses, frames.
        _testbed, capture = record_session(
            ServerConfig(engine="pktstore", capture=True))
        path = tmp_path / "session.rpcap"
        capture.save(path)
        from repro.capture.format import Capture
        standby = rebuild_standby(Capture.load(path))
        assert standby.injected == len(capture.filter(
            dst_ip=standby.host.ip).records)
        assert dict(standby.engine.scan())


class TestReplayDeterminism:
    def test_echo_matches_recorded_inbound_stream(self):
        # The determinism pin: what the standby's NIC delivered is
        # byte-for-byte (frames, order, timestamps) what was recorded.
        _testbed, capture = record_session(
            ServerConfig(engine="novelsm", capture=True))
        standby = rebuild_standby(capture)
        inbound = capture.filter(dst_ip=standby.host.ip)
        assert standby.echo.digest() == inbound.digest()

    def test_two_rebuilds_agree(self):
        _testbed, capture = record_session(
            ServerConfig(engine="pktstore", capture=True))
        first = rebuild_standby(capture)
        second = rebuild_standby(capture)
        assert first.digest() == second.digest()
        assert first.echo.digest() == second.echo.digest()

    def test_from_capture_meta_requires_recorded_config(self):
        with pytest.raises(ValueError, match="server_config"):
            ServerConfig.from_capture_meta({})


class TestPlantDrop:
    def test_oracle_catches_planted_frame_drop(self):
        # Negative control: remove the frame carrying a surviving
        # value and the rebuild MUST diverge, visibly.
        testbed, capture = record_session(
            ServerConfig(engine="novelsm", capture=True))
        damaged, key = plant_drop(capture, testbed.engine)
        assert len(damaged.records) < len(capture.records)
        standby = rebuild_standby(damaged)
        report = verify_rebuild(testbed.engine, standby.engine)
        assert not report.ok
        assert report.violations
        assert report.live_digest != report.rebuilt_digest
        # the damaged key itself must be among the flagged ones
        assert any(repr(key) in str(v) or str(key) in str(v)
                   for v in report.violations), (key, report.violations)


class TestVacuity:
    def test_rebuild_of_two_empty_stores_checks_nothing(self):
        class EmptyEngine:
            @staticmethod
            def scan():
                return iter(())

        report = verify_rebuild(EmptyEngine(), EmptyEngine())
        assert report.checked == 0
        assert not report.ok
        assert [kind for kind, _ in report.violations] == ["vacuous:no-keys"]


class TestCaptureAsWorkload:
    def test_replay_reproduces_ops_and_store(self):
        # Replay the capture as a live workload against a fresh server
        # (the "repeatable workload" half of the tentpole).  Re-capture
        # the replay and compare operation multisets; per-flow ordering
        # makes the final stores byte-identical too.
        testbed, capture = record_session(
            ServerConfig(engine="pktstore", capture=True))
        source = CaptureSource(capture)
        assert source.total_ops > 0

        config = ServerConfig.from_capture_meta(capture.meta).with_overrides(
            capture=True)
        replay_bed = make_testbed(config=config)
        wrk = WrkClient(replay_bed.client, replay_bed.server.ip,
                        connections=source.loops, duration_ns=1e15,
                        workload=source)
        wrk.start()
        replay_bed.sim.run_until_idle()
        assert wrk.stats.completed == source.total_ops

        original_ops = sorted(
            op[1:] for op in extract_ops(capture))
        replayed_ops = sorted(
            op[1:] for op in extract_ops(replay_bed.capture.capture()))
        assert replayed_ops == original_ops
        assert store_digest(replay_bed.engine) == store_digest(testbed.engine)

    def test_merged_replay_preserves_capture_order(self):
        _testbed, capture = record_session(
            ServerConfig(engine="novelsm", capture=True))
        per_flow = CaptureSource(capture)
        merged = CaptureSource(capture, per_flow=False)
        assert merged.loops == 1
        drained = []
        while (op := merged.next_op(0)) is not None:
            drained.append(op)
        assert len(drained) == per_flow.total_ops
        assert drained == [op[1:] for op in extract_ops(capture)]


class TestCorruptedCapture:
    @pytest.mark.parametrize("seed", [1, 3])
    def test_extraction_drops_frames_that_fail_their_checksum(self, seed):
        """Corrupted frames are recorded as delivered; the live server
        dropped them, so the extracted PUTs must too."""
        testbed = make_testbed(
            ServerConfig(capture=True),
            fabric_kwargs={"faults": LinkFaults(random.Random(seed),
                                                corrupt=0.05)})
        wrk = WrkClient(testbed.client, testbed.server.ip, connections=1,
                        value_size=256, key_space=50, duration_ns=3_000_000,
                        warmup_ns=0)
        wrk.start()
        testbed.sim.run_until_idle()
        assert testbed.fabric.faults.corrupted > 0
        extracted = {}
        for _loop, method, key, value in extract_ops(testbed.capture.capture()):
            if method == "PUT":
                extracted[key.encode()] = value
        assert extracted == store_mapping(testbed.engine)
