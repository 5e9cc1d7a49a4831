"""TrafficSource protocol conformance across every implementation.

One contract (repro.bench.workloads.TrafficSource) drives wrk, the
chaos storms' burst phases, and capture replay: ``next_op(loop_id)``
yields ``(method, key_string, value_bytes_or_None)`` or ``None``, and
equal construction arguments yield byte-identical streams.
"""

import pytest

from repro.bench.openloop import OpenLoopSource
from repro.bench.testbed import make_testbed
from repro.bench.workloads import (
    ListSource,
    StormBurstSource,
    TrafficSource,
    UniformSource,
    YcsbWorkload,
)
from repro.bench.wrk import WrkClient
from repro.capture.replay import CaptureSource
from repro.storage.server import ServerConfig

METHODS = {"GET", "PUT", "DELETE"}


def drain(source, loop_id=0, limit=50):
    ops = []
    for _ in range(limit):
        op = source.next_op(loop_id)
        if op is None:
            break
        ops.append(op)
    return ops


_CAPTURE = []


def recorded_capture():
    if not _CAPTURE:
        testbed = make_testbed(config=ServerConfig(capture=True))
        wrk = WrkClient(testbed.client, testbed.server.ip, connections=2,
                        value_size=256, duration_ns=400_000.0,
                        warmup_ns=100_000.0)
        stats = wrk.run()
        assert stats.completed > 0
        _CAPTURE.append(testbed.capture.capture())
    return _CAPTURE[0]


SOURCES = {
    "UniformSource": lambda: UniformSource(key_space=10, value_size=64),
    "ListSource": lambda: ListSource([("PUT", "k", b"v"), ("GET", "k", None)]),
    "StormBurstSource": lambda: StormBurstSource(
        loops=2, puts_per_loop=5, keys_per_loop=2, value_size=64),
    "YcsbWorkload": lambda: YcsbWorkload(
        mix="A", key_space=10, value_size=64, seed=7),
    "CaptureSource": lambda: CaptureSource(recorded_capture()),
    "OpenLoopSource": lambda: OpenLoopSource(
        10_000.0, key_space=10, value_size=64, read_fraction=0.5, seed=7),
}


class TestProtocolConformance:
    @pytest.mark.parametrize("factory", SOURCES.values(), ids=SOURCES)
    def test_ops_have_protocol_shape(self, factory):
        source = factory()
        assert isinstance(source, TrafficSource)
        ops = drain(source)
        assert ops, type(source).__name__
        for method, key, value in ops:
            assert method in METHODS
            assert isinstance(key, str) and key
            if method == "GET":
                assert value is None
            else:
                assert isinstance(value, bytes)

    @pytest.mark.parametrize("factory", SOURCES.values(), ids=SOURCES)
    def test_describe_is_json_shaped(self, factory):
        import json

        description = factory().describe()
        assert "source" in description
        json.dumps(description)

    def test_base_protocol_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TrafficSource().next_op()
        assert TrafficSource().describe() == {"source": "TrafficSource"}


class TestDeterminism:
    def test_uniform_streams_are_identical(self):
        first = UniformSource(key_space=10, value_size=64)
        second = UniformSource(key_space=10, value_size=64)
        assert drain(first) == drain(second)

    def test_ycsb_streams_are_seeded(self):
        assert drain(YcsbWorkload(seed=3)) == drain(YcsbWorkload(seed=3))
        assert drain(YcsbWorkload(seed=3)) != drain(YcsbWorkload(seed=4))

    def test_openloop_op_stream_is_seeded(self):
        make = lambda s: OpenLoopSource(  # noqa: E731
            10_000.0, key_space=10, read_fraction=0.5, seed=s)
        assert drain(make(3)) == drain(make(3))
        assert drain(make(3)) != drain(make(4))

    def test_storm_burst_values_attribute_their_writer(self):
        source = StormBurstSource(loops=2, puts_per_loop=4, keys_per_loop=2,
                                  value_size=64, stamp_prefix="c")
        _method, key, value = source.next_op(1)
        assert value.startswith(f"c1:{key}:0:".encode())


class TestFiniteSources:
    def test_storm_burst_exhausts_then_extends(self):
        source = StormBurstSource(loops=1, puts_per_loop=3, keys_per_loop=2,
                                  value_size=32)
        assert len(drain(source)) == 3
        assert source.next_op(0) is None
        source.extend(0, 2)
        assert len(drain(source)) == 2

    def test_uniform_is_open_ended(self):
        source = UniformSource(key_space=3)
        assert len(drain(source, limit=50)) == 50

    def test_capture_source_exhausts_per_loop(self):
        source = CaptureSource(recorded_capture())
        total = sum(len(drain(source, loop_id=i, limit=10_000))
                    for i in range(source.loops))
        assert total == source.total_ops
        for loop_id in range(source.loops):
            assert source.next_op(loop_id) is None


class TestYcsbMixes:
    def test_mix_w_is_all_writes_and_c_all_reads(self):
        writes = drain(YcsbWorkload(mix="W", key_space=10), limit=40)
        assert all(method == "PUT" for method, _k, _v in writes)
        reads = drain(YcsbWorkload(mix="C", key_space=10), limit=40)
        assert all(method == "GET" for method, _k, _v in reads)

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown mix"):
            YcsbWorkload(mix="Z")
