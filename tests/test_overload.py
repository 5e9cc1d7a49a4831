"""Overload resilience: containment, backpressure, degradation.

Covers the serving-path failure contract (docs/RESILIENCE.md): pressure
watermarks on the pools and the PM arena, the overload controller's
admission/reclaim/degrade decisions, per-request error containment with
the 400/503/507 status mapping, bounded send queues, the hardened
parsers, the namespace's torn-directory rollback, and the chaos storm
(positive and negative).
"""

import pytest

from repro.bench.costmodel import CostModel
from repro.bench.testbed import make_testbed
from repro.cluster.topology import ClusterConfig, build_cluster
from repro.core.overload import (
    OVERLOADED,
    STORAGE_FULL,
    OverloadController,
    status_for_failure,
)
from repro.core.pktstore import PacketStoreEngine
from repro.core.ppktbuf import SlabExhausted
from repro.net.fabric import Fabric
from repro.net.http import HttpError, HttpParser, build_request
from repro.net.pool import BufferPool, PoolExhausted
from repro.net.stack import Host
from repro.net.tcp import SendQueueFull
from repro.pm.alloc import AllocationError, PMAllocator
from repro.pm.device import DRAMDevice, PMDevice
from repro.pm.namespace import (
    DIR_SLOT_SIZE,
    NamespaceError,
    PMNamespace,
)
from repro.sim.context import NULL_CONTEXT
from repro.sim.engine import Simulator
from repro.storage.kvserver import KVServer, decode_scan_body, encode_scan_body
from repro.storage.server import ServerConfig
from repro.testing.chaos import run_overload_storm


# -- pressure watermarks ------------------------------------------------------


def make_pool(slots=10, slot_size=2048):
    size = slots * slot_size
    dev = DRAMDevice(size)
    return BufferPool(dev.region(0, size, "pool"), slot_size)


class TestPoolWatermarks:
    def test_hysteresis_and_listener(self):
        pool = make_pool(slots=10)
        events = []
        pool.add_pressure_listener(lambda src, on: events.append(on))

        bufs = [pool.alloc() for _ in range(8)]
        assert not pool.under_pressure  # 8/10 < 0.9
        bufs.append(pool.alloc())
        assert pool.under_pressure      # 9/10 >= 0.9
        assert events == [True]
        assert pool.pressure_events == 1

        # Dropping to 8/10 is above low_watermark: still pressured.
        bufs.pop().put()
        assert pool.under_pressure
        # Dropping below 0.7 clears it.
        bufs.pop().put()
        bufs.pop().put()
        assert not pool.under_pressure
        assert events == [True, False]
        for buf in bufs:
            buf.put()

    def test_exhaustion_counted(self):
        pool = make_pool(slots=2)
        bufs = [pool.alloc(), pool.alloc()]
        with pytest.raises(PoolExhausted):
            pool.alloc()
        assert pool.exhaustions == 1
        for buf in bufs:
            buf.put()

    def test_bad_watermarks_rejected(self):
        dev = DRAMDevice(1 << 14)
        with pytest.raises(ValueError):
            BufferPool(dev.region(0, 1 << 14, "p"), 2048,
                       high_watermark=0.5, low_watermark=0.8)


class TestArenaWatermarks:
    def test_allocator_pressure_cycle(self):
        dev = PMDevice(1 << 16)
        alloc = PMAllocator(dev.region(0, 1 << 16, "heap"))
        events = []
        alloc.add_pressure_listener(lambda src, on: events.append(on))

        offsets = []
        while not alloc.under_pressure:
            offsets.append(alloc.alloc(4096))
        assert events == [True]
        assert alloc.occupancy() >= alloc.high_watermark
        while offsets:
            alloc.free(offsets.pop())
        assert not alloc.under_pressure
        assert events == [True, False]

    def test_failure_counted(self):
        dev = PMDevice(1 << 14)
        alloc = PMAllocator(dev.region(0, 1 << 14, "heap"))
        with pytest.raises(AllocationError):
            alloc.alloc(1 << 20)
        assert alloc.allocation_failures == 1


# -- status contract + controller ---------------------------------------------


def test_status_for_failure_mapping():
    assert status_for_failure(SlabExhausted("full")) == STORAGE_FULL
    assert status_for_failure(AllocationError("full")) == STORAGE_FULL
    assert status_for_failure(PoolExhausted("empty")) == OVERLOADED
    assert status_for_failure(MemoryError("oom")) == OVERLOADED
    assert status_for_failure(ValueError("nope")) is None


class _FakeSource:
    """Minimal pressure-source: the protocol the controller needs."""

    def __init__(self):
        self.under_pressure = False
        self._listeners = []

    def add_pressure_listener(self, callback):
        self._listeners.append(callback)
        return callback

    def set(self, pressured):
        if pressured != self.under_pressure:
            self.under_pressure = pressured
            for listener in self._listeners:
                listener(self, pressured)


class TestOverloadController:
    def test_admit_sheds_under_pressure(self):
        source = _FakeSource()
        ctl = OverloadController()
        ctl.watch(source)
        assert ctl.admit()
        source.set(True)
        assert not ctl.admit()
        assert ctl.stats["shed"] == 1
        source.set(False)
        assert ctl.admit()

    def test_reclaim_can_avert_shedding(self):
        source = _FakeSource()
        ctl = OverloadController()
        ctl.watch(source)
        ctl.add_reclaimer(lambda ctx: (source.set(False), 3)[1])
        source.set(True)
        assert ctl.admit()          # reclaimed its way out
        assert ctl.stats["shed"] == 0
        assert ctl.stats["reclaimed"] == 3

    def test_watch_is_idempotent(self):
        source = _FakeSource()
        ctl = OverloadController()
        assert ctl.watch(source) is source
        ctl.watch(source)
        source.set(True)
        assert ctl.stats["pressure_transitions"] == 1

    def test_degrade_follows_pressure(self):
        source = _FakeSource()
        ctl = OverloadController()
        ctl.watch(source)
        assert not ctl.should_degrade_zero_copy()
        source.set(True)
        assert ctl.should_degrade_zero_copy()


# -- scan body hardening ------------------------------------------------------


class TestScanBodyDecoding:
    def test_roundtrip(self):
        pairs = [(b"k1", b"v1"), (b"k2", b"")]
        assert decode_scan_body(encode_scan_body(pairs)) == pairs

    def test_truncated_header_rejected(self):
        body = encode_scan_body([(b"key", b"value")])
        with pytest.raises(ValueError, match="pair header"):
            decode_scan_body(body + b"\x01\x00")

    def test_truncated_payload_rejected(self):
        body = encode_scan_body([(b"key", b"value")])
        with pytest.raises(ValueError, match="declares"):
            decode_scan_body(body[:-2])

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode_scan_body(b"\xff" * 5)


# -- parser hardening ---------------------------------------------------------


class TestParserHardening:
    def _feed(self, raw, is_response=False, parser=None):
        from repro.net.pktbuf import PktBuf
        from repro.net.tcp import RxSegment

        pool = make_pool(slots=4)
        pkt = PktBuf.alloc(pool, headroom=0)
        pkt.append(raw)
        parser = parser or HttpParser(is_response=is_response)
        return parser.feed(RxSegment(pkt, 0, len(raw)))

    def test_malformed_request_line(self):
        with pytest.raises(HttpError):
            self._feed(b"GARBAGE\r\n\r\n")

    def test_non_http_version_token(self):
        with pytest.raises(HttpError):
            self._feed(b"GET /k JUNK/1.1\r\n\r\n")

    def test_non_numeric_content_length(self):
        with pytest.raises(HttpError):
            self._feed(b"PUT /k HTTP/1.1\r\ncontent-length: ten\r\n\r\n")

    def test_absurd_content_length(self):
        with pytest.raises(HttpError, match="Content-Length"):
            self._feed(b"PUT /k HTTP/1.1\r\ncontent-length: 999999999999\r\n\r\n")

    def test_negative_content_length(self):
        with pytest.raises(HttpError):
            self._feed(b"PUT /k HTTP/1.1\r\ncontent-length: -5\r\n\r\n")

    def test_bad_response_status(self):
        with pytest.raises(HttpError):
            self._feed(b"HTTP/1.1 OK?? bad\r\n\r\n", is_response=True)

    def test_reset_clears_partial_state(self):
        parser = HttpParser()
        self._feed(b"PUT /k HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc",
                   parser=parser)
        parser.reset()
        # A fresh request parses cleanly: no leftover body expectation.
        messages = self._feed(b"GET /x HTTP/1.1\r\n\r\n", parser=parser)
        assert [m.method for m in messages] == ["GET"]


# -- network worlds -----------------------------------------------------------


def make_world(meta_bytes=8 << 20, pool_bytes=8 << 20, kv_kwargs=None):
    sim = Simulator()
    fabric = Fabric(sim)
    pm = PMDevice(64 << 20)
    ns = PMNamespace(pm)
    server = Host(sim, "srv", "10.0.0.1", fabric, CostModel.paste(),
                  rx_pool_region=ns.create("paste-pktbufs", pool_bytes))
    client = Host(sim, "cli", "10.0.0.2", fabric, CostModel.kernel())
    engine = PacketStoreEngine.build(server, ns, meta_bytes=meta_bytes)
    kv = KVServer(server, engine, port=80, **(kv_kwargs or {}))
    return sim, server, client, engine, kv


def run_requests(sim, client, requests):
    responses = []
    parser = HttpParser(is_response=True)
    done = {"count": 0}

    def start(ctx):
        sock = client.stack.connect("10.0.0.1", 80, ctx)

        def on_data(s, seg, c):
            for message in parser.feed(seg):
                responses.append((message.status, message.body))
                message.release()
                done["count"] += 1
                if done["count"] < len(requests):
                    s.send(requests[done["count"]], c)

        sock.on_data = on_data
        sock.on_established = lambda s, c: s.send(requests[0], c)

    client.process_on_core(client.cpus[0], start)
    sim.run_until_idle(max_events=2_000_000)
    return responses


def run_rpc(sim, client, ip, port, payload):
    """One Homa RPC carrying ``payload``; returns the reply statuses."""
    statuses = []
    parser = HttpParser(is_response=True)

    def on_reply(segments, ctx):
        for segment in segments:
            for message in parser.feed(segment):
                statuses.append(message.status)
                message.release()

    def start(ctx):
        client.enable_homa().send_request(ip, port, payload, ctx,
                                          on_reply=on_reply)

    client.process_on_core(client.cpus[0], start)
    sim.run_until_idle(max_events=2_000_000)
    return statuses


def front_end_world(front_end, contain_errors=True):
    """``(server host, front-end, send)`` for one KV front-end, where
    ``send(raw)`` delivers one raw request and returns the statuses."""
    if front_end == "tcp":
        sim, server, client, _engine, kv = make_world(
            kv_kwargs={"contain_errors": contain_errors})
        return server, kv, lambda raw: [
            status for status, _ in run_requests(sim, client, [raw])]
    if front_end == "homa":
        bed = make_testbed(ServerConfig(transport="homa", engine="pktstore",
                                        contain_errors=contain_errors))
        sim, client, server, kv = bed.sim, bed.client, bed.server, bed.kv
    else:
        cluster = build_cluster(ClusterConfig(
            hosts=2, contain_errors=contain_errors))
        node = cluster.nodes["s0"]
        sim, client, server, kv = cluster.sim, cluster.client, node.host, node.kv
    return server, kv, lambda raw: run_rpc(sim, client, server.ip, kv.port, raw)


# -- error containment over the wire ------------------------------------------


class _ExplodingEngine:
    """Engine whose put always hits packet-memory exhaustion."""

    def __init__(self, exc):
        self.exc = exc

    def put(self, key, message, ctx):
        raise self.exc

    def get(self, key, ctx):
        return None


class TestErrorContainment:
    def test_pool_exhausted_mid_put_answers_503_leak_free(self):
        sim, server, client, engine, kv = make_world()
        kv.engine = _ExplodingEngine(PoolExhausted("rx pool empty"))
        responses = run_requests(sim, client, [
            build_request("PUT", "/k", b"x" * 3000),
            build_request("GET", "/k"),
        ])
        assert responses[0][0] == 503
        assert responses[1][0] == 404          # server still serving
        assert kv.stats["contained_errors"] == 1
        # Leak-free: the failed PUT's rx buffers all went back.
        assert server.rx_pool.in_use == 0
        assert server.tx_pool.in_use == 0

    def test_slab_exhausted_answers_507_and_recovers(self):
        # A metadata slab with ~24 records: distinct-key puts exhaust it.
        sim, server, client, engine, kv = make_world(meta_bytes=24 * 256)
        requests = [build_request("PUT", f"/k{i}", b"v" * 32)
                    for i in range(30)]
        requests.append(build_request("GET", "/k0"))
        responses = run_requests(sim, client, requests)
        statuses = [status for status, _ in responses]
        assert 507 in statuses                 # storage filled up
        assert statuses[-1] == 200             # and the server survived
        first_507 = statuses.index(507)
        assert all(status == 200 for status in statuses[:first_507])
        assert kv.stats["contained_errors"] == statuses.count(507)

    def test_containment_disabled_lets_failures_escape(self):
        sim, server, client, engine, kv = make_world(
            kv_kwargs={"contain_errors": False})
        kv.engine = _ExplodingEngine(PoolExhausted("rx pool empty"))
        with pytest.raises(PoolExhausted):
            run_requests(sim, client, [build_request("PUT", "/k", b"x")])

    @pytest.mark.parametrize("front_end", ["tcp", "homa", "cluster"])
    def test_malformed_request_line_answers_400(self, front_end):
        server, kv, send = front_end_world(front_end)
        baseline = server.rx_pool.in_use
        assert send(b"NOT AN HTTP LINE\r\n\r\n") == [400]
        assert kv.stats["parse_errors"] == 1
        assert server.rx_pool.in_use == baseline

    @pytest.mark.parametrize("front_end", ["homa", "cluster"])
    def test_malformed_rpc_releases_its_parsed_requests(self, front_end):
        # An RPC is answered whole: requests parsed from its earlier
        # frames are dropped, not applied, when a later frame is garbage.
        server, kv, send = front_end_world(front_end)
        baseline = server.rx_pool.in_use
        raw = b"".join(build_request("PUT", f"/k{i}", b"v" * 100)
                       for i in range(20))
        assert send(raw + b"NOT AN HTTP LINE\r\n\r\n") == [400]
        assert kv.stats["puts"] == 0
        assert server.rx_pool.in_use == baseline

    @pytest.mark.parametrize("front_end", ["tcp", "homa", "cluster"])
    def test_malformed_request_escapes_without_containment(self, front_end):
        _server, _kv, send = front_end_world(front_end, contain_errors=False)
        with pytest.raises(HttpError):
            send(b"NOT AN HTTP LINE\r\n\r\n")

    def test_unknown_method_answers_400(self):
        sim, server, client, engine, kv = make_world()
        responses = run_requests(sim, client, [
            b"PATCH /k HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        ])
        assert responses[0][0] in (400, 404)
        assert server.rx_pool.in_use == 0


# -- admission + degradation over the wire ------------------------------------


class TestAdmissionAndDegrade:
    def test_pressured_server_sheds_with_503(self):
        source = _FakeSource()
        ctl = OverloadController()
        sim, server, client, engine, kv = make_world(
            kv_kwargs={"overload": ctl})
        ctl.watch(source)
        source.set(True)
        responses = run_requests(sim, client, [
            build_request("PUT", "/k", b"v"),
            build_request("GET", "/k"),
        ])
        assert responses[0][0] == 503           # PUT shed
        assert responses[1][0] == 404           # GET admitted (read path)
        assert kv.stats["shed"] == 1

    def test_zero_copy_get_degrades_to_copy_under_pressure(self):
        source = _FakeSource()
        ctl = OverloadController()
        sim, server, client, engine, kv = make_world(
            kv_kwargs={"overload": ctl, "zero_copy_get": True})
        ctl.watch(source)
        value = bytes(i % 256 for i in range(1024))
        responses = run_requests(sim, client, [
            build_request("PUT", "/obj", value),
            build_request("GET", "/obj"),
        ])
        assert responses[1] == (200, value)
        assert kv.stats["zero_copy_gets"] == 1

        source.set(True)                        # now pressured
        responses = run_requests(sim, client, [build_request("GET", "/obj")])
        assert responses[0] == (200, value)     # same bytes, copy path
        assert kv.stats["zero_copy_gets"] == 1  # unchanged
        assert kv.stats["degraded_gets"] == 1

        source.set(False)                       # pressure clears
        responses = run_requests(sim, client, [build_request("GET", "/obj")])
        assert responses[0] == (200, value)
        assert kv.stats["zero_copy_gets"] == 2  # zero-copy again


# -- bounded send queues ------------------------------------------------------


class TestSendQueueBound:
    def test_oversized_send_rejected_before_queueing(self):
        sim, server, client, engine, kv = make_world()
        client.stack.send_queue_limit = 4096
        outcome = {}

        def start(ctx):
            sock = client.stack.connect("10.0.0.1", 80, ctx)

            def on_established(s, c):
                try:
                    s.send(b"x" * 65536, c)
                except SendQueueFull as exc:
                    outcome["error"] = exc
                    s.abort(c)

            sock.on_established = on_established

        client.process_on_core(client.cpus[0], start)
        sim.run_until_idle(max_events=2_000_000)
        assert isinstance(outcome["error"], SendQueueFull)
        # The rejected send took no references and the abort leaked none.
        assert client.tx_pool.in_use == 0
        assert server.rx_pool.in_use == 0


# -- namespace torn-directory rollback ----------------------------------------


class TestNamespaceDirectoryCrashSafety:
    def _corrupt_slot(self, device, slot):
        offset = slot * DIR_SLOT_SIZE + 16
        device.write(offset, b"\xde\xad\xbe\xef")
        device.persist(offset, 4, NULL_CONTEXT)

    def test_torn_latest_slot_rolls_back_to_previous_directory(self):
        dev = PMDevice(1 << 20)
        ns = PMNamespace(dev)          # seq 1 -> slot 1
        ns.create("a", 4096)           # seq 2 -> slot 0
        ns.create("b", 4096)           # seq 3 -> slot 1
        self._corrupt_slot(dev, 1)     # tear the newest directory write
        reopened = PMNamespace.reopen(dev)
        assert reopened.names() == ["a"]   # rolled back, not garbage

    def test_both_slots_torn_is_detected(self):
        dev = PMDevice(1 << 20)
        ns = PMNamespace(dev)
        ns.create("a", 4096)
        self._corrupt_slot(dev, 0)
        self._corrupt_slot(dev, 1)
        with pytest.raises(NamespaceError, match="checksum"):
            PMNamespace.reopen(dev)

    def test_next_create_after_rollback_is_consistent(self):
        dev = PMDevice(1 << 20)
        ns = PMNamespace(dev)
        ns.create("a", 4096)
        ns.create("b", 4096)
        self._corrupt_slot(dev, 1)
        reopened = PMNamespace.reopen(dev)
        region = reopened.create("c", 4096)
        assert reopened.names() == ["a", "c"]
        # The rolled-back directory's next_base still covers "b"'s
        # extent, so "c" must not overlap "a".
        base_a, size_a = reopened._entries["a"]
        assert region.base >= base_a + size_a


# -- the chaos storm ----------------------------------------------------------


class TestChaosStorm:
    def test_contained_storm_upholds_contract(self):
        report = run_overload_storm(
            connections=40, puts_per_conn=5, keys_per_conn=2,
            pool_slots=96, stalls=2, seed=3,
        )
        assert report.crashed is None
        assert report.ok, report.summary()
        assert report.responses.get(503, 0) > 0     # overload was real
        assert report.acked_puts > 0                # and progress happened

    def test_uncontained_storm_reports_violations(self):
        report = run_overload_storm(
            connections=40, puts_per_conn=5, keys_per_conn=2,
            pool_slots=96, stalls=2, seed=3, contain=False,
        )
        assert not report.ok
        kinds = {kind for kind, _ in report.violations}
        assert kinds & {"crash", "liveness:probe", "liveness:stalled",
                        "leak:server-rx", "durability"}

    def test_homa_storm_upholds_contract(self):
        # The ROADMAP open item: chaos coverage beyond tcp x 1 core.
        # Homa's storm leans on sender-timeout retransmission and
        # duplicate suppression to stay live through wire loss.
        report = run_overload_storm(
            transport="homa", connections=60, puts_per_conn=6,
            pool_slots=128, seed=5,
        )
        assert report.crashed is None
        assert report.ok, report.summary()
        assert report.responses.get(503, 0) > 0     # overload was real
        assert report.acked_puts > 0

    def test_multicore_storm_upholds_contract(self):
        report = run_overload_storm(
            cores=4, connections=40, puts_per_conn=5, keys_per_conn=2,
            pool_slots=96, stalls=2, seed=7,
        )
        assert report.crashed is None
        assert report.ok, report.summary()
        assert report.acked_puts > 0

    def test_homa_multicore_storm_upholds_contract(self):
        # The acceptance-criteria pairing: homa transport x 4 cores,
        # oracles reading the recorder's gauges.
        report = run_overload_storm(
            transport="homa", cores=4, connections=60, puts_per_conn=6,
            pool_slots=128, seed=9,
        )
        assert report.crashed is None
        assert report.ok, report.summary()
        assert report.responses.get(503, 0) > 0
        assert report.acked_puts > 0
