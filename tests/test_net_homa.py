"""Tests for the Homa-like receiver-driven transport (§5.2)."""

import random

import pytest

from repro.bench.costmodel import CostModel
from repro.bench.testbed import make_testbed
from repro.bench.wrk import HomaWrkClient
from repro.net.fabric import Fabric, LinkFaults
from repro.net.homa import GRANT_WINDOW, RTT_BYTES
from repro.net.stack import Host
from repro.sim.engine import Simulator
from repro.storage.server import ServerConfig


def make_pair(faults=None):
    sim = Simulator()
    fabric = Fabric(sim, faults=faults)
    server = Host(sim, "srv", "10.0.0.1", fabric, CostModel.paste(), cores=1)
    client = Host(sim, "cli", "10.0.0.2", fabric, CostModel.kernel(), cores=2)
    server.enable_homa()
    client.enable_homa()
    return sim, server, client


def rpc_roundtrip(payload, reply_payload=b"pong", faults=None):
    sim, server, client = make_pair(faults=faults)
    got = {}

    def handler(rpc, segments, ctx):
        got["request"] = b"".join(seg.bytes() for seg in segments)
        rpc.reply(reply_payload, ctx)

    server.homa.listen(7000, handler)

    def fire(ctx):
        client.homa.send_request(
            "10.0.0.1", 7000, payload, ctx,
            on_reply=lambda segs, c: got.update(
                reply=b"".join(seg.bytes() for seg in segs)
            ),
        )

    client.process_on_core(client.cpus[0], fire)
    sim.run_until_idle(max_events=2_000_000)
    return got, server, client


class TestRpc:
    def test_small_rpc_roundtrip(self):
        got, _, _ = rpc_roundtrip(b"ping")
        assert got["request"] == b"ping"
        assert got["reply"] == b"pong"

    def test_multi_packet_message(self):
        payload = bytes(i % 256 for i in range(5000))  # 4 packets
        got, _, _ = rpc_roundtrip(payload)
        assert got["request"] == payload

    def test_message_larger_than_unscheduled_window_needs_grants(self):
        payload = bytes(i % 251 for i in range(RTT_BYTES + 3 * GRANT_WINDOW))
        got, server, _ = rpc_roundtrip(payload)
        assert got["request"] == payload
        assert server.homa.stats["grants"] > 0

    def test_small_message_needs_no_grants(self):
        _, server, _ = rpc_roundtrip(b"x" * 100)
        assert server.homa.stats["grants"] == 0

    def test_concurrent_rpcs_with_distinct_ids(self):
        sim, server, client = make_pair()
        replies = {}

        def handler(rpc, segments, ctx):
            rpc.reply(b"".join(s.bytes() for s in segments).upper(), ctx)

        server.homa.listen(7000, handler)

        def fire(ctx):
            for i in range(5):
                client.homa.send_request(
                    "10.0.0.1", 7000, f"msg-{i}".encode(), ctx,
                    on_reply=lambda segs, c, i=i: replies.update(
                        {i: b"".join(s.bytes() for s in segs)}
                    ),
                )

        client.process_on_core(client.cpus[0], fire)
        sim.run_until_idle()
        assert replies == {i: f"MSG-{i}".upper().encode() for i in range(5)}

    def test_ephemeral_ports_wrap_after_65535(self):
        sim, server, client = make_pair()
        ports, replies = [], {}

        def handler(rpc, segments, ctx):
            ports.append(rpc.peer_port)
            rpc.reply(b"".join(s.bytes() for s in segments), ctx)

        server.homa.listen(7000, handler)
        client.homa._ephemeral = 65_535

        def fire(ctx):
            for i in range(2):
                client.homa.send_request(
                    "10.0.0.1", 7000, f"late-{i}".encode(), ctx,
                    on_reply=lambda segs, c, i=i: replies.update(
                        {i: b"".join(s.bytes() for s in segs)}
                    ),
                )

        client.process_on_core(client.cpus[0], fire)
        sim.run_until_idle()
        assert replies == {0: b"late-0", 1: b"late-1"}
        assert sorted(ports) == [52_001, 52_002]

    def test_sender_clones_released_after_ack(self):
        sim, server, client = make_pair()
        server.homa.listen(7000, lambda rpc, segs, ctx: rpc.reply(b"ok", ctx))
        baseline = client.tx_pool.in_use

        def fire(ctx):
            client.homa.send_request("10.0.0.1", 7000, b"x" * 4000, ctx,
                                     on_reply=lambda s, c: None)

        client.process_on_core(client.cpus[0], fire)
        sim.run_until_idle()
        # Message ACKed: every retained clone's buffer returned.
        assert client.tx_pool.in_use == baseline
        assert not client.homa._out


class TestFaultRecovery:
    def test_loss_recovered_by_resend(self):
        payload = bytes(i % 256 for i in range(40_000))  # ~28 data packets
        faults = LinkFaults(random.Random(3), loss=0.25)
        got, server, client = rpc_roundtrip(payload, faults=faults)
        assert got["request"] == payload
        assert faults.dropped > 0
        total_resends = (server.homa.stats["resends"] +
                         client.homa.stats["resends"])
        assert total_resends > 0

    def test_corruption_dropped_by_offloaded_checksum(self):
        payload = bytes(i % 256 for i in range(30_000))  # ~21 data packets
        faults = LinkFaults(random.Random(5), corrupt=0.3)
        got, server, client = rpc_roundtrip(payload, faults=faults)
        assert got["request"] == payload
        bad = (server.nic.stats["rx_bad_csum"] + client.nic.stats["rx_bad_csum"])
        assert bad > 0

    def test_duplicates_ignored(self):
        payload = bytes(i % 256 for i in range(6_000))
        faults = LinkFaults(random.Random(7), duplicate=0.3)
        got, _, _ = rpc_roundtrip(payload, faults=faults)
        assert got["request"] == payload


class TestHomaKV:
    @pytest.mark.parametrize("engine", ["novelsm", "pktstore"])
    def test_kv_workload_over_homa(self, engine):
        testbed = make_testbed(ServerConfig(engine=engine, transport="homa"))
        wrk = HomaWrkClient(testbed.client, "10.0.0.1", connections=2,
                            duration_ns=800_000, warmup_ns=200_000)
        stats = wrk.run()
        assert stats.errors == 0
        assert stats.completed > 10
        assert testbed.kv.stats["puts"] == stats.completed

    def test_homa_networking_faster_than_tcp(self):
        """§5.2's premise: the new transport shrinks networking RTT."""
        tcp = make_testbed(ServerConfig(engine="null"))
        from repro.bench.wrk import WrkClient

        tcp_rtt = WrkClient(tcp.client, "10.0.0.1", connections=1,
                            duration_ns=800_000, warmup_ns=200_000).run().avg_rtt_us
        homa = make_testbed(ServerConfig(engine="null", transport="homa"))
        homa_rtt = HomaWrkClient(homa.client, "10.0.0.1", connections=1,
                                 duration_ns=800_000, warmup_ns=200_000).run().avg_rtt_us
        assert homa_rtt < tcp_rtt

    def test_pktstore_over_homa_keeps_nic_metadata(self):
        """Zero-copy adoption works identically on Homa segments."""
        testbed = make_testbed(ServerConfig(engine="pktstore", transport="homa"))
        wrk = HomaWrkClient(testbed.client, "10.0.0.1", connections=1,
                            duration_ns=600_000, warmup_ns=100_000)
        wrk.run()
        store = testbed.engine.store
        assert store.count > 0
        for record in store.versions():
            assert record.hw_tstamp > 0       # NIC timestamp rode along
            assert record.wire_csum != 0      # Homa checksum stored
        # Contents are readable and intact.
        sample = next(store.versions())
        assert store.get(sample.key) is not None

    def test_pktstore_over_homa_survives_crash(self):
        from repro.core.pktstore import PacketStore
        from repro.net.pool import BufferPool
        from repro.pm.namespace import PMNamespace

        testbed = make_testbed(ServerConfig(engine="pktstore", transport="homa"))
        wrk = HomaWrkClient(testbed.client, "10.0.0.1", connections=1,
                            duration_ns=600_000, warmup_ns=100_000)
        wrk.run()
        before = dict(testbed.engine.store.scan())
        testbed.pm_device.crash()
        ns = PMNamespace.reopen(testbed.pm_device)
        pool = BufferPool(ns.open("paste-pktbufs"), 2048)
        store, _report = PacketStore.recover(ns.open("pktstore-meta"), pool)
        assert dict(store.scan()) == before
