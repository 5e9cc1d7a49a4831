"""Tests for the Homa-like receiver-driven transport (§5.2)."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.costmodel import CostModel
from repro.bench.testbed import make_testbed
from repro.bench.wrk import HomaWrkClient
from repro.net.fabric import Fabric, LinkFaults
from repro.net.headers import ETH_HEADER_LEN, IPV4_HEADER_LEN, ip_to_int
from repro.net.homa import DATA, GRANT_WINDOW, MAX_RESENDS, RTT_BYTES
from repro.net.nic import NicFeatures, l4_csum_info
from repro.net.stack import Host
from repro.sim.engine import Simulator
from repro.storage.server import ServerConfig


def make_pair(faults=None, client_features=None, server_features=None):
    sim = Simulator()
    fabric = Fabric(sim, faults=faults)
    server = Host(sim, "srv", "10.0.0.1", fabric, CostModel.paste(), cores=1,
                  nic_features=server_features)
    client = Host(sim, "cli", "10.0.0.2", fabric, CostModel.kernel(), cores=2,
                  nic_features=client_features)
    server.enable_homa()
    client.enable_homa()
    return sim, server, client


def rpc_roundtrip(payload, reply_payload=b"pong", faults=None, **features):
    sim, server, client = make_pair(faults=faults, **features)
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


class OneFrameFlip:
    """Fabric faults that flip one bit of one header byte of one frame.

    ``field`` names the byte: the ethertype, the IPv4 version nibble,
    the IPv4 protocol, or the L4 checksum field (wherever the frame's
    protocol keeps it).  Every other frame passes untouched.
    """

    def __init__(self, field, nth):
        self.field = field
        self.nth = nth
        self.seen = 0
        self.flipped = None

    def plan(self, frame):
        self.seen += 1
        if self.seen - 1 != self.nth:
            return [(0.0, frame)]
        offset, bit = {
            "ethertype": (ETH_HEADER_LEN - 1, 0x01),
            "ip_version": (ETH_HEADER_LEN, 0x80),
            "ip_proto": (ETH_HEADER_LEN + 9, 0x01),
            "l4_csum": (l4_csum_info(frame)[0], 0x01),
        }[self.field]
        flipped = bytearray(frame)
        flipped[offset] ^= bit
        self.flipped = bytes(flipped)
        return [(0.0, self.flipped)]


def tcp_transfer(payload, faults):
    """``payload`` client->server over TCP; returns the delivered bytes."""
    sim, server, client = make_pair(faults=faults)
    received = bytearray()

    def on_accept(sock, ctx):
        sock.on_data = lambda s, segment, c: received.extend(segment.bytes())

    server.stack.listen(7000, on_accept)

    def start(ctx):
        sock = client.stack.connect("10.0.0.1", 7000, ctx)
        sock.on_established = lambda s, c: s.send(payload, c)

    client.process_on_core(client.cpus[0], start)
    sim.run_until_idle(max_events=2_000_000)
    return bytes(received)


class TestHeaderFlips:
    @pytest.mark.parametrize("field",
                             ["ethertype", "ip_version", "ip_proto", "l4_csum"])
    @pytest.mark.parametrize("transport", ["tcp", "homa"])
    def test_one_flipped_header_bit_is_dropped_and_recovered(self, transport,
                                                             field):
        payload = bytes(i % 251 for i in range(5000))
        faults = OneFrameFlip(field, nth=1)
        if transport == "tcp":
            assert tcp_transfer(payload, faults) == payload
        else:
            got, _, _ = rpc_roundtrip(payload, faults=faults)
            assert got == {"request": payload, "reply": b"pong"}
        assert faults.flipped is not None


class DropReplyTail:
    """Fabric faults that drop every DATA frame from ``src`` past offset 0.

    The first packet of each message from ``src`` arrives; no later
    one ever does, retransmissions included.
    """

    def __init__(self, src):
        self.src = ip_to_int(src)
        self.dropped = 0

    def plan(self, frame):
        l4 = ETH_HEADER_LEN + IPV4_HEADER_LEN
        src = int.from_bytes(frame[ETH_HEADER_LEN + 12:ETH_HEADER_LEN + 16], "big")
        offset = int.from_bytes(frame[l4 + 16:l4 + 20], "big")
        if src == self.src and frame[l4] == DATA and offset > 0:
            self.dropped += 1
            return []
        return [(0.0, frame)]


class TestPartialReply:
    def test_a_reply_stuck_past_every_resend_fails_its_waiter(self):
        """The client drops the partial reply after MAX_RESENDS and must
        then call ``on_giveup``; it used to call neither callback."""
        faults = DropReplyTail("10.0.0.1")
        sim, server, client = make_pair(faults=faults)
        server.homa.listen(7000, lambda rpc, segs, ctx: rpc.reply(bytes(5000), ctx))
        outcome = []

        def fire(ctx):
            client.homa.send_request(
                "10.0.0.1", 7000, b"get", ctx,
                on_reply=lambda segs, c: outcome.append(b"".join(
                    seg.bytes() for seg in segs)),
                on_giveup=outcome.append,
            )

        client.process_on_core(client.cpus[0], fire)
        sim.run_until_idle(max_events=2_000_000)
        assert faults.dropped > MAX_RESENDS
        assert len(outcome) == 1 and isinstance(outcome[0], int)
        assert client.homa.stats["send_give_ups"] == 1
        assert not client.homa._reply_waiters
        assert not client.homa._giveup_waiters
        assert not client.homa._waiter_dst
        assert not client.homa._in


class TestSoftwareChecksumPath:
    def test_rpc_without_offloads(self):
        features = NicFeatures(tx_csum_offload=False, rx_csum_offload=False,
                               hw_timestamps=False)
        got, server, _ = rpc_roundtrip(b"software csum", client_features=features,
                                       server_features=features)
        assert got == {"request": b"software csum", "reply": b"pong"}
        # The software path must have charged checksum CPU time.
        assert server.accounting.category("net.csum") > 0

    def test_client_without_tx_offload_writes_valid_checksums(self):
        payload = bytes(i % 256 for i in range(40_000))
        got, server, _ = rpc_roundtrip(
            payload, client_features=NicFeatures(tx_csum_offload=False))
        assert got == {"request": payload, "reply": b"pong"}
        assert server.homa.stats["bad_csum"] == 0

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_server_without_rx_offload_drops_corrupted_frames(self, seed):
        payload = bytes(i % 256 for i in range(30_000))
        faults = LinkFaults(random.Random(seed), corrupt=0.03)
        got, server, _ = rpc_roundtrip(
            payload, faults=faults,
            server_features=NicFeatures(rx_csum_offload=False))
        assert got == {"request": payload, "reply": b"pong"}


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    loss=st.floats(0.0, 0.2),
    reorder=st.floats(0.0, 0.3),
    duplicate=st.floats(0.0, 0.15),
    corrupt=st.floats(0.0, 0.08),
    size=st.integers(1, 20_000),
    rx_offload=st.booleans(),
)
@example(seed=1, loss=0.0, reorder=0.0, duplicate=0.0, corrupt=0.05,
         size=20_000, rx_offload=False)
@example(seed=0, loss=0.0625, reorder=0.03125, duplicate=0.0, corrupt=0.0625,
         size=18_713, rx_offload=True)  # a lost GRANT stalls the reply
@example(seed=43, loss=0.1875, reorder=0.0, duplicate=0.0625, corrupt=0.0,
         size=12_905, rx_offload=False)  # a RESEND crosses a grant cut
def test_property_rpc_delivers_exactly_or_gives_up_cleanly(
    seed, loss, reorder, duplicate, corrupt, size, rx_offload
):
    """Whatever the link does, an RPC delivers the exact message or gives up."""
    payload = bytes((i * 13 + seed) % 256 for i in range(size))
    faults = LinkFaults(random.Random(seed), loss=loss, reorder=reorder,
                        duplicate=duplicate, corrupt=corrupt)
    features = NicFeatures(rx_csum_offload=rx_offload)
    sim, server, client = make_pair(faults=faults, client_features=features,
                                    server_features=features)
    requests, outcome = [], []

    def handler(rpc, segments, ctx):
        requests.append(b"".join(seg.bytes() for seg in segments))
        rpc.reply(payload[::-1], ctx)

    server.homa.listen(7000, handler)

    def fire(ctx):
        client.homa.send_request(
            "10.0.0.1", 7000, payload, ctx,
            on_reply=lambda segs, c: outcome.append(
                b"".join(seg.bytes() for seg in segs)),
            on_giveup=lambda rpc_id: outcome.append(None),
        )

    client.process_on_core(client.cpus[0], fire)
    sim.run_until_idle(max_events=2_000_000)
    assert requests in ([], [payload])
    assert outcome in ([payload[::-1]], [None])
    if outcome == [None]:
        assert not client.homa._out


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
