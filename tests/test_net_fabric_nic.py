"""Unit tests for the fabric (links, switch, faults) and NIC model."""

import random

import pytest

from repro.bench.costmodel import CostModel
from repro.net.fabric import Fabric, Link, LinkFaults
from repro.net.headers import IPv4Header, TCPHeader, ETH_HEADER_LEN, IPV4_HEADER_LEN
from repro.net import nic as nic_module
from repro.net.nic import Nic, NicFeatures, l4_csum_info
from repro.net.pktbuf import PktBuf
from repro.net.stack import Host
from repro.sim.engine import Simulator

from tests.tcp_reference import compute_tcp_checksum
from tests.test_tcp_transfer import (
    test_property_stream_integrity_under_arbitrary_faults as stream_property,
)


class TestLink:
    def test_serialization_time_scales_with_size(self):
        link = Link(bandwidth_gbps=25.0, propagation_ns=200.0)
        small = link.serialization_ns(100)
        large = link.serialization_ns(1500)
        assert large == pytest.approx(15 * small)
        # 1500B at 25 Gbps = 480 ns.
        assert large == pytest.approx(480.0)

    def test_back_to_back_frames_queue_on_the_link(self):
        link = Link(bandwidth_gbps=25.0, propagation_ns=0.0)
        first = link.transmit(now=0.0, nbytes=1500)
        second = link.transmit(now=0.0, nbytes=1500)
        assert second == pytest.approx(2 * first)

    def test_idle_link_starts_immediately(self):
        link = Link(bandwidth_gbps=25.0, propagation_ns=100.0)
        link.transmit(now=0.0, nbytes=1500)
        later = link.transmit(now=10_000.0, nbytes=1500)
        assert later == pytest.approx(10_000.0 + 480.0 + 100.0)


class TestFabric:
    def make(self, faults=None):
        sim = Simulator()
        fabric = Fabric(sim, faults=faults)
        server = Host(sim, "a", "10.0.0.1", fabric, CostModel.paste())
        client = Host(sim, "b", "10.0.0.2", fabric, CostModel.kernel())
        return sim, fabric, server, client

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        fabric = Fabric(sim)
        Host(sim, "a", "10.0.0.1", fabric, CostModel.paste())
        with pytest.raises(ValueError):
            Host(sim, "dup", "10.0.0.1", fabric, CostModel.paste())

    def test_frames_to_unknown_hosts_blackholed(self):
        sim, fabric, server, _client = self.make()
        fabric.transmit(server.nic, 0x0A0000FF, b"x" * 100)
        sim.run_until_idle()  # nothing delivered, nothing crashes
        assert fabric.frames == 1

    def test_one_way_latency_model(self):
        sim, fabric, _, _ = self.make()
        latency = fabric.one_way_latency_ns(1500)
        # two serialisations + two propagations + switch
        assert latency == pytest.approx(2 * 480.0 + 2 * 200.0 + 300.0)

    def test_fault_free_fabric_preserves_order(self):
        sim, fabric, server, client = self.make()
        arrivals = []
        client.nic.on_wire = lambda frame, csum=None: arrivals.append(frame)
        for i in range(10):
            fabric.transmit(server.nic, client.ip, bytes([i]) * 60)
        sim.run_until_idle()
        assert [a[0] for a in arrivals] == list(range(10))


class TestLinkFaults:
    def test_loss_rate_statistical(self):
        faults = LinkFaults(random.Random(1), loss=0.5)
        outcomes = [faults.plan(b"frame") for _ in range(400)]
        dropped = sum(1 for plan in outcomes if not plan)
        assert 120 < dropped < 280

    def test_corruption_flips_exactly_one_bit(self):
        faults = LinkFaults(random.Random(2), corrupt=1.0)
        frame = bytes(64)
        ((_, corrupted),) = faults.plan(frame)
        diff = [i for i in range(64) if corrupted[i] != frame[i]]
        assert len(diff) == 1
        xor = corrupted[diff[0]] ^ frame[diff[0]]
        assert bin(xor).count("1") == 1

    def test_duplicate_doubles_delivery(self):
        faults = LinkFaults(random.Random(3), duplicate=1.0)
        plan = faults.plan(b"frame")
        assert len(plan) == 2
        assert plan[0][1] == plan[1][1]

    def test_reorder_adds_delay(self):
        faults = LinkFaults(random.Random(4), reorder=1.0, reorder_delay_ns=1000.0)
        ((delay, _),) = faults.plan(b"frame")
        assert 0 <= delay <= 1000.0


def _tcp_frame(payload=b"data", src="10.0.0.2", dst="10.0.0.1"):
    ip = IPv4Header(src, dst, total_len=IPV4_HEADER_LEN + 20 + len(payload))
    tcp = TCPHeader(4000, 80, seq=1, ack=0, flags=0x18)
    compute_tcp_checksum(tcp, ip, payload)
    eth = b"\x02\x00\x0a\x00\x00\x01" + b"\x02\x00\x0a\x00\x00\x02" + b"\x08\x00"
    return eth + ip.pack() + tcp.pack() + payload


class TestNic:
    def make_host(self, features=None):
        sim = Simulator()
        fabric = Fabric(sim)
        host = Host(sim, "h", "10.0.0.1", fabric, CostModel.paste(),
                    nic_features=features)
        return sim, host

    def test_rx_dma_and_hw_timestamp(self):
        sim, host = self.make_host()
        frame = _tcp_frame()
        sim.schedule(1000, host.nic.on_wire, frame)
        received = []
        host.on_nic_rx = lambda nic, pkt: received.append(pkt)
        sim.run_until_idle()
        (pkt,) = received
        assert pkt.linear_bytes() == frame
        assert pkt.hw_tstamp == pytest.approx(1000.0)
        assert pkt.csum_verified

    def test_rx_csum_offload_flags_corruption(self):
        sim, host = self.make_host()
        frame = bytearray(_tcp_frame())
        frame[-1] ^= 0xFF  # corrupt payload
        received = []
        host.on_nic_rx = lambda nic, pkt: received.append(pkt)
        sim.schedule(0, host.nic.on_wire, bytes(frame))
        sim.run_until_idle()
        assert not received[0].csum_verified
        assert host.nic.stats["rx_bad_csum"] == 1

    def test_no_hw_timestamp_without_feature(self):
        sim, host = self.make_host(NicFeatures(hw_timestamps=False))
        received = []
        host.on_nic_rx = lambda nic, pkt: received.append(pkt)
        sim.schedule(0, host.nic.on_wire, _tcp_frame())
        sim.run_until_idle()
        assert received[0].hw_tstamp is None

    def test_rx_pool_exhaustion_drops(self):
        sim, host = self.make_host()
        # Exhaust the pool.
        while host.rx_pool.available:
            host.rx_pool.alloc()
        host.nic.on_wire(_tcp_frame())
        assert host.nic.stats["rx_dropped_nobuf"] == 1

    def test_other_rx_alloc_errors_propagate(self, monkeypatch):
        sim, host = self.make_host()

        def broken_alloc():
            raise RuntimeError("pool bookkeeping broke")

        monkeypatch.setattr(host.rx_pool, "alloc", broken_alloc)
        with pytest.raises(RuntimeError, match="pool bookkeeping broke"):
            host.nic.on_wire(_tcp_frame())
        assert host.nic.stats["rx_dropped_nobuf"] == 0

    def test_a_frame_shorter_than_its_headers_is_malformed(self):
        sim, host = self.make_host()
        frame = bytearray(_tcp_frame())
        ip = IPv4Header("10.0.0.2", "10.0.0.1",
                        total_len=IPV4_HEADER_LEN + 10)  # < the TCP header
        frame[ETH_HEADER_LEN:ETH_HEADER_LEN + IPV4_HEADER_LEN] = ip.pack()
        host.nic.on_wire(bytes(frame))
        sim.run_until_idle()
        assert host.stack.stats["rx_malformed"] == 1
        assert host.rx_pool.available == host.rx_pool.nslots

    def test_l4_checksum_helpers_handle_unknown_proto(self):
        ip = IPv4Header("1.2.3.4", "5.6.7.8", proto=17,  # UDP: not offloaded
                        total_len=IPV4_HEADER_LEN + 8)
        frame = bytes(14) + ip.pack() + bytes(8)
        assert l4_csum_info(frame) is None

    @pytest.mark.parametrize("payload", [b"", b"x", b"data", bytes(range(256)) * 5])
    def test_l4_csum_info_agrees_with_the_tcp_header_reference(self, payload):
        frame = bytearray(_tcp_frame(payload))
        position = ETH_HEADER_LEN + IPV4_HEADER_LEN + 16
        reference = int.from_bytes(frame[position:position + 2], "big")
        frame[position:position + 2] = b"\xab\xcd"  # computed with the field zeroed
        assert l4_csum_info(bytes(frame)) == (position, 0xABCD, reference)

    def test_l4_csum_info_rejects_malformed_frames(self):
        frame = bytearray(_tcp_frame())
        with pytest.raises(ValueError):
            l4_csum_info(bytes(frame[:30]))
        with pytest.raises(ValueError):
            l4_csum_info(bytes(frame[:ETH_HEADER_LEN + IPV4_HEADER_LEN + 4]))
        frame[ETH_HEADER_LEN] ^= 0x80  # version 4 -> 12
        with pytest.raises(ValueError):
            l4_csum_info(bytes(frame))


class TestCarriedChecksum:
    """The tx sum rides with the frame, and only with its unmutated bytes."""

    def send(self, monkeypatch, faults, frames=12):
        """``frames`` TCP frames a -> b through ``faults``.

        Returns the sent frames, the received packets and how many
        times the receive side called ``l4_csum_info``.
        """
        sim = Simulator()
        fabric = Fabric(sim, faults=faults)
        sender = Host(sim, "a", "10.0.0.1", fabric, CostModel.paste())
        receiver = Host(sim, "b", "10.0.0.2", fabric, CostModel.paste())
        received = []
        receiver.on_nic_rx = lambda nic, pkt: received.append(pkt)
        sent = []
        for i in range(frames):
            frame = _tcp_frame(bytes(range(i, i + 200)), src="10.0.0.1",
                               dst="10.0.0.2")
            sent.append(frame)
            pkt = PktBuf.alloc(sender.tx_pool)
            pkt.append(frame)
            sender.nic.transmit(pkt, receiver.ip)
        calls = []
        original = nic_module.l4_csum_info

        def counted(frame):
            calls.append(frame)
            return original(frame)

        monkeypatch.setattr(nic_module, "l4_csum_info", counted)
        sim.run_until_idle()
        return sent, received, len(calls), receiver

    def test_a_corrupted_copy_is_summed_again(self, monkeypatch):
        sent, received, calls, receiver = self.send(
            monkeypatch, LinkFaults(random.Random(8), corrupt=1.0))
        assert len(received) == calls == len(sent)
        l4_start = ETH_HEADER_LEN + IPV4_HEADER_LEN
        in_l4 = bad = 0
        for frame, pkt in zip(sent, received):
            got = pkt.linear_bytes()
            (flipped,) = [i for i in range(len(frame)) if got[i] != frame[i]]
            # A flip in the IPv4 addresses or length fails the L4 sum
            # too: the pseudo-header covers them.
            if flipped >= l4_start:
                in_l4 += 1
                assert not pkt.csum_verified
            bad += not pkt.csum_verified
            pkt.release()
        assert 0 < in_l4 <= bad == receiver.nic.stats["rx_bad_csum"]

    def test_an_intact_duplicate_keeps_the_sum(self, monkeypatch):
        sent, received, calls, receiver = self.send(
            monkeypatch,
            LinkFaults(random.Random(9), duplicate=1.0, reorder=1.0))
        assert calls == 0
        assert len(received) == 2 * len(sent)
        for pkt in received:
            assert pkt.csum_verified
            assert pkt.wire_csum == int.from_bytes(
                pkt.linear_bytes()[ETH_HEADER_LEN + IPV4_HEADER_LEN + 16:][:2],
                "big")
            pkt.release()
        assert receiver.nic.stats["rx_bad_csum"] == 0


class _SumForEveryCopy:
    """A simulator view whose ``at`` hands each delivery the sender's sum.

    Installed around :meth:`Fabric.transmit`, it plants the fault the
    fabric must not have: a corrupted copy arriving with the checksum
    of the bytes that were sent, so the receiver trusts it unsummed.
    """

    def __init__(self, sim, csum):
        self._sim = sim
        self._csum = csum

    def at(self, time, fn, data, _carried):
        return self._sim.at(time, fn, data, self._csum)

    def __getattr__(self, name):
        return getattr(self._sim, name)


def test_a_fabric_that_carries_sums_past_corruption_breaks_tcp(monkeypatch):
    """Negative control for the identity test in ``Fabric.transmit``."""
    example = dict(seed=1, loss=0.0, reorder=0.0, duplicate=0.0,
                   corrupt=0.08, size=20_000)
    stream_property.hypothesis.inner_test(**example)
    original = Fabric.transmit

    def leaky(self, src_nic, dst_ip, frame, csum=None):
        sim = self.sim
        self.sim = _SumForEveryCopy(sim, csum)
        try:
            original(self, src_nic, dst_ip, frame, csum)
        finally:
            self.sim = sim

    monkeypatch.setattr(Fabric, "transmit", leaky)
    with pytest.raises(AssertionError):
        stream_property.hypothesis.inner_test(**example)
