"""Unit tests for buffer pools and sk_buff-style packet metadata."""

import pytest

from repro.net.pool import BufferPool, PoolExhausted
from repro.net.pktbuf import PktBuf
from repro.pm.device import DRAMDevice, PMDevice


def make_pool(slots=8, slot_size=2048, pm=False):
    size = slots * slot_size
    dev = PMDevice(size) if pm else DRAMDevice(size)
    return BufferPool(dev.region(0, size, "pool"), slot_size), dev


class TestBufferPool:
    def test_alloc_free_cycle(self):
        pool, _ = make_pool(slots=2)
        a = pool.alloc()
        b = pool.alloc()
        assert pool.in_use == 2
        with pytest.raises(PoolExhausted):
            pool.alloc()
        a.put()
        c = pool.alloc()
        assert c.slot == a.slot  # LIFO reuse
        b.put()
        c.put()
        assert pool.in_use == 0

    def test_slots_do_not_overlap(self):
        pool, _ = make_pool(slots=4, slot_size=256)
        bufs = [pool.alloc() for _ in range(4)]
        for i, buf in enumerate(bufs):
            buf.write(0, bytes([i]) * 256)
        for i, buf in enumerate(bufs):
            assert buf.read(0, 256) == bytes([i]) * 256

    def test_refcounting_keeps_slot_alive(self):
        pool, _ = make_pool(slots=1)
        buf = pool.alloc()
        buf.get()
        assert buf.put() == 1
        with pytest.raises(PoolExhausted):
            pool.alloc()  # still held
        buf.put()
        assert pool.alloc() is not None

    def test_double_put_detected(self):
        pool, _ = make_pool()
        buf = pool.alloc()
        buf.put()
        with pytest.raises(RuntimeError):
            buf.put()

    def test_use_after_free_detected(self):
        pool, _ = make_pool()
        buf = pool.alloc()
        buf.put()
        with pytest.raises(RuntimeError):
            buf.get()

    def test_bounds_checked(self):
        pool, _ = make_pool(slot_size=128)
        buf = pool.alloc()
        with pytest.raises(IndexError):
            buf.write(120, b"123456789")

    def test_buffer_at_slot_for_recovery(self):
        pool, _ = make_pool(slots=4)
        buf = pool.buffer_at_slot(2)
        assert buf.slot == 2
        assert pool.in_use == 1
        with pytest.raises(RuntimeError):
            pool.buffer_at_slot(2)
        assert [pool.alloc().slot for _ in range(3)] == [0, 1, 3]

    @pytest.mark.parametrize("slot", [-1, 4])
    def test_buffer_at_slot_rejects_a_slot_outside_the_pool(self, slot):
        pool, _ = make_pool(slots=4)
        with pytest.raises(IndexError):
            pool.buffer_at_slot(slot)
        assert pool.in_use == 0
        assert [pool.alloc().slot for _ in range(4)] == [0, 1, 2, 3]

    def test_high_water_mark(self):
        pool, _ = make_pool(slots=4)
        bufs = [pool.alloc() for _ in range(3)]
        for buf in bufs:
            buf.put()
        assert pool.high_water == 3

    def test_pm_pool_is_persistent(self):
        pool, _ = make_pool(pm=True)
        assert pool.persistent
        pool2, _ = make_pool(pm=False)
        assert not pool2.persistent


class TestPktBuf:
    def test_append_and_linear_bytes(self):
        pool, _ = make_pool()
        pkt = PktBuf.alloc(pool, headroom=64)
        pkt.append(b"hello")
        pkt.append(b" world")
        assert pkt.linear_bytes() == b"hello world"
        assert pkt.data_len == 11

    def test_push_prepends_into_headroom(self):
        pool, _ = make_pool()
        pkt = PktBuf.alloc(pool, headroom=10)
        pkt.append(b"payload")
        pkt.push(b"HDR")
        assert pkt.linear_bytes() == b"HDRpayload"
        assert pkt.headroom == 7

    def test_push_beyond_headroom_rejected(self):
        pool, _ = make_pool()
        pkt = PktBuf.alloc(pool, headroom=2)
        with pytest.raises(IndexError):
            pkt.push(b"too-big")

    def test_pull_strips_headers(self):
        pool, _ = make_pool()
        pkt = PktBuf.alloc(pool, headroom=64)
        pkt.append(b"HDRdata")
        pkt.pull(3)
        assert pkt.linear_bytes() == b"data"

    def test_pull_past_end_rejected(self):
        pool, _ = make_pool()
        pkt = PktBuf.alloc(pool, headroom=64)
        pkt.append(b"xy")
        with pytest.raises(IndexError):
            pkt.pull(3)

    def test_trim_shrinks(self):
        pool, _ = make_pool()
        pkt = PktBuf.alloc(pool, headroom=64)
        pkt.append(b"abcdef")
        pkt.trim(3)
        assert pkt.linear_bytes() == b"abc"

    def test_release_returns_slot(self):
        pool, _ = make_pool(slots=1)
        pkt = PktBuf.alloc(pool)
        pkt.release()
        assert pool.in_use == 0
        with pytest.raises(RuntimeError):
            pkt.append(b"x")  # use-after-free

    def test_clone_shares_payload_bytes(self):
        pool, _ = make_pool(slots=2)
        pkt = PktBuf.alloc(pool)
        pkt.append(b"shared payload")
        clone = pkt.clone()
        assert clone.linear_bytes() == b"shared payload"
        assert clone.buf is pkt.buf
        assert pkt.buf.refcount == 2

    def test_clone_survives_original_release(self):
        """The retransmission guarantee: data outlives the original."""
        pool, _ = make_pool(slots=1)
        pkt = PktBuf.alloc(pool)
        pkt.append(b"keep me")
        clone = pkt.clone()
        pkt.release()
        assert clone.linear_bytes() == b"keep me"
        assert pool.in_use == 1
        clone.release()
        assert pool.in_use == 0

    def test_clone_pull_does_not_affect_original(self):
        pool, _ = make_pool()
        pkt = PktBuf.alloc(pool)
        pkt.append(b"HDRbody")
        clone = pkt.clone()
        clone.pull(3)
        assert clone.linear_bytes() == b"body"
        assert pkt.linear_bytes() == b"HDRbody"

    def test_metadata_refcount_retain_release(self):
        pool, _ = make_pool(slots=1)
        pkt = PktBuf.alloc(pool)
        pkt.retain()
        assert pkt.release() == 1
        assert pool.in_use == 1  # still alive
        pkt.release()
        assert pool.in_use == 0

    def test_frags_extend_payload(self):
        pool, _ = make_pool(slots=3)
        pkt = PktBuf.alloc(pool)
        pkt.append(b"head")
        page = pool.alloc()
        page.write(0, b"frag-data")
        pkt.add_frag(page, 0, 9)
        page.put()  # pkt holds its own reference now
        assert pkt.total_len == 13
        assert pkt.to_wire() == b"headfrag-data"
        pkt.release()
        assert pool.in_use == 0

    def test_steal_buffer_outlives_pktbuf(self):
        """PASTE extract: the app owns payload after the stack is done."""
        pool, _ = make_pool(slots=1, pm=True)
        pkt = PktBuf.alloc(pool)
        pkt.append(b"precious")
        buf, off, length = pkt.steal_buffer()
        pkt.release()
        assert buf.read(off, length) == b"precious"
        assert pool.in_use == 1
        buf.put()

    def test_persist_payload_on_pm_pool(self):
        pool, dev = make_pool(pm=True)
        pkt = PktBuf.alloc(pool)
        pkt.append(b"durable payload")
        pkt.persist_payload()
        base = pkt.buf.region_offset(pkt.data_off)
        assert dev.is_durable(base, pkt.data_len)
