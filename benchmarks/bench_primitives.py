"""Micro-benchmarks of the pure-Python primitives (real wall time).

Unlike the simulation benches, these time actual Python execution of
the data-plane primitives: checksums, the metadata codec, skip-list
and red-black-tree operations, Bloom filters.  Useful for tracking the
repository's own performance.
"""

import random

import pytest

from repro.core.ppktbuf import PPktRecord
from repro.net.checksum import crc32c, internet_checksum
from repro.net.headers import EthernetHeader, IPv4Header, TCPHeader
from repro.net.nic import l4_csum_info
from repro.net.rbtree import RBTree
from repro.pm.device import DRAMDevice
from repro.storage.bloom import BloomFilter
from repro.storage.skiplist import RegionSkipList

KB = bytes(range(256)) * 4


# The CRC memo keys only ``bytes``, so the CRC benches pass a bytearray:
# every round runs the kernel rather than a dict lookup.
def test_crc32c_1kb(benchmark):
    result = benchmark(crc32c, bytearray(KB))
    assert result == 0x2CDF6E8F


def test_crc32c_64kb(benchmark):
    result = benchmark(crc32c, bytearray(KB * 64))
    assert result == 0xA224AF3D


def test_internet_checksum_1kb(benchmark):
    result = benchmark(internet_checksum, KB)
    assert 0 <= result <= 0xFFFF


def test_tcp_checksum_compute(benchmark):
    ip = IPv4Header("10.0.0.1", "10.0.0.2", total_len=20 + 20 + len(KB))
    header = TCPHeader(40000, 80, seq=1, ack=2)
    eth = EthernetHeader("02:00:0a:00:00:02", "02:00:0a:00:00:01")
    frame = eth.pack() + ip.pack() + header.pack() + KB
    result = benchmark(l4_csum_info, frame)
    # (checksum field offset, stored field, correct checksum)
    assert result == (50, 0, 0xFA4F)


def test_ppkt_record_encode(benchmark):
    record = PPktRecord(key=b"user:12345", seq=7, hw_tstamp=123,
                        wire_csum=0xABCD, value_len=1024,
                        frags=[(3, 64, 1024)])
    blob = benchmark(record.encode)
    assert len(blob) == 256


def test_ppkt_record_decode(benchmark):
    blob = PPktRecord(key=b"user:12345", seq=7, frags=[(3, 64, 1024)]).encode()
    record = benchmark(PPktRecord.decode, blob)
    assert record.key == b"user:12345"


def test_skiplist_insert(benchmark):
    dev = DRAMDevice(64 << 20)
    slist = RegionSkipList.create(dev.region(0, 64 << 20, "mt"))
    counter = iter(range(10_000_000))

    def insert():
        slist.insert(f"key-{next(counter):08d}".encode(), KB)

    benchmark(insert)


def test_skiplist_get(benchmark):
    dev = DRAMDevice(8 << 20)
    slist = RegionSkipList.create(dev.region(0, 8 << 20, "mt"))
    for i in range(2000):
        slist.insert(f"key-{i:06d}".encode(), b"v")
    rng = random.Random(1)

    def get():
        return slist.get(f"key-{rng.randrange(2000):06d}".encode())

    found, _value = benchmark(get)
    assert found


def test_rbtree_insert_delete(benchmark):
    tree = RBTree()
    for i in range(0, 10_000, 2):
        tree.insert(i, i)
    rng = random.Random(2)

    def churn():
        key = rng.randrange(1, 10_000, 2)
        if key in tree:
            tree.delete(key)
        else:
            tree.insert(key, key)

    benchmark(churn)


def test_bloom_query(benchmark):
    bloom = BloomFilter.for_entries(10_000)
    for i in range(10_000):
        bloom.add(f"key-{i}".encode())

    def query():
        return bloom.might_contain(b"key-5000")

    assert benchmark(query)
