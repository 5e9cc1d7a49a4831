"""Unit + property tests for checksums."""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import checksum
from repro.net.checksum import (
    checksum_finish,
    checksum_partial,
    crc32c,
    internet_checksum,
    verify_internet_checksum,
)


def bitwise_crc32c(data, seed=0):
    """CRC32C straight from its definition: one register shift per bit."""
    crc = seed ^ 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ (0x82F63B78 if crc & 1 else 0)
    return crc ^ 0xFFFFFFFF


def _crc_lengths():
    """Every length to 300, both sides of each fold width, 4 KB, 64 KB+1."""
    lengths = set(range(301)) | {4096, (64 << 10) + 1}
    for width_bits, _shifts in checksum._FOLDS:
        width = width_bits // 8
        if width <= (64 << 10) + 2:
            lengths |= {width - 1, width, width + 1}
    return sorted(lengths)


class TestCrc32c:
    def test_known_vectors(self):
        # Well-known CRC32C test vectors.
        assert crc32c(b"") == 0x00000000
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_detects_single_bit_flip(self):
        data = bytearray(b"The quick brown fox jumps over the lazy dog")
        original = crc32c(bytes(data))
        data[7] ^= 0x20
        assert crc32c(bytes(data)) != original

    @pytest.mark.parametrize("length", _crc_lengths())
    def test_matches_bitwise_reference(self, length):
        rng = random.Random(length)
        data = rng.randbytes(length)
        seed = rng.getrandbits(32)
        for seed_in in (0, seed):
            expected = bitwise_crc32c(data, seed_in)
            # bytearray and memoryview first: the memo keys only bytes.
            for view in (bytearray(data), memoryview(data), data):
                assert crc32c(view, seed_in) == expected, (length, type(view))

    @settings(max_examples=200, deadline=None)
    @given(a=st.binary(max_size=400), b=st.binary(max_size=400))
    def test_seed_chains_incrementally(self, a, b):
        """``PacketFS.ingest`` chains chunk CRCs this way; ``read`` checks it."""
        assert crc32c(a + b) == crc32c(b, seed=crc32c(a))


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # RFC 1071's worked example: 0001 f203 f4f5 f6f7 -> sum ddf2 -> csum 220d
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_verification_of_embedded_checksum(self):
        data = bytearray(b"\x45\x00\x00\x54" + bytes(16))
        csum = internet_checksum(bytes(data))
        struct.pack_into("!H", data, 10, csum)
        assert verify_internet_checksum(bytes(data))

    def test_odd_length_handled(self):
        # A trailing odd byte is padded as the high-order byte.
        assert internet_checksum(b"\xff") == (~0xFF00) & 0xFFFF

    def test_partial_then_finish_matches_one_shot(self):
        data = b"some arbitrary payload bytes!!"
        split = checksum_finish(checksum_partial(data[17:], checksum_partial(data[:17])))
        # One's-complement addition commutes only on 16-bit boundaries;
        # split at odd offsets shifts bytes, so compare an even split.
        even = checksum_finish(checksum_partial(data[16:], checksum_partial(data[:16])))
        assert even == internet_checksum(data)
        assert isinstance(split, int)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=0, max_size=512))
def test_property_embedding_checksum_verifies(data):
    """Appending the checksum makes the whole verify (even length only)."""
    if len(data) % 2:
        data += b"\x00"
    csum = internet_checksum(data)
    whole = data + struct.pack("!H", csum)
    assert verify_internet_checksum(whole)


@settings(max_examples=100, deadline=None)
@given(data=st.binary(min_size=2, max_size=256), flip=st.integers(min_value=0))
def test_property_crc_catches_any_single_bit_flip(data, flip):
    corrupted = bytearray(data)
    bit = flip % (len(data) * 8)
    corrupted[bit // 8] ^= 1 << (bit % 8)
    assert crc32c(bytes(corrupted)) != crc32c(data)
