"""Checksums: the RFC 1071 internet checksum and CRC32C.

Two checksums matter to the paper:

- The **TCP/IP internet checksum** protects every segment on the wire.
  Modern NICs compute and verify it in hardware ("checksum offload",
  enabled on both of the paper's machines), so it is free to the CPU —
  which is exactly why §4.2 proposes reusing it as the stored-data
  integrity checksum.
- **CRC32C** is what LevelDB (and our NoveLSM) computes in software
  over every value it stores: the 1.77 µs row of Table 1.

Both are implemented for real here — benches charge modeled cost, but
tests verify actual bit-level behaviour (corruption detection, known
vectors).

Implementation note: these run on the wall-clock hot path of every
simulated frame and every stored value.  The internet checksum is one
integer reduction: because ``2^16 ≡ 1 (mod 0xFFFF)``, reading the
data as one big-endian integer (``int.from_bytes``) and taking it
modulo ``0xFFFF`` gives the one's-complement sum of its 16-bit words,
except that the modulus reads a sum of ``0xFFFF`` as 0.  Only
all-zero data sums to 0, so any other 0 is taken as ``0xFFFF``.
CRC32C treats a value longer than ``_SHORT`` bytes as one polynomial
over GF(2), held in a single Python integer: the input's bits are
reversed per byte (``bytes.translate``) so that ``int.from_bytes``
puts the first bit transmitted at the top, and the polynomial is then
folded in halves — ``a ≡ (a mod x^s) ^ (a >> s) · (x^s mod P)``, the
carry-less multiply by the 32-bit constant being an XOR of shifted
copies — until at most ``_FOLD_END`` bits are left, which a
slicing-by-4 table loop finishes a 32-bit word at a time (``struct``
unpacks the words), with the byte loop for a tail under four bytes.
Short values go straight to that loop, and a small memo serves
repeated values.  The *results* are bit-identical to the bitwise
definition (tests/test_net_checksum.py pins them against known
vectors and a bitwise reference).
"""

import struct

# CRC32C (Castagnoli), reflected form: bit 0 of the register holds the
# highest-degree coefficient.  The classic byte-at-a-time table.
_CRC32C_POLY = 0x82F63B78
_CRC32C_TABLE = []
for _i in range(256):
    _crc = _i
    for _ in range(8):
        _crc = (_crc >> 1) ^ _CRC32C_POLY if _crc & 1 else _crc >> 1
    _CRC32C_TABLE.append(_crc)
#: Slicing-by-4: ``_SLICE[k][b]`` is byte ``b`` run through ``k`` more
#: zero bytes, so one table lookup per byte of a 4-byte word finishes
#: the whole word at once.
_SLICE = [_CRC32C_TABLE]
for _ in range(3):
    _SLICE.append([(_v >> 8) ^ _CRC32C_TABLE[_v & 0xFF] for _v in _SLICE[-1]])

#: The same polynomial in normal (MSB-first) form, x^32 term included.
_P = 0x11EDC6F41
#: ``bytes.translate`` table that reverses the bits of each byte.
_REVERSE = bytes(int(f"{_b:08b}"[::-1], 2) for _b in range(256))


def _mulmod(a, b):
    """``a * b mod P`` over GF(2), for ``a, b`` of degree below 32."""
    product = 0
    while b:
        if b & 1:
            product ^= a
        b >>= 1
        a <<= 1
        if a >> 32:
            a ^= _P
    return product


#: Values up to this many bytes skip the fold and take the word loop.
#: Set by measurement (CPython 3.11.7, 2-vCPU VM, median of 30): the
#: word loop beat the fold by 4-9 % at 80-96 B and lost from 104 B.
_SHORT = 96
#: ``_WORDS[n]`` unpacks ``n`` little-endian 32-bit words.
_WORDS = [struct.Struct(f"<{_n}I") for _n in range(_SHORT // 4 + 1)]
#: Fold widths are ``2^k + 32`` bits for k in [_FOLD_K0, 32): folding
#: a polynomial of at most ``2^(k+1) + 32`` bits at ``2^k + 32`` leaves
#: at most ``2^k + 32``, so each fold halves it.  Each entry is the
#: width and the set-bit positions of ``x^width mod P``.
_FOLD_K0 = 7
_FOLDS = []
_power = 2  # x, squared below to x^(2^k) mod P
for _ in range(_FOLD_K0):
    _power = _mulmod(_power, _power)
for _k in range(_FOLD_K0, 32):
    _const = _mulmod(_power, _P ^ (1 << 32))  # times x^32 mod P
    _FOLDS.append(((1 << _k) + 32,
                   tuple(_j for _j in range(32) if _const >> _j & 1)))
    _power = _mulmod(_power, _power)
_FOLD_TOP = len(_FOLDS) - 1
#: Folding stops at this many bits; the word loop takes the rest.
_FOLD_END = (1 << _FOLD_K0) + 32

#: Bounded value -> CRC memo.  Stores repeatedly checksum the same
#: value bytes (wrk reuses one payload per run; LevelDB-style verify
#: re-CRCs what was just written), and a CRC is a pure function of its
#: input, so caching is safe.  Cleared wholesale when full.
_CRC_MEMO = {}
_CRC_MEMO_MAX = 512
_CRC_MEMO_VALUE_MAX = 1 << 16


def crc32c(data, seed=0):
    """CRC32C (Castagnoli) of ``data``; matches the common library value.

    ``crc32c(a + b) == crc32c(b, seed=crc32c(a))``, so a CRC can be
    chained over chunks.
    """
    memo_key = None
    if seed == 0 and type(data) is bytes and len(data) <= _CRC_MEMO_VALUE_MAX:
        memo_key = data
        cached = _CRC_MEMO.get(memo_key)
        if cached is not None:
            return cached
    crc = seed ^ 0xFFFFFFFF
    length = len(data)
    if length > _SHORT:
        # The register's start value is XORed into the first four
        # bytes; the folded remainder is then CRCed from zero.
        if type(data) is not bytes and type(data) is not bytearray:
            data = bytes(data)
        nbits = length << 3
        poly = int.from_bytes(data.translate(_REVERSE), "big") ^ (
            int.from_bytes(crc.to_bytes(4, "little").translate(_REVERSE), "big")
            << (nbits - 32)
        )
        folds = _FOLDS
        while nbits > _FOLD_END:
            index = (nbits - 33).bit_length() - 1 - _FOLD_K0
            width, shifts = folds[index if index < _FOLD_TOP else _FOLD_TOP]
            high = poly >> width
            product = 0
            for shift in shifts:
                product ^= high << shift
            poly ^= product ^ (high << width)  # low part + high * const
            nbits = max(width, nbits - width + 32)
        data = poly.to_bytes((nbits + 7) >> 3, "big").translate(_REVERSE)
        length = len(data)
        crc = 0
    t0, t1, t2, t3 = _SLICE
    words = length >> 2
    for word in _WORDS[words].unpack_from(data):
        crc ^= word
        crc = (t3[crc & 0xFF] ^ t2[crc >> 8 & 0xFF] ^ t1[crc >> 16 & 0xFF]
               ^ t0[crc >> 24])
    for byte in data[words << 2:]:
        crc = t0[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    crc ^= 0xFFFFFFFF
    if memo_key is not None:
        if len(_CRC_MEMO) >= _CRC_MEMO_MAX:
            _CRC_MEMO.clear()
        _CRC_MEMO[memo_key] = crc
    return crc


def internet_checksum(data, seed=0):
    """RFC 1071 16-bit one's-complement sum of ``data``.

    ``seed`` lets callers fold in a pseudo-header sum computed
    separately (as TCP does).
    """
    total = checksum_partial(data, seed)
    # Fold carries.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def checksum_partial(data, seed=0):
    """One's-complement sum of ``data``'s 16-bit big-endian words, plus ``seed``.

    ``data`` is any bytes-like object; an odd trailing byte is padded
    with a zero byte, as RFC 1071 does.  The data's sum comes back
    already folded: 0 for all-zero (or empty) data, otherwise in
    ``1..0xFFFF``.  ``seed`` is added unfolded, so the result is an
    *unfolded* partial sum that :func:`checksum_finish` folds, and
    ``checksum_partial(b, checksum_partial(a))`` chains two pieces
    when ``a`` has even length.  The folded and finished values equal
    those of summing the words one by one.
    """
    total = int.from_bytes(data, "big")
    partial = total % 0xFFFF
    if len(data) & 1:
        # The zero pad shifts every word up a byte: times 2^8.
        partial = (partial << 8) % 0xFFFF
    if not partial and total:
        partial = 0xFFFF  # a nonzero word sum never folds to 0
    return partial + seed


def checksum_finish(partial):
    """Fold an accumulated partial sum and complement it."""
    while partial >> 16:
        partial = (partial & 0xFFFF) + (partial >> 16)
    return (~partial) & 0xFFFF


def verify_internet_checksum(data, seed=0):
    """True iff ``data`` (which embeds its checksum field) sums to zero."""
    total = checksum_partial(data, seed)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return total == 0xFFFF
