"""Persistent packet metadata (§4.1, §5.1).

The paper's central object: packet metadata redesigned to live in
persistent memory.  A :class:`PPktRecord` is what survives of an
``sk_buff`` once it becomes a storage structure:

- references to payload in PM packet buffers (up to four inline
  fragments, chainable for more — the ``skb_shared_info`` pages of
  Figure 3),
- the NIC **hardware timestamp** (storage timestamp for free),
- the NIC-verified **TCP wire checksum** (storage integrity for free),
- **skip-list next pointers**, making the metadata itself an index
  node (§4.2's "persistent, mutable skip list ... implementable using
  packet metadata"),
- a CRC over the immutable fields, so recovery can reject torn
  records.

Records are fixed 256-byte slots (four cache lines — §5.1 asks for
compact, cache-friendly metadata; kernel ``sk_buff`` is ~232 bytes of
metadata *before* counting the separate shared-info block).  They live
in a :class:`PMetaSlab`: a PM region of slots with a volatile free
list that recovery rebuilds by reachability, so the slab needs **no
persistent allocator metadata at all** — one of the paper's claimed
wins over user-space PM allocators.

Record layout::

     0  u32 magic
     4  u32 record_crc      over [8:48) + frag area + key bytes
     8  u8  kind            (1 node, 2 head, 3 continuation, 4 inode, 5 extent)
     9  u8  flags           (1 VALID, 2 TOMBSTONE)
    10  u8  height          (skip-list height, <= 8)
    11  u8  nfrags          (frags in this record, <= 4)
    12  u16 key_len
    14  u16 reserved
    16  u64 seq
    24  u64 hw_tstamp_ns
    32  u32 wire_csum
    36  u32 value_len       (total across the chain)
    40  u64 cont            (slot+1 of the continuation record; 0 none)
    48  4 * (u32 buf_slot, u16 off, u16 len)
    80  8 * u64 next        (slot+1; 0 nil) — mutable, outside the CRC
   144  key bytes           (<= 112)
"""

import struct

from repro.net.checksum import crc32c
from repro.sim.context import NULL_CONTEXT
from repro.storage.skiplist import MAX_SEQ

RECORD_SIZE = 256
RECORD_MAGIC = 0x9C7B0F5E

KIND_NODE = 1
KIND_HEAD = 2
KIND_CONT = 3
KIND_INODE = 4
KIND_EXTENT = 5

FLAG_VALID = 1
FLAG_TOMBSTONE = 2

MAX_HEIGHT = 8
INLINE_FRAGS = 4
MAX_KEY = RECORD_SIZE - 144

_FIXED = struct.Struct("<BBBBHHQQIIQ")  # bytes [8:48)
#: magic, record_crc, kind, flags, height, nfrags, key_len, reserved,
#: seq: bytes [0:24), what a skip-list walk needs of a record.
_ORDER = struct.Struct("<IIBBBBHHQ")
_FRAG = struct.Struct("<IHH")
NEXT_OFF = 80
_KEY_OFF = 144
_FRAG_OFF = 48

#: Modeled CPU cost of taking a slot off the slab free list.  The paper
#: argues network buffer allocators are much cheaper than user-space PM
#: allocators (§4.2, citing CompoundFS's allocation-overhead findings).
SLAB_ALLOC_NS = 100.0


class SlabExhausted(MemoryError):
    """No free metadata slots."""


def _check_shape(magic, height, nfrags):
    """Raise ``ValueError`` where a decoded record would be rejected."""
    if magic != RECORD_MAGIC:
        raise ValueError("bad record magic")
    if height > MAX_HEIGHT:
        raise ValueError(f"height {height} exceeds {MAX_HEIGHT}")
    if nfrags > INLINE_FRAGS:
        raise ValueError("more than INLINE_FRAGS frags need a continuation record")


class PPktRecord:
    """Decoded view of one persistent packet-metadata record."""

    __slots__ = ("kind", "flags", "height", "key", "seq", "hw_tstamp",
                 "wire_csum", "value_len", "cont", "frags", "nexts")

    def __init__(self, kind=KIND_NODE, flags=FLAG_VALID, height=1, key=b"",
                 seq=0, hw_tstamp=0, wire_csum=0, value_len=0, cont=0,
                 frags=None, nexts=None):
        if len(key) > MAX_KEY:
            raise ValueError(f"key of {len(key)}B exceeds {MAX_KEY}B record capacity")
        if height > MAX_HEIGHT:
            raise ValueError(f"height {height} exceeds {MAX_HEIGHT}")
        self.kind = kind
        self.flags = flags
        self.height = height
        self.key = bytes(key)
        self.seq = seq
        self.hw_tstamp = int(hw_tstamp or 0)
        self.wire_csum = wire_csum or 0
        self.value_len = value_len
        #: Continuation slot + 1 (0 = none).
        self.cont = cont
        #: List of (buf_slot, offset, length) payload references.
        self.frags = list(frags or [])
        #: next[i] = slot + 1 (0 = nil).
        self.nexts = list(nexts or [0] * MAX_HEIGHT)
        if len(self.frags) > INLINE_FRAGS:
            raise ValueError("more than INLINE_FRAGS frags need a continuation record")

    @property
    def tombstone(self):
        return bool(self.flags & FLAG_TOMBSTONE)

    # -- encoding ---------------------------------------------------------------

    def _fixed_bytes(self):
        return _FIXED.pack(
            self.kind, self.flags, self.height, len(self.frags),
            len(self.key), 0, self.seq, self.hw_tstamp,
            self.wire_csum & 0xFFFFFFFF, self.value_len, self.cont,
        )

    def _frag_bytes(self):
        parts = []
        for slot, off, length in self.frags:
            parts.append(_FRAG.pack(slot, off, length))
        parts.append(bytes(_FRAG.size * (INLINE_FRAGS - len(self.frags))))
        return b"".join(parts)

    def crc(self):
        return crc32c(self._fixed_bytes() + self._frag_bytes() + self.key)

    def encode(self):
        blob = bytearray(RECORD_SIZE)
        blob[0:4] = struct.pack("<I", RECORD_MAGIC)
        blob[4:8] = struct.pack("<I", self.crc())
        blob[8:48] = self._fixed_bytes()
        blob[_FRAG_OFF:_FRAG_OFF + 32] = self._frag_bytes()
        for index, nxt in enumerate(self.nexts):
            struct.pack_into("<Q", blob, NEXT_OFF + 8 * index, nxt)
        blob[_KEY_OFF:_KEY_OFF + len(self.key)] = self.key
        return bytes(blob)

    @classmethod
    def decode(cls, blob, check=True):
        """Parse a record; raises ValueError on magic/CRC failure if ``check``."""
        magic, stored_crc = struct.unpack_from("<II", blob, 0)
        (kind, flags, height, nfrags, key_len, _rsvd, seq,
         hw_tstamp, wire_csum, value_len, cont) = _FIXED.unpack_from(blob, 8)
        _check_shape(magic, height, nfrags)
        frags = []
        for index in range(nfrags):
            frags.append(_FRAG.unpack_from(blob, _FRAG_OFF + _FRAG.size * index))
        nexts = [struct.unpack_from("<Q", blob, NEXT_OFF + 8 * i)[0]
                 for i in range(MAX_HEIGHT)]
        key = bytes(blob[_KEY_OFF:_KEY_OFF + key_len])
        record = cls(kind, flags, height, key, seq, hw_tstamp, wire_csum,
                     value_len, cont, frags, nexts)
        if check and record.crc() != stored_crc:
            raise ValueError("record CRC mismatch")
        return record

    @staticmethod
    def validate(blob):
        """True iff ``blob`` holds a structurally intact record."""
        try:
            PPktRecord.decode(blob, check=True)
            return True
        except (ValueError, struct.error):
            return False

    def __repr__(self):
        return (
            f"<PPktRecord kind={self.kind} key={self.key!r} seq={self.seq} "
            f"len={self.value_len} frags={len(self.frags)}>"
        )


class PMetaSlab:
    """Fixed-slot metadata arena in PM with reachability-based recovery.

    Slot state is *implied*: a slot is live iff some reachable record
    points at it (or it is the root).  The free list is volatile and
    lazy: a stack of freed slots over a bump index, the lowest slot
    never handed out.  ``alloc`` takes the most recently freed slot
    first, then the bump slot.  Recovery hands the slab the set of
    reachable slots; the unreachable ones below the highest reachable
    slot become the stack, lowest on top, and the bump starts above it.
    No free-list bytes ever hit PM.
    """

    ROOT_SIZE = 64
    _ROOT = struct.Struct("<IQQ")
    _ROOT_MAGIC = 0x51AB0075

    def __init__(self, region):
        self.region = region
        self.nslots = (region.size - self.ROOT_SIZE) // RECORD_SIZE
        if self.nslots < 2:
            raise ValueError("metadata region too small")
        #: Lowest slot never handed out, and the freed slots, the most
        #: recent last.
        self._next = 0
        self._recycled = []
        self._used = set()
        self.allocs = 0
        self.frees = 0

    # -- root pointer -----------------------------------------------------------

    def write_root(self, head_slot, ctx=NULL_CONTEXT):
        self.region.write_persist(
            0, self._ROOT.pack(self._ROOT_MAGIC, head_slot, 0), ctx, "persist"
        )

    def read_root(self):
        magic, head_slot, _ = self._ROOT.unpack(self.region.read(0, self._ROOT.size))
        if magic != self._ROOT_MAGIC:
            raise ValueError("no slab root")
        return head_slot

    # -- slots -------------------------------------------------------------------

    def slot_base(self, slot):
        if not 0 <= slot < self.nslots:
            raise IndexError(f"slot {slot} out of range")
        return self.ROOT_SIZE + slot * RECORD_SIZE

    def alloc(self, ctx=NULL_CONTEXT):
        recycled = self._recycled
        if recycled:
            slot = recycled.pop()
        elif self._next < self.nslots:
            slot = self._next
            self._next = slot + 1
        else:
            raise SlabExhausted(f"{self.region.name}: all {self.nslots} records used")
        ctx.charge(SLAB_ALLOC_NS, "datamgmt.insert")
        self._used.add(slot)
        self.allocs += 1
        return slot

    def free(self, slot, ctx=NULL_CONTEXT):
        if slot not in self._used:
            raise RuntimeError(f"free of unused slot {slot}")
        # Invalidate the magic so a later reachability scan cannot be
        # confused by a stale-but-intact record.
        self.region.write(self.slot_base(slot), b"\x00\x00\x00\x00")
        self.region.flush(self.slot_base(slot), 4, ctx, "persist")
        self._used.remove(slot)
        self._recycled.append(slot)
        self.frees += 1

    @property
    def used(self):
        return len(self._used)

    # -- record I/O ---------------------------------------------------------------

    def write_record(self, slot, record, ctx=NULL_CONTEXT, persist=True):
        base = self.slot_base(slot)
        if persist:
            self.region.write_persist(base, record.encode(), ctx, "persist")
        else:
            self.region.write(base, record.encode())

    def read_record(self, slot, check=False):
        return PPktRecord.decode(self.region.read(self.slot_base(slot), RECORD_SIZE),
                                 check=check)

    def read_frags(self, record):
        """Every fragment of ``record``, following its ``cont`` chain."""
        frags = list(record.frags)
        cont = record.cont
        while cont:
            cont_record = self.read_record(cont - 1)
            frags.extend(cont_record.frags)
            cont = cont_record.cont
        return frags

    def adopt_frags(self, record, pool, materialized, reachable):
        """Recovery: re-take the payload references of ``record``.

        Follows the ``cont`` chain, adding each continuation slot to
        ``reachable``.  ``materialized`` maps buffer slot -> the handle
        recovery already took: the first reference to a buffer adopts
        it from ``pool``, each later one takes another reference.
        Returns the references, one per fragment.
        """
        refs = []
        current = record
        while True:
            for buf_slot, _off, _length in current.frags:
                if buf_slot in materialized:
                    refs.append(materialized[buf_slot].get())
                else:
                    buf = pool.buffer_at_slot(buf_slot)
                    materialized[buf_slot] = buf
                    refs.append(buf)
            if not current.cont:
                return refs
            reachable.add(current.cont - 1)
            current = self.read_record(current.cont - 1)

    def read_order(self, slot):
        """``(key, seq)`` of the record in ``slot``; see :meth:`order_key`."""
        key, inverted = self.order_key(slot + 1)
        return key, MAX_SEQ - inverted

    def order_key(self, link):
        """Skip-list order key ``(key, MAX_SEQ - seq)`` of the record in
        slot ``link - 1`` — the packet store names a record by its
        slot + 1 — in one call per record the walk visits.

        Reads the 24-byte header and the key straight from the device
        image, none of the fragment or link area, and rejects a record
        exactly where ``read_record(link - 1)`` does: a slot out of
        range, bad magic, too high, too many fragments.  The key is
        capped at the record end.  No CRC check, as in ``read_record``.
        """
        slot = link - 1
        # In range, a slot lies wholly inside the region.  The range
        # and shape tests are ``slot_base``'s and ``_check_shape``'s,
        # made inline on this per-lookup path; the named ones raise.
        if not 0 <= slot < self.nslots:
            self.slot_base(slot)
        start = self.region.base + self.ROOT_SIZE + slot * RECORD_SIZE
        data = self.region.device.data
        (magic, _crc, _kind, _flags, height, nfrags, key_len, _rsvd,
         seq) = _ORDER.unpack_from(data, start)
        if magic != RECORD_MAGIC or height > MAX_HEIGHT or nfrags > INLINE_FRAGS:
            _check_shape(magic, height, nfrags)
        start += _KEY_OFF
        return data[start:start + min(key_len, MAX_KEY)], MAX_SEQ - seq

    def read_next(self, slot, level):
        return self.region.read_u64(self.slot_base(slot) + NEXT_OFF + 8 * level)

    def write_next(self, slot, level, target, ctx=NULL_CONTEXT, fence=True):
        addr = self.slot_base(slot) + NEXT_OFF + 8 * level
        if fence:
            self.region.write_persist(addr, struct.pack("<Q", target), ctx, "persist")
        else:
            self.region.write(addr, struct.pack("<Q", target))
            self.region.flush(addr, 8, ctx, "persist")

    def valid_record(self, slot):
        """Decode + CRC-check; returns the record or None."""
        try:
            return self.read_record(slot, check=True)
        except (ValueError, struct.error):
            return None

    # -- recovery ----------------------------------------------------------------

    def adopt_reachable(self, reachable):
        """Reset the free list given the set of reachable slots."""
        used = self._used = set(reachable)
        self._next = max(used, default=-1) + 1
        self._recycled = [slot for slot in range(self._next - 1, -1, -1)
                          if slot not in used]
        return len(used)

    def __repr__(self):
        return f"<PMetaSlab {self.used}/{self.nslots} records in {self.region.name}>"
