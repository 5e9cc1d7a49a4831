"""Byte-level skip list inside a memory region.

This is the memtable structure of LevelDB and NoveLSM, built the way a
PM data structure must be: every node lives as bytes inside a
:class:`~repro.pm.device.Region`, reached by chasing stored offsets.
Over a DRAM region it is LevelDB's volatile memtable; over a PM region,
with the crash-consistent linking discipline below, it is NoveLSM's
persistent memtable (the paper's §2.1/§3 subject, and the structure
§4.2 proposes rebuilding out of packet metadata).

Versioned like LevelDB: an insert never overwrites — it links a new
node ordered by ``(key ascending, sequence descending)``, so the first
node matching a key is its newest version and deletes are tombstone
inserts.

Node layout (offsets relative to the node's allocation)::

    0   u16 key_len
    2   u32 value_len
    6   u8  height
    7   u8  flags           (1 = tombstone)
    8   u64 sequence
    16  u32 value_crc32c
    20  u32 node_crc32c     (header bytes [0:20] + key bytes)
    24  u64 next[height]
    24+8h   key bytes
    ...     value bytes

Crash-consistent insert (PM): the node is fully written **and
persisted** before the level-0 predecessor pointer is updated and
fenced; higher-level pointers are flushed afterwards.  A crash
therefore leaves either (a) an unreachable allocation (recovery frees
it), or (b) a node reachable at level 0 with possibly-stale higher
links — which are still correct search hints, because an un-updated
``next[i]`` simply skips the new node.  Recovery walks level 0,
validates node CRCs, rebuilds the sequence counter and reconciles the
allocator.

Cost model: a search touches nodes by pointer-chasing.  Visits in the
bottom ``cold_levels`` levels are charged a full device access (346 ns
on PM vs 70 ns on DRAM — the §5.1 numbers); higher-level nodes are few
and hot, charged ``HOT_VISIT_NS``.  With the allocator's charge this
reproduces Table 1's 2.78 µs "buffer allocation and insertion" row.
"""

import struct

from repro.net.checksum import crc32c
from repro.pm.alloc import PMAllocator
from repro.sim.context import NULL_CONTEXT

MAX_HEIGHT = 16
TOMBSTONE = 1
MAX_SEQ = 1 << 62

ROOT = struct.Struct("<IQQ")  # magic, head_offset, reserved
ROOT_MAGIC = 0x5C1B11F7
ROOT_SIZE = 64

HEADER = struct.Struct("<HIBBQII")  # key_len, value_len, height, flags, seq, value_crc, node_crc
HEADER_SIZE = HEADER.size  # 24
#: The CRC-covered first 20 header bytes (everything but node_crc).
HEADER20 = struct.Struct("<HIBBQI")
#: ``TAIL[h]`` packs node_crc and ``h`` next pointers.
TAIL = tuple(struct.Struct(f"<I{height}Q") for height in range(MAX_HEIGHT + 1))
NEXT = struct.Struct("<Q")

#: Cost of touching a cache-resident (upper-level) node.
HOT_VISIT_NS = 25.0

#: Bottom levels whose nodes are assumed cache-cold (charged a device
#: access).  Two levels at branching factor 4 means ~5-6 cold visits per
#: insert, which together with the allocator charge reproduces Table 1's
#: 2.78 µs "buffer allocation and insertion" row; upper levels are few,
#: hot in cache, and charged HOT_VISIT_NS.
COLD_LEVELS = 2


class SkipListCorruption(RuntimeError):
    """A node failed its CRC or structural validation."""


class _XorShift:
    """Tiny deterministic RNG for node heights (no stdlib random state)."""

    def __init__(self, seed):
        self.state = (seed or 1) & 0xFFFFFFFFFFFFFFFF

    def next(self):
        x = self.state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self.state = x
        return x


class RegionSkipList:
    """Versioned sorted map of bytes keys/values inside a region."""

    def __init__(self, region, allocator, head_off, seq, rng,
                 insert_category="datamgmt.insert",
                 persist_category="persist",
                 branching=4, cold_levels=COLD_LEVELS):
        self.region = region
        self.allocator = allocator
        self.head_off = head_off
        self.insert_category = insert_category
        self.persist_category = persist_category
        #: Inverse promotion probability (LevelDB uses 4).
        self.branching = branching
        #: Bottom levels charged a full device access per visit.
        self.cold_levels = cold_levels
        self._seq = seq
        self._rng = rng
        #: Volatile node offset -> order key ``(key, MAX_SEQ - seq)`` of
        #: every linked node.  A linked node's header and key never
        #: change (only its ``next`` slots do), so an entry cannot go
        #: stale; :meth:`recover` rebuilds the map from the image.
        self._orders = {}
        self.count = 0          # live versions (excluding head)
        self.data_bytes = 0     # key+value payload bytes

    # ------------------------------------------------------------ construction

    @classmethod
    def create(cls, region, seed=1, insert_category="datamgmt.insert",
               persist_category="persist", branching=4, cold_levels=COLD_LEVELS):
        """Initialise a fresh skip list at the start of ``region``."""
        allocator = PMAllocator(
            region.subregion(ROOT_SIZE, region.size - ROOT_SIZE, f"{region.name}.heap"),
            charge_category=insert_category,
            persist_category=persist_category,
        )
        slist = cls(region, allocator, 0, 1, _XorShift(seed),
                    insert_category, persist_category,
                    branching=branching, cold_levels=cold_levels)
        # Head node: zero-length key, full height, seq 0.
        head_off = slist._write_node(
            b"", b"", MAX_HEIGHT, 0, 0,
            [0] * MAX_HEIGHT, NULL_CONTEXT,
        )
        slist.head_off = head_off
        region.write(0, ROOT.pack(ROOT_MAGIC, head_off, 0))
        region.persist(0, ROOT.size, NULL_CONTEXT)
        return slist

    @classmethod
    def recover(cls, region, seed=1, insert_category="datamgmt.insert",
                persist_category="persist", branching=4, cold_levels=COLD_LEVELS):
        """Rebuild after a crash from the region's persisted contents."""
        allocator = PMAllocator.attach(
            region.subregion(ROOT_SIZE, region.size - ROOT_SIZE, f"{region.name}.heap"),
            charge_category=insert_category,
            persist_category=persist_category,
        )
        live = {offset + ROOT_SIZE for offset in allocator.recover()}
        magic, head_off, _ = ROOT.unpack(region.read(0, ROOT.size))
        if magic != ROOT_MAGIC:
            raise SkipListCorruption("no skip list root in region")
        slist = cls(region, allocator, head_off, 1, _XorShift(seed),
                    insert_category, persist_category,
                    branching=branching, cold_levels=cold_levels)
        orders = slist._orders
        reachable = {head_off}
        max_seq = 0
        prev = head_off
        cursor = slist._next_of(head_off, 0)
        while cursor:
            if cursor not in live or not slist._validate_node(cursor):
                # Persist-before-link makes this unreachable in a clean
                # run; tolerate it by truncating the chain defensively.
                slist._set_next(prev, 0, 0, NULL_CONTEXT, fence=True)
                break
            key_len, value_len, height, _flags, seq, _vcrc, _ncrc = slist._header(cursor)
            orders[cursor] = (slist._node_key(cursor, key_len, height), MAX_SEQ - seq)
            max_seq = max(max_seq, seq)
            slist.count += 1
            slist.data_bytes += key_len + value_len
            reachable.add(cursor)
            prev = cursor
            cursor = slist._next_of(cursor, 0)
        # Allocated-but-never-linked nodes (crash mid-insert) are garbage.
        for offset in live - reachable:
            allocator.free(offset - ROOT_SIZE)
        slist._seq = max_seq + 1
        return slist

    # ------------------------------------------------------------- node access

    def _header(self, node_off):
        return self.region.unpack(HEADER, node_off)

    def _node_key(self, node_off, key_len, height):
        return self.region.read(node_off + HEADER_SIZE + 8 * height, key_len)

    def _node_value(self, node_off, key_len, value_len, height):
        return self.region.read(
            node_off + HEADER_SIZE + 8 * height + key_len, value_len
        )

    def _next_of(self, node_off, level):
        return self.region.read_u64(node_off + HEADER_SIZE + 8 * level)

    def _set_next(self, node_off, level, target, ctx, fence=False):
        addr = node_off + HEADER_SIZE + 8 * level
        self.region.write(addr, NEXT.pack(target))
        self.region.flush(addr, 8, ctx, self.persist_category)
        if fence:
            self.region.fence(ctx, self.persist_category)

    def _node_size(self, key_len, value_len, height):
        return HEADER_SIZE + 8 * height + key_len + value_len

    def _node_crc(self, header_bytes20, key):
        return crc32c(header_bytes20 + key)

    def _alloc_node(self, size, ctx):
        """Allocate node space; returns a region-coordinate offset.

        The allocator manages the heap subregion starting at ROOT_SIZE,
        so its payload offsets are translated into region coordinates
        (which is what every stored ``next`` pointer holds; 0 stays the
        nil sentinel because real nodes always sit past the root area).
        """
        return self.allocator.alloc(size, ctx) + ROOT_SIZE

    def _write_node(self, key, value, height, flags, seq, nexts, ctx):
        size = self._node_size(len(key), len(value), height)
        node_off = self._alloc_node(size, ctx)
        header20 = HEADER20.pack(
            len(key), len(value), height, flags, seq, crc32c(value)
        )
        blob = (
            header20
            + TAIL[height].pack(self._node_crc(header20, key), *nexts)
            + key
            + value
        )
        self.region.write(node_off, blob)
        self.region.persist(node_off, len(blob), ctx, self.persist_category)
        return node_off

    def _validate_node(self, node_off):
        try:
            key_len, value_len, height, _flags, _seq, _vcrc, node_crc = self._header(node_off)
        except Exception:
            return False
        if not 1 <= height <= MAX_HEIGHT:
            return False
        if node_off + self._node_size(key_len, value_len, height) > self.region.size:
            return False
        header20 = self.region.read(node_off, 20)
        key = self._node_key(node_off, key_len, height)
        return self._node_crc(header20, key) == node_crc

    # ----------------------------------------------------------------- ordering

    @staticmethod
    def _order(key, seq):
        """Total order: key ascending, newest version first."""
        return (key, MAX_SEQ - seq)

    def _find_predecessors(self, order_key, ctx):
        """Per-level last nodes strictly before ``order_key``.

        The walk dominates every insert.  Every link it follows is read
        from the device image, bounds-checked against the region first
        (raising from ``Region._check`` like the
        :class:`~repro.pm.device.Region` accessors).  The target's order
        key comes from the volatile ``_orders`` map; on a miss the node
        is decoded from the image, one header unpack and one key slice,
        each bounds-checked the same way, so a bad pointer still raises.

        Cache model: level 0 is always cold (every node there is unique
        memory); on the next ``cold_levels - 1`` levels only nodes the
        walk steps past are cold — the boundary node that ends the walk
        was just read at the level above and is still cached.  Cold
        visits cost a device access, hot ones ``HOT_VISIT_NS``.
        """
        region = self.region
        data = region.device.data
        base = region.base
        size = region.size
        unpack = HEADER.unpack_from
        read_next = NEXT.unpack_from
        category = self.insert_category
        cold_levels = self.cold_levels
        cold_ns = region.device.access_ns
        charge = ctx.charge
        orders = self._orders
        node = self.head_off
        preds = [node] * MAX_HEIGHT
        for level in range(MAX_HEIGHT - 1, -1, -1):
            slot = HEADER_SIZE + 8 * level
            past_ns = cold_ns if level < cold_levels else HOT_VISIT_NS
            stop_ns = cold_ns if level == 0 else HOT_VISIT_NS
            while True:
                link = node + slot
                if link + 8 > size:
                    region._check(link, 8)
                nxt = read_next(data, base + link)[0]
                if not nxt:
                    break
                order = orders.get(nxt)
                if order is None:
                    if nxt + HEADER_SIZE > size:
                        region._check(nxt, HEADER_SIZE)
                    key_len, _vl, height, _fl, seq, _vc, _nc = unpack(data, base + nxt)
                    key_at = nxt + HEADER_SIZE + 8 * height
                    if key_at + key_len > size:
                        region._check(key_at, key_len)
                    key_at += base
                    order = (data[key_at:key_at + key_len], MAX_SEQ - seq)
                if order < order_key:
                    charge(past_ns, category)
                    node = nxt
                else:
                    charge(stop_ns, category)
                    break
            preds[level] = node
        return preds

    def _random_height(self):
        height = 1
        while height < MAX_HEIGHT and self._rng.next() % self.branching == 0:
            height += 1  # p = 1/branching; LevelDB uses 4
        return height

    # ----------------------------------------------------------------- mutation

    def insert(self, key, value, ctx=NULL_CONTEXT, tombstone=False):
        """Add a new version of ``key``.  Returns its sequence number."""
        if not key:
            raise ValueError("empty keys are reserved for the head node")
        seq = self._seq
        self._seq += 1
        order_key = self._order(key, seq)
        preds = self._find_predecessors(order_key, ctx)
        height = self._random_height()
        nexts = [self._next_of(preds[level], level) for level in range(height)]
        flags = TOMBSTONE if tombstone else 0
        node_off = self._write_node(key, value, height, flags, seq, nexts, ctx)
        # Level 0 makes the node visible; fence before touching hints.
        self._set_next(preds[0], 0, node_off, ctx, fence=True)
        self._orders[node_off] = order_key
        for level in range(1, height):
            self._set_next(preds[level], level, node_off, ctx, fence=False)
        if height > 1:
            self.region.fence(ctx, self.persist_category)
        self.count += 1
        self.data_bytes += len(key) + len(value)
        return seq

    def delete(self, key, ctx=NULL_CONTEXT):
        """Tombstone insert (LSM delete)."""
        return self.insert(key, b"", ctx, tombstone=True)

    # ------------------------------------------------------------------- reads

    def get(self, key, ctx=NULL_CONTEXT, verify=False):
        """Latest value for ``key``.

        Returns ``(found, value)``: ``(False, None)`` if the key never
        existed here, ``(True, None)`` if its newest version is a
        tombstone, ``(True, bytes)`` otherwise.
        """
        preds = self._find_predecessors(self._order(key, MAX_SEQ), ctx)
        node = self._next_of(preds[0], 0)
        if not node:
            return False, None
        key_len, value_len, height, flags, _seq, value_crc, _nc = self._header(node)
        stored_key = self._node_key(node, key_len, height)
        if stored_key != key:
            return False, None
        if flags & TOMBSTONE:
            return True, None
        value = self._node_value(node, key_len, value_len, height)
        if verify and crc32c(value) != value_crc:
            raise SkipListCorruption(f"value CRC mismatch for key {key!r}")
        return True, value

    def versions(self):
        """Every stored version in order: (key, seq, tombstone, value)."""
        node = self._next_of(self.head_off, 0)
        while node:
            key_len, value_len, height, flags, seq, _vc, _nc = self._header(node)
            key = self._node_key(node, key_len, height)
            value = self._node_value(node, key_len, value_len, height)
            yield key, seq, bool(flags & TOMBSTONE), value
            node = self._next_of(node, 0)

    def scan(self, start=None, end=None):
        """Latest live versions with start <= key < end, in key order."""
        last_key = None
        for key, _seq, tombstone, value in self.versions():
            if key == last_key:
                continue  # older version
            last_key = key
            if start is not None and key < start:
                continue
            if end is not None and key >= end:
                break
            if not tombstone:
                yield key, value

    def __len__(self):
        """Number of distinct live keys (scan-based; O(n))."""
        return sum(1 for _ in self.scan())

    # -------------------------------------------------------------- validation

    def check_invariants(self):
        """Ordering + height-chain consistency (used by property tests)."""
        for level in range(MAX_HEIGHT):
            node = self._next_of(self.head_off, level)
            prev_order = None
            while node:
                key_len, _vl, height, _fl, seq, _vc, _nc = self._header(node)
                assert level < height, "node linked above its height"
                key = self._node_key(node, key_len, height)
                order = self._order(key, seq)
                if prev_order is not None:
                    assert prev_order < order, f"order violated at level {level}"
                prev_order = order
                node = self._next_of(node, level)
        # Every higher-level chain is a subsequence of level 0.
        level0 = set()
        node = self._next_of(self.head_off, 0)
        while node:
            level0.add(node)
            node = self._next_of(node, 0)
        for level in range(1, MAX_HEIGHT):
            node = self._next_of(self.head_off, level)
            while node:
                assert node in level0, "higher-level node missing from level 0"
                node = self._next_of(node, level)
        return True

    def __repr__(self):
        return f"<RegionSkipList {self.count} versions, {self.data_bytes}B in {self.region.name}>"
