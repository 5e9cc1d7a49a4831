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

The algorithm — walk, tower draw, commit, newest-version lookup — is
:class:`PersistentSkipList`, shared with the packet store
(:class:`repro.core.pktstore.PacketStore`), whose nodes are packet
metadata records: §4.2's index pays this very traversal.  A subclass
says only where a node's links sit, how its order key is decoded and
how a link is written.
"""

import struct
from operator import itemgetter

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

#: Simulated-time categories: index work and write-back.
INSERT_CATEGORY = "datamgmt.insert"
PERSIST_CATEGORY = "persist"


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


def newest_versions(versions, start=None, end=None, key=itemgetter(0)):
    """Each key's newest version in ``versions`` with start <= key < end.

    ``versions`` runs in order-key order, where a key's first node is
    its newest version and every later one is older.
    """
    last_key = None
    for version in versions:
        this_key = key(version)
        if this_key == last_key:
            continue  # older version
        last_key = this_key
        if start is not None and this_key < start:
            continue
        if end is not None and this_key >= end:
            break
        yield version


class PersistentSkipList:
    """The versioned skip-list algorithm over nodes in a PM region.

    A node is named by its *link*, the value its predecessors store.
    Its level-``l`` link sits at region offset ``link * LINK_STRIDE +
    LINK_BASE + 8 * l``; 0 is nil.  Subclasses set the two constants
    and supply ``_order_at(link)`` (decode a node's order key) and
    ``_set_next(link, level, target, ctx, fence)`` (write one link).
    """

    LINK_STRIDE = 1
    LINK_BASE = HEADER_SIZE
    #: Tallest tower; the head node has every level.
    max_height = MAX_HEIGHT
    #: Inverse promotion probability (LevelDB uses 4).
    branching = 4
    #: Bottom levels charged a full device access per visit.
    cold_levels = COLD_LEVELS

    def __init__(self, region, head, seq, rng):
        self.region = region
        #: Link of the head node, which sorts before every key.
        self.head = head
        self._seq = seq
        self._rng = rng
        #: Volatile link -> order key of linked nodes, read by the walk
        #: before it decodes a node.  A subclass fills it only when a
        #: linked node's key and sequence cannot change under it.
        self._orders = {}
        self.count = 0          # live versions (excluding head)

    @staticmethod
    def _order(key, seq):
        """Total order: key ascending, newest version first."""
        return (key, MAX_SEQ - seq)

    def _next_of(self, node, level):
        return self.region.read_u64(
            node * self.LINK_STRIDE + self.LINK_BASE + 8 * level)

    def _chain(self, level):
        """Links of the nodes on ``level``, in order."""
        node = self._next_of(self.head, level)
        while node:
            yield node
            node = self._next_of(node, level)

    def _find_predecessors(self, order_key, ctx):
        """Per-level links of the last nodes strictly before ``order_key``.

        The walk dominates every insert.  Every link it follows is read
        from the device image, bounds-checked against the region first
        (raising from ``Region._check`` like the
        :class:`~repro.pm.device.Region` accessors).  The target's order
        key comes from the volatile ``_orders`` map; on a miss
        ``_order_at`` decodes it, and rejects a bad link by raising.

        Cache model: level 0 is always cold (every node there is unique
        memory); on the next ``cold_levels - 1`` levels only nodes the
        walk steps past are cold — the boundary node that ends the walk
        was just read at the level above and is still cached.  Cold
        visits cost a device access, hot ones ``HOT_VISIT_NS``.
        """
        region = self.region
        data = region.device.data
        base = region.base
        last = region.size - 8  # the last offset a link may start at
        read_next = NEXT.unpack_from
        stride = self.LINK_STRIDE
        link_base = self.LINK_BASE
        orders = self._orders
        order_at = self._order_at
        category = INSERT_CATEGORY
        cold_levels = self.cold_levels
        cold_ns = region.device.access_ns
        charge = ctx.charge
        height = self.max_height
        node = self.head
        preds = [node] * height
        for level in range(height - 1, -1, -1):
            offset = link_base + 8 * level
            past_ns = cold_ns if level < cold_levels else HOT_VISIT_NS
            stop_ns = cold_ns if level == 0 else HOT_VISIT_NS
            while True:
                link = node * stride + offset
                if link > last:
                    region._check(link, 8)
                nxt = read_next(data, base + link)[0]
                if not nxt:
                    break
                order = orders.get(nxt)
                if order is None:
                    order = order_at(nxt)
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
        while height < self.max_height and self._rng.next() % self.branching == 0:
            height += 1  # p = 1/branching
        return height

    def _link(self, preds, node, height, ctx):
        """Commit a persisted ``node`` of ``height`` after ``preds``.

        Level 0 makes the node visible: it is linked and fenced first
        (the commit point).  The higher levels are search hints — a
        stale one simply skips the node — flushed after, one fence.
        """
        set_next = self._set_next
        set_next(preds[0], 0, node, ctx, fence=True)
        for level in range(1, height):
            set_next(preds[level], level, node, ctx, fence=False)
        if height > 1:
            self.region.fence(ctx, PERSIST_CATEGORY)

    def _first_version(self, key, ctx):
        """Link of ``key``'s first node, its newest version; 0 if none."""
        preds = self._find_predecessors(self._order(key, MAX_SEQ), ctx)
        node = self._next_of(preds[0], 0)
        if node and (self._orders.get(node) or self._order_at(node))[0] == key:
            return node
        return 0

    def __len__(self):
        """Number of distinct live keys (a subclass's ``scan``; O(n))."""
        return sum(1 for _ in self.scan())


class RegionSkipList(PersistentSkipList):
    """Versioned sorted map of bytes keys/values inside a region.

    A link is the node's region offset.  Nodes are never freed and a
    linked node's header and key never change, so ``insert`` and
    ``recover`` fill ``_orders`` and the walk decodes no node.
    """

    def __init__(self, region, allocator, head_off, seq, rng,
                 branching=4, cold_levels=COLD_LEVELS):
        super().__init__(region, head_off, seq, rng)
        self.allocator = allocator
        self.branching = branching
        self.cold_levels = cold_levels
        self.data_bytes = 0     # key+value payload bytes

    @property
    def head_off(self):
        return self.head

    # ------------------------------------------------------------ construction

    @classmethod
    def create(cls, region, seed=1, branching=4, cold_levels=COLD_LEVELS):
        """Initialise a fresh skip list at the start of ``region``."""
        allocator = PMAllocator(
            region.subregion(ROOT_SIZE, region.size - ROOT_SIZE, f"{region.name}.heap"),
            charge_category=INSERT_CATEGORY,
            persist_category=PERSIST_CATEGORY,
        )
        slist = cls(region, allocator, 0, 1, _XorShift(seed),
                    branching=branching, cold_levels=cold_levels)
        # Head node: zero-length key, full height, seq 0.
        slist.head = slist._write_node(
            b"", b"", MAX_HEIGHT, 0, 0,
            [0] * MAX_HEIGHT, NULL_CONTEXT,
        )
        region.write(0, ROOT.pack(ROOT_MAGIC, slist.head, 0))
        region.persist(0, ROOT.size, NULL_CONTEXT)
        return slist

    @classmethod
    def recover(cls, region, seed=1, branching=4, cold_levels=COLD_LEVELS):
        """Rebuild after a crash from the region's persisted contents."""
        allocator = PMAllocator.attach(
            region.subregion(ROOT_SIZE, region.size - ROOT_SIZE, f"{region.name}.heap"),
            charge_category=INSERT_CATEGORY,
            persist_category=PERSIST_CATEGORY,
        )
        live = {offset + ROOT_SIZE for offset in allocator.recover()}
        magic, head_off, _ = ROOT.unpack(region.read(0, ROOT.size))
        if magic != ROOT_MAGIC:
            raise SkipListCorruption("no skip list root in region")
        slist = cls(region, allocator, head_off, 1, _XorShift(seed),
                    branching=branching, cold_levels=cold_levels)
        orders = slist._orders
        reachable = {head_off}
        max_seq = 0
        prev = head_off
        for cursor in slist._chain(0):
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

    def _order_at(self, node_off):
        """Order key of the node at ``node_off``, decoded from the image.

        Only a bad link misses ``_orders``; the header and key reads
        are bounds-checked, so one past the region raises.
        """
        key_len, _vl, height, _fl, seq, _vc, _nc = self._header(node_off)
        return self._node_key(node_off, key_len, height), MAX_SEQ - seq

    def _set_next(self, node_off, level, target, ctx, fence=False):
        addr = node_off + HEADER_SIZE + 8 * level
        self.region.write(addr, NEXT.pack(target))
        self.region.flush(addr, 8, ctx, PERSIST_CATEGORY)
        if fence:
            self.region.fence(ctx, PERSIST_CATEGORY)

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
        self.region.persist(node_off, len(blob), ctx, PERSIST_CATEGORY)
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
        self._link(preds, node_off, height, ctx)
        self._orders[node_off] = order_key
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
        node = self._first_version(key, ctx)
        if not node:
            return False, None
        key_len, value_len, height, flags, _seq, value_crc, _nc = self._header(node)
        if flags & TOMBSTONE:
            return True, None
        value = self._node_value(node, key_len, value_len, height)
        if verify and crc32c(value) != value_crc:
            raise SkipListCorruption(f"value CRC mismatch for key {key!r}")
        return True, value

    def versions(self):
        """Every stored version in order: (key, seq, tombstone, value)."""
        for node in self._chain(0):
            key_len, value_len, height, flags, seq, _vc, _nc = self._header(node)
            key = self._node_key(node, key_len, height)
            value = self._node_value(node, key_len, value_len, height)
            yield key, seq, bool(flags & TOMBSTONE), value

    def scan(self, start=None, end=None):
        """Latest live versions with start <= key < end, in key order."""
        for key, _seq, tombstone, value in newest_versions(self.versions(), start, end):
            if not tombstone:
                yield key, value

    # -------------------------------------------------------------- validation

    def check_invariants(self):
        """Ordering + height-chain consistency (used by property tests)."""
        for level in range(MAX_HEIGHT):
            prev_order = None
            for node in self._chain(level):
                key_len, _vl, height, _fl, seq, _vc, _nc = self._header(node)
                assert level < height, "node linked above its height"
                key = self._node_key(node, key_len, height)
                order = self._order(key, seq)
                if prev_order is not None:
                    assert prev_order < order, f"order violated at level {level}"
                prev_order = order
        # Every higher-level chain is a subsequence of level 0.
        level0 = set(self._chain(0))
        for level in range(1, MAX_HEIGHT):
            for node in self._chain(level):
                assert node in level0, "higher-level node missing from level 0"
        return True

    def __repr__(self):
        return f"<RegionSkipList {self.count} versions, {self.data_bytes}B in {self.region.name}>"
