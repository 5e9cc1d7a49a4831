"""The packet-native persistent key-value store (§4.2).

``PacketStore`` keeps values **in the packet buffers they arrived in**
and indexes them with a skip list whose nodes are persistent packet
metadata records.  Against NoveLSM's Table 1 cost structure:

=====================  =============  ===================================
Table 1 row            NoveLSM        PacketStore
=====================  =============  ===================================
request preparation    0.70 µs        ~0.15 µs (take references)
checksum               1.77 µs        0 — the NIC already verified the
                                      TCP checksum; the stored frame
                                      carries it (self-verifying)
data copy              1.14 µs        0 — the value stays where the NIC
                                      DMA'd it (PASTE PM buffers)
buffer alloc + insert  2.78 µs        slab pop (~0.1 µs) + the same
                                      skip-list traversal
flush CPU caches       1.94 µs        payload lines + one 256 B record
=====================  =============  ===================================

Timestamps come from the NIC (``hw_tstamp``), not ``clock_gettime``.

Crash-consistency protocol per put (§5.1):

1. flush the payload lines (they were DMA'd into the PM pool but sit
   in the caching hierarchy until written back),
2. persist any continuation records, then the main metadata record,
3. link at skip-list level 0 and fence — the commit point — then
   flush the higher-level hint links.

Recovery walks level 0 from the persisted root, CRC-validates every
record, re-adopts the referenced packet buffers, and reclaims
everything unreachable.  Acked writes always survive; in-flight writes
vanish atomically.
"""

from operator import attrgetter

from repro.core.ppktbuf import (
    FLAG_TOMBSTONE,
    FLAG_VALID,
    INLINE_FRAGS,
    KIND_CONT,
    KIND_HEAD,
    KIND_NODE,
    MAX_HEIGHT,
    NEXT_OFF,
    RECORD_SIZE,
    PMetaSlab,
    PPktRecord,
)
from repro.core.recovery import RecoveryReport
from repro.net.headers import ETH_HEADER_LEN, IPV4_HEADER_LEN
from repro.net.nic import frame_length, l4_csum_info
from repro.sim.context import NULL_CONTEXT, ExecutionContext
from repro.storage.skiplist import (
    MAX_SEQ,
    PersistentSkipList,
    _XorShift,
    newest_versions,
)

#: Request preparation in the packet-native path: take references and
#: fill a 4-line record — no request object, no marshalling.
PREP_NS = 150.0


class PacketStore(PersistentSkipList):
    """Skip list of persistent packet metadata over a PM packet pool.

    A link is a record's slot + 1.  Slots are freed by ``gc`` and
    reused, so the walk decodes every record it visits (``_orders``
    stays empty): a freed slot a stale link still names fails its
    magic check instead of passing for its old key.
    """

    LINK_STRIDE = RECORD_SIZE
    LINK_BASE = PMetaSlab.ROOT_SIZE - RECORD_SIZE + NEXT_OFF
    max_height = MAX_HEIGHT

    def __init__(self, slab, pool, head_slot, seq, rng, verify_on_read=False):
        super().__init__(slab.region, head_slot + 1, seq, rng)
        self.slab = slab
        #: The walk's node decoder: the slab reads a record's order key,
        #: and rejects a bad slot or record by raising, in one call.
        self._order_at = slab.order_key
        self.pool = pool
        self.verify_on_read = verify_on_read
        #: record slot -> list of PacketBuffer references we hold.
        self._refs = {}
        #: buffer slot -> a live PacketBuffer handle (for zero-copy tx).
        self._buffers = {}
        #: Volatile victim maps, record slot -> order key, that ``gc``
        #: unlinks: versions a newer put superseded, and tombstones that
        #: are still their key's newest version.  ``put`` fills them at
        #: commit; ``recover`` rebuilds them in its level-0 walk.
        self._superseded = {}
        self._tombstones = {}
        self.stats = {"puts": 0, "gets": 0, "deletes": 0, "frag_chains": 0}

    # ------------------------------------------------------------ construction

    @property
    def head_slot(self):
        return self.head - 1

    @classmethod
    def create(cls, region, pool, seed=1, verify_on_read=False):
        slab = PMetaSlab(region)
        head_slot = slab.alloc()
        head = PPktRecord(kind=KIND_HEAD, height=MAX_HEIGHT)
        slab.write_record(head_slot, head, NULL_CONTEXT)
        slab.write_root(head_slot)
        return cls(slab, pool, head_slot, 1, _XorShift(seed), verify_on_read)

    @classmethod
    def recover(cls, region, pool, seed=1, verify_on_read=False, ctx=NULL_CONTEXT):
        """Rebuild from PM after a crash.  Returns (store, report)."""
        slab = PMetaSlab(region)
        report = RecoveryReport()
        scan_ctx = ExecutionContext()
        head_slot = slab.read_root()
        store = cls(slab, pool, head_slot, 1, _XorShift(seed), verify_on_read)
        reachable = {head_slot}
        materialized = {}
        max_seq = 0
        last_key = None
        prev = head_slot
        for link in store._chain(0):
            slot = link - 1
            slab.region.charge_access(scan_ctx, 1, "recovery.scan")
            record = slab.valid_record(slot)
            if record is None or record.kind != KIND_NODE:
                # Persist-before-link should make this impossible; drop
                # the tail defensively and count it.
                slab.write_next(prev, 0, 0, ctx)
                report.discarded_records += 1
                if record is None:
                    report.crc_failures += 1
                break
            reachable.add(slot)
            store._refs[slot] = slab.adopt_frags(record, pool, materialized, reachable)
            store._buffers.update(materialized)
            # Level 0 is in order-key order: a key's first node is its
            # newest version, every later one is superseded.
            order = store._order(record.key, record.seq)
            if record.key == last_key:
                store._superseded[slot] = order
            else:
                last_key = record.key
                if record.tombstone:
                    store._tombstones[slot] = order
            max_seq = max(max_seq, record.seq)
            store.count += 1
            report.recovered += 1
            prev = slot
        # Orphans: slots carrying a valid-looking record that nothing
        # reaches — allocations in flight at the crash.  They simply
        # return to the free list (their magic is left behind, but the
        # free list never consults PM).  Their payload buffers, unless
        # shared with a reachable record, likewise stay on the pool free
        # list: those are the reclaimed buffers.
        magic_bytes = b"\x5e\x0f\x7b\x9c"  # RECORD_MAGIC little-endian
        reclaimed = set()
        for slot in range(slab.nslots):
            if slot in reachable:
                continue
            slab.region.charge_access(scan_ctx, 1, "recovery.scan")
            if slab.region.read(slab.slot_base(slot), 4) != magic_bytes:
                continue
            record = slab.valid_record(slot)
            if record is None:
                report.crc_failures += 1
            else:
                report.discarded_records += 1
                for buf_slot, _off, _length in record.frags:
                    if buf_slot not in materialized:
                        reclaimed.add(buf_slot)
        slab.adopt_reachable(reachable)
        report.max_seq = max_seq
        store._seq = max_seq + 1
        report.adopted_buffers = len(materialized)
        report.reclaimed_buffers = len(reclaimed)
        report.scan_cost_ns = scan_ctx.elapsed
        ctx.merge(scan_ctx)
        return store, report

    # ------------------------------------------------------------- traversal

    def _set_next(self, link, level, target, ctx, fence):
        self.slab.write_next(link - 1, level, target, ctx, fence=fence)

    # ---------------------------------------------------------------- mutation

    def put(self, key, frag_refs, value_len, hw_tstamp, wire_csum,
            ctx=NULL_CONTEXT, tombstone=False):
        """Adopt payload references as the new version of ``key``.

        ``frag_refs`` is a list of ``(PacketBuffer, offset, length)``
        whose data references the caller has already taken (the store
        owns them from here on).  Nothing is copied.

        Failure is transactional: if the metadata slab cannot hold the
        record (``SlabExhausted``), every continuation slot already
        taken is freed and every adopted payload reference released
        before the exception propagates — an overloaded server answers
        507 without leaking a single pool slot.
        """
        if not key:
            for buf, _offset, _length in frag_refs:
                buf.put()
            raise ValueError("empty keys are reserved")
        self.stats["puts"] += 1
        seq = self._seq
        self._seq += 1

        # 1. Persist the packet where it lies — the *whole frame* from
        # the buffer start, not just the value slice: the frame's own
        # headers carry the TCP checksum that makes the stored object
        # self-verifying after a reboot (§4.2).  Headers add ~2 cache
        # lines to the flush.
        for buf, offset, length in frag_refs:
            buf.flush(0, offset + length, ctx, "persist")
        if frag_refs:
            self.pool.region.fence(ctx, "persist")

        # 2. Index traversal (the only data-management cost that remains).
        order = self._order(key, seq)
        preds = self._find_predecessors(order, ctx)
        height = self._random_height()

        # 3. Continuation records for > INLINE_FRAGS fragments.
        frag_tuples = [
            (buf.slot, offset, length) for buf, offset, length in frag_refs
        ]
        cont_slot_plus1 = 0
        cont_slots = []
        node_slot = None
        try:
            extra = frag_tuples[INLINE_FRAGS:]
            if extra:
                self.stats["frag_chains"] += 1
                chunks = [extra[i:i + INLINE_FRAGS] for i in range(0, len(extra), INLINE_FRAGS)]
                for chunk in reversed(chunks):
                    cont = PPktRecord(
                        kind=KIND_CONT, frags=chunk, cont=cont_slot_plus1,
                        seq=seq, value_len=0,
                    )
                    slot = self.slab.alloc(ctx)
                    cont_slots.append(slot)
                    self.slab.write_record(slot, cont, ctx)
                    cont_slot_plus1 = slot + 1

            # 4. The node record itself, persisted before linking.  The
            # record constructor validates the key (an oversized key
            # raises), so it must sit inside the rollback scope too.
            node_slot = self.slab.alloc(ctx)
            record = PPktRecord(
                kind=KIND_NODE,
                flags=FLAG_VALID | (FLAG_TOMBSTONE if tombstone else 0),
                height=height,
                key=key,
                seq=seq,
                hw_tstamp=hw_tstamp or 0,
                wire_csum=wire_csum or 0,
                value_len=value_len,
                cont=cont_slot_plus1,
                frags=frag_tuples[:INLINE_FRAGS],
                nexts=[self._next_of(preds[i], i) if i < height else 0
                       for i in range(MAX_HEIGHT)],
            )
            self.slab.write_record(node_slot, record, ctx)
        except Exception:
            # Roll back whatever failed — slab exhaustion or a bad
            # record: nothing is linked yet, so freeing the slots and
            # dropping the payload references restores the pre-put state
            # exactly (the burned seq is harmless — seqs only order).
            if node_slot is not None:
                self.slab.free(node_slot, ctx)
            for slot in cont_slots:
                self.slab.free(slot, ctx)
            for buf, _offset, _length in frag_refs:
                buf.put()
            raise
        self._refs[node_slot] = [buf for buf, _o, _l in frag_refs]
        for buf, _o, _l in frag_refs:
            self._buffers[buf.slot] = buf

        # 5. Commit: level-0 link with a fence, then the hint levels.
        self._link(preds, node_slot + 1, height, ctx)
        self.count += 1

        # 6. Mark gc's victims.  The new version has the largest seq, so
        # it links directly before its key's previous newest version.
        nxt = record.nexts[0]
        if nxt:
            old_order = self._order_at(nxt)
            if old_order[0] == key:
                self._superseded[nxt - 1] = old_order
                self._tombstones.pop(nxt - 1, None)
        if tombstone:
            self._tombstones[node_slot] = order
        return seq

    def delete(self, key, ctx=NULL_CONTEXT):
        """Tombstone the key (a metadata-only record, no payload)."""
        self.stats["deletes"] += 1
        return self.put(key, [], 0, None, None, ctx, tombstone=True)

    # ----------------------------------------------------------------- GC

    def _unlink(self, node_slot, record, ctx):
        """Remove one node from every level it appears on, then free it.

        Crash-consistent the same way insertion is: the level-0 relink
        is fenced (the commit point — the node stops being content);
        higher-level hints follow.  A crash between frees leaves
        unreachable records that recovery reclaims.
        """
        preds = self._find_predecessors(self._order(record.key, record.seq), ctx)
        node = node_slot + 1
        # Relink top-down so searches racing a crash stay correct.
        for level in range(record.height - 1, -1, -1):
            if self._next_of(preds[level], level) == node:
                self._set_next(preds[level], level, self._next_of(node, level),
                               ctx, fence=(level == 0))
        # Free the continuation chain, then the node.
        cont = record.cont
        while cont:
            cont_record = self.slab.read_record(cont - 1)
            self.slab.free(cont - 1, ctx)
            cont = cont_record.cont
        self.slab.free(node_slot, ctx)
        self._superseded.pop(node_slot, None)
        self._tombstones.pop(node_slot, None)
        # Drop our payload references; fully-released buffers leave the map.
        for buf in self._refs.pop(node_slot, []):
            if buf.put() == 0:
                self._buffers.pop(buf.slot, None)
        self.count -= 1

    def gc(self, ctx=NULL_CONTEXT, drop_tombstones=True):
        """Reclaim superseded versions (and, optionally, tombstones).

        The packet store appends versions like an LSM; this is its
        compaction: for every key only the newest version survives, and
        a newest-version tombstone is dropped entirely (single-level
        store: nothing older can resurface).  Returns the number of
        records reclaimed.

        No scan finds the victims: the volatile victim maps already hold
        them, each slot with its order key.  ``put`` marks the version
        it supersedes, which is always its level-0 successor, and its
        own node if it is a tombstone; a superseded tombstone moves
        from the tombstone map to the superseded one.  ``recover``
        rebuilds both maps in its level-0 walk.  Victims are unlinked
        in order-key order, the order of the level-0 list.
        """
        victims = dict(self._superseded)
        if drop_tombstones:
            victims.update(self._tombstones)
        for slot in sorted(victims, key=victims.__getitem__):
            self._unlink(slot, self.slab.read_record(slot), ctx)
        return len(victims)

    # ------------------------------------------------------------------- reads

    def get(self, key, ctx=NULL_CONTEXT):
        """Latest value bytes, or None (missing or tombstoned)."""
        self.stats["gets"] += 1
        node = self._first_version(key, ctx)
        if not node:
            return None
        record = self.slab.read_record(node - 1)
        if record.tombstone:
            return None
        if self.verify_on_read:
            self.verify_slot(node - 1, ctx)
        return b"".join(
            self.pool.region.read(self.pool.slot_region_base(buf_slot) + off, length)
            for buf_slot, off, length in self.slab.read_frags(record)
        )

    def get_refs(self, key, ctx=NULL_CONTEXT):
        """Zero-copy read: (record, [(buf_slot, offset, length), ...]).

        For transmitting straight out of the store (psend path).
        """
        node = self._first_version(key, ctx)
        if not node:
            return None, []
        record = self.slab.read_record(node - 1)
        if record.tombstone:
            return record, []
        return record, self.slab.read_frags(record)

    def buffer_handle(self, buf_slot):
        """A live handle for a payload buffer slot (zero-copy transmit)."""
        return self._buffers[buf_slot]

    # -------------------------------------------------------------- integrity

    def verify_slot(self, node_slot, ctx=NULL_CONTEXT):
        """Verify stored data via the packets' own wire checksums.

        The stored object is the frame the NIC received, checksum
        included — so integrity checking is recomputing the L4 (TCP or
        Homa) checksum over each referenced frame and comparing it with
        the one embedded in that frame.  No separate stored CRC needed:
        this is §4.2's reuse of the wire checksum.
        """
        record = self.slab.read_record(node_slot)
        checked = set()
        for buf_slot, _off, _length in self.slab.read_frags(record):
            if buf_slot in checked:
                continue
            checked.add(buf_slot)
            base = self.pool.slot_region_base(buf_slot)
            size = frame_length(
                self.pool.region.read(base, ETH_HEADER_LEN + IPV4_HEADER_LEN))
            frame = self.pool.region.read(base, size)
            # Charge the CRC-equivalent cost only when actively verifying.
            ctx.charge(size * 1.1, "integrity.verify")
            info = l4_csum_info(frame)
            if info is None or info[1] != info[2]:
                raise IOError(
                    f"frame in buffer slot {buf_slot} failed its wire checksum"
                )
        return len(checked)

    # ------------------------------------------------------------------- scans

    def versions(self):
        for link in self._chain(0):
            yield self.slab.read_record(link - 1)

    def scan(self, start=None, end=None):
        """Latest live (key, value) pairs in key order."""
        for record in newest_versions(self.versions(), start, end, attrgetter("key")):
            if not record.tombstone:
                yield record.key, b"".join(
                    self.pool.region.read(
                        self.pool.slot_region_base(buf_slot) + off, length
                    )
                    for buf_slot, off, length in self.slab.read_frags(record)
                )

    def __repr__(self):
        return f"<PacketStore {self.count} versions, slab={self.slab!r}>"


class PacketStoreEngine:
    """KVServer engine wrapping :class:`PacketStore` (PASTE hosts only)."""

    name = "pktstore"

    def __init__(self, store, costs):
        self.store = store
        self.costs = costs
        self.puts = 0
        self.gets = 0
        self.reclaims = 0

    @property
    def pressure_sources(self):
        """Watchable sources beyond the host pools: the metadata slab.

        (The payload pool *is* the host rx pool, which the server
        watches directly.)
        """
        from repro.core.overload import SlabPressure

        if not hasattr(self, "_slab_pressure"):
            self._slab_pressure = SlabPressure(self.store.slab)
        return (self._slab_pressure,)

    def reclaim(self, ctx=NULL_CONTEXT):
        """Emergency compaction: drop superseded versions and tombstones.

        The overload controller calls this when a pool or the slab
        crosses its high watermark; returns records reclaimed.
        """
        self.reclaims += 1
        return self.store.gc(ctx)

    @classmethod
    def build(cls, server_host, pm_ns, meta_bytes=32 << 20,
              verify_on_read=False, region_name="pktstore-meta"):
        if not server_host.rx_pool.persistent:
            raise ValueError(
                "PacketStore needs PASTE mode: the host's rx packet pool "
                "must live in persistent memory"
            )
        region = pm_ns.open_or_create(region_name, meta_bytes)
        store = PacketStore.create(region, server_host.rx_pool,
                                   verify_on_read=verify_on_read)
        return cls(store, server_host.costs)

    def put(self, key, message, ctx=NULL_CONTEXT):
        # Request preparation shrinks to taking references (§4.2).
        ctx.charge(PREP_NS, "datamgmt.prep")
        frag_refs = []
        for chunk in message.body_slices:
            buf, offset, length = chunk.buffer_ref()
            frag_refs.append((buf.get(), offset, length))
        self.store.put(
            bytes(key), frag_refs, message.content_length,
            message.hw_tstamp, message.wire_csum, ctx,
        )
        self.puts += 1

    def get(self, key, ctx=NULL_CONTEXT):
        self.gets += 1
        return self.store.get(bytes(key), ctx)

    def delete(self, key, ctx=NULL_CONTEXT):
        ctx.charge(PREP_NS, "datamgmt.prep")
        self.store.delete(bytes(key), ctx)

    def scan(self, start=None, end=None, ctx=NULL_CONTEXT):
        return self.store.scan(start, end)
