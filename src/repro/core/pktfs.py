"""PktFS: a file system whose inodes are packet metadata (§4.2).

The paper sketches a PM file system where "current inode structures
would be simplified, and packet metadata blocks will be maintained by
the file system alongside inode blocks": name, timestamps, checksum
and data links all come from (persistent) packet metadata.

PktFS realises the sketch with the same 256-byte
:class:`~repro.core.ppktbuf.PPktRecord` the packet store uses:

- an **inode** is a record of kind ``KIND_INODE``: the file name is
  the record key, the size is ``value_len``, the mtime is the NIC
  hardware timestamp (or the ingest time), the checksum field holds a
  CRC32C of the contents, and the frag list + continuation chain are
  the extent map into PM packet buffers;
- the **directory** is simply the level-0 chain of inode records —
  packet metadata linking packet metadata;
- **ingest** adopts received packets as file extents without copying
  (the §4.2 receive path); ``write`` is the classic copying path for
  locally-originated data; ``send_file`` transmits straight from the
  extents (the zero-copy send path, segmented by GSO/TSO).

Crash consistency follows the store's protocol: extents and inode are
persisted before the directory link, which is the commit point.
"""

from repro.core.ppktbuf import (
    INLINE_FRAGS,
    KIND_CONT,
    KIND_EXTENT,
    KIND_HEAD,
    KIND_INODE,
    PMetaSlab,
    PPktRecord,
)
from repro.core.recovery import RecoveryReport
from repro.net.checksum import crc32c
from repro.sim.context import NULL_CONTEXT


class FileStat:
    """What ``stat`` returns."""

    __slots__ = ("name", "size", "mtime", "checksum", "nextents")

    def __init__(self, name, size, mtime, checksum, nextents):
        self.name = name
        self.size = size
        self.mtime = mtime
        self.checksum = checksum
        self.nextents = nextents

    def __repr__(self):
        return f"<FileStat {self.name!r} {self.size}B extents={self.nextents}>"


class PktFSError(OSError):
    """File-system-level failures (missing files, duplicates)."""


class PktFS:
    """Packet-metadata file system over a PM pool + metadata slab."""

    def __init__(self, slab, pool, head_slot):
        self.slab = slab
        self.pool = pool
        self.head_slot = head_slot
        #: inode slot -> list of PacketBuffer references held.
        self._refs = {}
        self.stats = {"creates": 0, "ingests": 0, "reads": 0, "unlinks": 0}

    # ----------------------------------------------------------- construction

    @classmethod
    def create(cls, region, pool):
        slab = PMetaSlab(region)
        fs = cls(slab, pool, 0)
        head_slot = slab.alloc()
        slab.write_record(head_slot, PPktRecord(kind=KIND_HEAD, height=1))
        slab.write_root(head_slot)
        fs.head_slot = head_slot
        return fs

    @classmethod
    def recover(cls, region, pool, ctx=NULL_CONTEXT):
        """Remount after a crash; returns (fs, report)."""
        slab = PMetaSlab(region)
        report = RecoveryReport()
        head_slot = slab.read_root()
        fs = cls(slab, pool, head_slot)
        reachable = {head_slot}
        materialized = {}
        prev = head_slot
        cursor = slab.read_next(head_slot, 0)
        while cursor:
            slot = cursor - 1
            record = slab.valid_record(slot)
            if record is None or record.kind != KIND_INODE:
                slab.write_next(prev, 0, 0, ctx)
                report.discarded_records += 1
                break
            reachable.add(slot)
            fs._refs[slot] = slab.adopt_frags(record, pool, materialized, reachable)
            report.recovered += 1
            prev = slot
            cursor = slab.read_next(slot, 0)
        slab.adopt_reachable(reachable)
        report.adopted_buffers = len(materialized)
        return fs, report

    # -------------------------------------------------------------- directory

    def _find(self, name):
        """(prev_slot, inode_slot, record) or (prev, None, None)."""
        key = name.encode() if isinstance(name, str) else bytes(name)
        prev = self.head_slot
        cursor = self.slab.read_next(self.head_slot, 0)
        while cursor:
            record = self.slab.read_record(cursor - 1)
            if record.key == key:
                return prev, cursor - 1, record
            prev = cursor - 1
            cursor = self.slab.read_next(cursor - 1, 0)
        return prev, None, None

    def list(self):
        """All file names, directory order."""
        names = []
        cursor = self.slab.read_next(self.head_slot, 0)
        while cursor:
            record = self.slab.read_record(cursor - 1)
            names.append(record.key.decode(errors="replace"))
            cursor = self.slab.read_next(cursor - 1, 0)
        return names

    def exists(self, name):
        return self._find(name)[1] is not None

    # ----------------------------------------------------------------- writes

    def write(self, name, data, ctx=NULL_CONTEXT, mtime=None):
        """Create/replace a file by copying ``data`` into pool pages.

        The classic path: data originates locally, so it is copied into
        packet buffers (and would go out via GSO/TSO when sent).
        """
        if self.exists(name):
            self.unlink(name, ctx)
        refs, frag_tuples = [], []
        offset = 0
        slot_size = self.pool.slot_size
        try:
            while offset < len(data):
                chunk = data[offset:offset + slot_size]
                buf = self.pool.alloc()
                refs.append(buf)
                buf.write(0, chunk)
                buf.flush(0, len(chunk), ctx, "persist")
                frag_tuples.append((buf.slot, 0, len(chunk)))
                offset += len(chunk)
            if frag_tuples:
                self.pool.region.fence(ctx, "persist")
            slot = self._link_inode(
                name, refs, frag_tuples, len(data), crc32c(data),
                mtime if mtime is not None else 0, ctx,
            )
        except Exception:
            # Nothing is linked yet: releasing the pages restores the
            # pre-write state (minus the already-replaced old file).
            for buf in refs:
                buf.put()
            raise
        self.stats["creates"] += 1
        return slot

    def ingest(self, name, message, ctx=NULL_CONTEXT):
        """Create/replace a file from a received HTTP message, zero-copy.

        The §4.2 receive path: the body's packet buffers become the
        file's extents; the NIC hardware timestamp becomes the mtime.
        """
        if self.exists(name):
            self.unlink(name, ctx)
        refs, frag_tuples = [], []
        checksum = 0
        try:
            for chunk in message.body_slices:
                buf, offset, length = chunk.buffer_ref()
                refs.append(buf.get())
                frag_tuples.append((buf.slot, offset, length))
                buf.flush(offset, length, ctx, "persist")
                checksum = crc32c(chunk.bytes(), seed=checksum)
            if frag_tuples:
                self.pool.region.fence(ctx, "persist")
            slot = self._link_inode(
                name, refs, frag_tuples, message.content_length, checksum,
                message.hw_tstamp or 0, ctx,
            )
        except Exception:
            # Drop the extra data references taken above; the message's
            # own references are untouched, so the caller's rx path
            # keeps its exact refcounts.
            for buf in refs:
                buf.put()
            raise
        self.stats["ingests"] += 1
        return slot

    def _link_inode(self, name, refs, frag_tuples, size, checksum, mtime, ctx):
        key = name.encode() if isinstance(name, str) else bytes(name)
        # Extent continuation chain, persisted deepest-first.  Any
        # failure before the directory link (slab exhaustion, a name too
        # long for the record key) rolls the allocated slots back —
        # mirroring PacketStore.put; the caller rolls back the refs.
        cont_slot_plus1 = 0
        allocated = []
        try:
            extra = frag_tuples[INLINE_FRAGS:]
            if extra:
                chunks = [extra[i:i + INLINE_FRAGS] for i in range(0, len(extra), INLINE_FRAGS)]
                for chunk in reversed(chunks):
                    slot = self.slab.alloc(ctx)
                    allocated.append(slot)
                    self.slab.write_record(
                        slot,
                        PPktRecord(kind=KIND_CONT, frags=chunk, cont=cont_slot_plus1),
                        ctx,
                    )
                    cont_slot_plus1 = slot + 1
            inode_slot = self.slab.alloc(ctx)
            allocated.append(inode_slot)
            first = self.slab.read_next(self.head_slot, 0)
            inode = PPktRecord(
                kind=KIND_INODE, height=1, key=key, value_len=size,
                hw_tstamp=mtime, wire_csum=checksum,
                cont=cont_slot_plus1, frags=frag_tuples[:INLINE_FRAGS],
                nexts=[first] + [0] * 7,
            )
            self.slab.write_record(inode_slot, inode, ctx)
        except Exception:
            for slot in allocated:
                self.slab.free(slot, ctx)
            raise
        self._refs[inode_slot] = refs
        # Commit: the directory link.
        self.slab.write_next(self.head_slot, 0, inode_slot + 1, ctx, fence=True)
        return inode_slot

    # ------------------------------------------------------------------ reads

    def read(self, name, ctx=NULL_CONTEXT, verify=False):
        """The whole file as bytes."""
        _prev, slot, record = self._find(name)
        if slot is None:
            raise PktFSError(f"no such file: {name!r}")
        self.stats["reads"] += 1
        data = b"".join(
            self.pool.region.read(self.pool.slot_region_base(buf_slot) + off, length)
            for buf_slot, off, length in self.slab.read_frags(record)
        )
        if verify and crc32c(data) != record.wire_csum:
            raise PktFSError(f"{name!r}: content checksum mismatch")
        return data

    def extent_refs(self, name):
        """Zero-copy view: [(PacketBuffer, offset, length), ...]."""
        _prev, slot, record = self._find(name)
        if slot is None:
            raise PktFSError(f"no such file: {name!r}")
        by_slot = {buf.slot: buf for buf in self._refs.get(slot, [])}
        return [
            (by_slot[buf_slot], off, length)
            for buf_slot, off, length in self.slab.read_frags(record)
        ]

    def send_file(self, name, socket, ctx=NULL_CONTEXT):
        """Transmit a file without copying: extents become TCP frags."""
        total = 0
        for buf, offset, length in self.extent_refs(name):
            socket.send_buffer(buf, offset, length, ctx)
            total += length
        return total

    def stat(self, name):
        _prev, slot, record = self._find(name)
        if slot is None:
            raise PktFSError(f"no such file: {name!r}")
        return FileStat(
            record.key.decode(errors="replace"), record.value_len,
            record.hw_tstamp, record.wire_csum,
            len(self.slab.read_frags(record)),
        )

    # ----------------------------------------------------------------- unlink

    def unlink(self, name, ctx=NULL_CONTEXT):
        """Remove a file: unlink the inode, free records and buffers."""
        prev, slot, record = self._find(name)
        if slot is None:
            raise PktFSError(f"no such file: {name!r}")
        successor = self.slab.read_next(slot, 0)
        self.slab.write_next(prev, 0, successor, ctx, fence=True)
        cont = record.cont
        while cont:
            cont_record = self.slab.read_record(cont - 1)
            self.slab.free(cont - 1, ctx)
            cont = cont_record.cont
        self.slab.free(slot, ctx)
        for buf in self._refs.pop(slot, []):
            buf.put()
        self.stats["unlinks"] += 1

    def __repr__(self):
        return f"<PktFS {len(self.list())} files, slab={self.slab!r}>"
