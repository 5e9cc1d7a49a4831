"""Block device model (the disks of §2.1).

LevelDB was designed for spinning and solid-state disks: its WAL and
SSTables live on a block device and reach durability through ``*sync``
calls.  This model captures what matters for the comparison with PM:

- block-granular access with per-op latency charged to the caller,
- a volatile write cache: writes are not durable until :meth:`sync`,
- crash drops every unsynced write.

Like :class:`~repro.pm.device.PMDevice`, the device keeps one
demand-zero byte image plus the durable pre-images of the blocks
written since the last sync; ``crash()`` restores those blocks in
place.

Defaults approximate a datacenter NVMe SSD.
"""

from repro.pm.device import zero_buffer
from repro.sim.context import NULL_CONTEXT

BLOCK_SIZE = 4096


class BlockDevice:
    """A byte array addressed in blocks, with a volatile write cache."""

    def __init__(self, size, read_ns=70_000.0, write_ns=15_000.0,
                 sync_ns=25_000.0, block_size=BLOCK_SIZE, name="ssd"):
        if size <= 0 or size % block_size:
            raise ValueError("device size must be a positive multiple of the block size")
        self.size = size
        self.block_size = block_size
        self.read_ns = read_ns
        self.write_ns = write_ns
        self.sync_ns = sync_ns
        self.name = name
        self.data = zero_buffer(size)
        #: block index -> durable bytes, for each block written since
        #: the last sync (every other block is durable as it stands).
        self._unsynced = {}
        self.reads = 0
        self.writes = 0
        self.syncs = 0

    def _check(self, offset, length):
        if offset < 0 or length < 0 or offset + length > self.size:
            raise IndexError(
                f"{self.name}: access [{offset}, {offset + length}) outside {self.size}B"
            )

    def _blocks(self, offset, length):
        if length == 0:
            return range(0)
        return range(offset // self.block_size, (offset + length - 1) // self.block_size + 1)

    def nblocks(self, offset, length):
        return len(self._blocks(offset, length))

    def read(self, offset, length, ctx=NULL_CONTEXT, category="blockdev.read"):
        """Read bytes; charges one device read per covered block."""
        self._check(offset, length)
        self.reads += 1
        ctx.charge(self.nblocks(offset, length) * self.read_ns, category)
        return bytes(self.data[offset:offset + length])

    def write(self, offset, payload, ctx=NULL_CONTEXT, category="blockdev.write"):
        """Write bytes into the device cache; durable only after sync."""
        length = len(payload)
        self._check(offset, length)
        self.writes += 1
        unsynced = self._unsynced
        block_size = self.block_size
        for block in self._blocks(offset, length):
            if block not in unsynced:
                start = block * block_size
                unsynced[block] = self.data[start:start + block_size]
        self.data[offset:offset + length] = payload
        ctx.charge(self.nblocks(offset, length) * self.write_ns, category)
        return length

    def sync(self, ctx=NULL_CONTEXT, category="blockdev.sync"):
        """Flush the write cache (fsync/fdatasync equivalent)."""
        self.syncs += 1
        drained = len(self._unsynced)
        self._unsynced.clear()
        ctx.charge(self.sync_ns, category)
        return drained

    def crash(self):
        """Power loss: unsynced writes vanish, restored in place."""
        block_size = self.block_size
        for block, durable in self._unsynced.items():
            start = block * block_size
            self.data[start:start + block_size] = durable
        self._unsynced.clear()

    def durable_view(self, offset, length):
        """The synced bytes of a range (what a crash would leave)."""
        self._check(offset, length)
        end = offset + length
        image = bytearray(self.data[offset:end])
        block_size = self.block_size
        for block in self._blocks(offset, length):
            durable = self._unsynced.get(block)
            if durable is not None:
                start = block * block_size
                lo = max(start, offset)
                hi = min(start + block_size, end)
                image[lo - offset:hi - offset] = durable[lo - start:hi - start]
        return bytes(image)

    def __repr__(self):
        return f"<BlockDevice {self.name} {self.size}B unsynced={len(self._unsynced)}>"
