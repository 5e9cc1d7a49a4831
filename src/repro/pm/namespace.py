"""DAX-style namespace: named persistent regions.

The paper's stacks map PM-backed files into their address space via the
DAX subsystem (Figure 1) — a name is how persisted data is found again
after a reboot.  :class:`PMNamespace` provides that: named regions
carved out of a :class:`~repro.pm.device.PMDevice`, with the directory
itself persisted at the front of the device so that
:meth:`PMNamespace.reopen` can enumerate regions after a crash.

The directory is **checksummed and atomically switched**: the first
``DIR_SIZE`` bytes hold two slots, and every update writes the *other*
slot with a monotonically increasing sequence number and a CRC over
its contents.  Reopen picks the valid slot with the highest sequence
number, so a crash that tears a directory write is *detected* (the
torn slot fails its CRC) and falls back to the previous directory
instead of parsing garbage.

Slot layout (slot k at device offset ``k * DIR_SLOT_SIZE``)::

    [magic(4)][seq(8)][entry_count(4)][next_base(8)][payload_len(4)][crc(4)]
    payload := entry...
    entry   := [name_len(2)][name(utf-8)][base(8)][size(8)]

The CRC covers the header (with the crc field zeroed) plus the payload.
"""

import struct
import zlib

from repro.pm.constants import CACHE_LINE
from repro.sim.context import NULL_CONTEXT

DIR_MAGIC = 0xDA0F11E5
DIR_HEADER = struct.Struct("<IQIQII")  # magic, seq, count, next_base, payload_len, crc
DIR_SIZE = 4096
DIR_SLOT_SIZE = DIR_SIZE // 2


class NamespaceError(RuntimeError):
    """Raised on namespace misuse (duplicate/unknown names, exhaustion)."""


def _round_up(value, align=CACHE_LINE):
    return (value + align - 1) // align * align


def _slot_crc(seq, count, next_base, payload):
    header = DIR_HEADER.pack(DIR_MAGIC, seq, count, next_base, len(payload), 0)
    return zlib.crc32(payload, zlib.crc32(header)) & 0xFFFFFFFF


class PMNamespace:
    """Named, persistent, crash-recoverable region directory."""

    def __init__(self, device):
        if not device.persistent:
            raise NamespaceError("PMNamespace requires a persistent device")
        if device.size <= DIR_SIZE:
            raise NamespaceError("device too small for a namespace directory")
        self.device = device
        self._entries = {}
        self._next_base = DIR_SIZE
        self._dir_seq = 0
        self._write_directory(NULL_CONTEXT)

    @classmethod
    def reopen(cls, device):
        """Rebuild a namespace from the device's persisted directory.

        Use after ``device.crash()`` — this reads the persisted bytes
        (``persisted_view``), not the CPU-visible view.  Of the two directory
        slots, the CRC-valid one with the highest sequence number wins;
        a torn directory write therefore surfaces as a clean rollback
        to the previous directory, never as garbage entries.
        """
        ns = cls.__new__(cls)
        ns.device = device
        ns._entries = {}
        best = None
        for slot in range(2):
            raw = device.persisted_view(slot * DIR_SLOT_SIZE, DIR_SLOT_SIZE)
            parsed = cls._parse_slot(raw)
            if parsed is not None and (best is None or parsed[0] > best[0]):
                best = parsed
        if best is None:
            raise NamespaceError(
                "no valid namespace directory found (both slots missing "
                "or failed their checksum)"
            )
        seq, next_base, entries = best
        ns._dir_seq = seq
        ns._next_base = next_base
        ns._entries = entries
        return ns

    @staticmethod
    def _parse_slot(raw):
        """(seq, next_base, entries) for a valid slot, else None."""
        try:
            magic, seq, count, next_base, payload_len, crc = \
                DIR_HEADER.unpack_from(raw, 0)
        except struct.error:
            return None
        if magic != DIR_MAGIC:
            return None
        if payload_len > DIR_SLOT_SIZE - DIR_HEADER.size:
            return None
        payload = raw[DIR_HEADER.size:DIR_HEADER.size + payload_len]
        if _slot_crc(seq, count, next_base, payload) != crc:
            return None
        entries = {}
        cursor = 0
        try:
            for _ in range(count):
                (name_len,) = struct.unpack_from("<H", payload, cursor)
                cursor += 2
                name = payload[cursor:cursor + name_len].decode("utf-8")
                cursor += name_len
                base, size = struct.unpack_from("<QQ", payload, cursor)
                cursor += 16
                entries[name] = (base, size)
        except (struct.error, UnicodeDecodeError):
            # The CRC matched but the payload doesn't parse — treat as
            # invalid rather than half-adopt it.
            return None
        return seq, next_base, entries

    def _write_directory(self, ctx):
        parts = []
        for name, (base, size) in self._entries.items():
            encoded = name.encode("utf-8")
            parts.append(struct.pack("<H", len(encoded)))
            parts.append(encoded)
            parts.append(struct.pack("<QQ", base, size))
        payload = b"".join(parts)
        if DIR_HEADER.size + len(payload) > DIR_SLOT_SIZE:
            raise NamespaceError("namespace directory full")
        seq = self._dir_seq + 1
        crc = _slot_crc(seq, len(self._entries), self._next_base, payload)
        blob = DIR_HEADER.pack(
            DIR_MAGIC, seq, len(self._entries), self._next_base,
            len(payload), crc,
        ) + payload
        # Atomic switch: the new directory lands in the slot the current
        # one does NOT occupy; only a fully-persisted, CRC-valid write
        # can ever outrank the incumbent at reopen.
        offset = (seq % 2) * DIR_SLOT_SIZE
        self.device.write_persist(offset, blob, ctx)
        self._dir_seq = seq

    def create(self, name, size, ctx=NULL_CONTEXT):
        """Create a named region of ``size`` bytes; returns the Region."""
        if name in self._entries:
            raise NamespaceError(f"region {name!r} already exists")
        size = _round_up(size)
        base = _round_up(self._next_base)
        if base + size > self.device.size:
            raise NamespaceError(
                f"device exhausted: need {size} bytes at {base}, "
                f"device holds {self.device.size}"
            )
        self._entries[name] = (base, size)
        self._next_base = base + size
        self._write_directory(ctx)
        return self.device.region(base, size, name)

    def open(self, name):
        """Open an existing named region."""
        if name not in self._entries:
            raise NamespaceError(f"no region named {name!r}")
        base, size = self._entries[name]
        return self.device.region(base, size, name)

    def open_or_create(self, name, size, ctx=NULL_CONTEXT):
        if name in self._entries:
            return self.open(name)
        return self.create(name, size, ctx)

    def exists(self, name):
        return name in self._entries

    def names(self):
        return sorted(self._entries)

    def remove(self, name, ctx=NULL_CONTEXT):
        """Drop a region from the directory.  Space is not reclaimed
        (regions are append-allocated, like DAX file extents)."""
        if name not in self._entries:
            raise NamespaceError(f"no region named {name!r}")
        del self._entries[name]
        self._write_directory(ctx)

    def __repr__(self):
        return f"<PMNamespace {len(self._entries)} regions on {self.device.name}>"
