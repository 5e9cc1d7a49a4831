"""Cache-line flush bookkeeping for persistent memory.

On real hardware, a store to PM lands in the CPU cache; it becomes
durable only once its cache line is written back (``clwb`` /
``clflushopt`` / ``clflush``) *and* a store fence orders the write-back
into the persistence domain.  A crash loses every dirty line, and lines
that were written back but not yet fenced are in limbo: the write-back
may or may not have drained.

:class:`FlushTracker` models exactly that, at cache-line granularity:

- ``dirty``   — stored to, not written back.  Lost on crash.
- ``pending`` — written back (snapshot taken at clwb time), not fenced.
  On crash each pending line persists independently with a caller-
  supplied probability (hardware write-pending-queue drain is not
  ordered), which is what makes torn updates reproducible in tests.
- fenced      — durable.

Bookkeeping is per span, not per line: one clwb over a span takes one
snapshot of it, and every pending line points into that snapshot with
the same ``(buf, base)`` entry form the shadow uses, so a fence moves
entries into the shadow unchanged.  The covered lines are found and
filed with set and dict operations over the span's line range, not a
Python loop per line.

The device keeps a single byte image, the CPU-visible one.  What the
persistence domain holds is derived from it through the tracker's
**delta shadow**: ``shadow`` maps a line index to that line's persisted
bytes for every line whose live bytes may differ from them, i.e. every
line in ``dirty`` or ``pending``.  Every other line is durable as it
stands.  The shadow takes a line's pre-image on the first store after
the line was last persisted, a fence retires the lines it made durable,
and a crash writes the shadow back over the live image in place — so
the bookkeeping costs what the unpersisted lines cost, never the size
of the device.
"""

import types

from repro.pm.constants import CACHE_LINE


class FlushTracker:
    """Tracks dirty and pending (written-back, unfenced) cache lines and
    the delta shadow of persisted bytes behind them."""

    def __init__(self, line_size=CACHE_LINE):
        self.line_size = line_size
        #: Line indices stored to since their last write-back.
        self.dirty = set()
        #: line index -> ``(buf, base)`` for every written-back, unfenced
        #: line: its write-back snapshot is
        #: ``buf[line * line_size - base:][:line_size]``.  Lines written
        #: back by one clwb share that write-back's snapshot.
        self.pending = {}
        #: line index -> ``(buf, base)`` for every line in ``dirty`` or
        #: ``pending`` (lines outside it are durable as-is): the line's
        #: persisted bytes are ``buf[line * line_size - base:][:line_size]``.
        #: Lines first stored to by one store share that store's slice.
        self.shadow = {}
        # Statistics, used by benchmarks and tests.
        self.stores = 0
        self.flushes = 0
        self.fences = 0

    def lines_for(self, offset, length):
        """Range of line indices covering [offset, offset+length)."""
        if length <= 0:
            return range(0)
        first = offset // self.line_size
        last = (offset + length - 1) // self.line_size
        return range(first, last + 1)

    def mark_store(self, offset, length, data):
        """Record a store about to land in ``data``: its lines become dirty.

        Must run *before* the bytes change: a line stored to for the
        first time since it was last persisted has its pre-image — its
        persisted bytes — copied into the shadow.  The store's line span
        is sliced once, and every line not yet shadowed points into that
        one slice.

        A new store to a line that was pending re-dirties it: the
        earlier write-back snapshot still stands, but the newest bytes
        need another clwb.
        """
        self.stores += 1
        if length <= 0:
            return 0
        line_size = self.line_size
        first = offset // line_size
        last = (offset + length - 1) // line_size
        shadow = self.shadow
        if first == last:
            if first not in shadow:
                start = first * line_size
                shadow[first] = (data[start:start + line_size], start)
            self.dirty.add(first)
            return 1
        lines = range(first, last + 1)
        dirty = self.dirty
        # Dirty lines are shadowed already: a rewrite costs one C-level scan.
        if not dirty.issuperset(lines):
            base = first * line_size
            entry = (data[base:(last + 1) * line_size], base)
            if shadow.keys().isdisjoint(lines):
                shadow.update(dict.fromkeys(lines, entry))
            else:
                for line in lines:
                    if line not in shadow:
                        shadow[line] = entry
            dirty.update(lines)
        return last - first + 1

    def writeback(self, offset, length, data):
        """clwb: snapshot the current bytes of each covered dirty line.

        Lines that are not dirty are skipped (clwb of a clean line is a
        no-op for durability).  The span is sliced once, and every line
        written back points into that one snapshot.  Returns the number
        of lines written back, which the device uses to charge flush
        cost.
        """
        self.flushes += 1
        dirty = self.dirty
        if not dirty or length <= 0:
            return 0
        line_size = self.line_size
        first = offset // line_size
        last = (offset + length - 1) // line_size
        if first == last:
            if first not in dirty:
                return 0
            dirty.remove(first)
            start = first * line_size
            self.pending[first] = (data[start:start + line_size], start)
            return 1
        if len(dirty) <= last - first:
            # Sparse dirty set: walk it instead of the line range.
            hits = {line for line in dirty if first <= line <= last}
        else:
            hits = dirty.intersection(range(first, last + 1))
        if not hits:
            return 0
        base = first * line_size
        entry = (data[base:(last + 1) * line_size], base)
        self.pending.update(dict.fromkeys(hits, entry))
        dirty.difference_update(hits)
        return len(hits)

    def fence(self):
        """sfence: every pending line becomes durable.

        A line left clean since its write-back now persists exactly its
        live bytes, so it leaves the shadow; a line re-dirtied since
        then persists its write-back snapshot, which becomes its shadow
        entry.
        """
        self.fences += 1
        pending = self.pending
        drained = len(pending)
        if drained:
            dirty = self.dirty
            shadow = self.shadow
            if not dirty:
                # The shadow holds exactly the pending lines.
                shadow.clear()
            else:
                for line, entry in pending.items():
                    if line in dirty:
                        shadow[line] = entry
                    else:
                        del shadow[line]
            pending.clear()
        return drained

    def crash(self, data, rng=None, pending_persist_prob=0.5):
        """Power loss: dirty lines are gone; pending lines may drain.

        The lines that persisted are promoted into the shadow, then
        every shadow line is written back over ``data`` in place, which
        leaves ``data`` holding exactly the persisted image.

        With ``rng=None``, pending lines are dropped — the conservative
        outcome a correct recovery procedure must tolerate anyway.  This
        is a hard contract: ``rng=None`` must **never** fall back to
        global (module-level) randomness, so that every crash test in
        the suite is reproducible bit-for-bit from its seeds alone.
        Callers who want probabilistic drain pass a *seeded* RNG
        instance (``random.Random(seed)`` or any object with a
        ``random()`` method); passing the ``random`` module itself is
        rejected because its hidden global state defeats determinism.

        Pending lines are visited in sorted line order, so a given
        seeded RNG always produces the same drain decisions regardless
        of the store/flush history that built the pending map.
        """
        shadow = self.shadow
        line_size = self.line_size
        if rng is not None:
            if isinstance(rng, types.ModuleType) or not callable(getattr(rng, "random", None)):
                raise TypeError(
                    "crash() needs a seeded RNG instance with a random() "
                    "method (e.g. random.Random(seed)), not "
                    f"{rng!r} — global randomness would make crashes "
                    "unreproducible"
                )
            if not 0.0 <= pending_persist_prob <= 1.0:
                raise ValueError(
                    f"pending_persist_prob must be in [0, 1], got {pending_persist_prob}"
                )
            for line in sorted(self.pending):
                if rng.random() < pending_persist_prob:
                    shadow[line] = self.pending[line]
        for line, (buf, base) in shadow.items():
            start = line * line_size
            end = start + line_size
            data[start:end] = buf[start - base:end - base]
        shadow.clear()
        self.dirty.clear()
        self.pending.clear()

    def _persisted_pieces(self, offset, length):
        """``(lo, persisted bytes at lo)`` for each shadow line's part
        of [offset, offset+length)."""
        shadow = self.shadow
        if length <= 0 or not shadow:
            return
        line_size = self.line_size
        end = offset + length
        first = offset // line_size
        last = (end - 1) // line_size
        if len(shadow) < last - first + 1:
            lines = [line for line in shadow if first <= line <= last]
        else:
            lines = [line for line in range(first, last + 1) if line in shadow]
        for line in lines:
            buf, base = shadow[line]
            start = line * line_size
            lo = max(start, offset)
            hi = min(start + line_size, end)
            yield lo, buf[lo - base:hi - base]

    def persisted_bytes(self, data, offset, length):
        """The persisted bytes of [offset, offset+length): ``data`` with
        the shadow lines laid over it."""
        image = bytearray(data[offset:offset + length])
        for lo, piece in self._persisted_pieces(offset, length):
            image[lo - offset:lo - offset + len(piece)] = piece
        return bytes(image)

    def is_durable(self, data, offset, length):
        """True if every byte of [offset, offset+length) in ``data``
        equals its persisted byte."""
        return all(
            data[lo:lo + len(piece)] == piece
            for lo, piece in self._persisted_pieces(offset, length)
        )

    def dirty_byte_estimate(self):
        """Upper bound on unflushed bytes (line-granular)."""
        return (len(self.dirty) + len(self.pending)) * self.line_size
