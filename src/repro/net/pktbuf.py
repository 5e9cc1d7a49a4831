"""``sk_buff``-analog packet metadata (Figure 3 of the paper).

A :class:`PktBuf` is the network stack's in-memory representation of a
packet: a metadata structure pointing at refcounted payload storage,
with timestamps, header offsets, parsed-protocol attachments, clone
support and optional frag pages for data larger than one buffer.

The two refcounts from the paper's Figure 3 are both here:

- the *metadata* refcount (``PktBuf.refcount``) counts users of this
  metadata instance (e.g. the socket queue and a packet-capture tap);
- the *data* refcount lives on each :class:`~repro.net.pool.PacketBuffer`
  and is shared between a packet and its clones — this is how TCP keeps
  transmitted-but-unacked payload alive for retransmission while the
  driver has long released its clone.

Layout of the linear part inside its buffer slot::

    [headroom][l2][l3][l4][payload][tailroom]
    ^slot 0   ^data_off              ^data_off+data_len
"""

from repro.sim.context import NULL_CONTEXT

DEFAULT_HEADROOM = 64

#: What touching a released packet raises.  The per-packet methods
#: test ``freed`` inline rather than through :meth:`PktBuf._alive`: the
#: check runs on every push, pull and slice of every frame.
_USE_AFTER_FREE = "use-after-free of packet metadata"


class Frag:
    """A page fragment: a slice of a refcounted buffer."""

    __slots__ = ("buf", "offset", "length")

    def __init__(self, buf, offset, length):
        if offset < 0 or length < 0 or offset + length > buf.size:
            raise IndexError("frag outside its buffer")
        self.buf = buf
        self.offset = offset
        self.length = length

    def read(self):
        return self.buf.read(self.offset, self.length)

    def __repr__(self):
        return f"<Frag {self.length}B @slot{self.buf.slot}+{self.offset}>"


class PktBuf:
    """Packet metadata: points at shared payload, carries rich metadata."""

    __slots__ = (
        "buf", "data_off", "data_len", "frags",
        "refcount",
        "tstamp", "hw_tstamp",
        "l2_off", "l3_off", "l4_off",
        "ip", "tcp",
        "csum_verified", "wire_csum",
        "freed",
    )

    def __init__(self, buf, data_off=DEFAULT_HEADROOM):
        self.buf = buf
        self.data_off = data_off
        self.data_len = 0
        self.frags = []
        self.refcount = 1
        #: Software timestamp (set by the stack on rx/tx).
        self.tstamp = None
        #: Hardware timestamp (set by the NIC when hw timestamping is on).
        self.hw_tstamp = None
        self.l2_off = None
        self.l3_off = None
        self.l4_off = None
        # Parsed header attachments (set by the stack's rx path).
        self.ip = None
        self.tcp = None
        #: True when the NIC verified the L4 (TCP or Homa) checksum in
        #: hardware.
        self.csum_verified = False
        #: The raw L4 checksum carried on the wire (reusable as a
        #: storage integrity checksum, §4.2).
        self.wire_csum = None
        self.freed = False

    # -- construction ---------------------------------------------------------

    @classmethod
    def alloc(cls, pool, headroom=DEFAULT_HEADROOM):
        """Allocate a fresh packet with ``headroom`` bytes reserved."""
        buf = pool.alloc()
        if headroom >= buf.size:
            raise ValueError("headroom larger than buffer slot")
        return cls(buf, headroom)

    # -- data manipulation ----------------------------------------------------

    @property
    def headroom(self):
        return self.data_off

    @property
    def tailroom(self):
        return self.buf.size - self.data_off - self.data_len

    @property
    def total_len(self):
        """Linear + all frags, the packet's full payload length."""
        if not self.frags:
            return self.data_len
        return self.data_len + sum(frag.length for frag in self.frags)

    def append(self, data):
        """Add bytes at the tail of the linear area (skb_put)."""
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)
        if len(data) > self.tailroom:
            raise IndexError(
                f"append of {len(data)}B exceeds tailroom {self.tailroom}"
            )
        self.buf.write(self.data_off + self.data_len, data)
        self.data_len += len(data)
        return self

    def push(self, data):
        """Prepend bytes into headroom (skb_push) — how headers are added."""
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)
        if len(data) > self.headroom:
            raise IndexError(
                f"push of {len(data)}B exceeds headroom {self.headroom}"
            )
        self.data_off -= len(data)
        self.data_len += len(data)
        self.buf.write(self.data_off, data)
        return self

    def pull(self, length):
        """Strip bytes from the head (skb_pull) — how headers are consumed."""
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)
        if length > self.data_len:
            raise IndexError(f"pull of {length}B exceeds data_len {self.data_len}")
        self.data_off += length
        self.data_len -= length
        return self

    def trim(self, length):
        """Shrink the linear data to ``length`` bytes (skb_trim)."""
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)
        if length > self.data_len:
            raise IndexError("trim cannot grow a packet")
        self.data_len = length
        return self

    def linear_bytes(self):
        """The linear data area as bytes."""
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)
        return self.buf.read(self.data_off, self.data_len)

    def payload_slice(self, offset, length):
        """Bytes from the linear payload at ``offset`` (relative to data)."""
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)
        if offset < 0 or offset + length > self.data_len:
            raise IndexError("slice outside linear data")
        return self.buf.read(self.data_off + offset, length)

    def add_frag(self, buf, offset, length):
        """Attach a page fragment; takes a data reference on ``buf``."""
        self._alive()
        buf.get()
        self.frags.append(Frag(buf, offset, length))
        return self

    def to_wire(self):
        """Linearised full packet bytes (what serialises onto the fabric)."""
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)
        if not self.frags:
            return self.buf.read(self.data_off, self.data_len)
        parts = [self.linear_bytes()]
        parts.extend(frag.read() for frag in self.frags)
        return b"".join(parts)

    # -- lifetime -------------------------------------------------------------

    def clone(self):
        """Share the payload, copy the metadata (skb_clone).

        The clone holds its own data references; either side may be
        freed, pulled or retransmitted without affecting the other's
        view of the payload bytes.
        """
        self._alive()
        copy = PktBuf(self.buf.get(), self.data_off)
        copy.data_len = self.data_len
        for frag in self.frags:
            copy.frags.append(Frag(frag.buf.get(), frag.offset, frag.length))
        copy.tstamp = self.tstamp
        copy.hw_tstamp = self.hw_tstamp
        copy.l2_off = self.l2_off
        copy.l3_off = self.l3_off
        copy.l4_off = self.l4_off
        copy.ip = self.ip
        copy.tcp = self.tcp
        copy.csum_verified = self.csum_verified
        copy.wire_csum = self.wire_csum
        return copy

    def retain(self):
        """Take a metadata reference (e.g. socket queue + capture tap)."""
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)
        self.refcount += 1
        return self

    def release(self):
        """Drop a metadata reference; at zero, drop all data references."""
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)
        self.refcount -= 1
        if self.refcount == 0:
            self.freed = True
            self.buf.put()
            for frag in self.frags:
                frag.buf.put()
        return self.refcount

    def steal_buffer(self):
        """Take ownership of the underlying data buffer (PASTE extract).

        Returns ``(buffer, data_off, data_len)`` with an extra data
        reference held by the caller; the PktBuf remains valid and is
        released independently.  This is the zero-copy handoff: the app
        ends up owning payload that is already in the (PM) pool.
        """
        self._alive()
        return self.buf.get(), self.data_off, self.data_len

    def persist_payload(self, ctx=NULL_CONTEXT, category="pm.flush"):
        """Flush+fence the payload bytes (PM-backed pools only)."""
        self._alive()
        lines = self.buf.flush(self.data_off, self.data_len, ctx, category)
        for frag in self.frags:
            lines += frag.buf.flush(frag.offset, frag.length, ctx, category)
        self.buf.pool.region.fence(ctx, category)
        return lines

    def _alive(self):
        if self.freed:
            raise RuntimeError(_USE_AFTER_FREE)

    def __repr__(self):
        return (
            f"<PktBuf len={self.data_len}+{sum(f.length for f in self.frags)} "
            f"ref={self.refcount} slot={self.buf.slot}>"
        )
