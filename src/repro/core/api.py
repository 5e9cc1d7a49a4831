"""Post-POSIX I/O: passing packet metadata instead of byte streams (§5.1).

POSIX sockets copy: ``read`` drains bytes out of packet buffers into
the caller's memory, ``write`` copies them back into fresh buffers.
The paper argues the storage application should instead exchange
*packet metadata* with the stack — like FreeBSD's in-kernel ``sosend``,
which accepts an mbuf chain.

:class:`PacketIO` is that interface over a :class:`~repro.net.stack.Socket`:

- :meth:`precv` — register a handler that receives the packet metadata
  (:class:`~repro.net.tcp.RxSegment`) of each in-order delivery.  The
  handler may ``retain()`` the segment and hold the underlying (PM)
  buffer forever — that is how a storage stack adopts payload.
- :meth:`psend` — transmit ``(buffer, offset, length)`` references;
  the payload is attached as frag pages and never copied.
- :meth:`psend_record` — convenience: transmit a packet store record
  straight from persistent memory.
"""

from repro.sim.context import NULL_CONTEXT


class PacketIO:
    """Metadata-passing I/O on one connection."""

    def __init__(self, socket):
        self.socket = socket
        self.rx_segments = 0
        self.tx_bytes = 0

    # -- receive ---------------------------------------------------------------

    def precv(self, handler):
        """``handler(packet_io, segment, ctx)`` gets each in-order segment.

        The segment is packet metadata: ``segment.pktbuf`` carries the
        NIC hardware timestamp, the verified wire checksum and the
        refcounted payload buffer.  Call ``segment.retain()`` to keep
        it past the callback (zero-copy adoption).
        """

        def _bridge(sock, segment, ctx):
            self.rx_segments += 1
            handler(self, segment, ctx)

        self.socket.on_data = _bridge
        return self

    # -- transmit ---------------------------------------------------------------

    def psend(self, refs, ctx=NULL_CONTEXT):
        """Send buffer references zero-copy.

        ``refs`` is an iterable of ``(PacketBuffer, offset, length)``.
        Each becomes a frag page of outgoing segments; the transport's
        clones keep the buffers alive until cumulatively ACKed.
        """
        total = 0
        for buf, offset, length in refs:
            self.socket.send_buffer(buf, offset, length, ctx)
            total += length
        self.tx_bytes += total
        return total

    def psend_bytes(self, data, ctx=NULL_CONTEXT):
        """Classic copying send, for headers and small control data."""
        self.socket.send(data, ctx)
        self.tx_bytes += len(data)
        return len(data)

    def psend_record(self, store, key, ctx=NULL_CONTEXT):
        """Transmit a packet-store value straight from PM.

        Returns the byte count, or None if the key is absent.
        """
        record, frags = store.get_refs(key, ctx)
        if record is None or record.tombstone:
            return None
        refs = [
            (store.buffer_handle(buf_slot), offset, length)
            for buf_slot, offset, length in frags
        ]
        return self.psend(refs, ctx)

    def close(self, ctx=NULL_CONTEXT):
        self.socket.close(ctx)

    def __repr__(self):
        return f"<PacketIO rx={self.rx_segments} tx={self.tx_bytes}B>"
