"""Primary → backup replication: the stream *is* the request packets.

The paper's claim is that packets are already a persistent data
structure; replication therefore needs no serialization layer — the
primary forwards the original NIC-verified request bytes to the backup
with their provenance (hardware timestamp, wire checksum verdict)
carried alongside, and the backup's packet-native store adopts the
forwarded frames exactly as it would adopt a client's.  Concretely:

- :class:`Replicator` (primary side): ack-tracked store-and-forward.
  Every forwarded put is pending until the backup's application-level
  ack; retries follow a deterministic bounded
  :class:`~repro.cluster.backoff.Backoff` schedule and every retry
  carries the *same* origin RPC id, so the backup can deduplicate.
  When the budget is exhausted the backup is marked suspect, in-flight
  transport state to it is torn down (:meth:`HomaTransport.abort_peer`)
  and the node degrades to primary-only acks — graceful degradation,
  counted, never silent.
- :class:`ReplicationApplier` (backup side): listens on the
  replication port, deduplicates by origin RPC id (bounded memory,
  like Homa's completed-RPC memory), restores the original packet
  provenance onto the parsed message, and applies it through the very
  same dispatch path a client request takes — same containment, same
  status contract, same metrics.

Wire format (all big-endian)::

    REPL message:  "RPL1" | origin_rpc_id u64 | hw_tstamp f64 |
                   wire_csum u32 | flags u16 | pad u16 | request bytes
    REPL ack:      "RPLA" | origin_rpc_id u64 | status u16

A ``hw_tstamp`` of -1.0 / ``wire_csum`` of 0xFFFFFFFF encode None.
"""

import struct

from repro.net.tcp import RxSegment

REPL_MAGIC = b"RPL1"
REPL_ACK_MAGIC = b"RPLA"
_REPL_HEADER = struct.Struct("!4sQdIHH")
_REPL_ACK = struct.Struct("!4sQH")
REPL_HEADER_LEN = _REPL_HEADER.size
REPL_ACK_LEN = _REPL_ACK.size

#: No csum / no tstamp sentinels (a DRAM-stack client, or synthetic load).
_NO_CSUM = 0xFFFFFFFF
_NO_TSTAMP = -1.0

#: Bounded dedup memory on the backup, same idea (and default size) as
#: the transport's completed-RPC memory.
APPLIED_MEMORY = 4096


def encode_repl_message(origin_rpc_id, hw_tstamp, wire_csum, request_bytes,
                        flags=0):
    """Frame the forwarded request bytes with their packet provenance."""
    header = _REPL_HEADER.pack(
        REPL_MAGIC, origin_rpc_id,
        _NO_TSTAMP if hw_tstamp is None else float(hw_tstamp),
        _NO_CSUM if wire_csum is None else (wire_csum & 0xFFFFFFFF),
        flags, 0,
    )
    return header + bytes(request_bytes)


def decode_repl_header(raw):
    """``(origin_rpc_id, hw_tstamp, wire_csum, flags)`` or ValueError."""
    if len(raw) < REPL_HEADER_LEN:
        raise ValueError(f"replication header truncated: {len(raw)} bytes")
    magic, origin, tstamp, csum, flags, _pad = _REPL_HEADER.unpack_from(raw, 0)
    if magic != REPL_MAGIC:
        raise ValueError(f"bad replication magic {magic!r}")
    return (origin,
            None if tstamp == _NO_TSTAMP else tstamp,
            None if csum == _NO_CSUM else csum,
            flags)


def encode_repl_ack(origin_rpc_id, status):
    return _REPL_ACK.pack(REPL_ACK_MAGIC, origin_rpc_id, status & 0xFFFF)


def decode_repl_ack(raw):
    """``(origin_rpc_id, status)`` or ValueError."""
    if len(raw) < REPL_ACK_LEN:
        raise ValueError(f"replication ack truncated: {len(raw)} bytes")
    magic, origin, status = _REPL_ACK.unpack_from(raw, 0)
    if magic != REPL_ACK_MAGIC:
        raise ValueError(f"bad replication ack magic {magic!r}")
    return origin, status


class _PendingRepl:
    """One ack-tracked forwarded put, retried until acked or exhausted."""

    __slots__ = ("origin_rpc_id", "payload", "backup_ip", "retries",
                 "timer", "on_ack", "first_send_ns", "done", "repl_rpcs")

    def __init__(self, origin_rpc_id, payload, backup_ip, on_ack,
                 first_send_ns):
        self.origin_rpc_id = origin_rpc_id
        self.payload = payload
        self.backup_ip = backup_ip
        self.on_ack = on_ack
        self.first_send_ns = first_send_ns
        self.retries = 0
        self.timer = None
        self.done = False
        self.repl_rpcs = []


class Replicator:
    """Ack-tracked store-and-forward from a primary to its backups.

    One instance per server host.  ``replicate()`` is called by the
    cluster server after a local put succeeds; ``on_ack(ok, ctx)``
    fires exactly once per call — ``ok=True`` when the backup
    acknowledged the apply, ``ok=False`` when the node degraded to a
    primary-only ack (backup suspect, retry budget exhausted, or
    apply rejected).  ``ctx`` is None on the timer-driven failure path.
    """

    def __init__(self, host, repl_port, backoff=None, recorder=None):
        self.host = host
        self.sim = host.sim
        self.transport = host.enable_homa()
        self.repl_port = repl_port
        self.backoff = backoff if backoff is not None else _default_backoff()
        #: Optional shared cluster Recorder: links each forwarded RPC
        #: into the origin request's span chain.
        self.recorder = recorder
        self._pending = {}
        #: Backup IPs that exhausted their retry budget; subsequent
        #: puts degrade immediately instead of queueing for a corpse.
        self.suspect = set()
        self.stats = {
            "sent": 0, "acked": 0, "retries": 0, "give_ups": 0,
            "degraded_acks": 0, "backup_apply_errors": 0,
            "suspect_fast_fails": 0, "lag_ns_last": 0.0, "lag_ns_max": 0.0,
        }

    @property
    def pending(self):
        return len(self._pending)

    def replicate(self, origin_rpc_id, request_bytes, hw_tstamp, wire_csum,
                  backup_ip, ctx, on_ack):
        """Forward one applied put to ``backup_ip``; ack-tracked."""
        if backup_ip in self.suspect:
            self.stats["suspect_fast_fails"] += 1
            self.stats["degraded_acks"] += 1
            on_ack(False, ctx)
            return
        payload = encode_repl_message(origin_rpc_id, hw_tstamp, wire_csum,
                                      request_bytes)
        entry = _PendingRepl(origin_rpc_id, payload, backup_ip, on_ack,
                             self.sim.now)
        self._pending[origin_rpc_id] = entry
        self.stats["sent"] += 1
        self._send(entry, ctx)
        self._arm(entry)

    def reset_suspicion(self):
        """Routing changed (failover): stale suspicion no longer applies."""
        self.suspect.clear()

    # -- internals ------------------------------------------------------------

    def _send(self, entry, ctx):
        rpc_id = self.transport.send_request(
            entry.backup_ip, self.repl_port, entry.payload, ctx,
            on_reply=lambda segments, c, e=entry: self._on_reply(e, segments, c),
            on_giveup=lambda _rpc, e=entry: self._on_transport_giveup(e),
        )
        entry.repl_rpcs.append(rpc_id)
        if self.recorder is not None:
            # Cross-host stitching: the forwarded RPC is a child span of
            # the origin request's chain.
            self.recorder.link_rpc(entry.origin_rpc_id, rpc_id)

    def _arm(self, entry):
        if entry.timer is not None:
            entry.timer.cancel()
        entry.timer = self.sim.schedule(
            self.backoff.delay(entry.retries), self._on_timeout,
            entry.origin_rpc_id,
        )

    def _on_timeout(self, origin_rpc_id):
        entry = self._pending.get(origin_rpc_id)
        if entry is None or entry.done:
            return
        entry.timer = None
        if self.backoff.exhausted(entry.retries):
            self._fail(entry)
            return
        entry.retries += 1
        self.stats["retries"] += 1
        # Re-forward on the origin RPC's core: the retry carries the
        # same origin id, so the backup's dedup absorbs any overlap
        # with a still-in-flight earlier attempt.
        self.host.process_on_core(
            self.transport.core_for_rpc(entry.origin_rpc_id),
            lambda ctx: self._send(entry, ctx),
        )
        self._arm(entry)

    def _on_transport_giveup(self, entry):
        """Homa gave up on one forwarded RPC (peer presumed dead):
        skip the remaining backoff wait for that attempt."""
        if entry.done or entry.origin_rpc_id not in self._pending:
            return
        self._on_timeout(entry.origin_rpc_id)

    def _on_reply(self, entry, segments, ctx):
        if entry.done or self._pending.get(entry.origin_rpc_id) is not entry:
            return  # stale reply from a superseded attempt
        try:
            origin, status = decode_repl_ack(
                b"".join(s.bytes() for s in segments))
        except ValueError:
            return
        if origin != entry.origin_rpc_id:
            return
        entry.done = True
        del self._pending[entry.origin_rpc_id]
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        lag = self.sim.now - entry.first_send_ns
        self.stats["lag_ns_last"] = lag
        if lag > self.stats["lag_ns_max"]:
            self.stats["lag_ns_max"] = lag
        if status == 200:
            self.stats["acked"] += 1
            entry.on_ack(True, ctx)
        else:
            # The backup refused the apply (e.g. its slab is full).
            # Retrying would refuse again; degrade, loudly.
            self.stats["backup_apply_errors"] += 1
            self.stats["degraded_acks"] += 1
            entry.on_ack(False, ctx)

    def _fail(self, entry):
        if entry.done:
            return
        entry.done = True
        self._pending.pop(entry.origin_rpc_id, None)
        if entry.timer is not None:
            entry.timer.cancel()
            entry.timer = None
        self.stats["give_ups"] += 1
        self.stats["degraded_acks"] += 1
        if entry.backup_ip not in self.suspect:
            self.suspect.add(entry.backup_ip)
            # Tear down every queued retransmission aimed at the
            # corpse; other pending entries to it fail through their
            # own give-up callbacks.
            self.transport.abort_peer(entry.backup_ip)
        entry.on_ack(False, None)

    def __repr__(self):
        return (f"<Replicator :{self.repl_port} pending={self.pending} "
                f"suspect={len(self.suspect)}>")


def _default_backoff():
    from repro.cluster.backoff import Backoff

    return Backoff()


class ReplicationApplier:
    """Backup-side apply: adopt forwarded request packets, idempotently.

    Dedup is by origin RPC id with bounded memory: a replication retry
    whose earlier attempt already applied re-acks without re-running
    the put — the store never sees the same client put twice.
    """

    def __init__(self, kv, repl_port, applied_memory=APPLIED_MEMORY):
        self.kv = kv
        self.host = kv.host
        self.repl_port = repl_port
        self.applied_memory = applied_memory
        self._applied = {}   # origin_rpc_id -> ack status
        self.stats = {"applied": 0, "dup_suppressed": 0, "apply_errors": 0,
                      "bad_frames": 0}
        self.host.enable_homa().listen(repl_port, self._on_repl)

    def _on_repl(self, rpc, segments, ctx):
        from repro.net.http import HttpError, HttpParser
        from repro.storage.kvserver import _status_of

        first = segments[0].bytes() if segments else b""
        try:
            origin, hw_tstamp, wire_csum, _flags = decode_repl_header(first)
        except ValueError:
            self.stats["bad_frames"] += 1
            rpc.reply(encode_repl_ack(0, 400), ctx)
            return
        remembered = self._applied.get(origin)
        if remembered is not None:
            # Idempotency: this origin already applied (the ack got
            # lost, or a retry overtook it).  Never re-run the put.
            self.stats["dup_suppressed"] += 1
            rpc.reply(encode_repl_ack(origin, remembered), ctx)
            return

        # Parse the forwarded request straight out of the delivered
        # frames: a header-skipping view of the first segment, the rest
        # untouched.  The parser takes its own buffer references, so
        # the adopted value bytes are the DMA'd replication packets —
        # the same zero-copy adoption a client put gets.
        parser = HttpParser(is_response=False)
        head = segments[0]
        view = RxSegment(head.pktbuf, head.offset + REPL_HEADER_LEN,
                         head.length - REPL_HEADER_LEN)
        messages = []
        try:
            messages.extend(parser.feed(view, ctx, self.kv.costs))
            for segment in segments[1:]:
                messages.extend(parser.feed(segment, ctx, self.kv.costs))
            if parser.pending:
                raise HttpError("truncated replicated request")
        except HttpError:
            parser.reset()
            for message in messages:
                message.release()
            self.stats["bad_frames"] += 1
            rpc.reply(encode_repl_ack(origin, 400), ctx)
            return

        # Not the front-end's request envelope (_KVDispatch._serve): an
        # apply charges no HTTP build, its span kind is REPL, and the RPC
        # is answered once, with an ack, after every message applied.
        recorder = self.kv.recorder
        core = self.host.homa.core_for_rpc(rpc.rpc_id).index
        status = 0
        for message in messages:
            # Restore the original packet's provenance: the store
            # indexes the client's NIC-verified checksum and hardware
            # timestamp, not the replication hop's.
            message.hw_tstamp = hw_tstamp
            message.wire_csum = wire_csum
            if recorder is not None:
                recorder.request_begin(ctx)
            try:
                try:
                    response = self.kv._dispatch(message, ctx)
                finally:
                    message.release()
                status = _status_of(response)
            finally:
                if recorder is not None:
                    recorder.request_end("REPL", status, core, ctx,
                                         rpc_id=rpc.rpc_id)
        if status == 200:
            self.stats["applied"] += 1
        else:
            self.stats["apply_errors"] += 1
        self._remember(origin, status)
        rpc.reply(encode_repl_ack(origin, status), ctx)

    def _remember(self, origin, status):
        self._applied[origin] = status
        if len(self._applied) > self.applied_memory:
            for old in list(self._applied)[:self.applied_memory // 4]:
                del self._applied[old]

    def __repr__(self):
        return f"<ReplicationApplier :{self.repl_port} {self.stats['applied']} applied>"
