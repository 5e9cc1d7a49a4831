"""The networked key-value server of the paper's §3.

Listens for HTTP over the simulated TCP stack, dispatches PUT/GET/
DELETE to a pluggable storage engine, and answers — all within the
run-to-completion processing slice of the receiving core, which is
what makes storage-stack cost visible as end-to-end latency and
queueing (Figure 2).

Protocol (what ``wrk`` drives):

- ``PUT /<key>`` with the value as the body → ``200 OK``
- ``GET /<key>`` → ``200`` with the value, or ``404``
- ``DELETE /<key>`` → ``200``
- ``GET /__scan__?start=<k>&end=<k>`` → range query (the "efficient
  range query support" the paper lists among NoveLSM's storage
  properties); the body is a length-prefixed binary pair stream,
  decodable with :func:`decode_scan_body`.

Resource exhaustion is *contained* per request (docs/RESILIENCE.md):
a full packet pool or PM arena answers 503/507 with every packet
reference released, instead of unwinding into TCP receive processing
and crashing the server.  Handing the server an
:class:`~repro.core.overload.OverloadController` additionally enables
watermark-driven admission control, emergency reclamation, and
zero-copy→copy GET degradation.
"""

import struct

from repro.core.overload import CONTAINABLE, status_for_failure
from repro.net.http import HttpError, HttpParser, build_response
from repro.net.tcp import SendQueueFull, TcpState


def encode_scan_body(pairs):
    """Serialise (key, value) pairs: [u16 klen][u32 vlen][key][value]..."""
    parts = []
    for key, value in pairs:
        parts.append(struct.pack("<HI", len(key), len(value)))
        parts.append(key)
        parts.append(value)
    return b"".join(parts)


def decode_scan_body(body):
    """Inverse of :func:`encode_scan_body`.

    Raises :class:`ValueError` (with the failing offset) on truncated
    or garbage input instead of surfacing a bare ``struct.error``.
    """
    pairs = []
    cursor = 0
    while cursor < len(body):
        if cursor + 6 > len(body):
            raise ValueError(
                f"truncated scan body: {len(body) - cursor} trailing bytes "
                f"at offset {cursor} (need 6 for a pair header)"
            )
        key_len, value_len = struct.unpack_from("<HI", body, cursor)
        cursor += 6
        if cursor + key_len + value_len > len(body):
            raise ValueError(
                f"truncated scan body: pair at offset {cursor - 6} declares "
                f"{key_len}+{value_len} payload bytes but only "
                f"{len(body) - cursor} remain"
            )
        key = body[cursor:cursor + key_len]
        cursor += key_len
        value = body[cursor:cursor + value_len]
        cursor += value_len
        pairs.append((key, value))
    return pairs


def _parse_scan_query(path):
    """start/end bounds out of ``/__scan__?start=a&end=b`` (both optional)."""
    query = path.split("?", 1)[1] if "?" in path else ""
    bounds = {"start": None, "end": None}
    for part in query.split("&"):
        if "=" in part:
            name, value = part.split("=", 1)
            if name in bounds and value:
                bounds[name] = value.encode("utf-8")
    return bounds["start"], bounds["end"]


class _RequestShed(Exception):
    """Internal: admission control refused this request (answer 503)."""


def _status_of(response):
    """Status code out of serialised response bytes (``HTTP/1.1 NNN ...``)."""
    try:
        return int(response[9:12])
    except (ValueError, TypeError):
        return 0


class _KVDispatch:
    """Request dispatch + containment shared by every KV front-end.

    Subclasses provide the transport glue: they parse requests off
    their transport, run each through :meth:`_serve`, and supply
    ``_send_response(conn, response, ctx)``.  This class owns the
    request envelope and the status-code contract:

    =====  ==================================================
    400    malformed HTTP (parser raised :class:`HttpError`)
    503    shed by admission control, or transient packet-
           memory exhaustion (``PoolExhausted``)
    507    persistent storage full (``SlabExhausted`` /
           ``AllocationError``) after emergency reclamation
    =====  ==================================================
    """

    #: Serve GETs straight out of PM (only :class:`KVServer` can).
    zero_copy_get = False

    def __init__(self, host, engine, port, overload=None, contain_errors=True):
        self.host = host
        self.engine = engine
        self.port = port
        self.costs = host.costs
        self.contain_errors = contain_errors
        self.overload = overload
        #: Optional live-observability hook (repro.obs.Recorder); when
        #: None the request path pays one attribute load per request.
        self.recorder = None
        self.stats = {"puts": 0, "gets": 0, "deletes": 0, "hits": 0,
                      "misses": 0, "bad_requests": 0, "connections": 0,
                      "zero_copy_gets": 0, "shed": 0, "contained_errors": 0,
                      "degraded_gets": 0, "dropped_responses": 0,
                      "parse_errors": 0}
        if overload is not None:
            self._wire_overload(overload)

    def _wire_overload(self, overload):
        """Default wiring: host pools + whatever the engine exposes."""
        overload.watch(self.host.rx_pool)
        overload.watch(self.host.tx_pool)
        for source in getattr(self.engine, "pressure_sources", ()):
            overload.watch(source)
        reclaim = getattr(self.engine, "reclaim", None)
        if reclaim is not None:
            overload.add_reclaimer(reclaim)

    # -- admission ------------------------------------------------------------

    def _admit(self, ctx):
        if self.overload is None:
            return True
        return self.overload.admit(ctx)

    def _should_degrade(self):
        if self.overload is not None and \
                self.overload.should_degrade_zero_copy():
            self.stats["degraded_gets"] += 1
            return True
        return False

    def _engine_put(self, key, message, ctx):
        """One put, with a single retry after emergency reclamation.

        The engine releases its own references on failure (the store's
        put is transactional), and ``message`` still holds the body
        slices, so a retry takes fresh references from intact state.
        """
        try:
            self.engine.put(key, message, ctx)
        except CONTAINABLE:
            if self.overload is None or not self.overload.relieve(ctx):
                raise
            self.engine.put(key, message, ctx)

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, message, ctx):
        """Run one request against the engine; returns response bytes.

        Containable failures (and admission sheds) become 503/507
        responses here; anything else propagates — and with
        ``contain_errors=False`` even the containable ones do, which is
        how the chaos harness proves the containment layer matters.
        """
        self.costs.charge_app(ctx)
        key = (message.path or "/").split("?", 1)[0].lstrip("/").encode("utf-8")
        try:
            return self._route(message, key, ctx)
        except _RequestShed:
            self.stats["shed"] += 1
            return build_response(503, b"overloaded: request shed",
                                  extra_headers={"Retry-After": "0"})
        except CONTAINABLE as exc:
            if not self.contain_errors:
                raise
            status = status_for_failure(exc) or 503
            self.stats["contained_errors"] += 1
            if status == 507 and self.overload is not None:
                # Best effort: reclaim now so the client's retry can land.
                self.overload.relieve(ctx)
            return build_response(status, str(exc).encode("utf-8", "replace"))

    def _route(self, message, key, ctx):
        if message.method == "GET" and key.startswith(b"__scan__") and \
                hasattr(self.engine, "scan"):
            start, end = _parse_scan_query(message.path)
            pairs = list(self.engine.scan(start, end, ctx))
            return build_response(200, encode_scan_body(pairs))
        if message.method == "PUT" and key:
            if not self._admit(ctx):
                raise _RequestShed
            self._engine_put(key, message, ctx)
            self.stats["puts"] += 1
            return build_response(200)
        if message.method == "GET" and key:
            self.stats["gets"] += 1
            value = self.engine.get(key, ctx)
            if value is None:
                self.stats["misses"] += 1
                return build_response(404)
            self.stats["hits"] += 1
            return build_response(200, value)
        if message.method == "DELETE" and key and hasattr(self.engine, "delete"):
            if not self._admit(ctx):
                raise _RequestShed
            self.engine.delete(key, ctx)
            self.stats["deletes"] += 1
            return build_response(200)
        self.stats["bad_requests"] += 1
        return build_response(404)

    # -- the request envelope -------------------------------------------------

    def _serve(self, conn, message, core, ctx, rpc_id=None):
        """Serve one parsed request; every front-end runs this.

        Opens the request span, dispatches, drops the request's packet
        references, builds the response, hands it to the transport's
        ``_send_response(conn, ...)`` and closes the span on ``core``
        (``rpc_id`` joins a Homa request's span to its RPC).
        """
        recorder = self.recorder
        if recorder is not None:
            recorder.request_begin(ctx)
        kind = message.method or "?"
        status = 0  # 0 = the handler raised (containment disabled)
        try:
            try:
                if self.zero_copy_get and kind == "GET" and \
                        not message.path.lstrip("/").startswith("__scan__") and \
                        not self._should_degrade():
                    self.costs.charge_app(ctx)
                    key = (message.path or "/").lstrip("/").encode("utf-8")
                    if key:
                        status = self._zero_copy_get(conn, key, ctx)
                        return
                response = self._dispatch(message, ctx)
            finally:
                message.release()
            self.costs.charge_http_build(ctx)
            status = _status_of(response)
            self._send_response(conn, response, ctx)
        finally:
            if recorder is not None:
                recorder.request_end(kind, status, core, ctx, rpc_id=rpc_id)

    def _reject(self, exc):
        """Count a malformed request; returns the 400 answering it."""
        self.stats["parse_errors"] += 1
        self.stats["bad_requests"] += 1
        return build_response(400, str(exc).encode("utf-8", "replace"))


class KVServer(_KVDispatch):
    """HTTP front-end binding a storage engine to a host's stack.

    With ``zero_copy_get=True`` (and an engine exposing ``get_refs``,
    i.e. the packet store), GET responses transmit the stored value
    straight out of persistent memory as TCP frag pages — §4.2's send
    path: "it can avoid memory deallocation in its own allocator and
    memory allocation inside the network stack".  Under pool pressure
    the server degrades to the copy path (a zero-copy response pins
    its source buffers in the retransmission queue until ACKed).
    """

    def __init__(self, host, engine, port=80, zero_copy_get=False,
                 overload=None, contain_errors=True):
        super().__init__(host, engine, port, overload, contain_errors)
        self.zero_copy_get = zero_copy_get and hasattr(engine, "store")
        host.stack.listen(port, self._on_accept)

    def _on_accept(self, sock, ctx):
        self.stats["connections"] += 1
        parser = HttpParser(is_response=False)
        sock.on_data = lambda s, segment, c: self._on_data(s, parser, segment, c)
        # A connection that dies mid-request (RST, or FIN after half a
        # body) leaves retained body slices in the parser; drop them
        # with the connection or a stalled client leaks pool slots.
        sock.on_reset = lambda s: parser.reset()
        sock.on_close = lambda s: parser.reset()

    def _on_data(self, sock, parser, segment, ctx):
        try:
            messages = parser.feed(segment, ctx, self.costs)
        except HttpError as exc:
            if not self.contain_errors:
                raise
            # The stream position is unrecoverable after a parse error:
            # drop partial state (and its packet references), answer
            # 400, and close our side.
            parser.reset()
            self._send_response(sock, self._reject(exc), ctx)
            if sock.state not in (TcpState.CLOSED, TcpState.TIME_WAIT):
                sock.close(ctx)
            return
        for message in messages:
            self._serve(sock, message, sock.core.index, ctx)

    def _send_response(self, sock, response, ctx):
        """Transmit, tolerating a connection the client already killed."""
        if sock.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            self.stats["dropped_responses"] += 1
            return
        try:
            sock.send(response, ctx)
        except SendQueueFull:
            if not self.contain_errors:
                raise
            # The client stopped draining and the bounded queue is
            # full; park nothing — reset so its buffers free now.
            self.stats["dropped_responses"] += 1
            sock.abort(ctx)
        if sock.state is TcpState.CLOSED:
            # The tx pool died mid-send and TCP reset the connection.
            self.stats["dropped_responses"] += 1

    def _zero_copy_get(self, sock, key, ctx):
        """Serve a GET without copying the value: headers go out as
        bytes, the value as frag references into the PM packet pool.
        Returns the response status for the request span."""
        store = self.engine.store
        self.stats["gets"] += 1
        record, frags = store.get_refs(bytes(key), ctx)
        self.costs.charge_http_build(ctx)
        if record is None or record.tombstone:
            self.stats["misses"] += 1
            self._send_response(sock, build_response(404), ctx)
            return 404
        self.stats["hits"] += 1
        self.stats["zero_copy_gets"] += 1
        head = (
            f"HTTP/1.1 200 OK\r\nContent-Length: {record.value_len}\r\n\r\n"
        ).encode("ascii")
        if sock.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            self.stats["dropped_responses"] += 1
            return 200
        try:
            # MSG_MORE coalesces head + value refs into full segments.
            sock.send(head, ctx, more=True)
            for index, (buf_slot, offset, length) in enumerate(frags):
                last = index == len(frags) - 1
                sock.send_buffer(store.buffer_handle(buf_slot), offset, length,
                                 ctx, more=not last)
        except SendQueueFull:
            if not self.contain_errors:
                raise
            # Part of the response may already be queued; the stream
            # cannot be repaired, so reset (teardown releases every
            # queued reference).
            self.stats["dropped_responses"] += 1
            sock.abort(ctx)
        return 200

    def __repr__(self):
        return f"<KVServer :{self.port} engine={self.engine.name}>"


class HomaKVServer(_KVDispatch):
    """The same KV service over the Homa-like transport (§5.2).

    Requests and responses are self-contained messages carrying the
    same HTTP-style encoding, so the storage engines — including the
    packet-native one, whose zero-copy adoption works on any segment's
    packet metadata — run unchanged.  Dispatch, admission control,
    error containment and the request envelope are the TCP server's
    (shared base class); this class parses RPCs (:meth:`_parse_rpc`)
    and answers each request with ``rpc.reply``.
    """

    def __init__(self, host, engine, port=80, overload=None,
                 contain_errors=True):
        super().__init__(host, engine, port, overload, contain_errors)
        self.transport = host.enable_homa()
        self.transport.listen(port, self._on_request)

    def _on_request(self, rpc, segments, ctx):
        messages = self._parse_rpc(rpc, segments, ctx)
        core = self.transport.core_for_rpc(rpc.rpc_id).index
        for message in messages:
            self._serve(rpc, message, core, ctx, rpc.rpc_id)

    def _parse_rpc(self, rpc, segments, ctx):
        """The requests one RPC carries.  A malformed RPC is answered
        400 here, with every packet reference released, and yields no
        request."""
        self.stats["connections"] += 1
        parser = HttpParser(is_response=False)
        messages = []
        try:
            for segment in segments:
                messages.extend(parser.feed(segment, ctx, self.costs))
        except HttpError as exc:
            if not self.contain_errors:
                raise
            parser.reset()
            for message in messages:
                message.release()
            rpc.reply(self._reject(exc), ctx)
            return ()
        return messages

    def _send_response(self, rpc, response, ctx):
        rpc.reply(response, ctx)

    def __repr__(self):
        return f"<HomaKVServer :{self.port} engine={self.engine.name}>"
