"""Replay: a capture is a workload *and* a disaster-recovery image.

Two replay modes, one file:

- :class:`CaptureSource` parses the captured client->server byte
  stream back into ``(method, key, value)`` operations — a
  :class:`~repro.bench.workloads.TrafficSource` like any other, so a
  capture drives wrk clients, chaos storms or ``repro-stats`` with no
  special-casing in the consumers.

- :func:`rebuild_standby` treats the capture as the store itself: it
  builds a fresh server (fresh simulator, fresh PM) from the capture's
  embedded ``ServerConfig`` and injects the recorded frames straight
  into the NIC at their recorded sim-clock times.  Because the network
  stack is deterministic (fixed initial sequence numbers, seedless
  timers), the standby walks the same protocol exchange the live
  server did and ends up with the same store — the paper's "packets
  are the data structure" made operational.

The standby's replies go nowhere: it is built on a private fabric with
no client ports, so its tx frames blackhole exactly like frames to an
unplugged host.  What matters is the rx side, and that is replayed
byte-for-byte (:func:`inject` re-records the delivered stream; its
digest must equal the capture's — the replay-determinism pin).

Equivalence is *verified*, not assumed: :func:`verify_rebuild` runs
the crash sweeps' :class:`~repro.testing.oracle.KVDurabilityOracle`
over the rebuilt store against the live one and compares recovery
digests (sorted key/value SHA-256).

:func:`reseed_from_capture` closes the cluster's re-replication gap:
after a kill + failover, a promoted shard has no backup until a new
host holds the dead one's data.  The capture has everything needed —
the dead host's delivered history plus every post-kill frame the
survivors applied — so the reseed rebuilds a standby from those,
swaps it onto the dead host's fabric port and revives it in the ring.
"""

import hashlib

from repro.bench.testbed import PASTE_POOL_BYTES, PM_BYTES, make_server_host
from repro.bench.workloads import TrafficSource
from repro.capture.format import Capture
from repro.net.fabric import Fabric
from repro.net.headers import (
    ETH_HEADER_LEN,
    IPV4_HEADER_LEN,
    IPPROTO_TCP,
    IPv4Header,
    SYN,
    TCP_HEADER_LEN,
    TCPHeader,
    ip_to_int,
)
from repro.net.nic import l4_csum_info
from repro.pm.device import PMDevice
from repro.sim.context import NULL_CONTEXT
from repro.sim.engine import Simulator
from repro.storage.engines import direct_put
from repro.storage.server import ServerConfig, serve
from repro.testing.oracle import KVDurabilityOracle
from repro.testing.verdict import Verdict

DEFAULT_MAX_EVENTS = 50_000_000


# -- frame injection -----------------------------------------------------------


def inject(capture, host, dst_ip=None, time_offset=0.0, echo=None):
    """Schedule every captured frame addressed to ``dst_ip`` (default:
    the host's own address) for delivery into ``host``'s NIC at its
    recorded timestamp (+ ``time_offset``).

    Records are scheduled in capture order, which the simulator's FIFO
    tie-break preserves for same-timestamp frames — the standby sees
    the stream in exactly the recorded delivery order.

    ``echo``, if given, is a :class:`Capture` that re-records each
    frame at the moment it is actually delivered; its digest equalling
    the injected stream's digest is the replay-determinism check.

    Returns the number of frames scheduled.
    """
    sim = host.sim
    nic = host.nic
    dst_ip = host.ip if dst_ip is None else ip_to_int(dst_ip)
    count = 0
    for record in capture.records:
        if record.dst_ip != dst_ip:
            continue
        when = record.t_ns + time_offset

        def deliver(record=record, when=when):
            if echo is not None:
                echo.append(when - time_offset, record.src_ip,
                            record.dst_ip, record.frame)
            nic.on_wire(record.frame)

        sim.at(when, deliver)
        count += 1
    return count


# -- standby rebuild -----------------------------------------------------------


class Standby:
    """A server rebuilt from a capture: its world and its verdicts."""

    def __init__(self, sim, fabric, host, server, injected, echo):
        self.sim = sim
        self.fabric = fabric
        self.host = host
        self.server = server
        self.engine = server.engine
        self.kv = server.kv
        #: Frames scheduled into the NIC.
        self.injected = injected
        #: Capture of what was actually delivered, in delivery order.
        self.echo = echo

    def digest(self):
        return store_digest(self.engine)

    def __repr__(self):
        return f"<Standby {self.injected} frames replayed>"


def rebuild_standby(capture, config=None, server_ip=None,
                    pm_bytes=None, paste_pool_bytes=None,
                    run=True, max_events=DEFAULT_MAX_EVENTS):
    """Rebuild a warm standby *from the capture alone*.

    Builds a fresh simulator + fabric + PM + host from the capture's
    embedded config (or ``config=``), injects every frame addressed to
    the captured server, and runs the simulator until the replayed
    protocol exchange drains.  No state from the live run is consulted
    — what the standby knows, the capture told it.
    """
    meta = capture.meta or {}
    if config is None:
        config = ServerConfig.from_capture_meta(meta)
    if config.capture:
        # The standby must not re-capture its own rebuild.
        config = config.with_overrides(
            capture=False, capture_max_frames=None, capture_max_bytes=None,
        )
    config.validate()
    if server_ip is None:
        server_ip = meta.get("server_ip")
    if server_ip is None:
        raise ValueError("capture meta has no server_ip; pass server_ip=")
    server_ip = ip_to_int(server_ip)
    # World sizing comes from the capture too: pool pressure (and its
    # evictions) is part of the history being replayed.
    if pm_bytes is None:
        pm_bytes = meta.get("pm_bytes") or PM_BYTES
    if paste_pool_bytes is None:
        paste_pool_bytes = meta.get("paste_pool_bytes", PASTE_POOL_BYTES)

    sim = Simulator()
    # A private fabric with a single port: the standby's replies target
    # clients that do not exist here and blackhole, like a LAN would.
    fabric = Fabric(sim)
    host, pm_ns = make_server_host(
        sim, meta.get("server_name", "standby"), server_ip, fabric,
        PMDevice(pm_bytes, name="standby-pm"), cores=config.cores,
        paste_pool_bytes=paste_pool_bytes,
    )
    server = serve(host, config, pm_ns=pm_ns)

    echo = Capture(meta={"rebuild_of": capture.digest()})
    injected = inject(capture, host, dst_ip=server_ip, echo=echo)
    standby = Standby(sim, fabric, host, server, injected, echo)
    if run:
        sim.run_until_idle(max_events=max_events)
    return standby


# -- store equivalence ---------------------------------------------------------


def store_mapping(engine):
    """The engine's visible {key: value} dict (engines with ``scan``)."""
    scan = getattr(engine, "scan", None)
    if scan is None:
        raise ValueError(
            f"{type(engine).__name__} has no scan(); store equivalence "
            f"needs an enumerable engine (novelsm, pktstore)"
        )
    return {bytes(key): bytes(value) for key, value in scan()}


def store_digest(engine):
    """Recovery digest: SHA-256 over the sorted key/value mapping.

    The same shape as the bench lane's recovered-store digest: equal
    digests mean byte-identical visible stores.
    """
    return _digest_of_mapping(store_mapping(engine))


class _MappingView:
    """Adapter: a plain dict speaking the oracle's mapping protocol."""

    def __init__(self, mapping):
        self._mapping = dict(mapping)

    def mapping(self):
        return self._mapping


class _MappingJournal:
    """Adapter: the live store's mapping as the journal of record —
    each key's only allowed outcome is the value the live store holds."""

    def __init__(self, mapping):
        self._mapping = dict(mapping)

    def expectations(self, _event_index):
        return {key: {value} for key, value in self._mapping.items()}


class _FinalScenario:
    """Adapter: the 'crash point' is the end of history."""

    event_index = 0


class RebuildReport(Verdict):
    """Outcome of one rebuild-equivalence check."""

    TAG = "capture"
    HELD = ("equivalence held: identical recovery digests, durability "
            "oracle clean")

    def __init__(self, live_digest, rebuilt_digest, checked):
        super().__init__()
        self.live_digest = live_digest
        self.rebuilt_digest = rebuilt_digest
        #: Keys held by either store — what the oracle compared.
        self.checked = checked

    def head(self):
        return [
            f"[capture] live store digest    {self.live_digest}",
            f"[capture] rebuilt store digest {self.rebuilt_digest}",
            f"[capture] compared {self.checked} key(s)",
        ]


def verify_rebuild(live_engine, rebuilt_engine):
    """Store equivalence via the crash sweeps' durability oracle.

    The live store's mapping becomes the journal of expectations; the
    rebuilt store is the recovered world.  The oracle flags any key
    whose rebuilt value differs (or is absent) and any key the rebuild
    invented; differing recovery digests are a ``digest`` violation.
    """
    live = store_mapping(live_engine)
    rebuilt = store_mapping(rebuilt_engine)
    report = RebuildReport(_digest_of_mapping(live),
                           _digest_of_mapping(rebuilt),
                           len(live.keys() | rebuilt.keys()))
    report.need("vacuous:no-keys", lambda: report.checked,
                "both stores are empty — equivalence checked nothing")
    oracle = KVDurabilityOracle()
    for message in oracle.check(_MappingView(rebuilt), _FinalScenario(),
                                _MappingJournal(live)):
        report.violation(oracle.name, message)
    if report.live_digest != report.rebuilt_digest:
        report.violation("digest", f"live {report.live_digest[:16]}… != "
                                   f"rebuilt {report.rebuilt_digest[:16]}…")
    return report


def plant_drop(capture, live_engine, server_ip=None):
    """Damage a capture for the oracle's negative check.

    Removes the frame(s) that delivered some key's *surviving* value —
    dropping an arbitrary frame proves nothing (the put may have been
    rejected under overload, or overwritten later); dropping the one
    that produced a live value guarantees the rebuild must diverge and
    the durability oracle must say so.

    Returns ``(damaged_capture, key)``; raises if no deliverable put
    can be located (e.g. all values too short to match uniquely).
    """
    meta = capture.meta or {}
    if server_ip is None:
        server_ip = meta.get("server_ip")
    if server_ip is None:
        raise ValueError("capture meta has no server_ip; pass server_ip=")
    server_ip = ip_to_int(server_ip)
    mapping = store_mapping(live_engine)
    for key in sorted(mapping):
        value = mapping[key]
        if len(value) < 16:
            continue  # too short to locate uniquely in a frame
        needle = value[:48]
        hits = [i for i, record in enumerate(capture.records)
                if record.dst_ip == server_ip and needle in record.frame]
        if not hits:
            continue  # value head split across frames; try another key
        damaged = Capture(meta=dict(meta))
        damaged.records = [record for i, record in enumerate(capture.records)
                           if i not in set(hits)]
        return damaged, key
    raise ValueError("no droppable put found in capture")


def _digest_of_mapping(mapping):
    digest = hashlib.sha256()
    for key in sorted(mapping):
        digest.update(hashlib.sha256(key).digest())
        digest.update(hashlib.sha256(mapping[key]).digest())
    return digest.hexdigest()


# -- capture -> operations (replay as a workload) ------------------------------


def _parse_http_requests(stream):
    """Scan a reassembled request byte stream into (method, key, value).

    A deliberately small scanner (request line + Content-Length), not
    the full parser: captures contain only what our clients emit.
    Returns (ops, leftover_bytes) — an incomplete trailing request
    stays in leftover.
    """
    ops = []
    offset = 0
    while True:
        end = stream.find(b"\r\n\r\n", offset)
        if end < 0:
            break
        head = stream[offset:end].decode("latin-1", "replace")
        lines = head.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) < 3:
            offset = end + 4  # not a request head; skip the block
            continue
        method, path = parts[0], parts[1]
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    length = 0
        body_start = end + 4
        if len(stream) < body_start + length:
            break  # incomplete tail; a later segment may complete it
        body = stream[body_start:body_start + length]
        ops.append((method, path.lstrip("/"), body if length else None))
        offset = body_start + length
    return ops, stream[offset:]


class _TcpFlowAssembler:
    """Reassemble one TCP flow's request stream from delivered frames.

    Duplicates (fault-injected or retransmitted) are dropped by
    sequence number: the first copy of a byte range to arrive is kept
    and later copies are ignored.  Out-of-order segments wait in a
    reorder map until the stream catches up.  The assembler trusts
    every segment it is fed; :func:`extract_ops` has already dropped
    the frames that failed their checksums, as the live server did.
    """

    def __init__(self):
        self.isn = None
        self.next_seq = None
        self.pending = {}
        self.stream = b""
        self.ops = []

    def feed(self, tcp, payload):
        if tcp.flags & SYN:
            self.isn = tcp.seq
            self.next_seq = tcp.seq + 1
            return
        if not payload or self.next_seq is None:
            return
        seq = tcp.seq
        if seq + len(payload) <= self.next_seq:
            return  # wholly duplicate
        self.pending.setdefault(seq, payload)
        while self.pending:
            advanced = False
            for seq in sorted(self.pending):
                payload = self.pending[seq]
                if seq + len(payload) <= self.next_seq:
                    del self.pending[seq]
                    advanced = True
                    break
                if seq <= self.next_seq:
                    del self.pending[seq]
                    self.stream += payload[self.next_seq - seq:]
                    self.next_seq = seq + len(payload)
                    advanced = True
                    break
            if not advanced:
                break
        parsed, self.stream = _parse_http_requests(self.stream)
        self.ops.extend(parsed)


class _HomaMessageAssembler:
    """Reassemble one Homa request message from its DATA packets."""

    def __init__(self, msg_len):
        self.msg_len = msg_len
        self.chunks = {}

    def feed(self, offset, payload):
        self.chunks.setdefault(offset, payload)

    def complete(self):
        data = bytearray()
        need = 0
        for offset in sorted(self.chunks):
            chunk = self.chunks[offset]
            if offset > need:
                return None
            if offset + len(chunk) > need:
                data += chunk[need - offset:]
                need = offset + len(chunk)
        if need < self.msg_len:
            return None
        return bytes(data[:self.msg_len])


def extract_ops(capture, server_ip=None, port=None):
    """Parse the captured client->server stream into operations.

    Returns ``[(loop_key, method, key, value), ...]`` in capture
    order, where ``loop_key`` identifies the originating flow (TCP
    connection or Homa requester address).  Works for both transports:
    TCP flows are reassembled per connection; Homa requests per
    (peer, rpc) with retransmit dedup.

    ``server_ip`` may be one address or an iterable (a cluster's nodes
    — ops are extracted in global capture order across all of them).
    """
    meta = capture.meta or {}
    if server_ip is None:
        server_ip = meta.get("server_ip")
    if server_ip is None:
        raise ValueError("capture meta has no server_ip; pass server_ip=")
    if isinstance(server_ip, (list, tuple, set, frozenset)):
        server_ips = {ip_to_int(ip) for ip in server_ip}
    else:
        server_ips = {ip_to_int(server_ip)}
    if port is None:
        port = (meta.get("server_config") or {}).get("port", 80)

    from repro.net.homa import DATA, HOMA_HEADER_LEN, HomaHeader, IPPROTO_HOMA

    tcp_flows = {}
    homa_messages = {}
    homa_done = set()
    ops = []
    for record in capture.records:
        if record.dst_ip not in server_ips:
            continue
        frame = record.frame
        try:
            ip_header = IPv4Header.unpack(frame[ETH_HEADER_LEN:])
            l4_csum = l4_csum_info(frame)
        except ValueError:
            continue
        if l4_csum is None or l4_csum[1] != l4_csum[2] or \
                not ip_header.verify_checksum(frame[ETH_HEADER_LEN:]):
            continue  # corrupted on the wire: the live server dropped it
        offset = ETH_HEADER_LEN + IPV4_HEADER_LEN
        end = ETH_HEADER_LEN + ip_header.total_len
        if ip_header.proto == IPPROTO_TCP:
            try:
                tcp = TCPHeader.unpack(frame[offset:end])
            except ValueError:
                continue
            payload = frame[offset + TCP_HEADER_LEN:end]
            if tcp.dst_port != port:
                continue
            flow_key = (record.src_ip, tcp.src_port)
            flow = tcp_flows.setdefault(flow_key, _TcpFlowAssembler())
            before = len(flow.ops)
            flow.feed(tcp, payload)
            for op in flow.ops[before:]:
                ops.append((flow_key,) + op)
        elif ip_header.proto == IPPROTO_HOMA:
            if len(frame) < offset + HOMA_HEADER_LEN:
                continue
            header = HomaHeader.unpack(frame[offset:offset + HOMA_HEADER_LEN])
            if header.ptype != DATA or header.dport != port:
                continue
            msg_key = (record.src_ip, header.sport, header.rpc_id)
            if msg_key in homa_done:
                continue  # retransmit of a fully seen request
            message = homa_messages.setdefault(
                msg_key, _HomaMessageAssembler(header.msg_len))
            payload = frame[offset + HOMA_HEADER_LEN:
                            offset + HOMA_HEADER_LEN + header.payload_len]
            message.feed(header.offset, payload)
            data = message.complete()
            if data is None:
                continue
            homa_done.add(msg_key)
            del homa_messages[msg_key]
            parsed, _leftover = _parse_http_requests(data)
            # Homa ports are per-RPC, not per-connection: group by the
            # requesting host so replay loops don't degenerate to one
            # op each.
            flow_key = (record.src_ip, "homa")
            for op in parsed:
                ops.append((flow_key,) + op)
    return ops


# -- cluster reseed: re-replicate a promoted shard from the capture -----------


def _apply_op(engine, method, key_bytes, value):
    """Apply one parsed client op directly to a rebuilt engine.

    PUTs go through :func:`repro.storage.engines.direct_put` (which
    knows how to feed packet-native stores); reads don't mutate state.
    """
    if method == "DELETE":
        if hasattr(engine, "delete"):
            engine.delete(key_bytes, NULL_CONTEXT)
            return True
        return False
    if method != "PUT":
        return False
    direct_put(engine, key_bytes, value or b"", NULL_CONTEXT)
    return True


class ReseedReport(Verdict):
    """Outcome of one capture-driven cluster reseed."""

    TAG = "reseed"
    HELD = "standby agrees with every promoted primary"

    def __init__(self, dead_name):
        super().__init__()
        self.dead_name = dead_name
        #: The rebuilt ClusterNode (in cluster.nodes once attached).
        self.node = None
        self.injected = 0
        self.caught_up = 0
        self.checked = 0
        self.attached = False
        self.need("vacuous:no-keys", lambda: self.checked,
                  f"no shard key of {dead_name} was checkable on a promoted "
                  f"primary — the reseed verified nothing")

    def head(self):
        return [
            f"[reseed] {self.dead_name}: {self.injected} frame(s) of its "
            f"own history replayed, {self.caught_up} post-kill op(s) "
            f"caught up from the survivors",
            f"[reseed] verified {self.checked} shard key(s) against the "
            f"promoted primaries",
            f"[reseed] node "
            f"{'re-attached to the ring' if self.attached else 'left detached'}",
        ]


def verify_reseed(cluster, standby_engine, dead_name, full_ring=None):
    """Check a rebuilt standby against the promoted primaries.

    For every key a revived ``dead_name`` would hold (primary or
    backup in the all-alive ring), the standby's value must equal the
    key's *current* primary's — the promoted shard and its fresh
    backup agree.  Returns ``(violations, checked)``; each violation is
    a ``("reseed:divergent", detail)`` pair.
    """
    from repro.cluster.hashring import HashRing

    if full_ring is None:
        full_ring = HashRing(list(cluster.nodes),
                             vnodes=cluster.config.vnodes)
    standby_map = store_mapping(standby_engine)
    survivor_maps = {
        name: store_mapping(cluster.nodes[name].engine)
        for name in cluster.ring.alive
    }
    violations = []
    checked = 0
    seen = set()
    for name, mapping in survivor_maps.items():
        for key in mapping:
            if key in seen:
                continue
            seen.add(key)
            if dead_name not in full_ring.route(key):
                continue
            primary = cluster.ring.primary(key)
            authority = survivor_maps[primary].get(key)
            if authority is None:
                continue  # not yet on its current primary; not checkable
            checked += 1
            actual = standby_map.get(key)
            if actual != authority:
                violations.append((
                    "reseed:divergent",
                    f"key {key!r}: standby has "
                    f"{'<absent>' if actual is None else f'{len(actual)}B'} "
                    f"!= primary {primary}'s {len(authority)}B value",
                ))
    return violations, checked


def reseed_from_capture(cluster, dead_name, capture=None, attach=True,
                        max_events=DEFAULT_MAX_EVENTS):
    """Rebuild a killed cluster node from the fabric capture and
    re-attach it as the fresh backup for its promoted shards.

    Closes the failover gap: after ``kill`` + ``failover`` a promoted
    shard runs unreplicated until a new host holds the dead one's
    data.  The capture has everything needed — the corpse's delivered
    history up to the kill, and the survivors' post-kill traffic:

    1. a standby host is built on a *private* fabric (same simulator)
       with the dead node's name, address and sizing, and the corpse's
       pre-kill rx stream is injected at its recorded relative timing;
    2. post-kill client ops addressed to the survivors are parsed from
       the capture and applied for every shard the revived node will
       hold (the catch-up — this *is* re-replication, sourced from
       packets instead of a state-transfer protocol);
    3. the standby is verified key-by-key against the promoted
       primaries (:func:`verify_reseed`);
    4. if the verdict is clean — no divergent key, and at least one
       key checked — and ``attach=True``, the standby's NIC takes over the
       dead host's fabric port, the ring marks the node alive, and the
       cluster's node table swaps to the rebuilt node.

    The shared metrics recorder keeps reporting the *old* node's
    gauges (its roles are already registered); re-seeded nodes serve
    and replicate but re-register no gauges.

    Returns a :class:`ReseedReport`.
    """
    from repro.cluster.hashring import HashRing
    from repro.cluster.topology import build_node

    config = cluster.config
    if capture is None:
        if cluster.capture_tap is None:
            raise ValueError(
                "no capture: build the cluster with "
                "ClusterConfig(capture=True) or pass capture="
            )
        capture = cluster.capture_tap.capture()
    node = cluster.nodes[dead_name]
    if dead_name in cluster.ring.alive:
        raise RuntimeError(f"{dead_name} is alive; reseed replaces corpses")
    killed_at = cluster.killed_at.get(dead_name)
    report = ReseedReport(dead_name)

    sim = cluster.sim
    private = Fabric(sim)
    peer_ips = {name: n.ip for name, n in cluster.nodes.items()}
    standby = build_node(config, sim, private, dead_name, node.ip,
                         f"{dead_name}-reseed-pm", cluster.ring.route,
                         peer_ips)

    # Phase 1: replay the corpse's own delivered history (client puts
    # AND the replication stream it applied as a backup), shifted so
    # relative timing — and with it every protocol decision — repeats.
    history = capture.filter(dst_ip=ip_to_int(node.ip))
    if killed_at is not None:
        history.records = [r for r in history.records if r.t_ns < killed_at]
    offset = 0.0
    if history.records:
        offset = sim.now - history.records[0].t_ns + 1.0
    report.injected = inject(history, standby.host, time_offset=offset)
    sim.run_until_idle(max_events=max_events)

    # Phase 2: catch up the post-kill delta from the survivors' inbound
    # client traffic, for every shard the revived node participates in.
    full_ring = HashRing(list(cluster.nodes), vnodes=config.vnodes)
    if killed_at is not None:
        tail = Capture(meta=dict(capture.meta))
        tail.records = [r for r in capture.records if r.t_ns >= killed_at]
        alive_ips = [cluster.nodes[n].ip for n in cluster.ring.alive]
        for _flow, method, key, value in extract_ops(
                tail, server_ip=alive_ips, port=config.port):
            key_bytes = key.encode("utf-8")
            if dead_name not in full_ring.route(key_bytes):
                continue
            if _apply_op(standby.engine, method, key_bytes, value):
                report.caught_up += 1

    # Phase 3: the standby must agree with every promoted primary.
    violations, report.checked = verify_reseed(cluster, standby.engine,
                                               dead_name, full_ring)
    for kind, detail in violations:
        report.violation(kind, detail)

    # Phase 4: take over the dead host's fabric port and rejoin.
    report.node = standby
    if attach and report.ok:
        cluster.fabric.replace(standby.host.nic)
        standby.host.nic.fabric = cluster.fabric
        cluster.ring.mark_alive(dead_name)
        standby.replicator.reset_suspicion()
        for survivor in cluster.alive_nodes():
            survivor.replicator.reset_suspicion()
        cluster.nodes[dead_name] = report.node
        cluster.killed_at.pop(dead_name, None)
        report.attached = True
    return report


class CaptureSource(TrafficSource):
    """Replay a capture's operations through any traffic consumer.

    ``per_flow=True`` (default) assigns each captured flow to one
    replay loop, preserving per-connection op order; consumers size
    their loop count from :attr:`loops`.  ``per_flow=False`` merges
    everything into one stream in capture order — useful when the
    replaying client has a different loop count than the original.
    """

    def __init__(self, capture, server_ip=None, port=None, per_flow=True):
        all_ops = extract_ops(capture, server_ip=server_ip, port=port)
        self.per_flow = per_flow
        self._merged = [op[1:] for op in all_ops]
        self._flows = []
        index = {}
        for flow_key, method, key, value in all_ops:
            if flow_key not in index:
                index[flow_key] = len(self._flows)
                self._flows.append([])
            self._flows[index[flow_key]].append((method, key, value))
        self._cursors = [0] * max(1, len(self._flows))
        self._merged_cursor = 0

    @property
    def loops(self):
        """Replay loop count (captured flows; at least 1)."""
        return max(1, len(self._flows)) if self.per_flow else 1

    @property
    def total_ops(self):
        return len(self._merged)

    def next_op(self, loop_id=0):
        if not self.per_flow:
            if self._merged_cursor >= len(self._merged):
                return None
            op = self._merged[self._merged_cursor]
            self._merged_cursor += 1
            return op
        if loop_id >= len(self._flows):
            return None
        cursor = self._cursors[loop_id]
        flow = self._flows[loop_id]
        if cursor >= len(flow):
            return None
        self._cursors[loop_id] = cursor + 1
        return flow[cursor]

    def describe(self):
        return {"source": "capture-replay", "ops": len(self._merged),
                "flows": len(self._flows), "per_flow": self.per_flow}
