"""Network fabric: links through a store-and-forward switch.

Models the paper's testbed topology — two hosts on 25 GbE through one
switch — as serialisation + propagation + switch latency, with per-port
egress serialisation (a port transmits one frame at a time, so bursts
queue).  A :class:`LinkFaults` policy injects loss, reordering,
duplication and corruption for the transport-correctness property
tests; benchmarks run fault-free, as the paper's LAN effectively does.
"""

from repro.sim.units import MICROS


class LinkFaults:
    """Random fault injection, applied per frame on delivery."""

    def __init__(self, rng, loss=0.0, reorder=0.0, duplicate=0.0, corrupt=0.0,
                 reorder_delay_ns=50 * MICROS):
        self.rng = rng
        self.loss = loss
        self.reorder = reorder
        self.duplicate = duplicate
        self.corrupt = corrupt
        self.reorder_delay_ns = reorder_delay_ns
        self.dropped = 0
        self.reordered = 0
        self.duplicated = 0
        self.corrupted = 0

    def plan(self, frame):
        """Decide this frame's fate.

        Returns a list of (extra_delay_ns, frame_bytes) deliveries —
        empty for a drop, two entries for a duplicate.
        """
        if self.rng.random() < self.loss:
            self.dropped += 1
            return []
        deliveries = [(0.0, frame)]
        if self.rng.random() < self.corrupt:
            self.corrupted += 1
            corrupted = bytearray(frame)
            victim = self.rng.randrange(len(corrupted))
            corrupted[victim] ^= 1 << self.rng.randrange(8)
            deliveries = [(0.0, bytes(corrupted))]
        if self.rng.random() < self.reorder:
            self.reordered += 1
            delay = self.rng.uniform(0, self.reorder_delay_ns)
            deliveries = [(delay, data) for _, data in deliveries]
        if self.rng.random() < self.duplicate:
            self.duplicated += 1
            deliveries = deliveries + [(d + 1.0, data) for d, data in deliveries]
        return deliveries


class Link:
    """One direction of attachment between a NIC port and the switch."""

    __slots__ = ("bandwidth_bps", "propagation_ns", "busy_until")

    def __init__(self, bandwidth_gbps, propagation_ns):
        self.bandwidth_bps = bandwidth_gbps * 1e9
        self.propagation_ns = propagation_ns
        self.busy_until = 0.0

    def serialization_ns(self, nbytes):
        return nbytes * 8 / self.bandwidth_bps * 1e9

    def transmit(self, now, nbytes):
        """Serialise a frame; returns its arrival time at the far end."""
        busy_until = self.busy_until
        start = now if now >= busy_until else busy_until
        # serialization_ns(nbytes), inline on the per-frame path.
        done = start + nbytes * 8 / self.bandwidth_bps * 1e9
        self.busy_until = done
        return done + self.propagation_ns


class Fabric:
    """A single switch interconnecting registered NICs by IP address."""

    def __init__(self, sim, bandwidth_gbps=25.0, propagation_ns=200.0,
                 switch_ns=300.0, faults=None):
        self.sim = sim
        self.bandwidth_gbps = bandwidth_gbps
        self.propagation_ns = propagation_ns
        self.switch_ns = switch_ns
        self.faults = faults
        self._ports = {}      # ip -> (nic, uplink Link, downlink Link)
        self.frames = 0
        self.bytes = 0
        #: Optional live-observability hook (repro.obs.Recorder).
        self.recorder = None
        #: Delivery taps: callables (arrival_ns, src_ip, dst_ip, bytes)
        #: invoked once per *delivered* frame copy (post fault plan),
        #: i.e. what the destination NIC will actually see, when.
        self._taps = []

    def register(self, nic):
        """Attach a NIC; its IP becomes its fabric address."""
        if nic.ip in self._ports:
            raise ValueError(f"duplicate fabric address {nic.ip}")
        uplink = Link(self.bandwidth_gbps, self.propagation_ns)
        downlink = Link(self.bandwidth_gbps, self.propagation_ns)
        self._ports[nic.ip] = (nic, uplink, downlink)
        return nic

    def replace(self, nic):
        """Swap the NIC behind an address (cluster reseed: a rebuilt
        standby takes over the dead host's fabric port).  Fresh links:
        the old port's serialisation backlog died with its host."""
        if nic.ip not in self._ports:
            raise ValueError(f"no fabric port at {nic.ip} to replace")
        uplink = Link(self.bandwidth_gbps, self.propagation_ns)
        downlink = Link(self.bandwidth_gbps, self.propagation_ns)
        self._ports[nic.ip] = (nic, uplink, downlink)
        return nic

    def add_tap(self, tap):
        """Attach a delivery tap (see :mod:`repro.capture.tap`)."""
        self._taps.append(tap)
        return tap

    def transmit(self, src_nic, dst_ip, frame, csum=None):
        """Carry ``frame`` from ``src_nic`` to the NIC owning ``dst_ip``.

        ``csum`` is the L4 checksum the sending NIC wrote into
        ``frame``.  It goes on only with a delivery that *is* that bytes
        object: a corrupted copy is new bytes, and its receiver must sum
        it again to see the damage.
        """
        self.frames += 1
        self.bytes += len(frame)
        if dst_ip not in self._ports:
            return  # no such host: the LAN silently blackholes it
        _, uplink, _ = self._ports[src_nic.ip]
        dst_nic, _, downlink = self._ports[dst_ip]

        deliveries = [(0.0, frame)] if self.faults is None else self.faults.plan(frame)
        for extra_delay, data in deliveries:
            # Store-and-forward: serialise onto the uplink, cross the
            # switch, serialise again onto the destination's downlink.
            # Reorder-fault delay applies after the links, so a delayed
            # frame really is overtaken by its successors.
            at_switch = uplink.transmit(self.sim.now, len(data))
            at_switch += self.switch_ns
            arrival = downlink.transmit(at_switch, len(data))
            if self.recorder is not None:
                self.recorder.record_wire(arrival + extra_delay - self.sim.now)
            for tap in self._taps:
                tap(arrival + extra_delay, src_nic.ip, dst_ip, data)
            self.sim.at(arrival + extra_delay, dst_nic.on_wire, data,
                        csum if data is frame else None)

    def one_way_latency_ns(self, nbytes):
        """Unloaded one-way latency for a frame of ``nbytes`` (for reports)."""
        ser = nbytes * 8 / (self.bandwidth_gbps * 1e9) * 1e9
        return 2 * ser + 2 * self.propagation_ns + self.switch_ns

    def __repr__(self):
        return f"<Fabric {len(self._ports)} ports {self.bandwidth_gbps}Gbps>"
