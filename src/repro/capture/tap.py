"""Ring-buffered frame tap on the fabric's delivery path.

The tap records frames at the *delivery* point — after the fault
plan, with the computed arrival timestamp — so a capture contains
exactly what each destination NIC will see, when: dropped frames are
absent, duplicates appear twice, corrupted frames carry the flipped
bits.  That is the property that makes a capture a recovery image —
rebuilding a standby replays what the server actually received, not
what clients intended to send.

The ring is bounded by ``max_frames`` and/or ``max_bytes``; when full,
the oldest records are evicted and counted (``dropped_frames``), like
a kernel pcap ring.  A capture with evictions still replays — it just
reconstructs the suffix of history, which the equivalence oracles will
judge on its merits.
"""

from collections import deque

from repro.capture.format import Capture, FrameRecord


class CaptureTap:
    """Frame recorder on ``fabric``'s delivery path; see
    :meth:`repro.net.fabric.Fabric.add_tap`.

    ``focus_ip`` (optional) records only frames to or from one address
    — a single server's view of the world — keeping ring memory
    proportional to the traffic of interest.
    """

    def __init__(self, fabric, max_frames=None, max_bytes=None,
                 focus_ip=None, meta=None):
        if max_frames is not None and max_frames <= 0:
            raise ValueError("max_frames must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.fabric = fabric
        self.max_frames = max_frames
        self.max_bytes = max_bytes
        self.focus_ip = focus_ip
        self.meta = dict(meta) if meta else {}
        self._ring = deque()
        self._ring_bytes = 0
        self.seen_frames = 0
        self.seen_bytes = 0
        self.dropped_frames = 0
        self.dropped_bytes = 0
        fabric.add_tap(self._on_frame)

    # -- recording -------------------------------------------------------------

    def _on_frame(self, t_ns, src_ip, dst_ip, frame):
        if self.focus_ip is not None and \
                src_ip != self.focus_ip and dst_ip != self.focus_ip:
            return
        self.seen_frames += 1
        self.seen_bytes += len(frame)
        self._ring.append(FrameRecord(t_ns, src_ip, dst_ip, bytes(frame)))
        self._ring_bytes += len(frame)
        while (self.max_frames is not None and
               len(self._ring) > self.max_frames) or \
              (self.max_bytes is not None and
               self._ring_bytes > self.max_bytes and len(self._ring) > 1):
            evicted = self._ring.popleft()
            self._ring_bytes -= len(evicted.frame)
            self.dropped_frames += 1
            self.dropped_bytes += len(evicted.frame)

    # -- export ----------------------------------------------------------------

    def capture(self):
        """Snapshot the ring as a :class:`Capture` (meta + provenance)."""
        meta = dict(self.meta)
        meta.update({
            "seen_frames": self.seen_frames,
            "dropped_frames": self.dropped_frames,
            "focus_ip": self.focus_ip,
        })
        return Capture(meta=meta, records=self._ring)

    def __len__(self):
        return len(self._ring)

    def __repr__(self):
        return (f"<CaptureTap {len(self._ring)} frames buffered, "
                f"{self.dropped_frames} evicted>")
