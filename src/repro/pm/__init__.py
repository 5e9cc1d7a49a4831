"""Persistent-memory substrate.

Models byte-addressable persistent memory the way the paper's testbed
uses Intel Optane DCPMM in App-Direct mode:

- :class:`~repro.pm.device.PMDevice` — a byte-addressable region with
  separate *CPU-visible* and *persistent* states.  Stores land in the
  CPU-visible view (think: CPU caches) and only reach the persistent
  view via explicit cache-line write-back (``clwb``) followed by a store
  fence (``sfence``), exactly the discipline PM software must follow.
  One byte image backs both: the persistent state is that image with
  the not-yet-persisted lines' old bytes laid over it.
- :class:`~repro.pm.cache.FlushTracker` — the dirty/pending line
  bookkeeping behind those semantics, including the delta shadow of
  persisted bytes and what survives a crash.
- :class:`~repro.pm.alloc.PMAllocator` — a user-space persistent-memory
  allocator of the kind NoveLSM carries (and the paper proposes to
  obviate by reusing the network stack's buffer pools).
- :class:`~repro.pm.namespace.PMNamespace` — DAX-style named regions
  ("PM-backed files") that can be re-opened after a reboot.

Latency defaults follow the paper (§5.1): 346 ns PM access vs 70 ns
DRAM (Izraelevitz et al.).
"""

from repro.pm.constants import CACHE_LINE
from repro.pm.device import DRAMDevice, MemoryDevice, PMDevice, Region
from repro.pm.cache import FlushTracker
from repro.pm.alloc import AllocationError, PMAllocator
from repro.pm.namespace import PMNamespace

__all__ = [
    "CACHE_LINE",
    "MemoryDevice",
    "PMDevice",
    "DRAMDevice",
    "Region",
    "FlushTracker",
    "PMAllocator",
    "AllocationError",
    "PMNamespace",
]
