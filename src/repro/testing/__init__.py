"""Deterministic crash-point fault injection for the persistence path.

The paper's §5.1 durability claim — acked writes always survive, in-
flight writes vanish atomically — is checked *exhaustively* here, not
probabilistically: record a workload's persistence events once, then
crash at every event boundary, materialise every distinct post-crash
image (clean / drained / torn / reordered write-backs), run real
recovery, and apply pluggable oracles.

Layers (each usable on its own):

- :mod:`~repro.testing.events`   — the persistence-event taxonomy;
- :mod:`~repro.testing.record`   — recording PM / block devices;
- :mod:`~repro.testing.replay`   — offline replay cursors + fault injection;
- :mod:`~repro.testing.journal`  — acked-vs-in-flight op bracketing;
- :mod:`~repro.testing.oracle`   — recovery invariants;
- :mod:`~repro.testing.harness`  — the exhaustive sweep + live-sim scheduler;
- :mod:`~repro.testing.verdict`  — the one verdict every harness reports;
- :mod:`~repro.testing.workloads`— ready-made worlds (PacketStore, LSM, WAL);
- :mod:`~repro.testing.cli`      — the ``repro-crashcheck`` entry point.

See docs/CRASH_TESTING.md for the full story.
"""

from repro.testing.events import (
    EV_BLK_SYNC,
    EV_BLK_WRITE,
    EV_FENCE,
    EV_FLUSH,
    EV_WRITE,
    EventTrace,
    PersistenceEvent,
)
from repro.testing.harness import (
    CrashScenario,
    CrashSweep,
    SweepReport,
    run_until_persistence_events,
)
from repro.testing.journal import ABSENT, Op, OpJournal
from repro.testing.oracle import (
    KVDurabilityOracle,
    Oracle,
    PacketStoreStructureOracle,
    WalPrefixOracle,
)
from repro.testing.record import RecordingBlockDevice, RecordingPMDevice
from repro.testing.replay import BlockReplayCursor, PMReplayCursor, make_cursor
from repro.testing.workloads import (
    NoveLSMWorld,
    PacketStoreWorld,
    WalWorld,
    mixed_ops,
    sequential_puts,
)

__all__ = [
    "ABSENT",
    "BlockReplayCursor",
    "CrashScenario",
    "CrashSweep",
    "EV_BLK_SYNC",
    "EV_BLK_WRITE",
    "EV_FENCE",
    "EV_FLUSH",
    "EV_WRITE",
    "EventTrace",
    "KVDurabilityOracle",
    "NoveLSMWorld",
    "Op",
    "OpJournal",
    "Oracle",
    "PMReplayCursor",
    "PacketStoreStructureOracle",
    "PacketStoreWorld",
    "PersistenceEvent",
    "RecordingBlockDevice",
    "RecordingPMDevice",
    "SweepReport",
    "WalPrefixOracle",
    "WalWorld",
    "make_cursor",
    "mixed_ops",
    "run_until_persistence_events",
    "sequential_puts",
]
