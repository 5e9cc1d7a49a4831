"""The exhaustive crash-point sweep framework (repro.testing).

Covers the layers bottom-up — replay cursors must mirror the device's
FlushTracker exactly, the journal must classify ops correctly — and
then the headline guarantees: a correct PacketStore protocol survives
every crash point with zero violations, and a deliberately broken
protocol (commit fence removed) is caught by the very same sweep.
"""

import pytest

from repro.core.ppktbuf import PMetaSlab
from repro.pm.device import PMDevice
from repro.storage.skiplist import _XorShift
from repro.testing import (
    ABSENT,
    CrashSweep,
    KVDurabilityOracle,
    NoveLSMWorld,
    OpJournal,
    PacketStoreWorld,
    RecordingPMDevice,
    WalWorld,
    make_cursor,
    mixed_ops,
    sequential_puts,
)


# --------------------------------------------------------------- replay layer


def test_replay_cursor_mirrors_flushtracker():
    """Replaying the trace must land on the device's own persisted image
    and pending-line set at every step."""
    device = RecordingPMDevice(8192)
    cursor = make_cursor(device.trace)

    device.write(0, b"a" * 100)
    device.write(200, b"b" * 64)
    device.flush(0, 100)
    device.write(300, b"c" * 10)
    device.flush(200, 64)
    device.fence()
    device.write(64, b"d" * 64)
    device.flush(64, 64)
    # Deliberately no final fence: one line stays pending.

    for event in device.trace:
        cursor.apply(event)
    assert bytes(cursor.persisted) == device.persisted_view(0, device.size)
    assert cursor.pending_units() == sorted(device.tracker.pending)
    assert bytes(cursor.data) == bytes(device.data)

    # The full-drain image equals what a fence would persist.
    drained = cursor.crash_image(cursor.pending_units())
    device.fence()
    assert bytes(drained) == device.persisted_view(0, device.size)


def test_replay_cursor_torn_subset():
    device = RecordingPMDevice(4096)
    device.write(0, b"x" * 64)
    device.write(64, b"y" * 64)
    device.flush(0, 128)
    trace = device.trace
    cursor = make_cursor(trace)
    for event in trace:
        cursor.apply(event)
    assert cursor.pending_units() == [0, 1]
    image = cursor.crash_image([1])
    assert bytes(image[0:64]) == bytes(64)       # line 0 lost
    assert bytes(image[64:128]) == b"y" * 64     # line 1 drained


def test_materialize_builds_postcrash_device():
    device = RecordingPMDevice(4096)
    device.persist(0, 64)  # write nothing, but produce flush+fence events
    cursor = make_cursor(device.trace)
    for event in device.trace:
        cursor.apply(event)
    crashed = cursor.materialize(cursor.crash_image())
    assert isinstance(crashed, PMDevice)
    assert crashed.persistent
    assert crashed.crashes == 1
    assert bytes(crashed.persisted_view(0, 64)) == bytes(64)


def test_drop_fences_injection_keeps_lines_pending():
    device = RecordingPMDevice(4096)
    device.write(0, b"z" * 64)
    device.flush(0, 64)
    device.fence()
    cursor = make_cursor(device.trace, drop_fences=True)
    for event in device.trace:
        cursor.apply(event)
    assert cursor.pending_units() == [0]
    assert bytes(cursor.persisted[0:64]) == bytes(64)


def test_drop_flushes_injection_keeps_lines_dirty():
    device = RecordingPMDevice(4096)
    device.write(0, b"z" * 64)
    device.flush(0, 64)
    device.fence()
    cursor = make_cursor(device.trace, drop_flushes=True)
    for event in device.trace:
        cursor.apply(event)
    assert cursor.pending_units() == []
    assert bytes(cursor.persisted[0:64]) == bytes(64 * b"\x00")


# -------------------------------------------------------------- journal layer


def test_journal_expectations_classify_ops():
    counter = {"n": 0}
    journal = OpJournal(lambda: counter["n"])

    op1 = journal.begin("put", b"k1", b"v1")
    counter["n"] = 5
    journal.commit(op1)
    op2 = journal.begin("put", b"k2", b"v2")
    counter["n"] = 9
    journal.commit(op2)
    op3 = journal.begin("delete", b"k1")
    counter["n"] = 14
    journal.commit(op3)

    # Before anything committed: both keys must be absent or whole.
    expect = journal.expectations(2)
    assert expect[b"k1"] == {ABSENT, b"v1"}
    assert expect[b"k2"] == {ABSENT}

    # After op1's commit, k1 is definite; op2 not yet begun at k=5.
    expect = journal.expectations(5)
    assert expect[b"k1"] == {b"v1"}
    assert expect[b"k2"] == {ABSENT}

    # Mid-delete: k1 may be the put's value or deleted.
    expect = journal.expectations(12)
    assert expect[b"k1"] == {b"v1", ABSENT}
    assert expect[b"k2"] == {b"v2"}

    # Everything acked.
    expect = journal.expectations(14)
    assert expect[b"k1"] == {ABSENT}
    assert expect[b"k2"] == {b"v2"}


def test_journal_rejects_double_commit():
    journal = OpJournal(lambda: 0)
    op = journal.begin("put", b"k")
    journal.commit(op)
    with pytest.raises(RuntimeError):
        journal.commit(op)


# ------------------------------------------------------------ the full sweep


def test_pktstore_sweep_zero_violations():
    """The §5.1 contract holds at *every* persistence-event boundary."""
    world = PacketStoreWorld(seed=3)
    sequential_puts(world, n=8, value_size=48)
    report = world.sweep().run()
    assert report.ok, report.summary()
    assert report.crash_points == len(world.device.trace) - \
        world.device.trace.setup_events + 1
    assert report.recoveries == report.scenarios
    assert report.per_mode["clean"] == report.crash_points
    assert report.per_mode["torn"] > 0


def test_pktstore_sweep_with_deletes_and_overwrites():
    world = PacketStoreWorld(seed=5)
    world.put(b"alpha", b"1" * 40)
    world.put(b"beta", b"2" * 40)
    world.put(b"alpha", b"3" * 40)   # overwrite
    world.delete(b"beta")
    report = world.sweep().run()
    assert report.ok, report.summary()


def test_sweep_detects_removed_commit_fence(monkeypatch):
    """Regression: break the protocol (no fence on the level-0 commit
    link) and the sweep must go red — this is the framework's own
    detection guarantee from the issue's acceptance criteria."""
    original = PMetaSlab.write_next

    def unfenced_write_next(self, slot, level, target, ctx=None, fence=True):
        return original(self, slot, level, target, ctx, fence=False)

    monkeypatch.setattr(PMetaSlab, "write_next", unfenced_write_next)
    world = PacketStoreWorld(seed=7)
    sequential_puts(world, n=6, value_size=32)
    report = world.sweep().run()
    assert not report.ok
    assert any(kind == "kv-durability" for kind, _ in report.violations), \
        report.summary()


def test_sweep_detects_replay_level_fence_removal():
    world = PacketStoreWorld(seed=2)
    sequential_puts(world, n=5, value_size=32)
    report = world.sweep(drop_fences=True).run()
    assert not report.ok


def test_sweep_detects_replay_level_flush_removal():
    world = PacketStoreWorld(seed=2)
    sequential_puts(world, n=5, value_size=32)
    report = world.sweep(drop_flushes=True).run()
    assert not report.ok


def test_sweep_max_events_bounds_work():
    world = PacketStoreWorld(seed=4)
    sequential_puts(world, n=6, value_size=32)
    setup = world.device.trace.setup_events
    report = world.sweep(max_events=setup + 10).run()
    assert report.ok, report.summary()
    assert report.crash_points == 11


def test_sweep_below_setup_boundary_is_vacuous():
    """A bound that stops before the setup boundary leaves zero crash
    points: the sweep tested nothing and must not pass."""
    world = PacketStoreWorld(seed=4)
    sequential_puts(world, n=6, value_size=32)
    setup = world.device.trace.setup_events
    report = world.sweep(max_events=setup - 1).run()
    assert (report.crash_points, report.recoveries) == (0, 0)
    assert not report.ok
    assert [kind for kind, _ in report.violations] == \
        ["vacuous:no-recoveries"]


def test_sweep_include_setup_tolerates_clean_failures():
    world = PacketStoreWorld(seed=4)
    sequential_puts(world, n=3, value_size=32)
    report = world.sweep(include_setup=True).run()
    assert report.ok, report.summary()
    assert report.tolerated_failures > 0


def test_sweep_reorder_mode_sampled_subsets():
    world = PacketStoreWorld(seed=6)
    sequential_puts(world, n=4, value_size=32)
    report = world.sweep(modes=("clean", "drain", "torn", "reorder"),
                         reorder_samples=4).run()
    assert report.ok, report.summary()
    assert report.per_mode.get("reorder", 0) > 0


def test_sweep_rejects_unknown_mode():
    world = PacketStoreWorld()
    with pytest.raises(ValueError):
        world.sweep(modes=("clean", "bogus"))


def test_sweep_is_deterministic():
    def run_once():
        world = PacketStoreWorld(seed=9)
        sequential_puts(world, n=4, value_size=32)
        report = world.sweep(modes=("clean", "drain", "torn", "reorder"),
                             seed=9).run()
        return (report.scenarios, report.recoveries,
                sorted(report.per_mode.items()))

    assert run_once() == run_once()


# ------------------------------------------------------- the other two worlds


def test_novelsm_sweep_zero_violations():
    world = NoveLSMWorld(seed=3)
    world.put(b"a", b"1" * 30)
    world.put(b"b", b"2" * 30)
    world.put(b"a", b"3" * 30)
    world.delete(b"b")
    world.put(b"c", b"4" * 30)
    report = world.sweep().run()
    assert report.ok, report.summary()


def test_novelsm_sweep_detects_replay_fence_removal():
    world = NoveLSMWorld(seed=3)
    for i in range(4):
        world.put(f"k{i}".encode(), bytes([i]) * 24)
    report = world.sweep(drop_fences=True).run()
    assert not report.ok


def test_wal_sweep_zero_violations():
    world = WalWorld(seed=2)
    for i in range(6):
        world.append(f"record-{i}".encode() * 10)
    world.append(b"tail-unsynced" * 5, sync=False)
    report = world.sweep().run()
    assert report.ok, report.summary()
    # The unsynced tail really was exercised: some crash points had
    # pending blocks, so drain-mode scenarios exist.
    assert report.per_mode.get("drain", 0) > 0


def test_wal_sweep_detects_dropped_syncs():
    world = WalWorld(seed=2)
    for i in range(5):
        world.append(f"record-{i}".encode() * 20)
    report = world.sweep(drop_fences=True).run()  # block cursor: drop syncs
    assert not report.ok


# ------------------------------------------------------------- mixed workload


def test_mixed_ops_model_matches_store_and_sweep_passes():
    world = PacketStoreWorld(seed=11)
    model = mixed_ops(world, n=20, keyspace=6, value_size=24, seed=11)
    assert {k: v for k, v in world.store.scan()} == model
    report = world.sweep().run()
    assert report.ok, report.summary()
