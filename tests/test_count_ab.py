"""The paired work-count gate (tools/count_ab.sh) on stub trees.

Each stub tree's ``tools/opcount.py`` logs its call and prints canned
``opcodes/op`` / ``calls/op`` lines in the real tool's format; the
candidate tree carries the real ``BENCHMARK.json``, so the gate runs
the workloads it would run on the real trees.
"""

import json
import shutil
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GATE = REPO / "tools" / "count_ab.sh"
WORKLOADS = [w["name"] for w in
             json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]

STUB_OPCOUNT = '''\
import json
import sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
with open(root.parent / "calls.log", "a") as log:
    log.write(f"{root.name} {' '.join(args)}\\n")
spec = json.loads((root / "counts.json").read_text())
opcodes = spec["opcodes"].get(args[0], 10_000)
print(f"{args[0]} seed 1 scale 0.1 (Python 3): 100 ops")
print(f"opcodes/op {opcodes:,.0f}   calls/op {opcodes / 40:,.1f}")
print(f"{'opcodes/op':>11} {'share':>6} {'calls/op':>9}  function")
sys.exit(spec["exit"])
'''


def _tree(tmp_path, name, opcodes=None, exit_code=0):
    root = tmp_path / name
    (root / "tools").mkdir(parents=True)
    (root / "tools" / "opcount.py").write_text(STUB_OPCOUNT)
    shutil.copy(REPO / "BENCHMARK.json", root)
    (root / "counts.json").write_text(
        json.dumps({"opcodes": opcodes or {}, "exit": exit_code}))
    return root


def _gate(tmp_path, base, cand, *workloads):
    proc = subprocess.run(["sh", str(GATE), str(base), str(cand),
                           *workloads], capture_output=True, text=True)
    calls = (tmp_path / "calls.log").read_text().splitlines()
    return proc, [line.split() for line in calls]


def test_equal_counts_pass_on_every_workload(tmp_path):
    proc, calls = _gate(tmp_path, _tree(tmp_path, "base"),
                        _tree(tmp_path, "cand"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("+0.00 %") == len(WORKLOADS)
    assert proc.stdout.rstrip().endswith("count_ab: pass")
    for call in calls:
        assert call[1:] == [call[1], "--scale", "0.1", "--top", "0"]


def test_each_tree_runs_its_own_counter(tmp_path):
    _, calls = _gate(tmp_path, _tree(tmp_path, "base"),
                     _tree(tmp_path, "cand"))
    assert [(c[0], c[1]) for c in calls] == [
        (side, w) for w in WORKLOADS for side in ("base", "cand")]


def test_rise_past_the_bound_fails_and_names_the_workload(tmp_path):
    slow = WORKLOADS[1]
    proc, _ = _gate(tmp_path, _tree(tmp_path, "base"),
                    _tree(tmp_path, "cand", opcodes={slow: 12_030}))
    assert proc.returncode == 1
    verdicts = [line for line in proc.stdout.splitlines() if "bound" in line]
    assert len(verdicts) == len(WORKLOADS)
    worse = [line for line in verdicts if line.endswith("WORSE")]
    assert len(worse) == 1
    assert worse[0].startswith(slow) and "+20.30 %" in worse[0]
    assert proc.stdout.rstrip().endswith("count_ab: FAIL")


def test_rise_just_under_the_bound_passes(tmp_path):
    proc, _ = _gate(tmp_path, _tree(tmp_path, "base"),
                    _tree(tmp_path, "cand", opcodes={WORKLOADS[0]: 10_499}),
                    WORKLOADS[0])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "+4.99 %" in proc.stdout


def test_failed_side_fails_even_when_the_counts_agree(tmp_path):
    proc, calls = _gate(tmp_path, _tree(tmp_path, "base"),
                        _tree(tmp_path, "cand", exit_code=1), WORKLOADS[-1])
    assert proc.returncode == 1
    assert "+0.00 %" in proc.stdout
    assert "the cand count of " + WORKLOADS[-1] in proc.stdout
    assert [c[1] for c in calls] == [WORKLOADS[-1]] * 2
