"""The paired A/B gate (tools/bench_ab.sh) on stub trees.

Each stub tree's ``benchmark/run.py`` logs its call and writes a canned
result document; the candidate tree carries the real ``compare.py`` and
``BENCHMARK.json``, so every verdict the gate acts on is the real one.
"""

import json
import shutil
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GATE = REPO / "tools" / "bench_ab.sh"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

STUB_RUN = '''\
import json
import sys
from pathlib import Path

root = Path(__file__).resolve().parent.parent
args = sys.argv[1:]
workload = args[args.index("--workload") + 1]
with open(root.parent / "calls.log", "a") as log:
    log.write(f"{root.name} {workload} {' '.join(args)}\\n")
result = json.loads((root / "result.json").read_text())
with open(args[args.index("--json") + 1], "w") as out:
    json.dump(dict(result, workload=workload), out)
sys.exit(0 if result["correct"] else 1)
'''


def _tree(tmp_path, name, ops_per_s=1000.0, correct=True):
    root = tmp_path / name
    (root / "benchmark").mkdir(parents=True)
    (root / "benchmark" / "run.py").write_text(STUB_RUN)
    shutil.copy(REPO / "benchmark" / "compare.py", root / "benchmark")
    shutil.copy(REPO / "BENCHMARK.json", root)
    metric = {"value": ops_per_s, "q1": 0.99 * ops_per_s,
              "q3": 1.01 * ops_per_s, "unit": "1/s"}
    (root / "result.json").write_text(json.dumps(
        {"correct": correct, "metrics": {"host_ops_per_s": metric}}))
    return root


def _gate(tmp_path, base, cand, *workloads):
    proc = subprocess.run(["sh", str(GATE), str(base), str(cand),
                           *workloads], capture_output=True, text=True)
    calls = (tmp_path / "calls.log").read_text().splitlines()
    return proc, [line.split() for line in calls]


def test_no_change_passes_and_alternates_every_workload(tmp_path):
    proc, calls = _gate(tmp_path, _tree(tmp_path, "base"),
                        _tree(tmp_path, "cand"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [(c[0], c[1]) for c in calls] == [
        pair for i, w in enumerate(WORKLOADS)
        for pair in ([("base", w), ("cand", w)] if i % 2 == 0
                     else [("cand", w), ("base", w)])
    ]
    for call in calls:
        assert call[2:10] == ["--workload", call[1], "--seed", "1",
                              "--seconds", str(SPEC["run_seconds"]),
                              "--json", call[9]]
    assert proc.stdout.count("within bound") == len(WORKLOADS)


def test_worse_metric_fails(tmp_path):
    proc, _ = _gate(tmp_path, _tree(tmp_path, "base"),
                    _tree(tmp_path, "cand", ops_per_s=500.0), WORKLOADS[0])
    assert proc.returncode == 1
    assert "worse" in proc.stdout


def test_failed_run_fails_even_when_the_metrics_agree(tmp_path):
    proc, calls = _gate(tmp_path, _tree(tmp_path, "base", correct=False),
                        _tree(tmp_path, "cand"), WORKLOADS[-1])
    assert proc.returncode == 1
    assert "within bound" in proc.stdout
    assert [c[1] for c in calls] == [WORKLOADS[-1]] * 2


def _leaders(calls):
    """workload -> the side that ran it first."""
    return {workload: side for side, workload, *_ in reversed(calls)}


def test_consecutive_runs_start_each_workload_from_both_sides(tmp_path):
    base, cand = _tree(tmp_path, "base"), _tree(tmp_path, "cand")
    _, first = _gate(tmp_path, base, cand, *WORKLOADS[:2])
    proc, calls = _gate(tmp_path, base, cand, *WORKLOADS[:2])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    flip = {"base": "cand", "cand": "base"}
    assert _leaders(first) == {WORKLOADS[0]: "base", WORKLOADS[1]: "cand"}
    assert _leaders(calls[len(first):]) == {
        w: flip[side] for w, side in _leaders(first).items()}
