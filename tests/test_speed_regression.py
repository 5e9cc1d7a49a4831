"""Wall-clock perf regression lane (``-m perf``; excluded from tier-1).

Asserts ops/wall-second on the canned scenarios stays within tolerance
of the committed ``BENCH_speed.json`` baseline, using the same
calibration-normalized comparison as ``repro-bench-speed --check``.
Wall-clock numbers flake on loaded machines, so this lane runs as a
separate CI job with retries and is non-blocking on flake — the
blocking gate is the CLI check in the bench-speed CI job.

Run locally with:  PYTHONPATH=src python -m pytest -m perf -q
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.speed import (
    DEFAULT_BASELINE,
    DEFAULT_TOLERANCE,
    check_schema,
    compare,
    merge_best,
    run_all,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, DEFAULT_BASELINE)

pytestmark = pytest.mark.perf


@pytest.fixture(scope="module")
def baseline():
    if not os.path.exists(BASELINE_PATH):
        pytest.skip(f"no committed baseline at {BASELINE_PATH}")
    with open(BASELINE_PATH) as handle:
        return check_schema(json.load(handle))


def test_normalized_throughput_within_tolerance(baseline):
    # Best-of-2, exactly like the CLI gate's --check default.
    current = merge_best([run_all(), run_all()])
    ok, rows = compare(current, baseline, tolerance=DEFAULT_TOLERANCE)
    detail = ", ".join(
        f"{name} {ratio:.2f}x" for name, _b, _c, ratio, _p in rows
    )
    assert ok, (
        f"normalized ops/wall-s regressed below "
        f"{DEFAULT_TOLERANCE:.2f}x baseline: {detail}"
    )


def test_peak_rss_within_budget(baseline, tmp_path):
    base_rss = baseline["aggregate"]["peak_rss_kb"]
    if base_rss <= 0:
        pytest.skip("baseline has no RSS measurement")
    # ``ru_maxrss`` is a per-process high-water mark: read in this
    # process it holds whatever the session ran before.  Measure a
    # fresh benchmark process, as the baseline was.
    path = tmp_path / "speed.json"
    src = os.path.join(REPO_ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "repro.bench.speed", "--json", str(path)],
                   check=True, cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL)
    cur_rss = json.loads(path.read_text())["aggregate"]["peak_rss_kb"]
    # RSS is stable run to run (deterministic allocations); 2x headroom
    # only guards against a pathological blowup, not noise.
    assert cur_rss <= 2 * base_rss, (
        f"peak RSS {cur_rss} KiB is more than twice the "
        f"baseline {base_rss} KiB"
    )
