"""Unit tests for the repro.bench.speed harness itself.

These stay cheap (synthetic documents, tiny scaled scenario runs) so
they belong to tier-1; the wall-clock assertions live in the perf lane
(tests/test_speed_regression.py).
"""

import copy
import json
import os

import pytest

from repro.bench.speed import (
    SCENARIOS,
    SCHEMA,
    check_schema,
    compare,
    main,
    merge_best,
    run_all,
    run_scenario,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _doc(norms, score=1_000_000.0):
    """A minimal valid document with given per-scenario normalized rates."""
    scenarios = {}
    total_ops, total_wall = 0, 0.0
    for name, norm in norms.items():
        ops = 1000
        wall = 0.5
        scenarios[name] = {
            "ops": ops,
            "events": 5000,
            "sim_ns": 1e6,
            "wall_s": wall,
            "ops_per_wall_s": norm * score,
            "events_per_wall_s": 10000.0,
            "normalized_ops_per_wall_s": norm,
            "peak_rss_kb": 1000,
        }
        total_ops += ops
        total_wall += wall
    agg = total_ops / total_wall if total_wall else 0.0
    return {
        "schema": SCHEMA,
        "scale": 1.0,
        "calibration": {"score": score, "loops": 3},
        "scenarios": scenarios,
        "aggregate": {
            "total_ops": total_ops,
            "total_wall_s": total_wall,
            "ops_per_wall_s": agg,
            "normalized_ops_per_wall_s": agg / score,
            "peak_rss_kb": 1000,
        },
    }


THREE = {"a": 0.5, "b": 0.5, "c": 0.5}


class TestCheckSchema:
    def test_committed_baseline_is_valid(self):
        path = os.path.join(REPO_ROOT, "BENCH_speed.json")
        with open(path) as handle:
            doc = json.load(handle)
        check_schema(doc)
        # The baseline may trail SCENARIOS (new scenarios bake in the
        # perf lane before they gate) but never name unknown ones, and
        # the core three must always be gated.
        assert set(doc["scenarios"]) <= set(SCENARIOS)
        assert {"wrk-tcp", "homa-storm",
                "novelsm-ingest-recovery"} <= set(doc["scenarios"])

    def test_accepts_synthetic(self):
        check_schema(_doc(THREE))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("schema"),
            lambda d: d.update(schema="bogus/v0"),
            lambda d: d.pop("calibration"),
            lambda d: d["calibration"].update(score=0),
            lambda d: d.pop("scenarios"),
            lambda d: d["scenarios"].pop("a"),
            lambda d: d["scenarios"]["a"].pop("ops"),
            lambda d: d["scenarios"]["a"].update(ops=0),
            lambda d: d["scenarios"]["a"].update(wall_s="fast"),
            lambda d: d["scenarios"]["a"].update(peak_rss_kb=True),
            lambda d: d.pop("aggregate"),
        ],
    )
    def test_rejects_mutations(self, mutate):
        doc = _doc(THREE)
        mutate(doc)
        with pytest.raises(ValueError):
            check_schema(doc)

    def test_min_scenarios_relaxation(self):
        doc = _doc({"a": 0.5})
        with pytest.raises(ValueError):
            check_schema(doc)
        check_schema(doc, min_scenarios=1)


class TestCompare:
    def test_equal_docs_pass(self):
        base = _doc(THREE)
        ok, rows = compare(base, base, tolerance=0.85)
        assert ok and len(rows) == 3
        assert all(ratio == pytest.approx(1.0) for _n, _b, _c, ratio, _p in rows)

    def test_regression_fails_only_the_slow_scenario(self):
        base = _doc(THREE)
        cur = _doc({"a": 0.5, "b": 0.2, "c": 0.5})
        ok, rows = compare(cur, base, tolerance=0.85)
        assert not ok
        verdicts = {name: passed for name, _b, _c, _r, passed in rows}
        assert verdicts == {"a": True, "b": False, "c": True}

    def test_missing_scenario_fails_when_required(self):
        base = _doc(THREE)
        cur = _doc({"a": 0.5, "b": 0.5})
        cur["scenarios"]["c"] = None
        del cur["scenarios"]["c"]
        ok, _rows = compare(cur, base, tolerance=0.85, require_all=True)
        assert not ok
        ok, rows = compare(cur, base, tolerance=0.85, require_all=False)
        assert ok and len(rows) == 2

    def test_faster_always_passes(self):
        base = _doc(THREE)
        cur = _doc({k: 5.0 for k in THREE})
        ok, _rows = compare(cur, base, tolerance=0.85)
        assert ok


class TestMergeBest:
    def test_picks_fastest_per_scenario(self):
        slow = _doc({"a": 0.1, "b": 0.9, "c": 0.5})
        fast = _doc({"a": 0.9, "b": 0.1, "c": 0.5})
        best = merge_best([slow, fast])
        assert best["scenarios"]["a"]["ops_per_wall_s"] == \
            fast["scenarios"]["a"]["ops_per_wall_s"]
        assert best["scenarios"]["b"]["ops_per_wall_s"] == \
            slow["scenarios"]["b"]["ops_per_wall_s"]
        check_schema(best)

    def test_does_not_mutate_inputs(self):
        docs = [_doc(THREE), _doc({k: 9.0 for k in THREE})]
        keep = copy.deepcopy(docs)
        merge_best(docs)
        assert docs == keep


class TestScaledRuns:
    """Tiny scaled scenario runs: the harness works end to end."""

    def test_run_scenario_fields(self):
        result = run_scenario("novelsm-ingest-recovery", scale=0.02)
        assert result["ops"] > 0
        assert result["events"] > 0
        assert result["wall_s"] > 0
        assert result["ops_per_wall_s"] > 0
        assert result["peak_rss_kb"] > 0

    def test_run_all_subset_schema(self):
        doc = run_all(scale=0.02, scenarios=["novelsm-ingest-recovery"],
                      calibration_loops=1)
        check_schema(doc, min_scenarios=1)
        assert doc["scale"] == 0.02

    def test_run_all_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            run_all(scenarios=["no-such-scenario"])


class TestCli:
    def test_check_against_temp_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        code = main([
            "--scenario", "novelsm-ingest-recovery", "--scale", "0.02",
            "--repeat", "1", "--update", "--baseline", str(baseline),
        ])
        assert code == 0
        assert baseline.exists()
        code = main([
            "--scenario", "novelsm-ingest-recovery", "--scale", "0.02",
            "--repeat", "1", "--check", "--tolerance", "0.05",
            "--baseline", str(baseline),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_check_missing_baseline_exits_2(self, tmp_path):
        code = main([
            "--scenario", "novelsm-ingest-recovery", "--scale", "0.02",
            "--repeat", "1", "--check",
            "--baseline", str(tmp_path / "absent.json"),
        ])
        assert code == 2

    def test_impossible_tolerance_exits_1(self, tmp_path):
        baseline = tmp_path / "base.json"
        main([
            "--scenario", "novelsm-ingest-recovery", "--scale", "0.02",
            "--repeat", "1", "--update", "--baseline", str(baseline),
        ])
        code = main([
            "--scenario", "novelsm-ingest-recovery", "--scale", "0.02",
            "--repeat", "1", "--check", "--tolerance", "1000",
            "--baseline", str(baseline),
        ])
        assert code == 1

    def test_golden_capture_writes_fixture(self, tmp_path):
        # Byte for byte: the CLI's serialisation is what the committed
        # fixtures are regenerated with.
        out_dir = tmp_path / "goldens"
        code = main([
            "--scenario", "novelsm-ingest-recovery", "--golden", str(out_dir),
        ])
        assert code == 0
        name = "speed_golden_novelsm-ingest-recovery.json"
        committed = os.path.join(os.path.dirname(__file__), "fixtures", name)
        with open(committed, "rb") as handle:
            assert (out_dir / name).read_bytes() == handle.read()
