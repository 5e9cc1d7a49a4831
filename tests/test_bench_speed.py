"""Unit tests for the golden-fixture writer, repro.bench.golden.

The byte-for-byte comparison of every scenario against its committed
fixture is tests/test_speed_equivalence.py; these check the writer's
own surface on the cheapest scenario.
"""

import os

import pytest

from repro.bench import golden
from repro.bench.golden import main, run_scenario
from tests.test_speed_equivalence import _canonical

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


class TestScaledRuns:
    def test_run_scenario_fields(self):
        result = run_scenario("novelsm-ingest-recovery", scale=0.02)
        assert set(result) == {"ops", "events", "sim_ns", "golden"}
        assert result["ops"] > 0
        assert result["events"] > 0
        assert result["golden"]["count_recovered"] > 0

    def test_run_scenario_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="no-such-scenario"):
            run_scenario("no-such-scenario")


class TestCli:
    def test_golden_capture_writes_fixture(self, tmp_path, monkeypatch):
        # Byte for byte: the CLI's serialisation is what the committed
        # fixtures are regenerated with, and what the equivalence
        # suite's _canonical reads.
        name = "novelsm-ingest-recovery"
        monkeypatch.setattr(golden, "SCENARIOS",
                            {name: golden.SCENARIOS[name]})
        out_dir = tmp_path / "goldens"
        assert main([str(out_dir)]) == 0
        fixture = f"speed_golden_{name}.json"
        assert [p.name for p in out_dir.iterdir()] == [fixture]
        written = (out_dir / fixture).read_text()
        with open(os.path.join(FIXTURE_DIR, fixture)) as handle:
            assert written == handle.read()
        assert written == _canonical(run_scenario(name)["golden"])
