"""``repro-stats --watch``: periodic snapshots with delta/rate semantics.

The contract: every periodic snapshot is produced by the same
``registry.snapshot()`` call as the one-shot export — identical key
sets, identical metric names — counters are monotonic across
consecutive snapshots (sim time only moves forward, counters only
up), and the delta/rate columns the renderer prints are recomputable
from the raw snapshots.
"""

import json

import pytest

from repro.obs.cli import main, render_watch


@pytest.fixture(scope="module")
def watch_doc(tmp_path_factory):
    """One short watched run, exported as JSON."""
    path = tmp_path_factory.mktemp("watch") / "doc.json"
    exit_code = main([
        "--duration-us", "4000", "--warmup-us", "1000",
        "--watch", "1000", "--trace", "3", "--json", str(path),
    ])
    assert exit_code == 0
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestWatchSchema:
    def test_watch_entries_schema_identical_to_one_shot(self, watch_doc):
        snapshot = watch_doc["snapshot"]
        watch = watch_doc["watch"]
        assert len(watch) >= 3
        for entry in watch:
            assert sorted(entry) == sorted(snapshot)
            assert sorted(entry["metrics"]) == sorted(snapshot["metrics"])
            for name, metric in entry["metrics"].items():
                assert metric["type"] == snapshot["metrics"][name]["type"]
                assert sorted(metric) == sorted(snapshot["metrics"][name])

    def test_final_watch_entry_matches_one_shot_totals(self, watch_doc):
        last = watch_doc["watch"][-1]
        snapshot = watch_doc["snapshot"]
        assert last["sim_now_ns"] == snapshot["sim_now_ns"]
        assert last["metrics"]["server.requests"]["value"] == \
            snapshot["metrics"]["server.requests"]["value"]

    def test_document_keys(self, watch_doc):
        assert sorted(watch_doc) == [
            "snapshot", "table1", "trace", "watch", "workload",
        ]


class TestWatchMonotonicity:
    def test_time_and_counters_monotonic(self, watch_doc):
        watch = watch_doc["watch"]
        counter_names = [
            name for name, metric in watch[0]["metrics"].items()
            if metric["type"] == "counter"
        ]
        assert "server.requests" in counter_names
        previous = None
        for entry in watch:
            if previous is not None:
                assert entry["sim_now_ns"] > previous["sim_now_ns"]
                for name in counter_names:
                    assert entry["metrics"][name]["value"] >= \
                        previous["metrics"][name]["value"], name
            previous = entry

    def test_histogram_counts_monotonic(self, watch_doc):
        watch = watch_doc["watch"]
        previous = None
        for entry in watch:
            count = entry["metrics"]["server.request_ns"]["count"]
            if previous is not None:
                assert count >= previous
            previous = count

    def test_progress_actually_happened(self, watch_doc):
        # The watch view is non-vacuous: requests advanced mid-run, not
        # only between the first and last snapshot.
        values = [entry["metrics"]["server.requests"]["value"]
                  for entry in watch_doc["watch"]]
        deltas = [b - a for a, b in zip(values, values[1:])]
        assert sum(1 for d in deltas if d > 0) >= 2


class TestWatchRendering:
    def test_delta_and_rate_columns_recompute(self, watch_doc):
        watch = watch_doc["watch"]
        table = render_watch(watch)
        lines = [line for line in table.splitlines() if line.strip()]
        # One data row per snapshot (after title + header + rules).
        data_rows = [line for line in lines if line.lstrip()[0].isdigit()]
        assert len(data_rows) == len(watch)
        prev_requests, prev_now = 0.0, None
        for row, entry in zip(data_rows, watch):
            columns = row.split()
            requests = entry["metrics"]["server.requests"]["value"]
            now = entry["sim_now_ns"]
            delta = requests - prev_requests
            window = now - prev_now if prev_now is not None else now
            rate_krps = delta / window * 1e6 if window > 0 else 0.0
            assert columns[1] == f"{requests:.0f}"
            assert columns[2] == f"+{delta:.0f}"
            assert columns[3] == f"{rate_krps:.1f}"
            prev_requests, prev_now = requests, now

    def test_quantile_columns_come_from_digest(self, watch_doc):
        entry = watch_doc["watch"][-1]
        quantiles = entry["metrics"]["server.request_ns"]["quantiles"]
        assert set(quantiles) == {"p50", "p90", "p99", "p99.9"}
        assert quantiles["p50"] <= quantiles["p99"] <= quantiles["p99.9"]


def _export(tmp_path, name, args):
    path = tmp_path / f"{name}.json"
    assert main([*args, "--json", str(path)]) == 0
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestWatchChangesOnlyTheSnapshots:
    """A watched run ends as the client's own ``run()`` ends it, and
    reading metrics mid-run perturbs none of them."""

    @pytest.mark.parametrize("mode", [
        ["--openloop", "45"],
        [],
    ], ids=["openloop", "closed-loop"])
    def test_final_snapshot_identical_with_and_without_watch(self, tmp_path, mode):
        args = [*mode, "--duration-us", "10000", "--warmup-us", "2000"]
        plain = _export(tmp_path, "plain", args)
        watched = _export(tmp_path, "watched", [*args, "--watch", "2000"])
        assert len(watched["watch"]) >= 6
        assert watched["snapshot"] == plain["snapshot"]
        assert watched["workload"] == plain["workload"]
        assert watched["watch"][-1] == watched["snapshot"]


class TestWatchGuards:
    def test_watch_rejects_storm_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["--watch", "1000", "--storm"])

    def test_watch_rejects_nonpositive_interval(self, capsys):
        with pytest.raises(SystemExit):
            main(["--watch", "0"])
