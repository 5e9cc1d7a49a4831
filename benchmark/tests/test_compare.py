"""Verdicts of benchmark/compare.py."""

import json

import pytest

from benchmark import compare, run

BOUNDED = {"name": "host_ops_per_s", "unit": "1/s", "better": "higher",
           "bound": 0.1}
LAYER = {"name": "pm.self_s", "unit": "s", "better": "lower"}


def metric(value, spread=0.01):
    return {"value": value, "unit": "x", "q1": value * (1 - spread / 2),
            "q3": value * (1 + spread / 2)}


@pytest.mark.parametrize("candidate, spread, expected", [
    (100.0, 0.01, "within bound"),
    (95.0, 0.01, "within bound"),
    (85.0, 0.01, "worse"),
    (115.0, 0.01, "better"),
    (85.0, 0.30, "unresolved"),
])
def test_bounded_verdicts(candidate, spread, expected):
    assert compare.verdict(metric(100.0), metric(candidate, spread),
                           BOUNDED) == expected


def test_direction_follows_the_spec():
    lower = dict(BOUNDED, better="lower")
    assert compare.verdict(metric(100.0), metric(85.0), lower) == "better"


def test_per_layer_metrics_have_no_bound():
    assert compare.verdict(metric(2.0), metric(2.0), LAYER) == "same"
    assert compare.verdict(metric(2.0), metric(3.0), LAYER) == "changed"


def _document(value):
    return {"workloads": {"tcp-put-1k": {"metrics": {
        "host_ops_per_s": metric(value), "pm.self_s": metric(1.0)}}}}


def test_exit_code_flags_a_worse_metric(tmp_path, capsys):
    bound = next(m["bound"] for m in run.load_spec()["end_to_end"]
                 if m["name"] == "host_ops_per_s")
    paths = []
    for name, value in (("a", 100.0), ("b", 100.0 * (1 - 2 * bound)),
                        ("c", 101.0)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_document(value)))
        paths.append(str(path))
    assert compare.main([paths[0], paths[1]]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([paths[0], paths[2]]) == 0
