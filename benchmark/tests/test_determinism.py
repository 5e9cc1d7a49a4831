"""Determinism, tracing and schema of the benchmark at 5 % of its work.

Run from the repository root::

    python3 -m pytest benchmark/tests -q
"""

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmark import run, workloads
from benchmark.trace import BOUNDARIES, LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.05
NAMES = list(workloads.WORKLOADS)

#: Layers each workload must enter, and layers it must bypass — the
#: structural half of the predictions in the README's layer table.
LAYER_USE = {
    "tcp-put-1k": ({"sim", "net.tcp", "net.stack", "net.checksum", "pm",
                    "storage"},
                   {"net.homa", "core.pktstore", "core.overload", "obs"}),
    "homa-read-4core": ({"sim", "net.homa", "net.stack", "core.pktstore"},
                        {"net.tcp", "core.overload", "obs"}),
    "ingest-crash-recover": ({"pm", "storage", "net.checksum"},
                             {"sim", "net.tcp", "net.homa", "net.stack",
                              "net.pktbuf", "core.pktstore", "core.overload",
                              "obs"}),
    "openloop-knee": ({"sim", "net.tcp", "core.pktstore", "core.overload",
                       "obs"},
                      {"net.homa"}),
}


def _unit(name, index, seed=2):
    return workloads.run_unit(name, seed, index, SCALE)


@pytest.mark.parametrize("name", NAMES)
def test_a_repeated_seed_repeats_every_simulated_result(name):
    first = _unit(name, 0)
    again = _unit(name, workloads.POOLED_UNITS)
    assert first["violations"] == [] and first["failed"] == 0
    assert again["latencies_ns"] == first["latencies_ns"]
    assert again["window_ns"] == first["window_ns"]
    assert again["counts"] == first["counts"]
    assert workloads.simulated_metrics([again]) == \
        workloads.simulated_metrics([first])


@pytest.mark.parametrize("name", NAMES)
def test_the_seed_reaches_the_inputs(name):
    assert _unit(name, 0)["latencies_ns"] != _unit(name, 1)["latencies_ns"]


@pytest.mark.parametrize("name", NAMES)
def test_tracing_changes_no_simulated_result_and_attributes_all_time(name):
    plain = _unit(name, 0)
    traced, profile = Tracer().run(workloads.run_unit, name, 2, 0, SCALE)
    assert traced["latencies_ns"] == plain["latencies_ns"]
    assert traced["counts"] == plain["counts"]

    self_times = [profile[layer]["self_s"] for layer in LAYERS]
    assert min(self_times) >= -1e-9
    assert sum(self_times) == pytest.approx(profile["wall_s"], rel=1e-9)
    entered, bypassed = LAYER_USE[name]
    assert {layer for layer in entered if not profile[layer]["calls"]} == set()
    assert {layer for layer in bypassed if profile[layer]["calls"]} == set()


def _boundary_attributes():
    found = {}
    for _layer, module_name, qualname in BOUNDARIES:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        found[(module_name, qualname)] = vars(owner)[attr]
    return found


def test_the_tracer_restores_every_boundary():
    before = _boundary_attributes()
    Tracer().run(lambda: None)
    with pytest.raises(ZeroDivisionError):
        Tracer().run(lambda: 1 / 0)
    after = _boundary_attributes()
    assert all(after[key] is value for key, value in before.items())


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_declared_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "benchmark/run.py"]
    assert spec["paths"] == ["benchmark"]
    assert isinstance(spec["run_seconds"], int) and \
        1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == NAMES
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + NAMES
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} and
               0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"])
    assert 1 <= len(spec["per_layer"]) < 128
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_the_result_line_and_document_follow_the_schema(trace, tmp_path,
                                                        capsys):
    spec = run.load_spec()
    out = tmp_path / "result.json"
    code = run.main(["--workload", "ingest-crash-recover", "--seed", "4",
                     "--scale", str(SCALE), "--trace", str(trace),
                     "--json", str(out)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in last["metrics"].items()}
    assert all(set(m) == {"value", "unit"} and
               isinstance(m["value"], (int, float))
               for m in last["metrics"].values())
    document = json.loads(out.read_text())
    assert all(m["q1"] <= m["value"] <= m["q3"]
               for m in document["metrics"].values())


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "tcp-put-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
