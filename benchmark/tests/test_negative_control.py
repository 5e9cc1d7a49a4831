"""Negative control: a planted regression in one layer must trip the bound.

The test (never ``src/``) wraps the per-packet L4 checksum the NIC
offload computes for every frame so that it runs ``k`` extra passes,
with ``k`` sized to cost about twice the ``host_ops_per_s`` bound.  On
tcp-put-1k the benchmark must then read ``host_ops_per_s`` worse than
its bound, the traced split must put the added time in
``net.checksum``, and every simulated result must stay identical.
"""

import math
import statistics
import time

from repro.net import nic

from benchmark import run, workloads
from benchmark.trace import Tracer

NAME = "tcp-put-1k"
SCALE = 0.25
PAIRS = 5
SEED = 5


def _unit(index=0):
    return workloads.run_unit(NAME, SEED, index, SCALE)


def _ops_per_s(unit):
    return unit["ops"] / unit["run_s"]


def test_planted_checksum_passes_fail_the_bound_in_their_layer(monkeypatch):
    bound = next(m["bound"] for m in run.load_spec()["end_to_end"]
                 if m["name"] == "host_ops_per_s")
    original = nic.checksum_partial
    spent = [0.0]

    def timed(data, seed=0):
        start = time.perf_counter()
        try:
            return original(data, seed)
        finally:
            spent[0] += time.perf_counter() - start

    monkeypatch.setattr(nic, "checksum_partial", timed)
    sizing = _unit()
    monkeypatch.setattr(nic, "checksum_partial", original)
    extra = math.ceil(2 * bound * sizing["run_s"] / spent[0])

    def planted(data, seed=0):
        for _ in range(extra):
            original(data, seed)
        return original(data, seed)

    baseline, slowed = [], []
    for _ in range(PAIRS):
        monkeypatch.setattr(nic, "checksum_partial", original)
        baseline.append(_unit())
        monkeypatch.setattr(nic, "checksum_partial", planted)
        slowed.append(_unit())

    assert all(u["latencies_ns"] == baseline[0]["latencies_ns"] and
               u["counts"] == baseline[0]["counts"] and not u["violations"]
               for u in baseline + slowed)
    base_rate = statistics.median(map(_ops_per_s, baseline))
    slow_rate = statistics.median(map(_ops_per_s, slowed))
    assert slow_rate < base_rate * (1 - bound), (extra, base_rate, slow_rate)

    monkeypatch.setattr(nic, "checksum_partial", original)
    _, base_profile = Tracer().run(_unit)
    monkeypatch.setattr(nic, "checksum_partial", planted)
    _, slow_profile = Tracer().run(_unit)
    rise = {layer: slow_profile[layer]["self_s"] - base_profile[layer]["self_s"]
            for layer in base_profile if layer != "wall_s"}
    checksum_rise = rise.pop("net.checksum")
    assert checksum_rise > 0.5 * extra * spent[0], rise
    assert checksum_rise > 3 * max(rise.values()), rise
