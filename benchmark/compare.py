"""Compare two result documents of ``benchmark/run.py``, metric by metric.

    python3 benchmark/compare.py A.json B.json

For every workload and metric present in both documents it prints A's
and B's median with quartiles, the change of B against A, and a verdict
under the bound ``BENCHMARK.json`` fixes for that metric:

- ``worse`` / ``better``: the medians differ by more than the bound;
- ``within bound``: they differ by no more than the bound;
- ``unresolved``: either side's spread (q3 - q1 over the median) is
  wider than the bound, so the runs cannot tell.

Per-layer metrics have no bound and read ``same`` or ``changed``.  The
exit code is 1 when any end-to-end metric is worse.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _workloads(document):
    if "workloads" in document:
        return document["workloads"]
    return {document["workload"]: document}


def _spread(metric):
    median = metric["value"]
    return (metric["q3"] - metric["q1"]) / abs(median) if median else 0.0


def verdict(a, b, spec):
    """Verdict of metric ``b`` against ``a`` under ``spec``'s bound."""
    if "bound" not in spec:
        return "same" if a["value"] == b["value"] else "changed"
    if a["value"] == b["value"]:
        return "within bound"
    bound = spec["bound"]
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    if a["value"] == 0:
        return "changed"
    change = (b["value"] - a["value"]) / abs(a["value"])
    worse_by = change if spec["better"] == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def compare(doc_a, doc_b, spec):
    """Rows of (workload, metric, a, b, change, verdict)."""
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    runs_b = _workloads(doc_b)
    for workload, run_a in _workloads(doc_a).items():
        run_b = runs_b.get(workload)
        if run_b is None or "metrics" not in run_a or "metrics" not in run_b:
            continue
        for name, a in run_a["metrics"].items():
            b = run_b["metrics"].get(name)
            if b is None or name not in specs:
                continue
            change = (b["value"] - a["value"]) / abs(a["value"]) \
                if a["value"] else 0.0
            rows.append((workload, name, a, b, change,
                         verdict(a, b, specs[name])))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="baseline result document")
    parser.add_argument("b", help="candidate result document")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    documents = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents, spec)
    worse = False
    for workload, name, a, b, change, outcome in rows:
        worse = worse or outcome == "worse"
        print(f"{workload:<21} {name:<28} "
              f"{a['value']:>12.6g} [{a['q1']:.4g}, {a['q3']:.4g}]  "
              f"{b['value']:>12.6g} [{b['q1']:.4g}, {b['q3']:.4g}]  "
              f"{change:>+8.2%}  {outcome}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
