"""SARIF 2.1.0 emission: shape, levels, and in-source suppressions."""

import json

from repro.analysis import pmlint
from repro.analysis.cli import main as lint_main
from repro.analysis.sarif import to_sarif

DISABLE = "# pmlint" ": disable"


def report_for(source, path="src/repro/net/_virtual.py"):
    from repro.analysis.findings import AnalysisReport

    module = pmlint.ModuleSource(path, source)
    out = AnalysisReport(tool="pmlint")
    out.extend(pmlint.lint_module(module))
    out.files_checked = 1
    return out


BAD = (
    "import random\n"
    "def jitter():\n"
    "    return random.random()\n"
)


class TestDocumentShape:
    def test_envelope(self):
        doc = to_sarif(report_for(BAD), list(pmlint.iter_rules()))
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "pmlint"

    def test_rule_catalogue_in_driver(self):
        doc = to_sarif(report_for(BAD), list(pmlint.iter_rules()))
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        ids = {r["id"] for r in rules}
        assert {"PM-I01", "REF-I01", "CTX-01", "DET-01"} <= ids
        for rule in rules:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning", "note")

    def test_result_location_and_level(self):
        doc = to_sarif(report_for(BAD), list(pmlint.iter_rules()))
        results = doc["runs"][0]["results"]
        det = [r for r in results if r["ruleId"] == "DET-01"]
        assert det, results
        location = det[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("_virtual.py")
        assert location["region"]["startLine"] == 3

    def test_suppressed_finding_carries_justification(self):
        source = (
            "import random\n"
            "def jitter(rng):\n"
            f"    return rng.random()  {DISABLE}=DET-01 — seeded by the "
            "harness deterministically\n"
        )
        doc = to_sarif(report_for(source), list(pmlint.iter_rules()))
        suppressed = [r for r in doc["runs"][0]["results"]
                      if r.get("suppressions")]
        # the import itself is not suppressed; the call is
        calls = [r for r in suppressed if "jitter" in r["message"]["text"]]
        for result in calls:
            (sup,) = result["suppressions"]
            assert sup["kind"] == "inSource"
            assert "seeded" in sup["justification"]


class TestCli:
    def test_sarif_output_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD)
        out = tmp_path / "report.sarif"
        assert lint_main([str(bad), "--format", "sarif",
                          "--output", str(out)]) == 1
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert any(r["ruleId"] == "DET-01"
                   for r in doc["runs"][0]["results"])

    def test_clean_tree_sarif_exit_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def nop():\n    return 0\n")
        assert lint_main([str(good), "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []
