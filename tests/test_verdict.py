"""The verdict kernel every oracle harness reports through.

Pure unit tests: no storm, no sweep, no simulator.  They pin the four
exit quadrants, the truncated rendering, declared vacuity needs and the
``"kind: detail"`` JSON list.
"""

import pytest

from repro.testing.verdict import SHOWN, Verdict, exit_status


class _Report(Verdict):
    TAG = "unit"
    HELD = "contract held: nothing broke"

    def __init__(self):
        super().__init__()
        self.checked = 0

    def head(self):
        return [f"[unit] checked {self.checked}"]


def _violated(count=1):
    report = _Report()
    for index in range(count):
        report.violation("kind", f"detail {index}")
    return report


@pytest.mark.parametrize("violations, expect, code, closing", [
    (0, False, 0, "[unit] OK: it held"),
    (2, False, 1, "[unit] FAIL: demo contract violated"),
    (0, True, 1, "[unit] FAIL: expected violations, the run was clean"),
    (2, True, 0, "[unit] OK: gap detected (2 violation(s), as expected)"),
], ids=["clean", "violated", "clean-expecting", "violated-expecting"])
def test_exit_quadrants(capsys, violations, expect, code, closing):
    report = _violated(violations)
    assert exit_status(report, expect, "unit", "demo", "it held") == code
    assert capsys.readouterr().out.splitlines() == [closing]


def test_summary_truncates_after_ten():
    report = _violated(SHOWN + 3)
    lines = report.summary().splitlines()
    assert SHOWN == 10
    assert lines[0] == "[unit] checked 0"
    assert lines[1] == "[unit] 13 violation(s):"
    assert lines[2:2 + SHOWN] == [f"[unit]   kind: detail {index}"
                                  for index in range(SHOWN)]
    assert lines[-1] == "[unit]   ... 3 more"
    assert len(lines) == 2 + SHOWN + 1


def test_clean_summary_closes_with_held():
    assert _Report().summary().splitlines() == [
        "[unit] checked 0", "[unit] contract held: nothing broke"]


def test_unmet_need_fails_without_any_check():
    report = _Report()
    report.need("vacuous:no-checks", lambda: report.checked,
                lambda: f"checked {report.checked} item(s)")
    # No check ever ran and no violation was recorded, yet the verdict
    # is not ok: the need is read with it.
    assert not report.ok
    assert report.violations == [("vacuous:no-checks", "checked 0 item(s)")]
    report.checked = 3
    assert report.ok
    assert report.violations == []


def test_needs_follow_found_violations():
    report = _Report()
    report.need("vacuous:none", lambda: False, "nothing ran")
    report.violation("leak", "slot 4")
    assert report.violations == [("leak", "slot 4"),
                                 ("vacuous:none", "nothing ran")]


def test_export_lists_kind_detail_strings():
    report = _Report()
    assert report.export() == {"violations": [], "ok": True}
    report.violation("durability", "key b'k': lost")
    report.need("shed-engages", lambda: False, "top point shed nothing")
    assert report.export() == {
        "violations": ["durability: key b'k': lost",
                       "shed-engages: top point shed nothing"],
        "ok": False,
    }
