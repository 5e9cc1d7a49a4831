"""PMLint: rule engine, suppressions, and the planted-bug negative checks.

The linter's own self-test (every rule must flag its planted BAD
snippet and stay silent on its GOOD twin) is re-run here so the test
suite — not just the CI lint job — proves detection power.  The
``# pmlint: disable=`` marker is spelled split in this file so the
linter never mistakes these tests for control comments.
"""

import pytest

from repro.analysis import pmlint
from repro.analysis.cli import main as lint_main

# A path inside the linter's persistence scope (rules that scope by
# path see virtual modules under this name as lintable).
SCOPED_PATH = "src/repro/net/_virtual.py"

DISABLE = "# pmlint" ": disable"


def lint_source(source, select=None, path=SCOPED_PATH):
    module = pmlint.ModuleSource(path, source)
    return pmlint.lint_module(module, select=select)


def program_source(source, path=SCOPED_PATH):
    """Lint one module as a whole program (the interprocedural rules)."""
    found, _program = pmlint.lint_program([pmlint.ModuleSource(path, source)])
    return found


def active(findings, rule=None):
    return [f for f in findings
            if not f.suppressed and (rule is None or f.rule == rule)]


class TestSelfTest:
    def test_every_rule_detects_its_planted_bug(self):
        report = pmlint.self_test()
        assert report.ok, report.summary()

    def test_rules_all_carry_examples(self):
        for rule in pmlint.iter_rules():
            assert rule.BAD is not None, rule.id
            assert rule.GOOD is not None, rule.id
            assert rule.hint, rule.id


class TestFlushFenceRules:
    MISSING_FENCE = (
        "def commit(region, blob, ctx):\n"
        "    region.write(0, blob)\n"
        "    region.flush(0, len(blob), ctx)\n"
    )

    def test_flush_without_fence_flagged(self):
        findings = active(program_source(self.MISSING_FENCE), rule="PM-I01")
        assert len(findings) == 1
        assert findings[0].line == 3
        assert findings[0].severity == "warn"

    def test_fence_after_flush_clean(self):
        source = self.MISSING_FENCE + "    region.fence(ctx)\n"
        assert not active(program_source(source), rule="PM-I01")

    def test_block_device_sync_counts_as_fence(self):
        source = (
            "def append(device, blob, ctx):\n"
            "    device.write(0, blob)\n"
            "    device.sync(ctx)\n"
        )
        assert not active(lint_source(source), rule="PM-W02")

    def test_fence_parameter_defers_to_caller(self):
        source = (
            "def write_next(region, addr, blob, ctx, fence=True):\n"
            "    region.write(addr, blob)\n"
            "    region.flush(addr, 8, ctx)\n"
            "    if fence:\n"
            "        region.fence(ctx)\n"
        )
        assert not active(program_source(source), rule="PM-I01")


class TestWritePersist:
    """``write_persist`` is a store and its drain in one call."""

    def test_fused_store_is_not_flagged(self):
        source = (
            "def commit(region, blob, ctx):\n"
            "    region.write_persist(0, blob, ctx, 'persist')\n"
        )
        assert not active(lint_source(source))
        assert not active(program_source(source))

    def test_bare_write_after_it_is_still_flagged(self):
        source = (
            "def commit(region, blob, ctx):\n"
            "    region.write_persist(0, blob, ctx, 'persist')\n"
            "    region.write(64, blob)\n"
        )
        findings = active(lint_source(source), rule="PM-W02")
        assert [f.line for f in findings] == [3]

    def test_it_drains_an_earlier_flush(self):
        source = (
            "def commit(region, blob, ctx):\n"
            "    region.write(64, blob)\n"
            "    region.flush(64, len(blob), ctx)\n"
            "    region.write_persist(0, blob, ctx, 'persist')\n"
        )
        assert not active(program_source(source), rule="PM-I01")
        assert not active(lint_source(source), rule="PM-W02")

    def test_without_ctx_it_trips_ctx01(self):
        source = (
            "def commit(region, blob, ctx):\n"
            "    region.write_persist(0, blob)\n"
            "    region.write_persist(64, blob, ctx=ctx)\n"
        )
        findings = active(lint_source(source), rule="CTX-01")
        assert [f.line for f in findings] == [2]

    def test_planted_ctx01_example_flags_the_fused_call(self):
        rule = next(pmlint.iter_rules(select={"CTX-01"}))
        module = pmlint.ModuleSource(rule.BAD_PATH, rule.BAD)
        lines = {f.line for f in rule.check(module)}
        fused = 1 + rule.BAD.splitlines().index(
            "        self.region.write_persist(0, b'root')")
        assert fused in lines


class TestSuppressions:
    def test_inline_suppression_with_reason_honored(self):
        source = (
            "def commit(region, blob, ctx):\n"
            f"    {DISABLE}=PM-W02 — caller persists after the batch\n"
            "    region.write(0, blob)\n"
        )
        findings = lint_source(source)
        suppressed = [f for f in findings if f.suppressed]
        assert len(suppressed) == 1
        assert suppressed[0].rule == "PM-W02"
        assert "caller persists" in suppressed[0].reason
        assert not active(findings, rule="PM-W02")

    def test_suppression_without_reason_is_sup01_error(self):
        source = (
            "def commit(region, blob, ctx):\n"
            f"    region.write(0, blob)  {DISABLE}=PM-W02\n"
        )
        findings = active(lint_source(source), rule="SUP-01")
        assert len(findings) == 1
        assert findings[0].severity == "error"

    def test_unparseable_control_comment_is_sup01(self):
        source = f"X = 1  {DISABLE} PM-W02 oops\n"
        assert active(lint_source(source), rule="SUP-01")

    def test_suppression_does_not_leak_to_other_rules(self):
        source = (
            "def commit(region, blob, ctx):\n"
            f"    {DISABLE}=DET-01 — wrong rule named\n"
            "    region.write(0, blob)\n"
        )
        assert active(lint_source(source), rule="PM-W02")


class TestDeterminismRule:
    def test_bare_random_flagged(self):
        source = (
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        findings = active(lint_source(source), rule="DET-01")
        assert len(findings) == 1
        assert findings[0].severity == "error"

    def test_seeded_rng_clean(self):
        source = (
            "import random\n"
            "def make_rng(seed):\n"
            "    return random.Random(seed)\n"
        )
        assert not active(lint_source(source), rule="DET-01")

    def test_wallclock_flagged(self):
        source = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert active(lint_source(source), rule="DET-01")


class TestTreeIsClean:
    """The acceptance criterion: the default (interprocedural) lint of
    ``src/`` is clean, with at most five reasoned suppressions."""

    def test_src_tree_has_no_active_findings(self, src_lint_report):
        assert src_lint_report.ok, src_lint_report.summary()

    def test_every_suppression_in_tree_is_documented(self, src_lint_report):
        suppressed = src_lint_report.suppressed
        assert suppressed, "expected the documented suppressions"
        assert len(suppressed) <= 5
        for finding in suppressed:
            assert finding.reason and len(finding.reason) > 10, finding.format()


class TestCli:
    def test_self_test_flag(self, capsys):
        assert lint_main(["--self-test"]) == 0
        assert "selftest" in capsys.readouterr().out

    def test_lint_clean_tree_exit_zero(self, capsys):
        assert lint_main(["src/repro"]) == 0
        capsys.readouterr()

    def test_lint_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(
            "def nop():\n    return 0\n")
        before = sorted(tmp_path.rglob("*"))
        assert lint_main(["pkg"]) == 0
        capsys.readouterr()
        assert sorted(tmp_path.rglob("*")) == before

    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        assert lint_main([str(bad)]) == 1
        assert "DET-01" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("PM-W02", "PM-I01", "REF-I01", "DET-01",
                        "CTX-01", "SUP-01"):
            assert rule_id in out

    def test_usage_error_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([str(tmp_path / "nope.txt")])
        assert excinfo.value.code == 2
