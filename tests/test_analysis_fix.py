"""``repro-lint --fix``: the mechanical CTX-01/SUP-01 rewriter.

Pins the acceptance criterion (the CTX-01 fixture lints clean after
one fix pass and still compiles) plus the safety properties: ``--diff``
writes nothing, suppressed lines are never rewritten, and fixing is
idempotent.  The ``# pmlint: disable=`` marker is spelled split so the
linter never reads these tests as control comments.
"""

import pytest

from repro.analysis import autofix, pmlint
from repro.analysis.cli import main as lint_main

DISABLE = "# pmlint" ": disable"

# The fixture: three chargeable calls with an ExecutionContext in
# scope, one call in a context-free function (must be refused).
CTX_FIXTURE = (
    "class Slab:\n"
    "    def commit(self, ctx):\n"
    "        self.region.flush(0, 64)\n"
    "        self.region.fence()\n"
    "\n"
    "    def hint(self, ctx):\n"
    "        self.region.persist(0, 64, mode='lazy')\n"
    "\n"
    "    def orphan(self):\n"
    "        self.region.fence()\n"
)


def fix_source(source, path="src/repro/net/_virtual.py"):
    return autofix.fix_module(pmlint.ModuleSource(path, source))


class TestCtxFix:
    def test_positional_insert_when_slots_align(self):
        result = fix_source(CTX_FIXTURE)
        lines = result.fixed.splitlines()
        assert lines[2].endswith("self.region.flush(0, 64, ctx)")
        assert lines[3].endswith("self.region.fence(ctx)")

    def test_keyword_insert_when_call_has_keywords(self):
        result = fix_source(CTX_FIXTURE)
        assert "self.region.persist(0, 64, mode='lazy', ctx=ctx)" \
            in result.fixed

    def test_no_ctx_in_scope_refused(self):
        result = fix_source(CTX_FIXTURE)
        refused = [f for f in result.refused if f.rule == "CTX-01"]
        assert len(refused) == 1
        assert refused[0].line == 10
        assert "no ExecutionContext in scope" in refused[0].description

    def test_fixed_fixture_lints_clean_and_compiles(self):
        result = fix_source(CTX_FIXTURE)
        compile(result.fixed, "<fixture>", "exec")
        module = pmlint.ModuleSource("src/repro/net/_virtual.py",
                                     result.fixed)
        remaining = [f for f in pmlint.lint_module(module,
                                                   select={"CTX-01"})
                     if f.line != 10]  # the refused context-free call
        assert not remaining

    def test_suppressed_line_never_rewritten(self):
        source = (
            "class Slab:\n"
            "    def commit(self, ctx):\n"
            f"        self.region.fence()  {DISABLE}=CTX-01 — "
            "charged by the caller\n"
        )
        result = fix_source(source)
        assert not result.changed
        assert result.refused and "suppression" in \
            result.refused[0].description

    def test_idempotent(self):
        once = fix_source(CTX_FIXTURE)
        twice = fix_source(once.fixed)
        assert not twice.changed
        assert not [f for f in twice.applied if f.rule == "CTX-01"]

    def test_local_ctx_binding_counts_as_in_scope(self):
        source = (
            "class Slab:\n"
            "    def commit(self):\n"
            "        ctx = self.make_context()\n"
            "        self.region.fence()\n"
        )
        result = fix_source(source)
        assert "self.region.fence(ctx)" in result.fixed


class TestSuppressionFix:
    def test_wrong_separator_normalized(self):
        source = (f"X = 1  {DISABLE} = PM-W02 - reachability is the "
                  "commit point\n")
        result = fix_source(source)
        assert result.applied
        assert ("# pmlint: disable=PM-W02 — reachability is the commit "
                "point") in result.fixed

    def test_missing_reason_refused(self):
        source = f"X = 1  {DISABLE}=PM-W02\n"
        result = fix_source(source)
        assert not result.changed
        assert result.refused
        assert "reason" in result.refused[0].description

    def test_normalized_form_is_stable(self):
        source = (f"X = 1  {DISABLE} = PM-W02 - reachability is the "
                  "commit point\n")
        once = fix_source(source)
        twice = fix_source(once.fixed)
        assert not twice.changed


class TestFixPaths:
    def test_write_mode_rewrites_file(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(CTX_FIXTURE)
        results = autofix.fix_paths([str(target)])
        assert results[0].changed
        assert "self.region.flush(0, 64, ctx)" in target.read_text()

    def test_diff_mode_writes_nothing(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(CTX_FIXTURE)
        results = autofix.fix_paths([str(target)], write=False)
        assert results[0].changed
        assert target.read_text() == CTX_FIXTURE
        diff = results[0].unified_diff()
        assert diff.startswith("---")
        assert "+        self.region.flush(0, 64, ctx)" in diff


class TestCli:
    def test_fix_diff_previews_and_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(CTX_FIXTURE)
        assert lint_main(["--fix", "--diff", str(target)]) == 0
        out = capsys.readouterr().out
        assert "would fix" in out
        assert "previewed" in out
        assert target.read_text() == CTX_FIXTURE

    def test_fix_applies_then_tree_lints_clean(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(
            "class Slab:\n"
            "    def commit(self, ctx):\n"
            "        self.region.flush(0, 64)\n"
            "        self.region.fence(ctx)\n"
        )
        assert lint_main(["--fix", str(target)]) == 0
        capsys.readouterr()
        assert lint_main([str(target), "--no-cache"]) == 0
        capsys.readouterr()

    def test_diff_without_fix_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["--diff", str(tmp_path)])
        assert excinfo.value.code == 2
