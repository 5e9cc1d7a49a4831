"""Interprocedural PMLint: call graph, effect summaries, PM-I01/REF-I01.

The planted bugs here mirror the acceptance criteria: a two-hop
fence-domination chain (the flush in a grandchild, no fence anywhere up
the chain) and an exception-path refcount leak (a may-raise callee
between the alloc and the release).  The summary cache is pinned by a
hypothesis property: a warm-cache run must report exactly the findings
of a cold run.  The ``# pmlint: disable=`` marker is spelled split so
the linter never reads these tests as control comments.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import pmlint
from repro.analysis.interproc import Program, SummaryCache

SCOPED_PATH = "src/repro/net/_virtual.py"
DISABLE = "# pmlint" ": disable"


def program_findings(sources, select=None):
    """Lint a dict of {path: source} as one whole program."""
    modules = [pmlint.ModuleSource(path, text)
               for path, text in sorted(sources.items())]
    found, _program = pmlint.lint_program(modules, select=select)
    return [f for f in found if not f.suppressed]


TWO_HOP_BAD = (
    "class Store:\n"
    "    def _stage(self, ctx):\n"
    "        self.region.write(0, b'x', ctx)\n"
    "        self.region.flush(0, 1, ctx, 'persist')\n"
    "\n"
    "    def commit(self, ctx):\n"
    "        self._stage(ctx)\n"
    "\n"
    "    def handle(self, ctx):\n"
    "        self.commit(ctx)\n"
)


class TestFenceDomination:
    def test_two_hop_undrained_chain_flagged(self):
        findings = program_findings({SCOPED_PATH: TWO_HOP_BAD})
        assert [f.rule for f in findings] == ["PM-I01"]
        assert findings[0].line == 4  # the flush itself, not the callers
        assert "caller chain" in findings[0].message

    def test_witness_chain_names_the_callers(self):
        (finding,) = program_findings({SCOPED_PATH: TWO_HOP_BAD})
        assert "commit" in finding.message
        assert "handle" in finding.message

    def test_fence_at_top_of_chain_silences(self):
        fixed = TWO_HOP_BAD + "        self.region.fence(ctx)\n"
        assert not program_findings({SCOPED_PATH: fixed})

    def test_fence_in_middle_of_chain_silences(self):
        source = (
            "class Store:\n"
            "    def _stage(self, ctx):\n"
            "        self.region.write(0, b'x', ctx)\n"
            "        self.region.flush(0, 1, ctx, 'persist')\n"
            "\n"
            "    def commit(self, ctx):\n"
            "        self._stage(ctx)\n"
            "        self.region.fence(ctx)\n"
            "\n"
            "    def handle(self, ctx):\n"
            "        self.commit(ctx)\n"
        )
        assert not program_findings({SCOPED_PATH: source})

    def test_fence_false_default_reported_when_no_caller_fences(self):
        source = (
            "class Store:\n"
            "    def write_hint(self, ctx, fence=False):\n"
            "        self.region.flush(0, 8, ctx, 'persist')\n"
            "        if fence:\n"
            "            self.region.fence(ctx)\n"
            "\n"
            "    def touch(self, ctx):\n"
            "        self.write_hint(ctx)\n"
        )
        findings = program_findings({SCOPED_PATH: source})
        assert {f.rule for f in findings} == {"PM-I01"}

    def test_fence_false_default_clean_when_caller_drains(self):
        source = (
            "class Store:\n"
            "    def write_hint(self, ctx, fence=False):\n"
            "        self.region.flush(0, 8, ctx, 'persist')\n"
            "        if fence:\n"
            "            self.region.fence(ctx)\n"
            "\n"
            "    def touch(self, ctx):\n"
            "        self.write_hint(ctx)\n"
            "        self.region.fence(ctx)\n"
        )
        assert not program_findings({SCOPED_PATH: source})

    def test_cross_module_caller_drains(self):
        helper = (
            "def stage(region, blob, ctx):\n"
            "    region.write(0, blob)\n"
            "    region.flush(0, len(blob), ctx, 'persist')\n"
        )
        caller = (
            "from repro.net._helper import stage\n"
            "\n"
            "def commit(region, blob, ctx):\n"
            "    stage(region, blob, ctx)\n"
            "    region.fence(ctx)\n"
        )
        assert not program_findings({
            "src/repro/net/_helper.py": helper,
            "src/repro/net/_caller.py": caller,
        })

    def test_cross_module_nobody_drains(self):
        helper = (
            "def stage(region, blob, ctx):\n"
            "    region.write(0, blob)\n"
            "    region.flush(0, len(blob), ctx, 'persist')\n"
        )
        caller = (
            "from repro.net._helper import stage\n"
            "\n"
            "def commit(region, blob, ctx):\n"
            "    stage(region, blob, ctx)\n"
        )
        findings = program_findings({
            "src/repro/net/_helper.py": helper,
            "src/repro/net/_caller.py": caller,
        })
        assert [f.rule for f in findings] == ["PM-I01"]
        assert str(findings[0].path).endswith("_helper.py")


LEAK_BAD = (
    "class Proto:\n"
    "    def deliver(self, ctx):\n"
    "        pkt = PktBuf.alloc(self.tx_pool, 64, ctx)\n"
    "        self._stamp(pkt, ctx)\n"
    "        pkt.release()\n"
    "\n"
    "    def _stamp(self, pkt, ctx):\n"
    "        if pkt is None:\n"
    "            raise ValueError('no pkt')\n"
    "        pkt.meta = ctx\n"
)


class TestRefcountBalance:
    def test_exception_path_leak_flagged(self):
        findings = program_findings({SCOPED_PATH: LEAK_BAD})
        assert [f.rule for f in findings] == ["REF-I01"]
        assert findings[0].line == 3  # the acquisition site
        assert "exception path" in findings[0].message

    def test_try_finally_closes_the_gap(self):
        fixed = (
            "class Proto:\n"
            "    def deliver(self, ctx):\n"
            "        pkt = PktBuf.alloc(self.tx_pool, 64, ctx)\n"
            "        try:\n"
            "            self._stamp(pkt, ctx)\n"
            "        finally:\n"
            "            pkt.release()\n"
            "\n"
            "    def _stamp(self, pkt, ctx):\n"
            "        if pkt is None:\n"
            "            raise ValueError('no pkt')\n"
            "        pkt.meta = ctx\n"
        )
        assert not program_findings({SCOPED_PATH: fixed})

    def test_never_released_flagged(self):
        source = (
            "def take(pool, ctx):\n"
            "    pkt = pool.alloc(64, ctx)\n"
            "    pkt.touch()\n"
        )
        findings = program_findings({SCOPED_PATH: source})
        assert [f.rule for f in findings] == ["REF-I01"]

    def test_ownership_adoption_through_constructor(self):
        # The handle escapes into an owner that stores it: the engine
        # must see the constructor's parameter store, not demand a
        # release in the allocating function.
        source = (
            "class Entry:\n"
            "    def __init__(self, buf):\n"
            "        self.buf = buf\n"
            "\n"
            "def enqueue(pool, queue, ctx):\n"
            "    pkt = pool.alloc(64, ctx)\n"
            "    queue.append(Entry(pkt))\n"
        )
        assert not program_findings({SCOPED_PATH: source})

    def test_handing_to_releasing_callee_settles(self):
        source = (
            "class Stack:\n"
            "    def drop(self, pkt):\n"
            "        pkt.release()\n"
            "\n"
            "    def ingest(self, pool, ctx):\n"
            "        pkt = pool.alloc(64, ctx)\n"
            "        self.drop(pkt)\n"
        )
        assert not program_findings({SCOPED_PATH: source})

    def test_out_of_scope_path_not_checked(self):
        findings = program_findings({"src/repro/bench/_virtual.py": LEAK_BAD})
        assert not findings

    def test_setup_entry_points_exempt(self):
        source = (
            "class Store:\n"
            "    def recover(self, pool, ctx):\n"
            "        pkt = pool.alloc(64, ctx)\n"
            "        self.head = pkt.slot\n"
        )
        assert not program_findings({SCOPED_PATH: source})


class TestSupersession:
    def test_interproc_rules_tagged(self):
        tagged = {rule.id for rule in pmlint.iter_rules()
                  if rule.interprocedural}
        assert tagged == {"PM-I01", "REF-I01"}


class TestSelfTest:
    def test_interproc_rules_pass_planted_examples(self):
        report = pmlint.self_test()
        assert report.ok, report.summary()

    def test_single_module_program_wrapper(self):
        # InterprocRule.check() must behave like a one-file program so
        # the generic self-test machinery exercises these rules too.
        module = pmlint.ModuleSource(SCOPED_PATH, TWO_HOP_BAD)
        program = Program([module])
        keys = [k for k in program.functions if "_stage" in k]
        assert keys, "call-graph did not index the planted module"


def _write_tree(parent, fence_top, leak):
    """Three small modules whose findings depend on the drawn booleans.

    They live under a literal ``net/`` directory so REF-I01's path
    scope covers them.
    """
    base = parent / "net"
    base.mkdir(exist_ok=True)
    helper = (
        "def stage(region, blob, ctx):\n"
        "    region.write(0, blob)\n"
        "    region.flush(0, len(blob), ctx, 'persist')\n"
    )
    caller = (
        "from repro.net._h import stage\n"
        "\n"
        "def commit(region, blob, ctx):\n"
        "    stage(region, blob, ctx)\n"
    )
    if fence_top:
        caller += "    region.fence(ctx)\n"
    extra = (
        "def take(pool, ctx):\n"
        "    pkt = pool.alloc(64, ctx)\n"
    )
    extra += "    pkt.touch()\n" if leak else "    pkt.release()\n"
    (base / "_h.py").write_text(helper)
    (base / "_c.py").write_text(caller)
    (base / "_t.py").write_text(extra)


def _finding_keys(report):
    return sorted((f.rule, str(f.path).rsplit("/", 1)[-1], f.line)
                  for f in report.findings)


class TestSummaryCache:
    @settings(max_examples=12, deadline=None)
    @given(fence_top=st.booleans(), leak=st.booleans())
    def test_warm_cache_findings_equal_cold_run(self, tmp_path_factory,
                                                fence_top, leak):
        base = tmp_path_factory.mktemp("net")
        _write_tree(base, fence_top, leak)
        cache = base / "cache.json"
        cold = pmlint.run_lint([str(base)], cache_path=str(cache))
        assert cache.exists()
        warm = pmlint.run_lint([str(base)], cache_path=str(cache))
        assert _finding_keys(cold) == _finding_keys(warm)

    def test_source_change_invalidates_entry(self, tmp_path):
        _write_tree(tmp_path, fence_top=False, leak=False)
        cache = tmp_path / "cache.json"
        first = pmlint.run_lint([str(tmp_path)], cache_path=str(cache))
        assert ("PM-I01", "_h.py", 3) in _finding_keys(first)
        # Fix the chain; the stale cached summary must not resurrect it.
        caller = (tmp_path / "net" / "_c.py").read_text()
        (tmp_path / "net" / "_c.py").write_text(
            caller + "    region.fence(ctx)\n")
        second = pmlint.run_lint([str(tmp_path)], cache_path=str(cache))
        assert "PM-I01" not in {rule for rule, _, _ in _finding_keys(second)}

    def test_corrupt_cache_is_a_miss_not_a_crash(self, tmp_path):
        _write_tree(tmp_path, fence_top=True, leak=True)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json")
        report = pmlint.run_lint([str(tmp_path)], cache_path=str(cache))
        assert ("REF-I01", "_t.py", 2) in _finding_keys(report)


class TestTreeIsCleanInterprocedurally:
    """The acceptance criterion: the default (interprocedural) lint of
    the full tree is clean with at most five reasoned suppressions."""

    def test_full_tree_clean(self):
        report = pmlint.run_lint(["src/repro"], root=".")
        assert report.ok, report.summary()

    def test_suppression_budget(self):
        report = pmlint.run_lint(["src/repro"], root=".")
        assert len(report.suppressed) <= 5
        for finding in report.suppressed:
            assert finding.reason and len(finding.reason) > 10, finding.format()
