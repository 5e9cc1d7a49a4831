"""Suite-wide fixtures: the ``--pmsan`` sanitized lane, and one lint
of the source tree shared by every test that inspects it.

``pytest --pmsan`` wraps every test in a suite-mode
:class:`repro.analysis.pmsan.PMSan`: packet-buffer handles dropped
with a positive refcount fail the test that leaked them, and
zero-line (redundant) flushes are reported as perf diagnostics in the
test output without failing anything.  Strict mode (fence/ordering
checks) is *not* armed here — it needs a dedicated device exercising
one protocol, which is what the targeted tests in
``test_analysis_pmsan.py`` do.

Opt a test out with ``@pytest.mark.no_pmsan`` (e.g. tests that leak
deliberately to prove leak *detection*).
"""

import gc

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--pmsan",
        action="store_true",
        default=False,
        help="run every test under the PMSan runtime sanitizer "
             "(refcount-leak checks; redundant-flush diagnostics)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_pmsan: disable the PMSan fixture for this test "
        "(tests that plant violations on purpose)",
    )


@pytest.fixture(autouse=True)
def _pmsan_guard(request):
    if not request.config.getoption("--pmsan"):
        yield
        return
    if request.node.get_closest_marker("no_pmsan") is not None:
        yield
        return
    from repro.analysis.pmsan import PMSan

    sanitizer = PMSan(strict=False)
    sanitizer.enable()
    try:
        yield sanitizer
    finally:
        # Collect cycles so handles the test dropped (but that are
        # pinned in a cycle) finalize while the sanitizer is live;
        # whatever is still reachable at disable() is legitimately
        # held and is not a leak.
        gc.collect()
        report = sanitizer.disable()
    leaks = [finding for finding in report.failures if not finding.suppressed]
    if leaks:
        pytest.fail(
            "PMSan: "
            + "; ".join(finding.format() for finding in leaks),
            pytrace=False,
        )
    for finding in report.diagnostics:
        print(finding.format())


@pytest.fixture(scope="session")
def src_lint_report():
    """``repro-lint src/repro`` once per session (the tree is slow to lint)."""
    from repro.analysis import pmlint

    return pmlint.run_lint(["src/repro"], root=".")
