"""``repro-lint``: the PMLint command-line front end.

Exit codes: 0 clean (suppressions allowed), 1 findings (or a blown
``--max-seconds`` budget), 2 usage error.  ``--self-test`` runs the
planted-example negative checks instead of linting — CI runs it first
so a silently broken rule cannot greenlight the tree.

Every run includes the interprocedural pass (call graph + effect
summaries, rules PM-I01 and REF-I01); pick rules with ``--select``.
``--fix`` applies the mechanical CTX-01/SUP-01 rewrites (``--diff``
previews without writing); ``--format sarif`` emits GitHub
code-scanning input.
"""

import argparse
import sys
import time

from repro.analysis import pmlint

DEFAULT_CACHE = ".pmlint-cache.json"


def _list_rules():
    lines = []
    for rule in pmlint.iter_rules():
        tag = " [interprocedural]" if rule.interprocedural else ""
        lines.append(f"{rule.id}  [{rule.severity}]  {rule.title}{tag}")
        if rule.hint:
            lines.append(f"    hint: {rule.hint}")
    return "\n".join(lines)


def _run_fix(args, parser):
    from repro.analysis import autofix

    try:
        results = autofix.fix_paths(args.paths, write=not args.diff)
    except (FileNotFoundError, SyntaxError) as exc:
        parser.error(str(exc))
    applied = refused = 0
    for result in results:
        if args.diff and result.changed:
            sys.stdout.write(result.unified_diff())
        for fix in result.fixes:
            applied += fix.applied
            refused += not fix.applied
            verb = "fixed" if fix.applied else "refused"
            if fix.applied and args.diff:
                verb = "would fix"
            print(f"{result.path}:{fix.line}: {verb} [{fix.rule}] "
                  f"{fix.description}")
    mode = "previewed" if args.diff else "applied"
    print(f"[pmlint-fix] {applied} fix(es) {mode}, {refused} refused "
          f"across {len(results)} file(s)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="static persistence-ordering and refcount linter "
                    "for the repro tree",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (e.g. src/repro)")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule detects its planted bad "
                             "example (the lint negative check)")
    parser.add_argument("--no-hints", action="store_true",
                        help="omit fix hints from the output")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanical CTX-01/SUP-01 rewrites "
                             "instead of reporting")
    parser.add_argument("--diff", action="store_true",
                        help="with --fix: print unified diffs, write "
                             "nothing")
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report there instead of stdout")
    parser.add_argument("--cache", metavar="PATH", default=DEFAULT_CACHE,
                        help="summary-cache file for the interprocedural "
                             f"pass (default: {DEFAULT_CACHE})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the summary cache")
    parser.add_argument("--max-seconds", type=float, metavar="N",
                        help="fail (exit 1) if the lint run takes longer — "
                             "the CI wall-clock budget assertion")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    if args.self_test:
        report = pmlint.self_test()
        print(report.summary())
        if report.ok:
            print("self-test OK: every rule detects its planted example")
            return 0
        print("self-test FAILED: the linter does not detect what it claims",
              file=sys.stderr)
        return 1

    if args.diff and not args.fix:
        parser.error("--diff only makes sense with --fix")

    if not args.paths:
        parser.error("no paths given (try: repro-lint src/repro)")

    if args.fix:
        return _run_fix(args, parser)

    select = None
    if args.select:
        select = {r.strip() for r in args.select.split(",") if r.strip()}
        unknown = select - {rule.id for rule in pmlint.iter_rules()}
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    cache_path = None if args.no_cache else args.cache
    started = time.monotonic()  # pmlint: disable=DET-01 — the --max-seconds CI budget measures real wall-clock by design
    try:
        report = pmlint.run_lint(
            args.paths, select=select, cache_path=cache_path,
        )
    except (FileNotFoundError, SyntaxError) as exc:
        parser.error(str(exc))
    elapsed = time.monotonic() - started  # pmlint: disable=DET-01 — same wall-clock budget measurement as above

    if args.format == "sarif":
        from repro.analysis.sarif import dump_sarif

        rules = list(pmlint.iter_rules(select))
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                dump_sarif(report, rules, handle)
            print(f"wrote {len(report.findings + report.suppressed)} "
                  f"result(s) to {args.output}")
        else:
            dump_sarif(report, rules, sys.stdout)
    else:
        text = report.summary()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)

    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(f"lint took {elapsed:.1f}s, over the --max-seconds "
              f"{args.max_seconds:.1f}s budget", file=sys.stderr)
        return 1
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
