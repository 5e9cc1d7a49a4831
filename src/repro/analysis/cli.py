"""``repro-lint``: the PMLint command-line front end.

Exit codes: 0 clean (suppressions allowed), 1 findings (or a blown
``--max-seconds`` budget), 2 usage error.  ``--self-test`` runs the
planted-example negative checks instead of linting — CI runs it first
so a silently broken rule cannot greenlight the tree.

One path per run: parse every file, run the per-module rules, build
the whole program once, run the interprocedural rules (call graph +
effect summaries, PM-I01 and REF-I01), report.  Pick rules with
``--select``; ``--format sarif`` emits GitHub code-scanning input.
"""

import argparse
import sys
import time

from repro.analysis import pmlint


def _list_rules():
    lines = []
    for rule in pmlint.iter_rules():
        tag = " [interprocedural]" if rule.interprocedural else ""
        lines.append(f"{rule.id}  [{rule.severity}]  {rule.title}{tag}")
        if rule.hint:
            lines.append(f"    hint: {rule.hint}")
    return "\n".join(lines)


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
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report there instead of stdout")
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

    if not args.paths:
        parser.error("no paths given (try: repro-lint src/repro)")

    select = None
    if args.select:
        select = {r.strip() for r in args.select.split(",") if r.strip()}
        unknown = select - {rule.id for rule in pmlint.iter_rules()}
        if unknown:
            parser.error(f"unknown rule id(s): {', '.join(sorted(unknown))}")

    started = time.monotonic()  # pmlint: disable=DET-01 — the --max-seconds CI budget measures real wall-clock by design
    try:
        report = pmlint.run_lint(args.paths, select=select)
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
