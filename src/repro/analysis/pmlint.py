"""PMLint: AST-based static analysis of the persistence/refcount idioms.

The linter is a small framework plus a registry of repo-specific rules
(:mod:`repro.analysis.rules`).  A rule is a class with an ``id``, a
``check(module)`` generator yielding :class:`~repro.analysis.findings.
Finding` objects, and two planted example snippets (``BAD``/``GOOD``)
that :func:`self_test` uses to prove the rule actually detects what it
claims — the negative check CI runs.

Suppressions are inline and **must carry a reason**::

    self.region.write(addr, blob)  # pmlint: disable=PM-W02 — the caller persists the whole record

A suppression with no reason is itself a finding (``SUP-01``).  A
comment-only suppression line covers the next source line; a trailing
comment covers its own line (put it on the first physical line of a
multi-line call).  ``# pmlint: disable-file=RULE — reason`` anywhere in
a file covers the whole file.
"""

import ast
import os
import re
import tokenize

from repro.analysis.findings import AnalysisReport, Finding

#: rule id -> rule class.  Populated by :func:`register` (see rules.py).
RULES = {}

_SUPPRESS_RE = re.compile(
    r"#\s*pmlint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\- ]+?)"
    r"(?:\s*(?:—|--|:|\()\s*(.*?))?\)?\s*$"
)


def register(rule_cls):
    """Class decorator adding a rule to the registry."""
    if rule_cls.id in RULES:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    RULES[rule_cls.id] = rule_cls
    return rule_cls


class Suppression:
    __slots__ = ("rules", "reason", "line", "file_wide")

    def __init__(self, rules, reason, line, file_wide):
        self.rules = rules
        self.reason = reason
        self.line = line
        self.file_wide = file_wide


class ModuleSource:
    """One parsed source file plus its suppression table."""

    def __init__(self, path, source, display_path=None):
        self.path = display_path or path
        self.tree = ast.parse(source, filename=self.path)
        self.lines = source.splitlines()
        #: target line -> [Suppression]; file-wide entries under key None.
        self.suppressions = {}
        #: SUP-01 findings produced while parsing suppressions.
        self.suppression_findings = []
        self._parse_suppressions()

    @classmethod
    def load(cls, path, root=None):
        with tokenize.open(path) as handle:
            source = handle.read()
        display = os.path.relpath(path, root) if root else path
        return cls(path, source, display_path=display)

    def _parse_suppressions(self):
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                # Marker split so this file does not flag itself.
                if ("pmlint" ": disable") in text:
                    self.suppression_findings.append(Finding(
                        "SUP-01",
                        "unparseable pmlint control comment",
                        path=self.path, line=lineno,
                        hint="use '# pmlint: disable=RULE — reason'",
                    ))
                continue
            kind, rule_list, reason = match.groups()
            rules = tuple(r.strip() for r in rule_list.split(",") if r.strip())
            reason = (reason or "").strip()
            if not reason:
                self.suppression_findings.append(Finding(
                    "SUP-01",
                    f"suppression of {', '.join(rules)} has no reason",
                    path=self.path, line=lineno,
                    hint="every suppression must say why the finding is "
                         "deliberate: '# pmlint: disable=RULE — reason'",
                ))
                continue
            file_wide = kind == "disable-file"
            code_before = text[:match.start()].strip()
            target = None if file_wide else (
                lineno if code_before else lineno + 1
            )
            entry = Suppression(rules, reason, lineno, file_wide)
            self.suppressions.setdefault(target, []).append(entry)

    def suppression_for(self, line, rule_id):
        """The suppression covering (line, rule), or None."""
        for target in (line, None):
            for entry in self.suppressions.get(target, ()):
                if rule_id in entry.rules:
                    return entry
        return None

    def functions(self):
        """Every function/method def as (node, qualified name)."""
        out = []

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((child, f"{prefix}{child.name}"))
                    walk(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(self.tree, "")
        return out


def dotted_name(node):
    """Best-effort dotted source text of an expression (or None)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    if isinstance(node, ast.Call):
        base = dotted_name(node.func)
        return f"{base}()" if base else None
    return None


def method_calls(node):
    """All attribute calls under ``node`` in source order.

    Yields ``(call, method_name, receiver_text)`` where receiver_text
    may be None for complex expressions.
    """
    calls = []
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            calls.append(
                (child, child.func.attr, dotted_name(child.func.value))
            )
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
            calls.append((child, child.func.id, None))
    calls.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    return calls


#: Receivers whose .flush() has nothing to do with persistent memory.
IO_RECEIVERS = ("stdout", "stderr", "stream", "sock", "file")


def is_io_receiver(receiver):
    return receiver is not None and any(
        receiver.endswith(name) for name in IO_RECEIVERS
    )


def arg_names(func_node):
    args = func_node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


class Rule:
    """Base class: subclass, set the attributes, implement check()."""

    id = "RULE"
    title = "untitled rule"
    severity = "error"
    hint = None
    #: Whole-program rules run once over the solved call graph
    #: (:func:`lint_program`), not per module.
    interprocedural = False
    #: Planted snippets for the negative self-test.  BAD must trip the
    #: rule; GOOD must not.  BAD_PATH positions the virtual module for
    #: rules that are path-scoped.
    BAD = None
    GOOD = None
    BAD_PATH = "src/repro/net/_selftest.py"

    def check(self, module):
        raise NotImplementedError

    def finding(self, module, line, message, hint=None, severity=None):
        out = Finding(
            self.id, message, path=module.path, line=line,
            hint=hint or self.hint, severity=severity or self.severity,
        )
        entry = module.suppression_for(line, self.id)
        if entry is not None:
            out.suppressed = True
            out.reason = entry.reason
        return out


def iter_rules(select=None):
    import repro.analysis.rules  # noqa: F401 — populate the registry
    import repro.analysis.rules_interproc  # noqa: F401

    for rule_id in sorted(RULES):
        if select is None or rule_id in select:
            yield RULES[rule_id]()


def lint_module(module, select=None):
    """All findings (active + suppressed) for one parsed module.

    Suppression-syntax findings (SUP-01) are emitted by the SUP-01 rule
    itself, so selecting rules also selects whether they are reported.
    Interprocedural rules never run here (they need the whole program).
    """
    found = []
    for rule in iter_rules(select):
        if not rule.interprocedural:
            found.extend(rule.check(module))
    return found


def lint_program(modules, select=None):
    """Run the whole-program rules once over all parsed modules."""
    from repro.analysis.interproc import Program

    program = Program(modules)
    found = []
    for rule in iter_rules(select):
        if rule.interprocedural:
            found.extend(rule.check_program(program))
    return found, program


def collect_files(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return sorted(set(files))


def run_lint(paths, select=None, root=None):
    """Lint files/directories; returns an :class:`AnalysisReport`.

    After the per-module rules, builds the whole-program call graph and
    runs the interprocedural rules (PM-I01/REF-I01).
    """
    report = AnalysisReport(tool="pmlint")
    modules = []
    for path in collect_files(paths):
        module = ModuleSource.load(path, root=root)
        modules.append(module)
        report.extend(lint_module(module, select))
        report.files_checked += 1
    if modules:
        found, _program = lint_program(modules, select)
        report.extend(found)
    return report


def self_test():
    """Prove every registered rule fires on its planted bad example.

    Returns an :class:`AnalysisReport` of *rule-engine* defects: a rule
    whose BAD snippet produces no finding, or whose GOOD snippet
    produces one, is reported here.  An empty report means the negative
    checks all passed.
    """
    report = AnalysisReport(tool="pmlint-selftest")
    for rule in iter_rules():
        if rule.BAD is None or rule.GOOD is None:
            report.add(Finding(
                rule.id, "rule ships no planted BAD/GOOD example",
                path=f"<selftest:{rule.id}>",
                hint="every rule must carry its own negative check",
            ))
            continue
        for snippet, expect_hit, label in (
            (rule.BAD, True, "BAD"), (rule.GOOD, False, "GOOD"),
        ):
            # The virtual module keeps BAD_PATH as its path so that
            # path-scoped rules see themselves in scope.
            module = ModuleSource(rule.BAD_PATH, snippet)
            hits = [f for f in rule.check(module)
                    if f.rule == rule.id and not f.suppressed]
            if expect_hit and not hits:
                report.add(Finding(
                    rule.id,
                    f"planted {label} example was NOT detected",
                    path=f"<selftest:{rule.id}>",
                    hint="the detector does not detect; fix the rule",
                ))
            elif not expect_hit and hits:
                report.add(Finding(
                    rule.id,
                    f"clean {label} example raised {len(hits)} finding(s)",
                    path=f"<selftest:{rule.id}>",
                    hint="the rule is too eager; fix the rule",
                ))
        report.files_checked += 2
    return report
