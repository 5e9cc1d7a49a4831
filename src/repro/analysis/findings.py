"""The shared finding model for PMLint and PMSan.

One :class:`Finding` is one defect (or diagnostic) at one place: a rule
id, a severity, a human message, a ``file:line`` location and a fix
hint.  Static findings come from the linter's AST walk; runtime
findings carry the call site PMSan extracted from the stack at the
moment the violation was observed — either way the report reads the
same, which is what lets CI treat both tools as one gate.

Severities:

- ``error`` — a protocol violation; fails the lint run / sanitized test.
- ``warn``  — suspicious but not certainly wrong; fails the lint run
  (suppress with a reason if deliberate), reported-only at runtime.
- ``perf``  — a performance diagnostic (e.g. a redundant flush); never
  fails anything, surfaced in the report tail.
"""

SEVERITIES = ("error", "warn", "perf")


class Finding:
    """One rule violation (or diagnostic) at one location."""

    __slots__ = ("rule", "message", "path", "line", "hint", "severity",
                 "suppressed", "reason")

    def __init__(self, rule, message, path=None, line=None, hint=None,
                 severity="error"):
        if severity not in SEVERITIES:
            raise ValueError(f"severity {severity!r} not in {SEVERITIES}")
        self.rule = rule
        self.message = message
        self.path = path
        self.line = line
        self.hint = hint
        self.severity = severity
        #: Set by the linter when an inline suppression covers this
        #: finding; ``reason`` then carries the suppression's reason.
        self.suppressed = False
        self.reason = None

    @property
    def location(self):
        if self.path is None:
            return "<runtime>"
        if self.line is None:
            return str(self.path)
        return f"{self.path}:{self.line}"

    def format(self):
        tag = {"error": "E", "warn": "W", "perf": "P"}[self.severity]
        head = f"{self.location}: {tag}:{self.rule}: {self.message}"
        if self.suppressed:
            head += f"  [suppressed: {self.reason}]"
        if self.hint and not self.suppressed:
            head += f"\n    hint: {self.hint}"
        return head

    def __repr__(self):
        return f"<Finding {self.rule} @ {self.location}>"


class AnalysisReport:
    """Findings from one analysis run, active and suppressed apart."""

    def __init__(self, tool="analysis"):
        self.tool = tool
        self.findings = []
        self.suppressed = []
        self.files_checked = 0

    def add(self, finding):
        (self.suppressed if finding.suppressed else self.findings).append(finding)
        return finding

    def extend(self, findings):
        for finding in findings:
            self.add(finding)

    def by_severity(self, severity):
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self):
        return self.by_severity("error")

    @property
    def warnings(self):
        return self.by_severity("warn")

    @property
    def diagnostics(self):
        return self.by_severity("perf")

    @property
    def failures(self):
        """Findings that should fail a gate: errors and warnings."""
        return self.errors + self.warnings

    @property
    def ok(self):
        return not self.failures

    def counts(self):
        out = {}
        for finding in self.findings + self.suppressed:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return out

    def summary(self):
        lines = []
        for finding in sorted(
            self.failures, key=lambda f: (f.path or "", f.line or 0, f.rule)
        ):
            lines.append(finding.format())
        for finding in self.diagnostics:
            lines.append(finding.format())
        tally = (
            f"[{self.tool}] {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.diagnostics)} diagnostic(s), "
            f"{len(self.suppressed)} suppressed"
        )
        if self.files_checked:
            tally += f" across {self.files_checked} file(s)"
        lines.append(tally)
        if self.suppressed:
            for finding in self.suppressed:
                lines.append(f"  suppressed {finding.rule} at {finding.location}: "
                             f"{finding.reason}")
        return "\n".join(lines)

    def __repr__(self):
        return (f"<AnalysisReport {self.tool}: {len(self.findings)} findings, "
                f"{len(self.suppressed)} suppressed>")
