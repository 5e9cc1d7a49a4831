"""One verdict for every oracle harness.

The crash sweep, both chaos storms, the soak sweep and the capture
rebuild/reseed checks all report through a :class:`Verdict`: a list of
``(kind, detail)`` violations plus the vacuity *needs* the harness
declared when it started ("at least one recovery", "at least one shed",
"at least one checked key").  An unmet need is a violation whenever the
verdict is read, so a run that tested nothing cannot pass by forgetting
to look.  See docs/RESILIENCE.md, "Verdicts".

This module imports nothing from the rest of the package, so every
harness — :mod:`repro.bench` included — can build on it.
"""

#: Violations a rendered verdict lists before "... N more".
SHOWN = 10


class Verdict:
    """Violations found, vacuity needs declared, one rendering.

    Reports subclass it, keep their own counters, and override
    :meth:`head` for their summary lines above the verdict.
    """

    #: Prefix of every rendered line.
    TAG = "verdict"
    #: Closing line of a clean verdict.
    HELD = "contract held"

    def __init__(self):
        self._found = []
        self._needs = []

    def violation(self, kind, detail):
        self._found.append((kind, detail))

    def need(self, kind, met, detail):
        """Declare a vacuity need: whenever the verdict is read and
        ``met()`` is false, ``(kind, detail)`` is a violation.
        ``detail`` may be a callable, formatted at read time."""
        self._needs.append((kind, met, detail))

    @property
    def violations(self):
        """Found violations, then every unmet need."""
        unmet = [(kind, detail() if callable(detail) else detail)
                 for kind, met, detail in self._needs if not met()]
        return self._found + unmet

    @property
    def ok(self):
        return not self.violations

    def export(self):
        """The JSON fields: ``"kind: detail"`` strings and ``ok``."""
        found = self.violations
        return {"violations": [f"{kind}: {detail}" for kind, detail in found],
                "ok": not found}

    def head(self):
        """Summary lines above the verdict (a fresh list)."""
        return []

    def summary(self):
        tag, found, lines = self.TAG, self.violations, self.head()
        if not found:
            lines.append(f"[{tag}] {self.HELD}")
        else:
            lines.append(f"[{tag}] {len(found)} violation(s):")
            lines.extend(f"[{tag}]   {kind}: {detail}"
                         for kind, detail in found[:SHOWN])
            if len(found) > SHOWN:
                lines.append(f"[{tag}]   ... {len(found) - SHOWN} more")
        return "\n".join(lines)


def exit_status(verdict, expect_violations, tag, contract, held):
    """Print a CLI's closing line; return 0 when the verdict matches
    ``expect_violations`` (violations found iff expected), else 1."""
    found = len(verdict.violations)
    if expect_violations:
        if not found:
            print(f"[{tag}] FAIL: expected violations, the run was clean")
            return 1
        print(f"[{tag}] OK: gap detected ({found} violation(s), "
              f"as expected)")
        return 0
    if found:
        print(f"[{tag}] FAIL: {contract} contract violated")
        return 1
    print(f"[{tag}] OK: {held}")
    return 0


def check_refcounts(store, verdict, where=""):
    """Refcount oracle: each adopted buffer's refcount equals the
    references the store holds on it — nothing else may be pinning
    storage buffers once traffic has drained."""
    held = {}
    for refs in store._refs.values():
        for buf in refs:
            held[buf.slot] = held.get(buf.slot, 0) + 1
    for slot, buf in store._buffers.items():
        expected = held.get(slot, 0)
        if buf.refcount != expected:
            verdict.violation(
                "refcount:buffer",
                f"{where}slot {slot}: refcount {buf.refcount}, store "
                f"holds {expected}",
            )
