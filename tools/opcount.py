"""Deterministic work counts: executed bytecodes per benchmark operation.

    python3 tools/opcount.py WORKLOAD [--seed N] [--scale S] [--top K]

Runs one unit of ``benchmark/workloads.py`` (unit 0 of run seed N) with
``sys.settrace`` opcode events switched on, and prints the executed
bytecodes and Python calls per operation, plus the functions that ran
the most bytecodes themselves.  Unlike wall time, the count repeats
exactly on one interpreter, so two commits can be told apart on a noisy
machine; it is a count of work, not a speed, and says nothing about
time spent in C code or waiting.

Only the client's ``run()`` is counted — the run phase, not set-up —
or, for ``ingest-crash-recover``, which has no client, the whole unit.
The tool imports the benchmark's workloads and changes none of them.
Counting is slow (about a hundred times the untraced run), so the
``--scale`` of a quick look is 0.1.
"""

import argparse
import collections
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class OpCounter:
    """Counts executed bytecodes and Python frame entries per code object.

    Call entries include each resumption of a generator.  Bytecodes run
    inside :meth:`count` only, and in no frame that was already running
    when it started.
    """

    def __init__(self):
        self.opcodes = collections.Counter()
        self.calls = collections.Counter()
        self._depth = 0

    def _global(self, frame, event, _arg):
        if event != "call":
            return None
        # A local trace function first: Python 3.13 turns opcode
        # events on for a new code object's frame only when it has one.
        frame.f_trace = self._local
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        self.calls[frame.f_code] += 1
        return self._local

    def _local(self, frame, event, _arg):
        if event == "opcode":
            self.opcodes[frame.f_code] += 1
        return self._local

    def count(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` with counting on; nested calls count once."""
        if self._depth:
            return fn(*args, **kwargs)
        self._depth += 1
        previous = sys.gettrace()
        # Python 3.12 delivers no opcode events in the first tracing
        # session of a process, so open and close one first.
        sys.settrace(_opcodes_on)
        _nothing()
        sys.settrace(self._global)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.settrace(previous)
            self._depth -= 1

    @property
    def total_opcodes(self):
        return sum(self.opcodes.values())

    @property
    def total_calls(self):
        return sum(self.calls.values())

    def top(self, k):
        """``[(opcodes, calls, code)]`` of the ``k`` largest self counts."""
        return [(n, self.calls[code], code)
                for code, n in self.opcodes.most_common(k)]


def _opcodes_on(frame, _event, _arg):
    frame.f_trace_opcodes = True
    return _ignore


def _ignore(_frame, _event, _arg):
    return _ignore


def _nothing():
    pass


def _where(code):
    path = os.path.relpath(code.co_filename, ROOT)
    if path.startswith(".."):
        path = os.path.basename(code.co_filename)
    name = getattr(code, "co_qualname", code.co_name)
    return f"{name} ({path}:{code.co_firstlineno})"


def count_unit(name, seed=1, scale=1.0):
    """Run unit 0 of ``name`` counted; returns ``(counter, result)``."""
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from benchmark import workloads
    from repro.bench import wrk

    if name not in workloads.WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {sorted(workloads.WORKLOADS)}")
    counter = OpCounter()
    unit = workloads.WORKLOADS[name]
    seed = workloads.unit_seed(seed, 0)
    if name == "ingest-crash-recover":
        return counter, counter.count(unit, seed, scale)
    saved = [(cls, cls.__dict__["run"])
             for cls in (wrk.WrkClient, wrk.OpenLoopWrkClient)]
    for cls, run in saved:
        def counted(self, *args, _run=run, **kwargs):
            return counter.count(_run, self, *args, **kwargs)
        cls.run = counted
    try:
        return counter, unit(seed, scale)
    finally:
        for cls, run in saved:
            cls.run = run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    try:
        counter, result = count_unit(args.workload, args.seed, args.scale)
    except KeyError as exc:
        parser.error(exc.args[0])
    ops = result["ops"]
    total = counter.total_opcodes
    print(f"{args.workload} seed {args.seed} scale {args.scale:g} "
          f"(Python {sys.version.split()[0]}): {ops} ops")
    print(f"opcodes/op {total / ops:,.0f}   "
          f"calls/op {counter.total_calls / ops:,.1f}")
    print(f"{'opcodes/op':>11} {'share':>6} {'calls/op':>9}  function")
    for n, calls, code in counter.top(args.top):
        print(f"{n / ops:11,.0f} {n / total:6.1%} {calls / ops:9.2f}  "
              f"{_where(code)}")
    for violation in result["violations"]:
        print(f"violation: {violation}", file=sys.stderr)
    return 1 if result["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
