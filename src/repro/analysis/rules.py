"""The PMLint rule catalogue.

Every rule here is tuned to this repo's idioms — see docs/ANALYSIS.md
for the catalogue in prose and for how to add a rule.  The short
version: subclass :class:`~repro.analysis.pmlint.Rule`, decorate with
:func:`~repro.analysis.pmlint.register`, and ship a planted ``BAD``
snippet the rule detects plus a ``GOOD`` snippet it stays silent on —
``repro-lint --self-test`` fails the build if either stops holding.

The rules here are local heuristics (textual order approximates
domination): a PM store must be written back in the function that made
it (or the function takes a ``fence=`` parameter so its caller
decides).  The questions that need call chains — does some caller
fence this flush, is this buffer released on every path — are asked by
the whole-program rules in :mod:`repro.analysis.rules_interproc`.
Where a function is correct for a non-local reason, the suppression
comment records that reason in place.
"""

from repro.analysis.pmlint import (
    Rule, arg_names, is_io_receiver, method_calls, register,
)

#: Function names that merely forward persistence calls down a layer
#: (Region.flush -> device.flush, ...).  Their bodies are the mechanism
#: the rules check *call sites of*, not call sites themselves.
FORWARDER_NAMES = frozenset({
    "flush", "fence", "persist", "write", "writeback", "write_bytes",
    "write_persist",
})

def _defers_to_caller(func_node):
    """True when the function takes a fence/persist decision parameter.

    ``write_next(..., fence=True)``-style helpers deliberately leave
    the fence to the caller; the protocol-level rule then applies at
    the call site, not inside the helper.
    """
    names = arg_names(func_node)
    return "fence" in names or "persist" in names


def _persistence_events(func_node):
    """(kind, call) for flush/fence/persist traffic, in source order.

    A call with a ``fence=`` keyword (write_next-style helpers) counts
    as a fence event: the callee fences on the caller's behalf.  A
    ``write_persist`` is a store and its drain in one call, so it counts
    as a persist.
    """
    events = []
    for call, name, receiver in method_calls(func_node):
        if any(kw.arg == "fence" for kw in call.keywords):
            events.append(("fence", call))
            continue
        if name == "fence":
            events.append(("fence", call))
        elif (name in ("persist", "write_persist")
              or name.startswith(("persist", "_persist"))):
            events.append(("persist", call))
        elif name == "sync":
            # Block-device durability: sync() is the fence of that layer.
            events.append(("persist", call))
        elif name == "flush" and not is_io_receiver(receiver):
            events.append(("flush", call))
    return events


@register
class WriteWithoutWriteback(Rule):
    """A PM store that is never flushed sits dirty in the cache model."""

    id = "PM-W02"
    title = "PM region write with no flush/persist anywhere after it"
    severity = "warn"
    hint = ("a store to a PM region stays in the (volatile) cache model "
            "until written back — follow it with .flush()+.fence() or "
            ".persist(), or take a fence=/persist= parameter")

    # write_persist is a store with its own drain: never flagged, and
    # a bare write after it is still undrained.
    BAD = (
        "class Node:\n"
        "    def link(self, ctx):\n"
        "        self.region.write_persist(0, b'hdr', ctx, 'persist')\n"
        "        self.region.write(8, b'ptr', ctx)\n"
        "        return True\n"
    )
    GOOD = (
        "class Node:\n"
        "    def link(self, ctx):\n"
        "        self.region.write_persist(0, b'hdr', ctx, 'persist')\n"
        "        self.region.write(8, b'ptr', ctx)\n"
        "        self.region.persist(8, 3, ctx, 'persist')\n"
        "        return True\n"
    )

    def check(self, module):
        for func, qualname in module.functions():
            if func.name in FORWARDER_NAMES or _defers_to_caller(func):
                continue
            calls = method_calls(func)
            writes = [
                call for call, name, receiver in calls
                if name == "write" and receiver is not None
                and ("region" in receiver or "device" in receiver)
            ]
            if not writes:
                continue
            events = _persistence_events(func)
            for call in writes:
                key = (call.lineno, call.col_offset)
                drained = any(
                    (event.lineno, event.col_offset) > key
                    for _kind, event in events
                )
                if not drained:
                    yield self.finding(
                        module, call.lineno,
                        f"{qualname} writes a PM region but never "
                        f"flushes it",
                    )


@register
class UnseededNondeterminism(Rule):
    """The simulation must replay byte-identically from its seeds."""

    id = "DET-01"
    title = "unseeded or wall-clock nondeterminism in simulation code"
    severity = "error"
    hint = ("derive randomness from random.Random(seed) threaded through "
            "the world/config, and take time from the Simulator clock — "
            "wall-clock or global-rng values make crash replay diverge")

    BAD = (
        "import random\n"
        "def jitter():\n"
        "    return random.random()\n"
    )
    GOOD = (
        "import random\n"
        "def make_rng(seed):\n"
        "    return random.Random(seed)\n"
    )

    _TIME_METHODS = frozenset({
        "time", "monotonic", "perf_counter", "time_ns", "monotonic_ns",
        "perf_counter_ns",
    })
    _DATE_METHODS = frozenset({"now", "utcnow", "today"})

    def check(self, module):
        for func, qualname in module.functions():
            for call, name, receiver in method_calls(func):
                if receiver == "random":
                    if name == "Random" and (call.args or call.keywords):
                        continue  # random.Random(seed) is the idiom
                    what = (f"random.Random() with no seed" if name == "Random"
                            else f"global-state random.{name}()")
                    yield self.finding(
                        module, call.lineno, f"{qualname} uses {what}",
                    )
                elif receiver == "time" and name in self._TIME_METHODS:
                    yield self.finding(
                        module, call.lineno,
                        f"{qualname} reads wall-clock time.{name}()",
                    )
                elif (receiver is not None
                      and receiver.split(".")[-1] == "datetime"
                      and name in self._DATE_METHODS):
                    yield self.finding(
                        module, call.lineno,
                        f"{qualname} reads wall-clock datetime.{name}()",
                    )
                elif receiver == "uuid":
                    yield self.finding(
                        module, call.lineno,
                        f"{qualname} uses nondeterministic uuid.{name}()",
                    )


@register
class UnchargedPersistence(Rule):
    """Every modelled flush/fence costs simulated nanoseconds."""

    id = "CTX-01"
    title = "flush/fence/persist/write_persist call without an execution context"
    severity = "warn"
    hint = ("pass the ExecutionContext so the operation charges "
            "flush_line_ns/fence_ns to the right core (pass NULL_CONTEXT "
            "explicitly when not charging is the point)")

    BAD = (
        "class Slab:\n"
        "    def commit(self):\n"
        "        self.region.flush(0, 64)\n"
        "        self.region.fence()\n"
        "        self.region.write_persist(0, b'root')\n"
    )
    GOOD = (
        "class Slab:\n"
        "    def commit(self, ctx):\n"
        "        self.region.flush(0, 64, ctx, 'persist')\n"
        "        self.region.fence(ctx)\n"
        "        self.region.write_persist(0, b'root', ctx, 'persist')\n"
    )

    #: positional slot the ctx occupies per method (0-based).
    _CTX_SLOT = {"flush": 2, "persist": 2, "fence": 0, "write_persist": 2}

    def check(self, module):
        for func, qualname in module.functions():
            if func.name in FORWARDER_NAMES:
                continue
            for call, name, receiver in method_calls(func):
                slot = self._CTX_SLOT.get(name)
                if slot is None or is_io_receiver(receiver):
                    continue
                if receiver is not None and "tracker" in receiver:
                    continue  # cache-layer internals charge via the device
                has_ctx = (
                    len(call.args) > slot
                    or any(kw.arg == "ctx" for kw in call.keywords)
                )
                if not has_ctx:
                    yield self.finding(
                        module, call.lineno,
                        f"{qualname} calls .{name}() without a ctx — "
                        f"its latency is charged to nobody",
                    )


@register
class SuppressionHygiene(Rule):
    """A suppression is an argument; it must state its reason."""

    id = "SUP-01"
    title = "pmlint suppression without a reason"
    severity = "error"
    hint = "write '# pmlint: disable=RULE — reason'"

    # The marker string is split so the linter's own source does not
    # read as a suppression comment when it lints itself.
    BAD = "X = 1  # pmlint" ": disable=PM-W02\n"
    GOOD = ("X = 1  # pmlint" ": disable=PM-W02 — "
            "planted example with a reason\n")

    def check(self, module):
        return list(module.suppression_findings)
