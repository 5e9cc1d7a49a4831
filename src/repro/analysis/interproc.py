"""Interprocedural dataflow engine for PMLint.

The intraprocedural rules (:mod:`repro.analysis.rules`) judge one
function body at a time, which cannot see where the interesting bugs
hide: a helper taking a ``fence=`` parameter defers the ordering
decision to its caller, so only the callers can tell whether *some
caller actually fences*; and whether an allocation leaks when a later
call unwinds depends on what the callees release.

This module answers both with whole-program reasoning:

1. **Program index / call graph** (:class:`Program`).  Every function
   and method under the linted tree, with call edges resolved by (in
   order) enclosing-class methods (``self.m()``, walking base-class
   names), same-module functions, imported names, a program-wide
   unique-name match, and finally a receiver-shape hint (``self.slab
   .write_next`` matches ``PMetaSlab.write_next`` because "slab" is a
   substring of the class name).  An ambiguous call resolves to
   *nothing* rather than to the wrong function — deliberate
   under-approximation.

2. **Per-function effect summaries** (:class:`FunctionSummary`).  For
   persistence: the function's flush/fence event sequence reduced to
   ``(drains, pending_sites)`` — does calling it fence, and does it
   leave written-back-but-undrained lines at exit.  A call carrying
   ``fence=False`` injects the callee's deferred flush into the
   caller; ``fence=True`` (or a truthy default on a deferring callee)
   injects a fence.  For refcounts: which acquisitions
   (``alloc``/zero-arg ``get``/``clone``) stay unreleased and
   un-escaped, which may-raise calls can unwind the function between
   an acquire and its release, and which *parameters* the function
   releases (so ``self._teardown(pkt)`` counts as a release of ``pkt``
   in the caller).

3. **Fixed-point propagation** (:meth:`Program.solve`).  Summaries
   reference callee summaries; Kleene iteration over the finite
   boolean/set lattice converges in a few rounds even with recursion.

4. **Two rules** over the solved program (registered in
   :mod:`repro.analysis.rules_interproc`):

   - **PM-I01** — *interprocedural fence domination*: a flush (direct,
     or deferred via ``fence=False``) that is never drained by a fence
     in the same function **nor in any caller chain**.  A function
     whose pending flush is drained by at least one caller chain is
     the legitimate deferral pattern and stays silent.
   - **REF-I01** — *interprocedural refcount balance*: an acquisition
     that on some normal-or-exception exit path is neither released
     (directly or through a releasing callee) nor escapes to an owner.

Summaries are cached per file, keyed by a hash of the source
(:class:`SummaryCache`), so a warm full-tree run re-extracts nothing;
the propagation step is recomputed every run because it is cross-file
and cheap.
"""

import ast
import hashlib
import json
import os

#: Method names that are persistence primitives when called on a
#: region/device-like receiver.  ``sync`` is the block-device layer's
#: fence; ``persist``/``persist_payload`` are flush+fence in one call.
_FLUSH_NAMES = frozenset({"flush"})
_FENCE_NAMES = frozenset({"fence"})
_DRAIN_NAMES = frozenset({"persist", "sync", "persist_payload"})

#: The persistence primitives themselves (Region.flush forwarding to
#: device.flush, ...).  Their bodies are the mechanism the events
#: model; PM-I01 never reports inside them.
PRIMITIVE_FORWARDERS = frozenset({
    "flush", "fence", "persist", "sync", "persist_payload",
    "write", "writeback", "write_bytes",
})

#: Receivers whose .flush() has nothing to do with persistent memory.
_IO_RECEIVERS = ("stdout", "stderr", "stream", "sock", "file")

#: Acquisition method names.  ``get``/``clone`` count only with zero
#: arguments on a buffer-shaped receiver (dict.get takes arguments).
_ACQ_ALWAYS = frozenset({"alloc"})
_ACQ_ZERO_ARG = frozenset({"get", "clone"})
_BUF_RECEIVER_HINTS = ("buf", "buffer", "pkt", "segment", "handle", "frag",
                       "payload", "chunk", "clone")

#: Release method names (zero positional args, on a tracked handle).
_RELEASE_NAMES = frozenset({"release", "put"})

#: Functions whose body IS an allocation/release primitive; their
#: internal bookkeeping is not subject to the balance rule.
_PRIMITIVE_REFCOUNT = frozenset({
    "alloc", "free", "get", "put", "release", "clone",
})

#: Container-mutation method names that transfer ownership of their
#: arguments into the container.
_ESCAPE_METHODS = frozenset({
    "append", "add", "push", "extend", "appendleft", "insert",
    "setdefault", "update",
})


def _is_io_receiver(receiver):
    return receiver is not None and any(
        receiver.endswith(name) for name in _IO_RECEIVERS
    )


def _buffer_like(receiver):
    if receiver is None:
        return False
    last = receiver.split(".")[-1].lower()
    return any(hint in last for hint in _BUF_RECEIVER_HINTS)


def _receiver_text(node):
    """Best-effort dotted source text of an expression (or None)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _receiver_text(node.value)
        return f"{base}.{node.attr}" if base else None
    if isinstance(node, ast.Call):
        base = _receiver_text(node.func)
        return f"{base}()" if base else None
    return None


def _receiver_matches_class(receiver, class_name):
    """Shape heuristic: `self.slab.x` plausibly targets PMetaSlab."""
    if receiver is None or class_name is None:
        return False
    last = receiver.split(".")[-1].lower().strip("_")
    if not last:
        return False
    return last in class_name.lower()


def _arg_names(func_node):
    args = func_node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _fence_param(func_node):
    """('fence'|'persist', default) when the function defers the
    ordering decision to its caller, else (None, None)."""
    args = func_node.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    pairs = list(zip(positional, defaults)) + \
        list(zip(args.kwonlyargs, args.kw_defaults))
    for arg, default in pairs:
        if arg.arg in ("fence", "persist"):
            value = True
            if isinstance(default, ast.Constant):
                value = bool(default.value)
            return arg.arg, value
    return None, None


def _walk_defs(tree):
    """Yield (func_node, qualified_name, class_name) for every def."""
    out = []

    def walk(node, prefix, class_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((child, f"{prefix}{child.name}", class_name))
                walk(child, f"{prefix}{child.name}.", class_name)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", child.name)
            else:
                walk(child, prefix, class_name)

    walk(tree, "", None)
    return out


# --------------------------------------------------------------------------
# local facts (per-function, cacheable)
# --------------------------------------------------------------------------


class _Event:
    """One persistence event in a function body, in textual order.

    ``kind`` is "flush", "fence" or "call"; a call event carries the
    unresolved callee (name, receiver, constant fence kwarg) and is
    interpreted against the program during propagation.
    """

    __slots__ = ("kind", "line", "what", "callee")

    def __init__(self, kind, line, what, callee=None):
        self.kind = kind
        self.line = line
        self.what = what
        self.callee = callee

    def to_doc(self):
        return [self.kind, self.line, self.what,
                list(self.callee) if self.callee else None]

    @classmethod
    def from_doc(cls, doc):
        callee = tuple(doc[3]) if doc[3] else None
        return cls(doc[0], doc[1], doc[2], callee)


class Acquisition:
    """One local refcount acquisition and its (textual-path) fate."""

    __slots__ = ("line", "what", "var", "released", "escaped", "guarded",
                 "settle_line")

    def __init__(self, line, what, var):
        self.line = line
        self.what = what
        self.var = var
        self.released = False      # a release of var exists in the body
        self.escaped = False       # ownership transferred out
        self.guarded = False       # acquire sits inside a try body
        self.settle_line = None    # first release/escape line after acquire

    def to_doc(self):
        return [self.line, self.what, self.var, self.released,
                self.escaped, self.guarded, self.settle_line]

    @classmethod
    def from_doc(cls, doc):
        out = cls(doc[0], doc[1], doc[2])
        out.released, out.escaped, out.guarded, out.settle_line = doc[3:7]
        return out


class LocalFacts:
    """Everything extractable from one function body in isolation.

    This is the unit the :class:`SummaryCache` stores: it depends only
    on the function's own source, never on other files.
    """

    __slots__ = ("events", "acquisitions", "releases_params",
                 "stores_params", "raises", "calls", "fence_param",
                 "fence_default")

    def __init__(self):
        self.events = []
        self.acquisitions = []
        self.releases_params = set()
        self.stores_params = set()
        self.raises = False
        #: [(line, name, receiver, fence_kwarg, arg_vars, kwarg_vars,
        #:   in_try)] — kwarg_vars is ((kw_name, var), ...).
        self.calls = []
        self.fence_param = None
        self.fence_default = None

    def to_doc(self):
        return {
            "events": [e.to_doc() for e in self.events],
            "acquisitions": [a.to_doc() for a in self.acquisitions],
            "releases_params": sorted(self.releases_params),
            "stores_params": sorted(self.stores_params),
            "raises": self.raises,
            "calls": [[c[0], c[1], c[2], c[3], list(c[4]),
                       [list(kv) for kv in c[5]], c[6]]
                      for c in self.calls],
            "fence_param": self.fence_param,
            "fence_default": self.fence_default,
        }

    @classmethod
    def from_doc(cls, doc):
        out = cls()
        out.events = [_Event.from_doc(e) for e in doc["events"]]
        out.acquisitions = [Acquisition.from_doc(a)
                            for a in doc["acquisitions"]]
        out.releases_params = set(doc["releases_params"])
        out.stores_params = set(doc["stores_params"])
        out.raises = doc["raises"]
        out.calls = [(c[0], c[1], c[2],
                      None if c[3] is None else c[3],
                      tuple(c[4]),
                      tuple((kv[0], kv[1]) for kv in c[5]),
                      c[6])
                     for c in doc["calls"]]
        out.fence_param = doc["fence_param"]
        out.fence_default = doc["fence_default"]
        return out


def _own_calls(func_node):
    """Calls belonging to ``func_node`` itself (not to nested defs)."""
    calls = []

    def walk(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Call):
                if isinstance(child.func, ast.Attribute):
                    calls.append((child, child.func.attr,
                                  _receiver_text(child.func.value)))
                elif isinstance(child.func, ast.Name):
                    calls.append((child, child.func.id, None))
            walk(child)

    walk(func_node)
    calls.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    return calls


def _try_body_spans(func_node):
    """Line spans of try-block *bodies* (the guarded region)."""
    spans = []
    for child in ast.walk(func_node):
        if isinstance(child, ast.Try):
            last = child.body[-1]
            spans.append((child.body[0].lineno,
                          getattr(last, "end_lineno", last.lineno)))
    return spans


def _constant_kwarg(call, names=("fence", "persist")):
    """The fence=/persist= keyword: True/False for constants, "dynamic"
    for expressions, None when absent."""
    for kw in call.keywords:
        if kw.arg in names:
            if isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
            return "dynamic"
    return None


def _release_sites(func_node):
    """[(var, line)] for every ``var.release()``/``var.put()`` and every
    ``*.free(var)`` under the function."""
    out = []
    for child in ast.walk(func_node):
        if not isinstance(child, ast.Call):
            continue
        if isinstance(child.func, ast.Attribute):
            if (child.func.attr in _RELEASE_NAMES and not child.args
                    and isinstance(child.func.value, ast.Name)):
                out.append((child.func.value.id, child.lineno))
            elif child.func.attr == "free" and child.args:
                first = child.args[0]
                if isinstance(first, ast.Name):
                    out.append((first.id, child.lineno))
    return out


def _escape_sites(func_node):
    """[(var, line)] where a name's value escapes the function: it is
    returned/yielded, stored through an attribute/subscript target, or
    pushed into a container."""
    out = []
    for child in ast.walk(func_node):
        sources = ()
        if isinstance(child, (ast.Return, ast.Yield, ast.YieldFrom)):
            if child.value is not None:
                sources = (child.value,)
        elif isinstance(child, ast.Assign):
            if any(not isinstance(t, ast.Name) for t in child.targets):
                sources = (child.value,)
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if child.func.attr in _ESCAPE_METHODS:
                sources = tuple(child.args)
        for source in sources:
            for node in ast.walk(source):
                if isinstance(node, ast.Name):
                    out.append((node.id, child.lineno))
    return out


def _param_stores(func_node, param_names):
    """Parameters whose value is stored into an attribute, subscript or
    container — the function adopts ownership of them (PktBuf.__init__
    keeping ``buf``, ip_output appending ``pkt`` to the tx queue)."""
    stored = set()
    for child in ast.walk(func_node):
        sources = ()
        if isinstance(child, ast.Assign):
            if any(not isinstance(t, ast.Name) for t in child.targets):
                sources = (child.value,)
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            if child.func.attr in _ESCAPE_METHODS:
                sources = tuple(child.args) + tuple(
                    kw.value for kw in child.keywords)
        for source in sources:
            for node in ast.walk(source):
                if isinstance(node, ast.Name) and node.id in param_names:
                    stored.add(node.id)
    return stored


def _escape_line_spans(func_node):
    """Line ranges whose expressions transfer ownership (for acquires
    used inline, e.g. ``refs.append((buf.get(), off, len))`` or
    ``return self.allocator.alloc(size, ctx) + ROOT_SIZE``)."""
    lines = set()
    for child in ast.walk(func_node):
        hit = False
        if isinstance(child, (ast.Return, ast.Yield, ast.YieldFrom)):
            hit = child.value is not None
        elif isinstance(child, ast.Assign):
            hit = any(not isinstance(t, ast.Name) for t in child.targets)
        elif isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            hit = child.func.attr in _ESCAPE_METHODS
        if hit:
            lines.update(range(child.lineno,
                               getattr(child, "end_lineno", child.lineno) + 1))
    return lines


def _fence_guard_spans(func_node, fence_param):
    """Line spans of ``if <fence_param>:`` bodies — fences inside them
    only run when the caller opts in."""
    spans = []
    for node in ast.walk(func_node):
        if not isinstance(node, ast.If):
            continue
        if any(isinstance(sub, ast.Name) and sub.id == fence_param
               for sub in ast.walk(node.test)):
            for stmt in node.body:
                spans.append((stmt.lineno,
                              getattr(stmt, "end_lineno", stmt.lineno)))
    return spans


def extract_local_facts(func_node):
    """Pull the intraprocedural facts out of one function body."""
    facts = LocalFacts()
    facts.fence_param, facts.fence_default = _fence_param(func_node)
    calls = _own_calls(func_node)
    try_spans = _try_body_spans(func_node)
    param_names = set(_arg_names(func_node))

    # A fence under ``if fence:`` in a fence=False-defaulting helper
    # does not run on the default path — dropping the event leaves the
    # flush pending, so call sites taking the default get charged (the
    # deferral pattern).  With a True default the guarded fence IS the
    # default path and stays a drain.
    guard_spans = []
    if facts.fence_param is not None and not facts.fence_default:
        guard_spans = _fence_guard_spans(func_node, facts.fence_param)

    def in_try(line):
        return any(start <= line <= end for start, end in try_spans)

    def guard_skipped(line):
        return any(start <= line <= end for start, end in guard_spans)

    # --- persistence events + call records --------------------------------
    for call, name, receiver in calls:
        fence_kwarg = _constant_kwarg(call)
        arg_vars = tuple(
            arg.id if isinstance(arg, ast.Name) else ""
            for arg in call.args
        )
        kwarg_vars = tuple(
            (kw.arg, kw.value.id) for kw in call.keywords
            if kw.arg is not None and isinstance(kw.value, ast.Name)
        )
        facts.calls.append((call.lineno, name, receiver, fence_kwarg,
                            arg_vars, kwarg_vars, in_try(call.lineno)))
        shown = f"{receiver + '.' if receiver else ''}{name}"
        if fence_kwarg is not None:
            facts.events.append(_Event(
                "call", call.lineno, f"{shown}(fence={fence_kwarg})",
                callee=(name, receiver, fence_kwarg),
            ))
        elif name in _FENCE_NAMES or name in _DRAIN_NAMES:
            if not guard_skipped(call.lineno):
                facts.events.append(_Event("fence", call.lineno, shown))
        elif name in _FLUSH_NAMES and not _is_io_receiver(receiver):
            facts.events.append(_Event("flush", call.lineno, f"{shown}(...)"))
        else:
            facts.events.append(_Event(
                "call", call.lineno, f"{shown}(...)",
                callee=(name, receiver, None),
            ))

    # --- parameter releases / ownership adoption ----------------------------
    releases = _release_sites(func_node)
    facts.releases_params = {var for var, _line in releases} & param_names
    facts.stores_params = _param_stores(func_node, param_names)

    # --- explicit raise anywhere in the body --------------------------------
    facts.raises = any(isinstance(node, ast.Raise)
                       for node in ast.walk(func_node))

    # --- acquisitions --------------------------------------------------------
    if func_node.name not in _PRIMITIVE_REFCOUNT:
        facts.acquisitions = _extract_acquisitions(
            func_node, calls, try_spans, releases)
    return facts


def _is_acquire(call, name, receiver):
    if name in _ACQ_ALWAYS:
        return True
    if name in _ACQ_ZERO_ARG and not call.args and not call.keywords:
        return _buffer_like(receiver)
    return False


def _extract_acquisitions(func_node, calls, try_spans, releases):
    acquisitions = []
    escapes = _escape_sites(func_node)
    escape_lines = _escape_line_spans(func_node)

    assigns = {}
    for child in ast.walk(func_node):
        if (isinstance(child, ast.Assign) and len(child.targets) == 1
                and isinstance(child.targets[0], ast.Name)):
            assigns[(child.value.lineno, child.value.col_offset)] = \
                child.targets[0].id

    for call, name, receiver in calls:
        if not _is_acquire(call, name, receiver):
            continue
        var = assigns.get((call.lineno, call.col_offset))
        if (var is None and name == "get" and receiver is not None
                and "." not in receiver):
            # get() returns self: a bare ``buf.get()`` statement leaves
            # the reference in ``buf`` itself, so track that name.
            var = receiver
        what = f"{receiver + '.' if receiver else ''}{name}()"
        acq = Acquisition(call.lineno, what, var)
        if var is not None:
            release_lines = [line for v, line in releases if v == var]
            escape_var_lines = [line for v, line in escapes if v == var]
            acq.released = bool(release_lines)
            acq.escaped = bool(escape_var_lines)
            settled = [line for line in release_lines + escape_var_lines
                       if line >= call.lineno]
            acq.settle_line = min(settled) if settled else None
        else:
            acq.escaped = call.lineno in escape_lines
            if acq.escaped:
                acq.settle_line = call.lineno
        acq.guarded = any(start <= call.lineno <= end
                          for start, end in try_spans)
        acquisitions.append(acq)
    return acquisitions


# --------------------------------------------------------------------------
# summaries + the program
# --------------------------------------------------------------------------

#: pending-site origin tags.  "local": a flush written in this very
#: function; "defer": this function passed fence=False, taking the
#: drain duty on itself; "transitive": inherited from a plain call to a
#: pending function (reported there, not here).
ORIGIN_LOCAL = "local"
ORIGIN_DEFER = "defer"
ORIGIN_TRANSITIVE = "transitive"


class FunctionSummary:
    """The solved effect summary of one function."""

    __slots__ = ("drains", "pending_sites", "releases_params",
                 "stores_params", "may_raise")

    def __init__(self):
        self.drains = False
        #: [(line, description, origin)] flushes undrained at exit.
        self.pending_sites = []
        self.releases_params = set()
        self.stores_params = set()
        self.may_raise = False

    def state(self):
        return (self.drains, tuple(self.pending_sites),
                frozenset(self.releases_params),
                frozenset(self.stores_params), self.may_raise)


class FunctionInfo:
    """One function/method definition in the program."""

    __slots__ = ("node", "module", "qualname", "name", "class_name",
                 "params", "key")

    def __init__(self, node, module, qualname, class_name):
        self.node = node
        self.module = module
        self.qualname = qualname
        self.name = node.name
        self.class_name = class_name
        self.params = _arg_names(node)
        self.key = f"{module.path}::{qualname}"

    def __repr__(self):
        return f"<FunctionInfo {self.key}>"


class SummaryCache:
    """File-backed per-module LocalFacts cache keyed by source hash.

    The cache only ever stores *local* facts — everything derivable
    from one file alone — so a stale entry can never survive a source
    edit (the hash moves) and cross-file effects are re-propagated on
    every run regardless.
    """

    VERSION = "pmlint-summaries/v3"

    def __init__(self, path):
        self.path = path
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._entries = {}
        if path and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
                if doc.get("version") == self.VERSION:
                    self._entries = doc.get("files", {})
            except (OSError, ValueError):
                self._entries = {}

    def lookup(self, module_path, source_hash):
        entry = self._entries.get(str(module_path))
        if entry is None or entry.get("hash") != source_hash:
            self.misses += 1
            return None
        self.hits += 1
        try:
            return {qualname: LocalFacts.from_doc(doc)
                    for qualname, doc in entry["facts"].items()}
        except (KeyError, IndexError, TypeError):
            self.misses += 1
            self.hits -= 1
            return None

    def store(self, module_path, source_hash, facts_by_qualname):
        self._entries[str(module_path)] = {
            "hash": source_hash,
            "facts": {qualname: facts.to_doc()
                      for qualname, facts in facts_by_qualname.items()},
        }
        self._dirty = True

    def save(self):
        if not (self.path and self._dirty):
            return
        try:
            with open(self.path, "w", encoding="utf-8") as handle:
                json.dump({"version": self.VERSION, "files": self._entries},
                          handle)
            self._dirty = False
        except OSError:
            pass  # caching is best-effort; linting must not fail on it


class Program:
    """Whole-program index, call graph, and solved summaries."""

    def __init__(self, modules, cache=None):
        self.modules = list(modules)
        self.functions = {}
        self.by_name = {}
        self.by_class = {}
        self.class_bases = {}
        self.module_funcs = {}
        self.imports = {}
        self.local_facts = {}
        self.summaries = {}
        self.callers = {}
        self._resolve_memo = {}
        self._index(cache)
        self._build_edges()
        self.solve()
        if cache is not None:
            cache.save()

    # ------------------------------------------------------------- indexing

    def _index(self, cache):
        for module in self.modules:
            source_hash = hashlib.sha256(
                module.source.encode("utf-8")).hexdigest()
            cached = cache.lookup(module.path, source_hash) if cache else None
            fresh = {}
            for node, qualname, class_name in _walk_defs(module.tree):
                info = FunctionInfo(node, module, qualname, class_name)
                self.functions[info.key] = info
                self.by_name.setdefault(info.name, []).append(info)
                if class_name is not None:
                    self.by_class.setdefault((class_name, info.name), info)
                else:
                    self.module_funcs.setdefault(
                        (module.path, info.name), info)
                if cached is not None and qualname in cached:
                    self.local_facts[info.key] = cached[qualname]
                else:
                    facts = extract_local_facts(node)
                    self.local_facts[info.key] = facts
                    fresh[qualname] = facts
            if cache is not None and cached is None:
                cache.store(module.path, source_hash, fresh)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self.class_bases[node.name] = [
                        base.id for base in node.bases
                        if isinstance(base, ast.Name)
                    ]
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        self.imports[(module.path, alias.asname or alias.name)] \
                            = alias.name

    # ------------------------------------------------------ call resolution

    def resolve_call(self, caller, name, receiver):
        """The FunctionInfo a call resolves to, or None (ambiguous)."""
        memo_key = (caller.key, name, receiver)
        if memo_key in self._resolve_memo:
            return self._resolve_memo[memo_key]
        found = self._resolve_uncached(caller, name, receiver)
        self._resolve_memo[memo_key] = found
        return found

    def _resolve_uncached(self, caller, name, receiver):
        if receiver is not None:
            head = receiver.split(".")[0]
            if head in ("self", "cls"):
                if receiver in ("self", "cls") and caller.class_name:
                    found = self._method_on(caller.class_name, name)
                    if found is not None:
                        return found
                    return None
                receiver = receiver.split(".")[-1]
        if receiver is None:
            found = self.module_funcs.get((caller.module.path, name))
            if found is not None:
                return found
            imported = self.imports.get((caller.module.path, name))
            if imported is not None:
                candidates = [f for f in self.by_name.get(imported, [])
                              if f.class_name is None]
                if len(candidates) == 1:
                    return candidates[0]
            init = self.by_class.get((name, "__init__"))
            if init is not None:
                return init
            return None
        found = self.by_class.get((receiver, name))
        if found is not None:
            return found
        candidates = [f for f in self.by_name.get(name, [])
                      if f.class_name is not None]
        if len(candidates) == 1:
            return candidates[0]
        if candidates:
            hinted = [f for f in candidates
                      if _receiver_matches_class(receiver, f.class_name)]
            if len(hinted) == 1:
                return hinted[0]
        return None

    def _method_on(self, class_name, name, seen=None):
        seen = seen if seen is not None else set()
        if class_name in seen:
            return None
        seen.add(class_name)
        found = self.by_class.get((class_name, name))
        if found is not None:
            return found
        for base in self.class_bases.get(class_name, ()):
            found = self._method_on(base, name, seen)
            if found is not None:
                return found
        return None

    def _build_edges(self):
        for key, facts in self.local_facts.items():
            caller = self.functions[key]
            for line, name, receiver, _kw, _avars, _kwvars, _t in facts.calls:
                callee = self.resolve_call(caller, name, receiver)
                if callee is None:
                    continue
                self.callers.setdefault(callee.key, []).append((caller, line))

    # ---------------------------------------------------------- propagation

    def _call_effect(self, caller, event):
        """(drains, pending_site_or_None) of one call event under the
        current summaries."""
        name, receiver, fence_kwarg = event.callee
        if fence_kwarg is not None:
            if fence_kwarg is False:
                return False, (event.line,
                               f"{event.what} leaves its flush to this "
                               f"caller", ORIGIN_DEFER)
            return True, None
        callee = self.resolve_call(caller, name, receiver)
        if callee is None:
            return False, None
        summary = self.summaries.get(callee.key)
        if summary is None:
            return False, None
        facts = self.local_facts[callee.key]
        if facts.fence_param is not None:
            if facts.fence_default:
                return (summary.drains or bool(summary.pending_sites)), None
            if summary.pending_sites:
                return False, (event.line,
                               f"{event.what} defaults to "
                               f"{facts.fence_param}=False and leaves its "
                               f"flush undrained", ORIGIN_DEFER)
            return summary.drains, None
        if summary.pending_sites:
            line, what, _origin = summary.pending_sites[0]
            return summary.drains, (
                event.line,
                f"{event.what} leaves an undrained flush "
                f"(from line {line}: {what})", ORIGIN_TRANSITIVE)
        return summary.drains, None

    def _solve_function(self, key):
        info = self.functions[key]
        facts = self.local_facts[key]
        new = FunctionSummary()

        # persistence: replay the textual event sequence.
        pending = []
        for event in facts.events:
            if event.kind == "flush":
                pending.append((event.line, event.what, ORIGIN_LOCAL))
            elif event.kind == "fence":
                new.drains = True
                pending = []
            else:
                drains, inject = self._call_effect(info, event)
                if drains:
                    new.drains = True
                    pending = []
                if inject is not None:
                    pending.append(inject)
        new.pending_sites = pending

        # parameter releases / stores, directly or through callees.
        new.releases_params = set(facts.releases_params)
        new.stores_params = set(facts.stores_params)
        for _line, name, receiver, _kw, arg_vars, kwarg_vars, _t \
                in facts.calls:
            callee = self.resolve_call(info, name, receiver)
            summary = self.summaries.get(callee.key) if callee else None
            if summary is None:
                continue
            callee_params = [p for p in callee.params
                             if p not in ("self", "cls")]
            for index, var in enumerate(arg_vars):
                if not var or index >= len(callee_params):
                    continue
                if callee_params[index] in summary.releases_params:
                    new.releases_params.add(var)
                if callee_params[index] in summary.stores_params:
                    new.stores_params.add(var)
            for kw_name, var in kwarg_vars:
                if kw_name in summary.releases_params:
                    new.releases_params.add(var)
                if kw_name in summary.stores_params:
                    new.stores_params.add(var)
        new.releases_params &= set(info.params)
        new.stores_params &= set(info.params)

        # may_raise: an explicit raise, an allocation primitive outside
        # every try, or a raising callee outside every try.
        new.may_raise = facts.raises
        if not new.may_raise:
            for _line, name, receiver, _kw, _avars, _kwvars, in_try \
                    in facts.calls:
                if in_try:
                    continue
                if name in _ACQ_ALWAYS:
                    new.may_raise = True
                    break
                callee = self.resolve_call(info, name, receiver)
                if callee is not None:
                    summary = self.summaries.get(callee.key)
                    if summary is not None and summary.may_raise:
                        new.may_raise = True
                        break

        old = self.summaries.get(key)
        changed = old is None or old.state() != new.state()
        self.summaries[key] = new
        return changed

    def solve(self, max_rounds=12):
        keys = sorted(self.functions)
        for _round in range(max_rounds):
            changed = False
            for key in keys:
                if self._solve_function(key):
                    changed = True
            if not changed:
                break

    # ----------------------------------------------------------- PM-I01 core

    def drained_by_some_caller(self, key, _seen=None):
        """True when at least one caller chain fences after the call."""
        seen = _seen if _seen is not None else set()
        if key in seen:
            return False
        seen.add(key)
        for caller, line in self.callers.get(key, ()):
            caller_facts = self.local_facts[caller.key]
            drained_here = False
            for event in caller_facts.events:
                if event.line <= line:
                    continue
                if event.kind == "fence":
                    drained_here = True
                    break
                if event.kind == "call":
                    drains, _ = self._call_effect(caller, event)
                    if drains:
                        drained_here = True
                        break
            if drained_here:
                return True
            if self.drained_by_some_caller(caller.key, seen):
                return True
        return False

    def caller_chain(self, key, depth=4):
        """A short "f <- g <- h" witness naming an undraining chain."""
        names = [self.functions[key].qualname]
        current = key
        seen = {key}
        for _ in range(depth):
            sites = self.callers.get(current, ())
            if not sites:
                break
            caller = sites[0][0]
            if caller.key in seen:
                break
            seen.add(caller.key)
            names.append(caller.qualname)
            current = caller.key
        return " <- ".join(names)

    # ---------------------------------------------------------- REF-I01 core

    def refcount_violations(self, key):
        """[(line, message)] unbalanced acquisitions in one function."""
        info = self.functions[key]
        facts = self.local_facts[key]
        out = []
        for acq in facts.acquisitions:
            released = acq.released
            escaped = acq.escaped
            settle = acq.settle_line
            # A handle passed whole to a callee that releases it, or
            # that stores it into something it owns, settles at that
            # call line.
            if not (released or escaped) and acq.var is not None:
                for line, name, receiver, _kw, arg_vars, kwarg_vars, _t \
                        in facts.calls:
                    if line < acq.line:
                        continue
                    hit_params = []
                    callee = self.resolve_call(info, name, receiver)
                    if callee is None:
                        continue
                    callee_params = [p for p in callee.params
                                     if p not in ("self", "cls")]
                    for index, var in enumerate(arg_vars):
                        if var == acq.var and index < len(callee_params):
                            hit_params.append(callee_params[index])
                    hit_params.extend(kw_name for kw_name, var in kwarg_vars
                                      if var == acq.var)
                    if not hit_params:
                        continue
                    summary = self.summaries.get(callee.key)
                    if summary is None:
                        continue
                    if any(p in summary.releases_params for p in hit_params):
                        released = True
                    elif any(p in summary.stores_params for p in hit_params):
                        escaped = True
                    else:
                        continue
                    if settle is None or line < settle:
                        settle = line
                    break
            if not released and not escaped:
                out.append((
                    acq.line,
                    f"{info.qualname} acquires {acq.what} but neither "
                    f"releases it nor hands it to an owner on any exit "
                    f"path",
                ))
                continue
            if acq.guarded:
                continue
            # Exception gap: a may-raise call strictly between the
            # acquire and the line where the handle settles.
            horizon = settle if settle is not None else float("inf")
            for line, name, receiver, _kw, _avars, _kwvars, in_try \
                    in facts.calls:
                if line <= acq.line or line >= horizon or in_try:
                    continue
                raising = name in _ACQ_ALWAYS
                if not raising:
                    callee = self.resolve_call(info, name, receiver)
                    if callee is not None:
                        summary = self.summaries.get(callee.key)
                        raising = summary is not None and summary.may_raise
                if raising:
                    what = f"{receiver + '.' if receiver else ''}{name}()"
                    out.append((
                        acq.line,
                        f"{info.qualname} acquires {acq.what} but "
                        f"{what} (line {line}) can raise before the "
                        f"release on line "
                        f"{settle if settle is not None else '?'} — the "
                        f"exception path leaks the reference",
                    ))
                    break
        return out

    # -------------------------------------------------------------- findings

    def fence_violations(self, key):
        """[(line, message)] undominated flushes in one function."""
        info = self.functions[key]
        summary = self.summaries.get(key)
        if summary is None or not summary.pending_sites:
            return []
        if info.name in PRIMITIVE_FORWARDERS:
            return []
        facts = self.local_facts[key]
        if facts.fence_param is not None and not facts.fence_default:
            # A fence=False-defaulting helper's own pending flush is its
            # contract; call sites taking the default are charged instead.
            reportable = [site for site in summary.pending_sites
                          if site[2] == ORIGIN_DEFER]
        else:
            reportable = [site for site in summary.pending_sites
                          if site[2] in (ORIGIN_LOCAL, ORIGIN_DEFER)]
        if not reportable:
            return []
        if self.drained_by_some_caller(key):
            return []
        chain = self.caller_chain(key)
        out = []
        for line, what, _origin in reportable:
            out.append((
                line,
                f"{info.qualname}: {what} is never fenced — not here and "
                f"not in any caller chain ({chain})",
            ))
        return out
