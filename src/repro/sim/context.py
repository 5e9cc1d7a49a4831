"""Execution contexts: where CPU cost charges accumulate.

The reproduction separates *function* from *cost*.  Data structures do
real work on real bytes; alongside, every operation charges its modeled
CPU/device time to an :class:`ExecutionContext`.  A run-to-completion
handler (e.g. the server's busy-poll loop processing one request)
creates a context, lets the whole stack charge into it, and then
advances the owning core's clock by the accumulated total.

For purely functional use — unit tests, examples that don't care about
timing — :data:`NULL_CONTEXT` swallows charges for free.
"""


class ExecutionContext:
    """Accumulates charged nanoseconds during one run-to-completion slice.

    Charges can be tagged with a category (e.g. ``"checksum"``,
    ``"net.rx"``), which is how the Table 1 breakdown is produced: the
    harness reads ``ctx.by_category`` after processing a request.
    """

    __slots__ = ("elapsed", "by_category", "trace")

    def __init__(self, trace=False):
        self.elapsed = 0.0
        self.by_category = {}
        self.trace = [] if trace else None

    def charge(self, ns, category="uncategorized"):
        """Add ``ns`` nanoseconds of work under ``category``."""
        if ns < 0:
            raise ValueError(f"negative charge: {ns}")
        self.elapsed += ns
        by_category = self.by_category
        by_category[category] = by_category.get(category, 0.0) + ns
        if self.trace is not None:
            self.trace.append((category, ns))
        return ns

    def category(self, name):
        """Total nanoseconds charged under ``name`` (0.0 if never charged)."""
        return self.by_category.get(name, 0.0)

    def merge(self, other):
        """Fold another context's charges into this one."""
        self.elapsed += other.elapsed
        by_category = self.by_category
        for key, value in other.by_category.items():
            by_category[key] = by_category.get(key, 0.0) + value
        if self.trace is not None and other.trace is not None:
            self.trace.extend(other.trace)

    def snapshot(self):
        """A copy of the per-category totals (microsecond-free, raw ns)."""
        return dict(self.by_category)

    def __repr__(self):
        return f"<ExecutionContext elapsed={self.elapsed:.0f}ns categories={len(self.by_category)}>"


class NullContext:
    """A context that discards all charges.  Use when timing is irrelevant."""

    __slots__ = ()

    elapsed = 0.0

    @property
    def by_category(self):
        # A fresh dict per access: the shared NULL_CONTEXT must never
        # expose mutable state that one caller's merge could leak into
        # another's accounting.
        return {}

    def charge(self, ns, category="uncategorized"):
        return 0.0

    def category(self, name):
        return 0.0

    def merge(self, other):
        pass

    def snapshot(self):
        return {}

    def __repr__(self):
        return "<NullContext>"


class FilterContext:
    """Forwards charges to an inner context, dropping some categories.

    This reproduces the paper's methodology of "disabling the
    persistence operations by modifying the source code": wrap the
    request context with ``FilterContext(ctx, drop={"persist"})`` and
    the flush/fence work happens functionally but costs nothing.
    """

    __slots__ = ("inner", "drop")

    def __init__(self, inner, drop):
        self.inner = inner
        self.drop = frozenset(drop)

    @property
    def elapsed(self):
        return self.inner.elapsed

    @property
    def by_category(self):
        return self.inner.by_category

    def charge(self, ns, category="uncategorized"):
        if category in self.drop:
            return 0.0
        return self.inner.charge(ns, category)

    def category(self, name):
        return self.inner.category(name)

    def merge(self, other):
        self.inner.merge(other)

    def snapshot(self):
        return self.inner.snapshot()

    def __repr__(self):
        return f"<FilterContext drop={sorted(self.drop)}>"


#: Shared do-nothing context.  Stateless, so one instance serves everyone.
NULL_CONTEXT = NullContext()
