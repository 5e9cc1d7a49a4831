"""Interprocedural PMLint rules: PM-I01 and REF-I01.

Two questions no single function can answer: does some caller fence
this flush (a helper taking a ``fence=`` parameter defers it), and is
this allocated buffer released on every normal and exception path
(handing it to a callee that releases or stores it settles it)?  With
the :class:`~repro.analysis.interproc.Program` call graph and the
fixed-point effect summaries, both are asked where they are
answerable: across the call chains.
"""

from repro.analysis.interproc import Program
from repro.analysis.pmlint import Rule, register


class InterprocRule(Rule):
    """Base for whole-program rules.

    ``check_program(program)`` is the real entry point, used once per
    lint run over the full tree (:func:`repro.analysis.pmlint
    .lint_program`).  ``check(module)`` wraps a single module in its
    own one-file program so the planted-example self-test machinery
    works unchanged.
    """

    interprocedural = True

    def check(self, module):
        return self.check_program(Program([module]))

    def check_program(self, program):
        raise NotImplementedError


@register
class InterprocFenceDomination(InterprocRule):
    """A flush nobody — not the function, not any caller chain — drains."""

    id = "PM-I01"
    title = "flush never fenced in the function nor in any caller chain"
    severity = "warn"
    hint = ("a clwb that no sfence ever drains is not durable on any "
            "path — fence after the flush, fence in the caller that owns "
            "the ordering (fence=True at the call site), or pass the "
            "deferred flush further up explicitly with fence=False")

    # Two-hop chain: the flush sits in _stage, and neither commit nor
    # handle (the whole caller chain) ever fences.
    BAD = (
        "class Store:\n"
        "    def _stage(self, ctx):\n"
        "        self.region.write(0, b'x', ctx)\n"
        "        self.region.flush(0, 1, ctx, 'persist')\n"
        "\n"
        "    def commit(self, ctx):\n"
        "        self._stage(ctx)\n"
        "        self.log.append('commit')\n"
        "\n"
        "    def handle(self, ctx):\n"
        "        self.commit(ctx)\n"
        "        return True\n"
    )
    # Identical shape, but the top of the chain fences: the deferred
    # flush is dominated and every function stays silent.
    GOOD = (
        "class Store:\n"
        "    def _stage(self, ctx):\n"
        "        self.region.write(0, b'x', ctx)\n"
        "        self.region.flush(0, 1, ctx, 'persist')\n"
        "\n"
        "    def commit(self, ctx):\n"
        "        self._stage(ctx)\n"
        "        self.log.append('commit')\n"
        "\n"
        "    def handle(self, ctx):\n"
        "        self.commit(ctx)\n"
        "        self.region.fence(ctx)\n"
        "        return True\n"
    )

    def check_program(self, program):
        for key in sorted(program.functions):
            info = program.functions[key]
            for line, message in program.fence_violations(key):
                yield self.finding(info.module, line, message)


@register
class InterprocRefcountBalance(InterprocRule):
    """Every acquisition must settle on every exit path, through callees."""

    id = "REF-I01"
    title = "acquired reference unreleased on a normal or exception path"
    severity = "warn"
    hint = ("release the handle (or hand it to an owner) on every path: "
            "guard the may-raise region with try/finally, release in the "
            "except arm, or pass the handle to a callee that releases it")

    #: The packet-processing layers.  Setup and bench code allocates
    #: eagerly on purpose.
    PATH_SCOPE = ("/net/", "/core/", "/storage/", "/cluster/")

    #: Setup/recovery entry points run before traffic exists; an
    #: allocation failure there should raise, and an unwind abandons
    #: the whole store rather than leaking one reference out of a
    #: running system.
    EXEMPT_FUNCTIONS = frozenset({
        "create", "recover", "reattach", "open_or_create", "main",
        "__init__", "setup", "from_config",
    })

    BAD_PATH = "src/repro/net/_selftest.py"
    # Exception-path leak: _stamp can raise between the alloc and the
    # release, and nothing guards the gap.
    BAD = (
        "class Proto:\n"
        "    def deliver(self, ctx):\n"
        "        pkt = PktBuf.alloc(self.tx_pool, 64, ctx)\n"
        "        self._stamp(pkt, ctx)\n"
        "        pkt.release()\n"
        "\n"
        "    def _stamp(self, pkt, ctx):\n"
        "        if pkt is None:\n"
        "            raise ValueError('no pkt')\n"
        "        pkt.meta = ctx\n"
    )
    # try/finally closes the gap: the exception path releases too.
    GOOD = (
        "class Proto:\n"
        "    def deliver(self, ctx):\n"
        "        pkt = PktBuf.alloc(self.tx_pool, 64, ctx)\n"
        "        try:\n"
        "            self._stamp(pkt, ctx)\n"
        "        finally:\n"
        "            pkt.release()\n"
        "\n"
        "    def _stamp(self, pkt, ctx):\n"
        "        if pkt is None:\n"
        "            raise ValueError('no pkt')\n"
        "        pkt.meta = ctx\n"
    )

    def _in_scope(self, module):
        path = str(module.path).replace("\\", "/")
        return any(part in path for part in self.PATH_SCOPE)

    def check_program(self, program):
        for key in sorted(program.functions):
            info = program.functions[key]
            if not self._in_scope(info.module):
                continue
            if info.name in self.EXEMPT_FUNCTIONS:
                continue
            for line, message in program.refcount_violations(key):
                yield self.finding(info.module, line, message)
