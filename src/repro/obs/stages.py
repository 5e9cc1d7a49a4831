"""Mapping charge categories onto the paper's Table 1 stage classes.

Every component in the reproduction charges its modeled CPU/device time
to an :class:`~repro.sim.context.ExecutionContext` under a category
string.  The paper's §3 breakdown groups those costs into three
classes; this module is the single place that grouping lives:

==============  ============================================================
stage           charge categories
==============  ============================================================
networking      ``net.*`` (driver, ip, tcp, homa, sock, alloc, copy, csum,
                http) and ``app`` — everything the networking-only (null)
                server also pays, i.e. the paper's 26.71 µs row
datamgmt        ``datamgmt.*`` (prep, checksum, copy, insert), ``pm.alloc``
                and ``mem.access`` — request preparation through index
                insertion, the 6.39 µs block
persistence     ``persist``, ``pm.flush`` and ``blockdev.*`` — flushing CPU
                caches to PM (1.94 µs) or, for the disk-era baseline,
                syncing the WAL
other           anything else (``uncategorized`` and future categories) —
                kept visible rather than silently folded away
==============  ============================================================

The classifier is a tiny prefix match, memoised per category string, so
folding a context's categories into stages is a dict walk with no
string scanning in the steady state.
"""

STAGE_NETWORKING = "networking"
STAGE_DATAMGMT = "datamgmt"
STAGE_PERSISTENCE = "persistence"
STAGE_OTHER = "other"

#: The three paper classes plus the honesty bucket, in display order.
STAGES = (STAGE_NETWORKING, STAGE_DATAMGMT, STAGE_PERSISTENCE, STAGE_OTHER)

_EXACT = {
    "app": STAGE_NETWORKING,
    "pm.alloc": STAGE_DATAMGMT,
    "mem.access": STAGE_DATAMGMT,
    "persist": STAGE_PERSISTENCE,
    "pm.flush": STAGE_PERSISTENCE,
}

_PREFIXES = (
    ("net.", STAGE_NETWORKING),
    ("datamgmt.", STAGE_DATAMGMT),
    ("blockdev.", STAGE_PERSISTENCE),
)

#: category -> stage memo; grows to the handful of categories in use.
#: Per-charge loops read it first and call :func:`classify` on a miss.
STAGE_OF = dict(_EXACT)


def classify(category):
    """Stage class for one charge category."""
    stage = STAGE_OF.get(category)
    if stage is not None:
        return stage
    stage = STAGE_OTHER
    for prefix, candidate in _PREFIXES:
        if category.startswith(prefix):
            stage = candidate
            break
    STAGE_OF[category] = stage
    return stage


def fold(by_category, into=None):
    """Fold a ``{category: ns}`` dict into ``{stage: ns}`` totals.

    ``into`` accumulates in place when given (it must hold all four
    stage keys); otherwise a fresh dict is returned.
    """
    stages = into if into is not None else {stage: 0.0 for stage in STAGES}
    for category, ns in by_category.items():
        stages[classify(category)] += ns
    return stages
