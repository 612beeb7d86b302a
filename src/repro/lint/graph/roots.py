"""Entry-point roots and forward reachability over the call graph.

Three root *families* anchor the whole-program rules, mirroring the
artefacts whose byte-identity the project guarantees:

``visit``
    ``simulate_visit`` functions, ``crawl`` / ``crawl_shard`` methods of
    ``*Supervisor`` classes, the shard-executor entry points
    (``run_shard`` runs in pool workers, ``run_sharded_crawl`` drives
    them), and every bus-subscribed handler (watchdogs and browser
    command handlers run inside the visit dispatch path).
``checkpoint``
    ``state_dict`` / ``load_state`` and the journal deltas
    ``state_since`` / ``extend_state``, plus the supervisor's
    ``_write_checkpoint`` / ``_append_segment`` (journal writers) and
    ``_load_checkpoint`` / ``_replay_journal`` (resume) -- anything
    feeding the resume contract.
``trace``
    ``write_trace`` / ``write_ledger`` / ``export_trace`` -- the
    observability exports diffed across runs.

Reachability is a forward BFS from the roots over the call graph; each
reached function remembers the root it was first reached from (roots
are seeded in deterministic family-then-name order, so the witness is
stable).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.lint.graph.buses import BusInventory
from repro.lint.graph.callgraph import CallGraph
from repro.lint.graph.symbols import SymbolTable

FAMILIES = ("visit", "checkpoint", "trace")

_VISIT_FUNCTIONS = frozenset(
    {"simulate_visit", "run_shard", "run_sharded_crawl"}
)
_VISIT_CLASS_SUFFIX = "Supervisor"
_VISIT_METHODS = frozenset({"crawl", "crawl_shard"})
_CHECKPOINT_FUNCTIONS = frozenset(
    {
        "state_dict",
        "load_state",
        "state_since",
        "extend_state",
        "_write_checkpoint",
        "_append_segment",
        "_load_checkpoint",
        "_replay_journal",
    }
)
_TRACE_FUNCTIONS = frozenset({"write_trace", "write_ledger", "export_trace"})


def entry_points(
    symbols: SymbolTable, bus: BusInventory
) -> Dict[str, str]:
    """qualname -> family for every entry-point root.

    A function matching several families keeps the highest-priority one
    (visit > checkpoint > trace).
    """
    roots: Dict[str, str] = {}

    def claim(qualname: str, family: str) -> None:
        current = roots.get(qualname)
        if current is None or FAMILIES.index(family) < FAMILIES.index(current):
            roots[qualname] = family

    for qualname in sorted(symbols.functions):
        info = symbols.functions[qualname]
        if info.name in _VISIT_FUNCTIONS:
            claim(qualname, "visit")
        if (
            info.cls is not None
            and info.cls.endswith(_VISIT_CLASS_SUFFIX)
            and info.name in _VISIT_METHODS
        ):
            claim(qualname, "visit")
        if info.name in _CHECKPOINT_FUNCTIONS:
            claim(qualname, "checkpoint")
        if info.name in _TRACE_FUNCTIONS:
            claim(qualname, "trace")
    for sub in bus.subscriptions:
        if sub.handler is not None:
            claim(sub.handler.qualname, "visit")
    return roots


def reachable(
    graph: CallGraph,
    roots: Dict[str, str],
    families: Optional[Iterable[str]] = None,
) -> Dict[str, Tuple[str, str]]:
    """qualname -> (root, family) for everything reachable from roots.

    Roots are reachable from themselves.  ``families`` restricts which
    root families seed the walk (default: all).
    """
    wanted = set(families) if families is not None else set(FAMILIES)
    seeds = sorted(
        (FAMILIES.index(family), qualname)
        for qualname, family in roots.items()
        if family in wanted
    )
    reached: Dict[str, Tuple[str, str]] = {}
    frontier = []
    for _, qualname in seeds:
        if qualname not in reached:
            reached[qualname] = (qualname, roots[qualname])
            frontier.append(qualname)
    while frontier:
        current = frontier.pop(0)
        witness = reached[current]
        for site in graph.edges_from(current):
            if site.callee not in reached:
                reached[site.callee] = witness
                frontier.append(site.callee)
    return reached
