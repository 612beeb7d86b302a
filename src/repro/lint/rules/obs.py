"""OBS0xx: observability invariants.

Span-end discipline: a ``tracer.start(...)`` whose span is not closed
on *every* exit path leaves the tracer's LIFO stack wedged -- every
later ``end`` raises, and the exported trace carries a phantom open
span whose duration reads zero (OBS002).

OBS001 (unsorted ``json.dump(s)`` in the obs layer) is retired: every
canonical export goes through :mod:`repro.canonical`, so there is no
hand-built call left to police.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_NESTED_SCOPE_NODES = _SCOPE_NODES + (ast.Lambda, ast.ClassDef)


def _shallow_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function/class scopes."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _NESTED_SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_tracer_start(call: ast.Call, ctx: ModuleContext) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr != "start":
        return False
    receiver = ctx.dotted_name(func.value)
    return receiver is not None and "tracer" in receiver.lower()


def _finally_ended_names(scope: ast.AST) -> set:
    """Names ``X`` with an ``<obj>.end(X)`` call in a ``finally`` block."""
    ended = set()
    for node in _shallow_walk(scope):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "end"
                    and sub.args
                    and isinstance(sub.args[0], ast.Name)
                ):
                    ended.add(sub.args[0].id)
    return ended


@register
class SpanEndDisciplineRule(Rule):
    id = "OBS002"
    name = "span-not-ended-on-every-path"
    family = "obs"
    scope = "obs"
    rationale = (
        "A tracer.start(...) whose span is not ended on every exit path "
        "wedges the tracer's LIFO stack on the first exception: every "
        "later end() raises and the exported trace is truncated.  Spans "
        "must be closed in a finally block (or taken via the "
        "tracer.span(...) context manager, which does this for you)."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        scopes: list = [ctx.tree]
        scopes.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, _SCOPE_NODES)
        )
        for scope in scopes:
            yield from self._check_scope(ctx, scope)

    def _check_scope(
        self, ctx: ModuleContext, scope: ast.AST
    ) -> Iterator[Finding]:
        ended = _finally_ended_names(scope)
        # start() calls whose span is bound to a name that some finally
        # block ends are disciplined; every other start() call either
        # discards the span or leaves an exception path that skips end().
        disciplined: set = set()
        for node in _shallow_walk(scope):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ended
            ):
                disciplined.add(id(node.value))
                # `span = tracer.start(...) if cond else None` still
                # ends up ended in the guarded finally.
                if isinstance(node.value, ast.IfExp):
                    disciplined.add(id(node.value.body))
                    disciplined.add(id(node.value.orelse))
        for node in _shallow_walk(scope):
            if (
                isinstance(node, ast.Call)
                and _is_tracer_start(node, ctx)
                and id(node) not in disciplined
            ):
                yield self.finding(
                    ctx,
                    node,
                    "span from tracer.start() is not ended on every exit "
                    "path; bind it and call end() in a finally block, or "
                    "use the tracer.span() context manager",
                )
