"""The probe ledger: detection-surface tracing in the JS object model.

The paper's Table 1 side effects are the observable residue of detector
probes (``for-in`` enumeration, ``Object.keys``, descriptor
introspection, ``toString`` brand checks) hitting a spoofed
``navigator``.  The ledger records every fundamental operation performed
on *instrumented* objects -- ``get``/``set``/``has``, ``ownKeys``/
``getOwnPropertyDescriptor``/``getPrototypeOf``, getter invocations,
Proxy trap firings (trap vs. forward), ``toString`` renderings and WebIDL
brand checks -- so each side effect can be attributed to the exact
accesses that exposed it.

Determinism contract (same as the span tracer):

- entry ids are sequential in record order;
- timestamps come from a :class:`~repro.clock.VirtualClock`, never the
  wall clock;
- the JSONL export is canonical (:mod:`repro.canonical`), so
  two same-seed runs -- or an interrupted-and-resumed run and its
  uninterrupted twin -- write byte-identical ledgers.

Instrumentation is attribute-based so :mod:`repro.jsobject` never
imports this package: hook points guard on a ``_probe_ledger`` class
attribute that defaults to ``None``, keeping the ledger-off overhead to
one attribute check per operation.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.canonical import canonical_dumps
from repro.clock import VirtualClock
from repro.jsobject.functions import JSFunction, NativeAccessor
from repro.jsobject.jsobject import JSObject
from repro.jsobject.proxy import JSProxy
from repro.jsontext import Encoded, dumps_ascii, encoded_list, encoded_object

#: Scope-label prefix marking one detector probe's accesses; the
#: attribution tooling keys on it.
PROBE_SCOPE_PREFIX = "detector.probe:"

#: Scope-label prefix for a spoofing method's install phase.
SPOOF_SCOPE_PREFIX = "spoof.install:"

#: Object-label prefix marking accesses on the *reference* (pristine)
#: navigator a probe compares against.
REFERENCE_LABEL_PREFIX = "ref:"

#: Fixed bucket upper bounds for the accesses-per-probe histogram.
#: Frozen at import time (same rule as ``DEFAULT_LATENCY_BUCKETS_MS``).
PROBE_ACCESS_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    20.0,
    50.0,
    100.0,
    200.0,
    500.0,
    1_000.0,
)


class LedgerEntry:
    """One fundamental operation observed on an instrumented object."""

    __slots__ = (
        "entry_id", "ts_ms", "scope", "obj", "op", "key", "via", "detail", "_json"
    )

    def __init__(
        self,
        entry_id: int,
        ts_ms: float,
        scope: str,
        obj: str,
        op: str,
        key: Optional[str] = None,
        via: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.entry_id = entry_id
        self.ts_ms = ts_ms
        #: ``/``-joined scope stack at record time (may be ``""``).
        self.scope = scope
        #: Label of the instrumented object (e.g. ``navigator.__proto__``).
        self.obj = obj
        #: Operation name (``get``, ``ownKeys``, ``toString``, ...).
        self.op = op
        #: Property key, for keyed operations.
        self.key = key
        #: ``"trap"``/``"forward"`` for proxy operations, else ``None``.
        self.via = via
        #: JSON-safe operation payload (result keys, function name, ...).
        self.detail = detail
        self._json: Optional[bytes] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entry_id": self.entry_id,
            "ts_ms": self.ts_ms,
            "scope": self.scope,
            "obj": self.obj,
            "op": self.op,
            "key": self.key,
            "via": self.via,
            "detail": self.detail,
        }

    def checkpoint_json(self) -> bytes:
        """``json.dumps(self.to_dict())`` as bytes, encoded once: an entry
        never changes after it is recorded."""
        if self._json is None:
            self._json = dumps_ascii(self.to_dict())
        return self._json

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LedgerEntry":
        return cls(
            entry_id=int(data["entry_id"]),
            ts_ms=float(data["ts_ms"]),
            scope=str(data["scope"]),
            obj=str(data["obj"]),
            op=str(data["op"]),
            key=data.get("key"),
            via=data.get("via"),
            detail=data.get("detail"),
        )

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, LedgerEntry) and self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        via = f" via={self.via}" if self.via else ""
        key = f" {self.key!r}" if self.key is not None else ""
        return f"<LedgerEntry #{self.entry_id} {self.obj}.{self.op}{key}{via}>"


class ProbeLedger:
    """An append-only, deterministic record of instrumented operations.

    Parameters
    ----------
    clock:
        Timestamp source; a supervisor re-wires this onto its own shared
        clock (the one checkpoint resume advances in place).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when set,
        every record increments a ``probe.ops.<op>`` counter and every
        closed ``detector.probe:*`` scope feeds the
        ``probe_accesses_per_probe`` histogram.
    """

    def __init__(self, clock: Optional[VirtualClock] = None, metrics=None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.metrics = metrics
        self._entries: List[LedgerEntry] = []
        self._next_id = 1
        self._scope_stack: List[str] = []
        self._scope_str = ""
        # Counter handles cached per op, invalidated if the registry is
        # swapped (a supervisor re-wires ``metrics`` after construction).
        self._op_counters: Dict[str, Any] = {}
        self._op_counters_for: Any = None

    # -- recording -------------------------------------------------------

    def record(
        self,
        op: str,
        obj: str,
        key: Optional[str] = None,
        via: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> LedgerEntry:
        entry = LedgerEntry(
            self._next_id,
            self.clock.now(),
            self._scope_str,
            obj,
            op,
            key=key,
            via=via,
            detail=detail,
        )
        self._next_id += 1
        self._entries.append(entry)
        metrics = self.metrics
        if metrics is not None:
            if self._op_counters_for is not metrics:
                self._op_counters = {}
                self._op_counters_for = metrics
            counter = self._op_counters.get(op)
            if counter is None:
                counter = self._op_counters[op] = metrics.counter(
                    "probe.ops." + op
                )
            counter.inc()
        return entry

    @contextmanager
    def scope(self, label: str) -> Iterator[None]:
        """Attribute entries recorded inside to ``label`` (nestable)."""
        self._scope_stack.append(label)
        self._scope_str = "/".join(self._scope_stack)
        start = len(self._entries)
        try:
            yield
        finally:
            self._scope_stack.pop()
            self._scope_str = "/".join(self._scope_stack)
            if self.metrics is not None and label.startswith(PROBE_SCOPE_PREFIX):
                self.metrics.histogram(
                    "probe_accesses_per_probe", PROBE_ACCESS_BUCKETS
                ).observe(float(len(self._entries) - start))

    # -- introspection ---------------------------------------------------

    @property
    def entries(self) -> List[LedgerEntry]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def slice_from(self, start: int) -> List[LedgerEntry]:
        """Entries recorded since ``start`` (= an earlier ``len(self)``)."""
        return self._entries[start:]

    def op_counts(self) -> Dict[str, int]:
        """``{op: count}`` over the whole ledger, sorted by op name."""
        counts: Dict[str, int] = {}
        for entry in self._entries:
            counts[entry.op] = counts.get(entry.op, 0) + 1
        return {op: counts[op] for op in sorted(counts)}

    # -- serialisation ---------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        return self.state_since(0)

    def state_since(self, start: int) -> Dict[str, Any]:
        """:meth:`state_dict` holding only the entries recorded since
        ``start`` (= an earlier ``len(self)``): a checkpoint-journal
        delta.  Entries never change once recorded."""
        return {
            "next_id": self._next_id,
            "scopes": list(self._scope_stack),
            "entries": [entry.to_dict() for entry in self._entries[start:]],
        }

    def state_json(self, start: int = 0) -> Encoded:
        """``json.dumps(self.state_since(start))``, spliced from each
        entry's once-encoded :meth:`LedgerEntry.checkpoint_json`."""
        return encoded_object(
            (
                ("next_id", self._next_id),
                ("scopes", self._scope_stack),
                (
                    "entries",
                    encoded_list(
                        entry.checkpoint_json() for entry in self._entries[start:]
                    ),
                ),
            )
        )

    def load_state(self, state: Dict[str, Any]) -> None:
        self._entries = []
        self.extend_state(state)

    def extend_state(self, delta: Dict[str, Any]) -> None:
        """Apply a :meth:`state_since` delta on top of the current state."""
        self._next_id = int(delta.get("next_id", 1))
        self._scope_stack = [str(s) for s in delta.get("scopes", [])]
        self._scope_str = "/".join(self._scope_stack)
        self._entries.extend(
            LedgerEntry.from_dict(data) for data in delta.get("entries", [])
        )


# -- canonical JSONL export ---------------------------------------------------


def entry_to_json(entry: LedgerEntry) -> str:
    """One entry as a canonical single-line JSON object."""
    return canonical_dumps(entry.to_dict())


def ledger_to_jsonl(entries: Iterable[LedgerEntry]) -> str:
    """The whole ledger as canonical JSONL (trailing newline included)."""
    lines = [entry_to_json(entry) for entry in entries]
    return "\n".join(lines) + "\n" if lines else ""


def write_ledger(
    path: Union[str, Path], ledger: Union[ProbeLedger, Iterable[LedgerEntry]]
) -> Path:
    """Write a JSONL ledger file; returns the path written."""
    entries = ledger.entries if isinstance(ledger, ProbeLedger) else ledger
    path = Path(path)
    path.write_text(ledger_to_jsonl(entries))
    return path


def parse_ledger(text: str) -> List[LedgerEntry]:
    """Parse JSONL back into entries (inverse of :func:`ledger_to_jsonl`)."""
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            entries.append(LedgerEntry.from_dict(json.loads(line)))
    return entries


def read_ledger(path: Union[str, Path]) -> List[LedgerEntry]:
    """Read a JSONL ledger file written by :func:`write_ledger`."""
    return parse_ledger(Path(path).read_text())


# -- instrumentation ----------------------------------------------------------


def _attach_function(fn: Any, ledger: ProbeLedger, label: str) -> None:
    if isinstance(fn, NativeAccessor):
        fn._probe_ledger = ledger
        fn._probe_label = label
        fn.get_function._probe_ledger = ledger
        fn.get_function._probe_label = label
    elif isinstance(fn, JSFunction):
        fn._probe_ledger = ledger
        fn._probe_label = label


def instrument(obj: Any, ledger: ProbeLedger, label: str = "navigator") -> Any:
    """Attach ``ledger`` to an object graph: the object, its prototype
    chain, and every function value / native accessor hanging off them.

    Prototypes are labelled ``<label>.__proto__[...]``, functions and
    accessors ``<owner-label>.<property>``.  A proxy and its target share
    the proxy's label -- the ``via`` field of proxy entries distinguishes
    the layers.  Attaching records nothing and is idempotent, so callers
    may re-instrument after a spoof replaced parts of the graph.
    """
    node: Any = obj
    lbl = label
    seen = set()
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        node._probe_ledger = ledger
        node._probe_label = lbl
        if isinstance(node, JSProxy):
            node = node.target
            continue
        if not isinstance(node, JSObject):
            break
        for name, desc in node._own.items():
            _attach_function(desc.value, ledger, f"{lbl}.{name}")
            _attach_function(desc.get, ledger, f"{lbl}.{name}")
            _attach_function(desc.set, ledger, f"{lbl}.{name}")
        node = node._proto
        lbl = lbl + ".__proto__"
    return obj


def instrument_window(window: Any, ledger: ProbeLedger) -> Any:
    """Instrument a window's navigator graph and remember the ledger on
    the window, so detection re-instruments after spoofing swaps the
    navigator object out."""
    window.probe_ledger = ledger
    instrument(window.navigator, ledger, "navigator")
    return window


def ledger_of(obj: Any) -> Optional[ProbeLedger]:
    """The ledger an object (or window) is instrumented with, if any."""
    ledger = getattr(obj, "probe_ledger", None)
    if ledger is None:
        ledger = getattr(obj, "_probe_ledger", None)
    return ledger
