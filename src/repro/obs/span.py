"""Spans and span events: the trace's unit of work.

A :class:`Span` is one timed region on the *virtual* clock -- never the
wall clock -- with a name, JSON-safe attributes, a parent link, and an
optional list of point-in-time :class:`SpanEvent` annotations (fault
injections, backoff delays, breaker transitions...).  Spans are created
by :class:`repro.obs.tracer.Tracer` in strictly increasing ``span_id``
order, which doubles as start order, so a trace serialises to the same
bytes on every run with the same seed.

Spans are plain ``__slots__`` objects rather than dataclasses: the
supervisor creates several per visit and the tracing-overhead budget
(see ``benchmarks/test_perf_overhead.py``) is a hard acceptance
criterion.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.jsontext import dumps_ascii

#: Status of a span that completed without incident.
STATUS_OK = "ok"


class SpanEvent:
    """A point-in-time annotation inside a span."""

    __slots__ = ("ts_ms", "name", "attrs")

    def __init__(self, ts_ms: float, name: str, attrs: Dict[str, Any]) -> None:
        self.ts_ms = ts_ms
        self.name = name
        self.attrs = attrs

    def to_dict(self) -> Dict[str, Any]:
        return {"ts_ms": self.ts_ms, "name": self.name, "attrs": self.attrs}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanEvent":
        return cls(float(data["ts_ms"]), data["name"], dict(data["attrs"]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanEvent):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanEvent({self.name!r} @ {self.ts_ms:.1f} ms)"


class Span:
    """One timed region of the crawl, on the virtual clock.

    ``span_id`` is a sequential integer (1-based); ``parent_id`` is 0
    for root spans.  ``end_ms`` is ``None`` while the span is open.
    ``status`` is ``"ok"`` unless the instrumented region failed (e.g.
    ``"fault:driver-crash"`` on a faulted attempt).
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "start_ms",
        "attrs",
        "end_ms",
        "status",
        "events",
        "wall_ms",
        "_wall_start",
        "_json",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        name: str,
        start_ms: float,
        attrs: Dict[str, Any],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.attrs = attrs
        self.end_ms: Optional[float] = None
        self.status = STATUS_OK
        #: Lazily allocated: most spans carry no events.
        self.events: Optional[List[SpanEvent]] = None
        #: Dual-clock mode only (``Tracer(wall_clock=...)``): the
        #: *wall-time* cost of the span, next to its virtual duration.
        #: Never part of :meth:`to_dict` -- wall time is machine noise,
        #: and the canonical export must stay byte-identical across
        #: runs.  ``to_dict_dual`` includes it for human inspection.
        self.wall_ms: Optional[float] = None
        self._wall_start: Optional[float] = None
        #: :meth:`checkpoint_json`'s bytes, kept once the span finished.
        self._json: Optional[bytes] = None

    @property
    def open(self) -> bool:
        return self.end_ms is None

    @property
    def duration_ms(self) -> float:
        """Span duration; 0 while the span is still open."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def add_event(self, ts_ms: float, name: str, attrs: Dict[str, Any]) -> None:
        if self.events is None:
            self.events = []
        self.events.append(SpanEvent(ts_ms, name, attrs))

    # -- serialisation (checkpoints and JSONL export) --------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "status": self.status,
            "attrs": self.attrs,
            "events": [e.to_dict() for e in self.events or []],
        }

    def checkpoint_json(self) -> bytes:
        """``json.dumps(self.to_dict())`` as bytes: the span in the crawl
        checkpoint.

        A finished span never changes again, so it is encoded once and
        the bytes are kept; an open span is encoded afresh each time.
        Whatever reopens a finished span must drop the kept bytes (see
        :meth:`repro.obs.tracer.Tracer.resume_or_start`).
        """
        data = self._json
        if data is None:
            data = dumps_ascii(self.to_dict())
            if self.end_ms is not None:
                self._json = data
        return data

    def to_dict_dual(self) -> Dict[str, Any]:
        """The canonical dict plus the wall-time delta (when recorded).

        Only the opt-in dual-clock export uses this; everything that is
        diffed or byte-compared goes through :meth:`to_dict`.
        """
        data = self.to_dict()
        if self.wall_ms is not None:
            data["wall_ms"] = self.wall_ms
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(
            int(data["span_id"]),
            int(data["parent_id"]),
            data["name"],
            float(data["start_ms"]),
            dict(data["attrs"]),
        )
        end_ms = data.get("end_ms")
        span.end_ms = None if end_ms is None else float(end_ms)
        span.status = data.get("status", STATUS_OK)
        events = data.get("events") or []
        if events:
            span.events = [SpanEvent.from_dict(e) for e in events]
        wall_ms = data.get("wall_ms")
        if wall_ms is not None:
            span.wall_ms = float(wall_ms)
        return span

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"{self.duration_ms:.1f} ms"
        return f"Span(#{self.span_id} {self.name!r} {state})"
