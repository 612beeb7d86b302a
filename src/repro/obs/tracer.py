"""The deterministic tracer: builds the per-crawl span tree.

Design constraints, in order:

1. **Determinism** -- span ids are sequential integers, timestamps come
   from the shared :class:`~repro.clock.VirtualClock`, and no global
   state exists, so two runs with the same seed produce byte-identical
   traces.
2. **Resumability** -- :meth:`Tracer.state_dict` /
   :meth:`Tracer.load_state` round-trip the full tracer (finished spans,
   the open-span stack, the id counter), :meth:`Tracer.state_since` /
   :meth:`Tracer.extend_state` carry only what changed since a
   :meth:`Tracer.mark` (the checkpoint journal's segments),
   :meth:`Tracer.state_json` encodes either by splicing each finished
   span's once-encoded JSON, and
   :meth:`Tracer.resume_or_start` re-enters a checkpointed root span, so
   an interrupted-then-resumed crawl's trace equals an uninterrupted
   one's.
3. **Bounded overhead** -- hot paths use explicit ``start``/``end``
   pairs (no generator-based context manager per WebDriver command) and
   the :data:`NULL_TRACER` keeps untraced code at one attribute check.

The tracer deliberately holds a *reference* to the supervisor's clock
rather than a copy: checkpoint resume must advance that one shared
clock in place (see ``CrawlSupervisor._load_checkpoint``), never rebind
it, or the tracer would keep stamping spans from a stale timeline.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.clock import VirtualClock
from repro.jsontext import Encoded, encoded_list, encoded_object
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.span import Span


class Tracer:
    """Seed- and clock-deterministic span recorder.

    Spans are stored in start order (== ``span_id`` order) and finished
    in strict LIFO discipline: :meth:`end` must receive the innermost
    open span.  Events attach to the innermost open span.
    """

    #: Real tracers record; the shared :data:`NULL_TRACER` does not.
    enabled = True

    def __init__(
        self,
        clock: VirtualClock,
        metrics: Optional[MetricsRegistry] = None,
        wall_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.clock = clock
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Opt-in dual-clock mode: a *seconds*-returning monotonic
        #: callable (``time.perf_counter`` from the caller's side) that
        #: stamps each span with its wall-time cost next to the virtual
        #: duration.  Wall deltas never enter the canonical export or
        #: the checkpoint state -- they are machine noise by definition
        #: -- so byte-identity of traces and profiles is unaffected.
        self.wall_clock = wall_clock
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- recording -------------------------------------------------------

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a span as a child of the innermost open span."""
        stack = self._stack
        span = Span(
            self._next_id,
            stack[-1].span_id if stack else 0,
            name,
            self.clock.now(),
            attrs,
        )
        self._next_id += 1
        self._spans.append(span)
        stack.append(span)
        if self.wall_clock is not None:
            span._wall_start = self.wall_clock()
        return span

    def end(self, span: Span) -> Span:
        """Close ``span``; it must be the innermost open span."""
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} is not the innermost open span"
            )
        self._stack.pop()
        span.end_ms = self.clock.now()
        if self.wall_clock is not None and span._wall_start is not None:
            span.wall_ms = (self.wall_clock() - span._wall_start) * 1_000.0
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Context-managed span; marks status on exceptions."""
        span = self.start(name, **attrs)
        try:
            yield span
        except BaseException as exc:
            span.status = f"error:{type(exc).__name__}"
            raise
        finally:
            self.end(span)

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point-in-time event to the innermost open span.

        Dropped silently when no span is open: events describe work, and
        all instrumented work runs inside a span.
        """
        if self._stack:
            self._stack[-1].add_event(self.clock.now(), name, attrs)

    def resume_or_start(self, name: str, **attrs: Any) -> Span:
        """Re-enter a checkpointed root span, or open a fresh one.

        Three cases, in order:

        - an open root span of this name was restored (mid-crawl
          checkpoint): continue it;
        - a *closed* root span of this name was restored (the checkpoint
          was written at crawl end): reopen it, so re-running over the
          same or a grown population extends one timeline instead of
          forking a second root;
        - otherwise start a new root span.
        """
        if self._stack:
            root = self._stack[0]
            if root.name == name:
                return root
        for span in self._spans:
            if span.parent_id == 0 and span.name == name:
                if not span.open:
                    span.end_ms = None
                    span._json = None
                    self._stack.insert(0, span)
                return span
        return self.start(name, **attrs)

    # -- inspection ------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """All spans, in start order (finished and still-open)."""
        return list(self._spans)

    @property
    def open_spans(self) -> List[Span]:
        """The open-span stack, outermost first."""
        return list(self._stack)

    # -- checkpoint state ------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the full tracer."""
        return {
            "next_id": self._next_id,
            "open": [span.span_id for span in self._stack],
            "spans": [span.to_dict() for span in self._spans],
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Replace the tracer's contents with a checkpointed snapshot."""
        self._spans = [Span.from_dict(d) for d in state["spans"]]
        by_id = {span.span_id: span for span in self._spans}
        self._stack = [by_id[span_id] for span_id in state["open"]]
        self._next_id = int(state["next_id"])

    def mark(self) -> Tuple[int, Tuple[Span, ...]]:
        """A cursor for :meth:`state_since`: span count and open stack."""
        return len(self._spans), tuple(self._stack)

    def state_since(self, mark: Tuple[int, Tuple[Span, ...]]) -> Dict[str, Any]:
        """What changed since ``mark``, as one checkpoint-journal delta.

        Carries the spans finished since then (started after the mark,
        or open at it and closed since), the open stack in full --
        during a crawl just the root span -- and the id counter.  A
        finished span never changes again, so :meth:`extend_state`
        rebuilds the full state from a snapshot plus these deltas.
        """
        return {
            "next_id": self._next_id,
            "open": [span.to_dict() for span in self._stack],
            "spans": [span.to_dict() for span in self._finished_since(mark)],
        }

    def state_json(
        self, mark: Optional[Tuple[int, Tuple[Span, ...]]] = None
    ) -> Encoded:
        """``json.dumps`` of :meth:`state_dict` -- or, given a ``mark``,
        of :meth:`state_since` -- spliced from each span's
        :meth:`~repro.obs.span.Span.checkpoint_json`, so a finished span
        is encoded once however many checkpoints carry it."""
        if mark is None:
            open_ = [span.span_id for span in self._stack]
            spans = self._spans
        else:
            open_ = encoded_list(span.checkpoint_json() for span in self._stack)
            spans = self._finished_since(mark)
        return encoded_object(
            (
                ("next_id", self._next_id),
                ("open", open_),
                ("spans", encoded_list(span.checkpoint_json() for span in spans)),
            )
        )

    def _finished_since(self, mark: Tuple[int, Tuple[Span, ...]]) -> List[Span]:
        """Spans started after ``mark`` or open at it, finished since."""
        count, was_open = mark
        done = [span for span in was_open if not span.open]
        done += [span for span in self._spans[count:] if not span.open]
        return done

    def extend_state(self, delta: Dict[str, Any]) -> None:
        """Apply a :meth:`state_since` delta on top of the current state."""
        spans = self._spans

        def index_of(span_id: int) -> int:
            index = bisect_left(spans, span_id, key=attrgetter("span_id"))
            if index == len(spans) or spans[index].span_id != span_id:
                raise ValueError(f"delta names unknown span {span_id}")
            return index

        changed = sorted(delta["spans"] + delta["open"], key=itemgetter("span_id"))
        for data in changed:
            span = Span.from_dict(data)
            if spans and span.span_id <= spans[-1].span_id:
                spans[index_of(span.span_id)] = span
            else:
                spans.append(span)
        self._stack = [spans[index_of(data["span_id"])] for data in delta["open"]]
        self._next_id = int(delta["next_id"])


class NullTracer:
    """Inert tracer: records nothing, costs one attribute check.

    Shares the :class:`Tracer` surface so instrumented code never
    branches on "is tracing on?" beyond the ``enabled`` flag (and hot
    paths may skip even the null calls by checking it).
    """

    enabled = False
    metrics = NULL_METRICS
    clock = None

    _NULL_SPAN = Span(0, 0, "null", 0.0, {})

    def start(self, name: str, **attrs: Any) -> Span:
        return self._NULL_SPAN

    def end(self, span: Span) -> Span:
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        yield self._NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def resume_or_start(self, name: str, **attrs: Any) -> Span:
        return self._NULL_SPAN

    @property
    def spans(self) -> List[Span]:
        return []

    @property
    def open_spans(self) -> List[Span]:
        return []

    def state_dict(self) -> None:
        return None

    def load_state(self, state: Any) -> None:
        return None

    def mark(self) -> None:
        return None

    def state_since(self, mark: Any) -> None:
        return None

    def state_json(self, mark: Any = None) -> Encoded:
        return Encoded([b"null"])

    def extend_state(self, delta: Any) -> None:
        return None


#: Shared inert tracer; assign it wherever tracing should be off.
NULL_TRACER = NullTracer()
