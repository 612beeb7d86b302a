"""Per-layer spans for the traced benchmark run.

The program has no wall-clock spans of its own, so the traced run wraps
the calls into each layer from outside: a hook replaces a public
function or method with a wrapper that records one span per call and
restores the original afterwards.  Spans live in memory (a list per
process) and are written out once, when the run ends.

Each span is ``[id, parent, name, start, end, run]``: ``start``/``end``
are ``time.perf_counter()`` seconds (one system-wide monotonic clock, so
spans from pool workers line up with the parent's), ``parent`` is the
span that was open when the call started, and ``run`` is the id every
span of one timed repetition (one crawl, or one interaction visit
cycle) shares.

Persistence is measured at the stdlib boundary -- ``json.dumps``,
``json.loads`` and writes to files opened for writing -- not at private
supervisor methods, so the figures survive a change of persistence
format.  Encoding and writing done on behalf of trace export
(``write_trace``/``trace_to_jsonl``) is booked to ``obs.export``
instead.

Pool workers are forked while the hooks are installed, so they inherit
them.  A worker appends the spans of each shard task to a spool file in
the run's scratch directory; :meth:`SpanLog.collect_spool` folds them
back into the parent's log.
"""

from __future__ import annotations

import builtins
import functools
import io
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

# Bound before any hook is installed: the log's own bookkeeping must
# never be measured as the program's persistence.
_OPEN = io.open
_DUMPS = json.dumps
_LOADS = json.loads

#: Ids of spans recorded in a pool worker start at ``pid * _WORKER_ID_BASE``
#: so they never collide with the parent's.
_WORKER_ID_BASE = 1_000_000_000

_WRITE_MODES = frozenset("wax+")


class SpanLog:
    """In-memory spans, counters and persistence samples of one process."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.parent_pid = os.getpid()
        self.pid = self.parent_pid
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.next_id = 1
        self.run_id = 0
        #: Parent of spans opened with nothing on the stack (the current
        #: repetition's root span; pool workers inherit it at fork).
        self.root = 0
        self.counters: Counter = Counter()
        #: One sample per persistence write: the write's duration plus the
        #: JSON encoding done since the previous persistence write (ms).
        self.write_samples_ms: List[float] = []
        self.pending_encode_s = 0.0
        self.export_depth = 0
        #: The last string ``trace_to_jsonl`` returned: writing it is
        #: trace export even outside ``write_trace``.
        self.export_text: Optional[str] = None
        self.pipelines: List[Any] = []
        self._spool_seq = 0

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> list:
        stack = self.stack
        span = [
            self.next_id,
            stack[-1][0] if stack else self.root,
            name,
            perf_counter(),
            0.0,
            self.run_id,
        ]
        self.next_id += 1
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = perf_counter()
        self.stack.pop()

    # -- pool workers ----------------------------------------------------

    @property
    def in_worker(self) -> bool:
        return os.getpid() != self.parent_pid

    def enter_worker(self) -> None:
        """First call in a forked worker: drop the parent's state."""
        if self.pid == os.getpid():
            return
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.next_id = self.pid * _WORKER_ID_BASE + 1
        self.counters = Counter()
        self.write_samples_ms = []
        self.pending_encode_s = 0.0
        self.pipelines = []

    def fold_pipelines(self) -> None:
        """Add the events dispatched by every input pipeline seen so far."""
        self.counters["input.events"] += sum(
            p.events_dispatched for p in self.pipelines
        )
        self.pipelines = []

    def spool(self) -> None:
        """Write this worker's records to the spool and forget them."""
        self.fold_pipelines()
        self._spool_seq += 1
        path = self.spool_dir / f"worker-{self.pid}-{self._spool_seq}.json"
        payload = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "write_samples_ms": self.write_samples_ms,
        }
        with _OPEN(path, "w") as handle:
            handle.write(_DUMPS(payload))
        self.spans = []
        self.counters = Counter()
        self.write_samples_ms = []

    def collect_spool(self) -> None:
        """Fold every worker spool file into this (parent) log."""
        for path in sorted(self.spool_dir.glob("worker-*.json")):
            with _OPEN(path) as handle:
                payload = _LOADS(handle.read())
            self.spans.extend(payload["spans"])
            self.counters.update(payload["counters"])
            self.write_samples_ms.extend(payload["write_samples_ms"])
            path.unlink()

    def reset(self) -> None:
        """Forget the records of the previous repetition (spans are kept)."""
        self.counters = Counter()
        self.write_samples_ms = []
        self.pending_encode_s = 0.0
        self.pipelines = []
        self.export_text = None


# -- wrappers --------------------------------------------------------------


def _span_wrapper(log: SpanLog, name: str, fn: Callable, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = log.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.end(span)
        if on_result is not None:
            on_result(result)
        return result

    return wrapper


def _count_wrapper(log: SpanLog, counter: str, fn: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        log.counters[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


def _export_wrapper(log: SpanLog, fn: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = log.begin("obs.export")
        log.export_depth += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            log.export_depth -= 1
            log.end(span)
        if isinstance(result, str):
            log.export_text = result
        return result

    return wrapper


def _dumps_wrapper(log: SpanLog, fn: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if log.export_depth:
            return fn(*args, **kwargs)
        span = log.begin("persist.encode")
        try:
            return fn(*args, **kwargs)
        finally:
            log.end(span)
            log.pending_encode_s += span[4] - span[3]

    return wrapper


def _shard_task_wrapper(log: SpanLog, fn: Callable):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        worker = log.in_worker
        if worker:
            log.enter_worker()
        span = log.begin("shard.task")
        try:
            return fn(*args, **kwargs)
        finally:
            log.end(span)
            if worker:
                log.spool()

    return wrapper


class _WriteFile:
    """A file opened for writing, with its writes timed and counted."""

    def __init__(self, raw, log: SpanLog) -> None:
        self._raw = raw
        self._log = log
        self._export = False

    def _timed(self, call, *args):
        log = self._log
        export = self._export or log.export_depth > 0
        span = log.begin("obs.export" if export else "persist.write")
        try:
            return call(*args)
        finally:
            log.end(span)

    def write(self, data):
        log = self._log
        if data is log.export_text:
            self._export = True
            log.export_text = None
        start = perf_counter()
        result = self._timed(self._raw.write, data)
        if self._export or log.export_depth > 0:
            log.counters["obs.export_bytes"] += len(data)
        else:
            log.counters["persist.write_bytes"] += len(data)
            write_s = perf_counter() - start
            log.write_samples_ms.append((log.pending_encode_s + write_s) * 1_000.0)
            log.pending_encode_s = 0.0
        return result

    def flush(self):
        return self._timed(self._raw.flush)

    def close(self):
        return self._timed(self._raw.close)

    def __enter__(self):
        self._raw.__enter__()
        return self

    def __exit__(self, *exc):
        return self._timed(self._raw.__exit__, *exc)

    def __iter__(self):
        return iter(self._raw)

    def __getattr__(self, name):
        return getattr(self._raw, name)


def _open_wrapper(log: SpanLog, fn: Callable):
    @functools.wraps(fn)
    def wrapper(file, mode="r", *args, **kwargs):
        raw = fn(file, mode, *args, **kwargs)
        if _WRITE_MODES.isdisjoint(mode):
            return raw
        return _WriteFile(raw, log)

    return wrapper


# -- installing hooks ------------------------------------------------------


class Hooks:
    """The installed wrappers; :meth:`remove` puts the originals back."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def function(self, module: str, attr: str, make: Callable) -> None:
        """Wrap a module-level function wherever a ``repro`` module (or
        the defining module) holds a reference to it."""
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", None) or ""
            if name != module and name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, key, wrapper)

    def method(self, cls: type, attr: str, make: Callable) -> None:
        self.replace(cls, attr, make(cls.__dict__[attr]))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _count_points(log: SpanLog) -> Callable:
    def on_result(result) -> None:
        log.counters["motor.points"] += len(result)

    return on_result


def install(log: SpanLog) -> Hooks:
    """Wrap every layer boundary the per-layer table reports on."""
    import multiprocessing.pool

    from repro.browser.input_pipeline import InputPipeline
    from repro.bus.bus import EventBus
    from repro.core.hlisa_action_chains import HLISA_ActionChains
    from repro.detection.battery import DetectorBattery
    from repro.humans.clicking import HumanClicking
    from repro.humans.pointing import HumanPointing
    from repro.humans.scrolling import HumanScrolling
    from repro.humans.typing import HumanTyping
    from repro.models.scroll_cadence import ScrollCadence
    from repro.models.typing_rhythm import TypingRhythm
    from repro.obs.tracer import Tracer

    hooks = Hooks()

    def span(name, on_result=None):
        return lambda fn: _span_wrapper(log, name, fn, on_result)

    def on_visit(record) -> None:
        if record.reached:
            log.counters["visit.reached"] += 1

    points = _count_points(log)

    # crawl.visit, bus, obs
    hooks.function("repro.crawl.visit", "simulate_visit", span("visit", on_visit))
    hooks.method(EventBus, "publish", span("bus.publish"))
    hooks.method(Tracer, "start", lambda fn: _count_wrapper(log, "obs.spans", fn))
    for attr in ("write_trace", "trace_to_jsonl"):
        hooks.function("repro.obs.export", attr, lambda fn: _export_wrapper(log, fn))

    # persist: the stdlib encode/decode/write boundary
    hooks.function("json", "dumps", lambda fn: _dumps_wrapper(log, fn))
    hooks.function("json", "loads", span("persist.decode"))
    open_wrapper = _open_wrapper(log, _OPEN)
    hooks.replace(io, "open", open_wrapper)
    hooks.replace(builtins, "open", open_wrapper)

    # shard
    hooks.function("repro.shard.worker", "run_shard", lambda fn: _shard_task_wrapper(log, fn))
    hooks.function("repro.shard.merge", "merge_shards", span("shard.merge"))
    hooks.method(multiprocessing.pool.Pool, "map", span("shard.dispatch"))

    # core, humans/models (motor synthesis)
    hooks.method(HLISA_ActionChains, "perform", span("core.perform"))
    for attr in ("hlisa_path", "naive_bezier_path", "straight_line_path"):
        hooks.function("repro.models.bezier", attr, span("motor", points))
    for attr in ("hlisa_click_point", "hlisa_dwell_ms", "uniform_click_point"):
        hooks.function("repro.models.clicks", attr, span("motor"))
    for cls, attr in (
        (TypingRhythm, "plan"),
        (ScrollCadence, "plan"),
        (HumanPointing, "path"),
        (HumanTyping, "plan"),
        (HumanScrolling, "plan"),
    ):
        hooks.method(cls, attr, span("motor", points))
    for cls, attr in (
        (HumanPointing, "duration_ms"),
        (HumanClicking, "click_point"),
        (HumanClicking, "dwell_ms"),
    ):
        hooks.method(cls, attr, span("motor"))

    # browser.input_pipeline
    def register(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            log.pipelines.append(self)

        return wrapper

    hooks.method(InputPipeline, "__init__", register)
    for attr in (
        "move_mouse_to",
        "dispatch_batch",
        "mouse_down",
        "mouse_up",
        "wheel",
        "scroll_programmatic",
        "key_down",
        "key_up",
        "touch_start",
        "touch_end",
    ):
        hooks.method(InputPipeline, attr, span("input.dispatch"))

    # detection, analysis
    hooks.method(DetectorBattery, "evaluate", span("detection.evaluate"))
    for attr in ("trajectory_metrics", "per_movement_metrics", "split_movements"):
        hooks.function("repro.analysis.trajectory", attr, span("analysis.trajectory"))
    return hooks


# -- the per-layer table ---------------------------------------------------

#: Span name -> the layer it is reported under in the ranking.
LAYER_OF = {
    "visit": "crawl.visit",
    "bus.publish": "bus",
    "obs.export": "obs",
    "persist.encode": "persist",
    "persist.write": "persist",
    "persist.decode": "persist",
    "shard.task": "shard",
    "shard.dispatch": "(parent waiting on the pool)",
    "shard.merge": "shard",
    "core.perform": "core",
    "motor": "humans/models",
    "input.dispatch": "browser.input_pipeline",
    "detection.evaluate": "detection",
    "analysis.trajectory": "analysis",
    "run": "(unattributed)",
}


def span_times(spans: List[list]):
    """Per span name: self seconds, call count, and inclusive seconds of
    the outermost spans of that name."""
    by_id = {span[0]: span for span in spans}
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        # A worker's top-level span runs in parallel with its parent-side
        # parent, so it does not reduce that parent's self time.
        if span[0] >= _WORKER_ID_BASE > span[1]:
            continue
        covered[span[1]] += span[4] - span[3]
    self_s: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    inclusive_s: Dict[str, float] = defaultdict(float)
    for span in spans:
        duration = span[4] - span[3]
        name = span[2]
        self_s[name] += duration - covered[span[0]]
        calls[name] += 1
        parent = by_id.get(span[1])
        if parent is None or parent[2] != name:
            inclusive_s[name] += duration
    return self_s, calls, inclusive_s


def layer_metrics(
    spans: List[list],
    counters: Counter,
    write_samples_ms: List[float],
    *,
    retries: int,
    recycles: int,
    plan_shards: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    self_s, calls, inclusive_s = span_times(spans)
    parent_tasks = sum(
        span[4] - span[3]
        for span in spans
        if span[2] == "shard.task" and span[0] < _WORKER_ID_BASE
    )  # jobs=1 runs shard tasks in-process, without a pool
    shards_run = calls["shard.task"]
    visits = calls["visit"]
    return {
        "visit.calls": visits,
        "visit.self_s": self_s["visit"],
        "visit.reached_per_call": counters["visit.reached"] / visits if visits else 0.0,
        "supervisor.retries": retries,
        "supervisor.recycles": recycles,
        "bus.events": calls["bus.publish"],
        "bus.publish_self_s": self_s["bus.publish"],
        "obs.spans": counters["obs.spans"],
        "obs.export_s": inclusive_s["obs.export"],
        "obs.export_mb": counters["obs.export_bytes"] / 1e6,
        "persist.encode_calls": calls["persist.encode"],
        "persist.encode_s": self_s["persist.encode"],
        "persist.write_s": self_s["persist.write"],
        "persist.write_mb": counters["persist.write_bytes"] / 1e6,
        "persist.decode_s": self_s["persist.decode"],
        "persist.checkpoint_ms_p50": (
            statistics.median(write_samples_ms) if write_samples_ms else 0.0
        ),
        "shard.shards_run": shards_run,
        "shard.useful_ratio": plan_shards / shards_run if shards_run else 0.0,
        "shard.tasks_s": inclusive_s["shard.dispatch"] + parent_tasks,
        "shard.worker_busy_s": inclusive_s["shard.task"],
        "shard.merge_s": inclusive_s["shard.merge"],
        "core.perform_calls": calls["core.perform"],
        "core.perform_self_s": self_s["core.perform"],
        "motor.generate_s": self_s["motor"],
        "motor.points": counters["motor.points"],
        "input.dispatch_s": self_s["input.dispatch"],
        "input.events": counters["input.events"],
        "detection.evaluate_calls": calls["detection.evaluate"],
        "detection.evaluate_s": self_s["detection.evaluate"],
        "analysis.trajectory_s": self_s["analysis.trajectory"],
    }


def layer_ranking(spans: List[list]) -> List[tuple]:
    """``(layer, self seconds)`` over all spans, largest first."""
    self_s, _, _ = span_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        totals[LAYER_OF.get(name, name)] += seconds
    return sorted(totals.items(), key=lambda item: -item[1])


def write_spans(path: Path, spans: List[list]) -> None:
    """One JSON object per span, in start order."""
    keys = ("id", "parent", "name", "start", "end", "run")
    with _OPEN(path, "w") as handle:
        for span in sorted(spans, key=lambda s: s[3]):
            handle.write(_DUMPS(dict(zip(keys, span))) + "\n")
