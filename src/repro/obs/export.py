"""Byte-stable trace serialisation: JSONL out, JSONL in.

One JSON object per line, one line per span, in ``span_id`` (= start)
order, with sorted keys and minimal separators.  Because every value in
a span derives from the seed and the virtual clock, two crawls with the
same seed -- or one interrupted-and-resumed crawl and its uninterrupted
twin -- serialise to the same bytes, which the tests assert literally.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.canonical import canonical_dumps
from repro.obs.span import Span


def span_to_json(span: Span, dual: bool = False) -> str:
    """One span as a canonical single-line JSON object.

    ``dual=True`` additionally carries the span's wall-time delta when
    the tracer ran in dual-clock mode (``Tracer(wall_clock=...)``).
    Dual output is for human inspection only: wall deltas are machine
    noise, so everything byte-compared across runs uses the default.
    """
    if dual:
        return canonical_dumps(span.to_dict_dual())
    return span.to_json().decode("ascii")


def _trace_bytes(spans: Iterable[Span], dual: bool) -> bytes:
    """The canonical JSONL trace; a checkpointed span's line is its kept
    checkpoint bytes (the same canonical form), not a fresh encode."""
    if dual:
        lines = [canonical_dumps(span.to_dict_dual()).encode() for span in spans]
    else:
        lines = [span.to_json() for span in spans]
    return b"\n".join(lines) + b"\n" if lines else b""


def trace_to_jsonl(spans: Iterable[Span], dual: bool = False) -> str:
    """The whole trace as canonical JSONL (trailing newline included)."""
    return _trace_bytes(spans, dual).decode("ascii")


def write_trace(
    path: Union[str, Path], spans: Iterable[Span], dual: bool = False
) -> Path:
    """Write a JSONL trace file; returns the path written."""
    path = Path(path)
    path.write_bytes(_trace_bytes(spans, dual))
    return path


def parse_trace(text: str) -> List[Span]:
    """Parse a JSONL trace back into spans (inverse of
    :func:`trace_to_jsonl`)."""
    spans = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            spans.append(Span.from_dict(json.loads(line)))
    return spans


def read_trace(path: Union[str, Path]) -> List[Span]:
    """Read a JSONL trace file written by :func:`write_trace`."""
    return parse_trace(Path(path).read_text())
