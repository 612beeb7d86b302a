"""Splicing ``json.dumps`` output from already-encoded parts.

The crawl checkpoint is written in ``json.dumps``' default form
(insertion-ordered keys, ``", "``/``": "`` separators), and that form
composes: a list encodes as ``"[" + ", ".join(items) + "]"`` and a dict
as ``"{" + ", ".join('"key": ' + value) + "}"``, where each item or
value is its own ``json.dumps`` text.  So an item that never changes --
a finished span, a completed visit record, a probe-ledger entry -- is
encoded once, and every later checkpoint splices its bytes instead of
encoding the item again.  The bytes are exactly those of ``json.dumps``
on the whole payload (ASCII: ``json.dumps`` escapes everything else).

Spliced output is kept as the list of byte pieces it concatenates to,
so splicing copies references, not bytes: a writer joins one top-level
field at a time (:func:`object_chunks`) and never holds the whole
document in one buffer.

Keys are spliced verbatim, so they must be plain ASCII identifiers (no
quote, backslash or control character): true of every checkpoint key.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator, List, Tuple


def dumps_ascii(value: Any) -> bytes:
    """``json.dumps(value)`` as bytes."""
    return json.dumps(value).encode("ascii")


class Encoded:
    """``json.dumps`` output as the list of byte pieces it concatenates to."""

    __slots__ = ("parts",)

    def __init__(self, parts: List[bytes]) -> None:
        self.parts = parts

    @property
    def data(self) -> bytes:
        return b"".join(self.parts)


def _parts(value: Any) -> List[bytes]:
    """An :class:`Encoded` value's pieces, or ``json.dumps(value)``."""
    return value.parts if isinstance(value, Encoded) else [dumps_ascii(value)]


def encoded_list(items: Iterable[bytes]) -> Encoded:
    """A list, from its items' ``json.dumps`` bytes."""
    parts = [b"["]
    for item in items:
        parts += (item, b", ")
    if len(parts) == 1:
        parts.append(b"]")
    else:
        parts[-1] = b"]"
    return Encoded(parts)


def object_chunks(fields: Iterable[Tuple[str, Any]]) -> Iterator[List[bytes]]:
    """A dict's ``json.dumps`` pieces, one list per ``(key, value)`` field
    and a last one closing the brace; values are JSON-safe or
    :class:`Encoded`."""
    opener = "{"
    for key, value in fields:
        yield [f'{opener}"{key}": '.encode("ascii"), *_parts(value)]
        opener = ", "
    yield [b"}" if opener == ", " else b"{}"]


def encoded_object(fields: Iterable[Tuple[str, Any]]) -> Encoded:
    """A dict, from its ``(key, value)`` fields (see :func:`object_chunks`)."""
    return Encoded([part for chunk in object_chunks(fields) for part in chunk])
