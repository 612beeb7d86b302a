"""Canonical JSON text spliced from already-encoded parts, and read back
with each item's bytes.

The version-3 crawl checkpoint is canonical JSON
(:func:`repro.canonical.canonical_dumps`: sorted keys, ``","``/``":"``
separators, ASCII), and that form composes: a list encodes as
``"[" + ",".join(items) + "]"`` and a dict as
``"{" + ",".join('"key":' + value) + "}"`` over its keys in sorted
order, where each item or value is its own canonical text.  So an item
that never changes -- a finished span, a completed visit record, a
probe-ledger entry -- is encoded once, and its bytes serve as its item
in every later checkpoint and as its line in the trace or ledger
export.

Spliced output is kept as the list of byte pieces it concatenates to,
so splicing copies references, not bytes: a writer joins one top-level
field at a time (:func:`object_chunks`) and never holds the whole
document in one buffer.  Keys are spliced verbatim, so they must be
plain ASCII identifiers (no quote, backslash or control character):
true of every checkpoint key.

:func:`read_object` is the way back: it parses a JSON object with
``json``'s own scanner and also returns the verbatim bytes of every
item of the lists it is asked for, so items loaded on resume keep their
bytes and are never encoded again.  In a checkpoint those bytes are
canonical, because the whole checkpoint is.
"""

from __future__ import annotations

import json
from json.decoder import scanstring
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from repro.canonical import canonical_dumps


def dumps_ascii(value: Any) -> bytes:
    """``canonical_dumps(value)`` as bytes."""
    return canonical_dumps(value).encode("ascii")


class Encoded:
    """Canonical JSON as the list of byte pieces it concatenates to."""

    __slots__ = ("parts",)

    def __init__(self, parts: List[bytes]) -> None:
        self.parts = parts

    @property
    def data(self) -> bytes:
        return b"".join(self.parts)


def _parts(value: Any) -> List[bytes]:
    """An :class:`Encoded` value's pieces, or ``dumps_ascii(value)``."""
    return value.parts if isinstance(value, Encoded) else [dumps_ascii(value)]


def encoded_list(items: Iterable[bytes]) -> Encoded:
    """A list, from its items' canonical bytes."""
    parts = [b"["]
    for item in items:
        parts += (item, b",")
    if len(parts) == 1:
        parts.append(b"]")
    else:
        parts[-1] = b"]"
    return Encoded(parts)


def object_chunks(fields: Iterable[Tuple[str, Any]]) -> Iterator[List[bytes]]:
    """A dict's canonical pieces, one list per ``(key, value)`` field in
    key order and a last one closing the brace; values are JSON-safe or
    :class:`Encoded`."""
    opener = "{"
    for key, value in sorted(fields, key=itemgetter(0)):
        yield [f'{opener}"{key}":'.encode("ascii"), *_parts(value)]
        opener = ","
    yield [b"}" if opener == "," else b"{}"]


def encoded_object(fields: Iterable[Tuple[str, Any]]) -> Encoded:
    """A dict, from its ``(key, value)`` fields (see :func:`object_chunks`)."""
    return Encoded([part for chunk in object_chunks(fields) for part in chunk])


# -- reading ----------------------------------------------------------------

#: Which lists :func:`read_object` keeps item bytes for: a key maps to
#: the name its items' bytes are returned under, or, for a key whose
#: value is an object, to a nested mapping of the same form.
ItemLists = Mapping[str, Union[str, "ItemLists"]]

_scan_once = json.JSONDecoder().scan_once
_WHITESPACE = " \t\n\r"


def _skip(text: str, idx: int) -> int:
    while text[idx] in _WHITESPACE:
        idx += 1
    return idx


def _after(text: str, idx: int, char: str) -> int:
    """The index after ``text[idx]``, which must be ``char``, and any
    whitespace following it."""
    if text[idx] != char:
        raise ValueError(f"expected {char!r} at offset {idx}")
    return _skip(text, idx + 1)


def _scan(text: str, idx: int) -> Tuple[Any, int]:
    try:
        return _scan_once(text, idx)
    except StopIteration:
        raise ValueError(f"expected a value at offset {idx}") from None


def _list_items(
    raw: bytes, text: str, idx: int, kept: List[bytes]
) -> Tuple[List[Any], int]:
    """The list at ``text[idx]`` (a ``[``); appends each item's bytes."""
    values: List[Any] = []
    idx = _skip(text, idx + 1)
    if text[idx] == "]":
        return values, idx + 1
    while True:
        value, end = _scan(text, idx)
        values.append(value)
        kept.append(raw[idx:end])
        idx = _skip(text, end)
        if text[idx] == "]":
            return values, idx + 1
        idx = _after(text, idx, ",")


def _object(
    raw: bytes,
    text: str,
    idx: int,
    lists: ItemLists,
    kept: Dict[str, List[bytes]],
) -> Tuple[Dict[str, Any], int]:
    """The object at ``text[idx]`` (a ``{``), keeping the items of ``lists``."""
    obj: Dict[str, Any] = {}
    idx = _skip(text, idx + 1)
    if text[idx] == "}":
        return obj, idx + 1
    while True:
        if text[idx] != '"':
            raise ValueError(f"expected a key at offset {idx}")
        key, idx = scanstring(text, idx + 1)
        idx = _after(text, _skip(text, idx), ":")
        spec = lists.get(key)
        if isinstance(spec, str) and text[idx] == "[":
            # A repeated key replaces its value, as in ``json.loads``.
            kept[spec] = []
            obj[key], idx = _list_items(raw, text, idx, kept[spec])
        elif isinstance(spec, Mapping) and text[idx] == "{":
            obj[key], idx = _object(raw, text, idx, spec, kept)
        else:
            obj[key], idx = _scan(text, idx)
        idx = _skip(text, idx)
        if text[idx] == "}":
            return obj, idx + 1
        idx = _after(text, idx, ",")


def read_object(
    raw: bytes, lists: ItemLists
) -> Tuple[Dict[str, Any], Dict[str, List[bytes]]]:
    """Parse ``raw``, one ASCII JSON object, keeping item bytes.

    Returns the parsed object and, under each name ``lists`` gives, the
    verbatim bytes of every item of that list, in order: ``{"records":
    "records", "trace": {"spans": "spans"}}`` keeps each item of
    ``obj["records"]`` and of ``obj["trace"]["spans"]``.  A list that is
    absent (or not a list) has no entry.  Raises ``ValueError`` when
    ``raw`` is not exactly one JSON object.
    """
    kept: Dict[str, List[bytes]] = {}
    try:
        text = raw.decode("ascii")
        idx = _skip(text, 0)
        if text[idx] != "{":
            raise ValueError(f"expected an object at offset {idx}")
        obj, idx = _object(raw, text, idx, lists, kept)
    except IndexError:
        raise ValueError(f"truncated at offset {len(raw)}") from None
    if text[idx:].strip(_WHITESPACE):
        raise ValueError(f"extra data at offset {idx}")
    return obj, kept
