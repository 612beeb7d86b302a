"""Saving and loading model parameters (JSON).

Calibrated parameters (Appendix E's workflow) are worth keeping: a study
fits them once from recorded subjects and ships them with the crawler
configuration.  These helpers serialise every parameter dataclass --
HLISA's four model-parameter sets and the human profile -- to a single
JSON document and back.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Type, TypeVar

from repro.canonical import canonical_dumps_pretty
from repro.humans.profile import HumanProfile
from repro.models.bezier import TrajectoryParams
from repro.models.clicks import ClickParams
from repro.models.scroll_cadence import ScrollParams
from repro.models.typing_rhythm import TypingParams

_FORMAT = "repro-params-v1"

#: section name -> dataclass type.
_SECTIONS: Dict[str, type] = {
    "trajectory": TrajectoryParams,
    "clicks": ClickParams,
    "typing": TypingParams,
    "scroll": ScrollParams,
    "human_profile": HumanProfile,
}

T = TypeVar("T")


def _to_plain(value: Any) -> Any:
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def dumps_params(
    *,
    trajectory: Optional[TrajectoryParams] = None,
    clicks: Optional[ClickParams] = None,
    typing: Optional[TypingParams] = None,
    scroll: Optional[ScrollParams] = None,
    human_profile: Optional[HumanProfile] = None,
) -> str:
    """Serialise any subset of parameter sets to JSON."""
    payload: Dict[str, Any] = {"format": _FORMAT}
    values = {
        "trajectory": trajectory,
        "clicks": clicks,
        "typing": typing,
        "scroll": scroll,
        "human_profile": human_profile,
    }
    for section, value in values.items():
        if value is None:
            continue
        expected = _SECTIONS[section]
        if not isinstance(value, expected):
            raise TypeError(f"{section} must be a {expected.__name__}")
        payload[section] = {
            f.name: _to_plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return canonical_dumps_pretty(payload)


def loads_params(payload: str) -> Dict[str, Any]:
    """Load a parameter document back into dataclass instances.

    Returns a dict with whichever sections the document contains.
    Unknown sections or fields raise ``ValueError`` (a corrupted or
    newer-format file must not silently half-load).
    """
    data = json.loads(payload)
    if data.get("format") != _FORMAT:
        raise ValueError("not a repro parameter document")
    result: Dict[str, Any] = {}
    for section, fields in data.items():
        if section == "format":
            continue
        cls = _SECTIONS.get(section)
        if cls is None:
            raise ValueError(f"unknown parameter section {section!r}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(fields) - known
        if unknown:
            raise ValueError(f"unknown fields in {section}: {sorted(unknown)}")
        result[section] = cls(**fields)
    return result


def save_params(path: str, **sections: Any) -> None:
    """Write a parameter document to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_params(**sections))


def load_params(path: str) -> Dict[str, Any]:
    """Read a parameter document from ``path``."""
    with open(path, encoding="utf-8") as handle:
        return loads_params(handle.read())
