"""The two serialisation formats, each defined in one place.

Canonical JSON (:mod:`repro.canonical`) is checked against literal
``json.dumps`` oracles; the version-2 checkpoint snapshot
(:func:`repro.crawl.supervisor.write_snapshot`) against its fixed key
order and its atomic write.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro.canonical as canonical_module
from repro.canonical import canonical_dumps, canonical_dumps_pretty
from repro.crawl.supervisor import (
    CHECKPOINT_VERSION,
    _parse_journal,
    write_snapshot,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

VALUE = {
    "zeta": [3, {"b": 2.5, "a": None}],
    "alpha": {"y": "ü", "x": [True, False]},
    "mid": 1,
}


class TestCanonicalJson:
    def test_compact_matches_literal_oracle(self):
        expected = json.dumps(VALUE, sort_keys=True, separators=(",", ":"))
        assert canonical_dumps(VALUE) == expected
        assert "\n" not in canonical_dumps(VALUE)
        assert " " not in canonical_dumps(VALUE)

    def test_pretty_matches_literal_oracle(self):
        expected = json.dumps(VALUE, sort_keys=True, indent=2)
        assert canonical_dumps_pretty(VALUE) == expected
        assert not canonical_dumps_pretty(VALUE).endswith("\n")

    @pytest.mark.parametrize("dumps", (canonical_dumps, canonical_dumps_pretty))
    def test_insertion_order_does_not_reach_the_bytes(self, dumps):
        reordered = {key: VALUE[key] for key in reversed(list(VALUE))}
        reordered["zeta"] = [3, {"a": None, "b": 2.5}]
        assert list(reordered) != list(VALUE)
        assert dumps(reordered) == dumps(VALUE)
        assert json.loads(dumps(VALUE)) == VALUE

    @pytest.mark.parametrize("dumps", (canonical_dumps, canonical_dumps_pretty))
    def test_encodes_through_json_dumps(self, dumps, monkeypatch):
        # Tracing wraps the module's json.dumps to count encodes; both
        # forms must go through it.
        calls = []
        real = json.dumps

        def counting(*args, **kwargs):
            calls.append(kwargs.get("sort_keys"))
            return real(*args, **kwargs)

        monkeypatch.setattr(canonical_module.json, "dumps", counting)
        dumps(VALUE)
        assert calls == [True]

    def test_sort_keys_is_spelled_only_in_the_canonical_module(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            if path.name != "canonical.py" and "sort_keys" in text:
                offenders.append(str(path.relative_to(REPO_ROOT)))
            if re.search(r"^\s*_SEPARATORS\s*=", text, re.MULTILINE):
                offenders.append(f"{path.relative_to(REPO_ROOT)}: _SEPARATORS")
        assert offenders == []


SNAPSHOT_FIELDS = dict(
    crawler_name="openwpm",
    seed=7,
    instances=2,
    clock_ms=1234.5,
    stats={"visits": 3, "attempts": 4},
    browsers=[{"visits": 2}, {"visits": 1}],
    trace={"spans": []},
    metrics={"counters": {}},
    records=[{"site": "a.example", "ok": True}],
)

SNAPSHOT_KEYS = [
    "version",
    "crawler_name",
    "seed",
    "instances",
    "clock_ms",
    "stats",
    "browsers",
    "trace",
    "metrics",
    "records",
]


class TestSnapshot:
    def test_key_order_is_the_format(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        # Keyword order of the call must not matter, only the format's.
        fields = dict(reversed(list(SNAPSHOT_FIELDS.items())))
        length = write_snapshot(path, **fields)
        raw = path.read_bytes()
        assert length == len(raw)
        assert not raw.endswith(b"\n")
        data = json.loads(raw)
        assert list(data) == SNAPSHOT_KEYS
        assert data["version"] == CHECKPOINT_VERSION
        assert raw.decode() == json.dumps(
            {"version": CHECKPOINT_VERSION, **SNAPSHOT_FIELDS}
        )

    def test_ledger_is_written_last_and_only_when_given(self, tmp_path):
        without = tmp_path / "without.json"
        with_ledger = tmp_path / "with.json"
        write_snapshot(without, **SNAPSHOT_FIELDS)
        write_snapshot(with_ledger, ledger={"entries": [1]}, **SNAPSHOT_FIELDS)
        assert "ledger" not in json.loads(without.read_bytes())
        assert list(json.loads(with_ledger.read_bytes())) == SNAPSHOT_KEYS + [
            "ledger"
        ]

    def test_replaces_atomically_and_reads_back_as_a_journal_head(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("stale journal\n{}")
        write_snapshot(path, **SNAPSHOT_FIELDS)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]
        head, segments, end = _parse_journal(path.read_bytes())
        assert segments == []
        assert end == len(head) == path.stat().st_size
        assert json.loads(head)["records"] == SNAPSHOT_FIELDS["records"]
