"""Canonical JSON, defined in one place, and the checkpoint built on it.

Canonical JSON (:mod:`repro.canonical`) is checked against literal
``json.dumps`` oracles; the version-3 checkpoint snapshot
(:func:`repro.crawl.supervisor.write_snapshot`) against
``canonical_dumps`` of its payload and its atomic write; the splicing it
is written with and the reader it is read back with
(:mod:`repro.jsontext`) against ``canonical_dumps`` of the same value.
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
from repro.jsontext import (
    Encoded,
    dumps_ascii,
    encoded_list,
    encoded_object,
    read_object,
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
    def test_snapshot_is_canonical_json_of_its_payload(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        # Keyword order of the call must not matter: keys are sorted.
        fields = dict(reversed(list(SNAPSHOT_FIELDS.items())))
        length = write_snapshot(path, **fields)
        raw = path.read_bytes()
        assert length == len(raw)
        assert not raw.endswith(b"\n")
        data = json.loads(raw)
        assert list(data) == sorted(SNAPSHOT_KEYS)
        assert data["version"] == CHECKPOINT_VERSION == 3
        assert raw.decode() == canonical_dumps(
            {"version": CHECKPOINT_VERSION, **SNAPSHOT_FIELDS}
        )

    def test_ledger_is_written_only_when_given(self, tmp_path):
        without = tmp_path / "without.json"
        with_ledger = tmp_path / "with.json"
        write_snapshot(without, **SNAPSHOT_FIELDS)
        write_snapshot(with_ledger, ledger={"entries": [1]}, **SNAPSHOT_FIELDS)
        assert "ledger" not in json.loads(without.read_bytes())
        assert list(json.loads(with_ledger.read_bytes())) == sorted(
            SNAPSHOT_KEYS + ["ledger"]
        )
        assert with_ledger.read_text() == canonical_dumps(
            {
                "version": CHECKPOINT_VERSION,
                "ledger": {"entries": [1]},
                **SNAPSHOT_FIELDS,
            }
        )

    def test_replaces_atomically_and_reads_back_as_a_journal_head(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text("stale journal\n{}")
        write_snapshot(path, **SNAPSHOT_FIELDS)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.json"]
        head, segments, end = _parse_journal(path.read_bytes())
        assert segments == []
        assert end == len(head) == path.stat().st_size
        assert json.loads(head)["records"] == SNAPSHOT_FIELDS["records"]


class TestSplice:
    @pytest.mark.parametrize(
        "items",
        [[], [1], [VALUE, "caf\u00e9 \"q\"", 0.1 + 0.2, 1e16, None]],
        ids=["empty", "one", "mixed"],
    )
    def test_list_matches_canonical_dumps(self, items):
        spliced = encoded_list(dumps_ascii(item) for item in items)
        assert spliced.data == canonical_dumps(items).encode()

    @pytest.mark.parametrize("value", [{}, VALUE], ids=["empty", "nested"])
    def test_object_matches_canonical_dumps(self, value):
        # Values may be plain, or already encoded at any depth; the
        # fields arrive in insertion order and leave sorted.
        fields = [(key, Encoded([dumps_ascii(item)])) for key, item in value.items()]
        assert encoded_object(fields).data == canonical_dumps(value).encode()
        assert encoded_object(value.items()).data == canonical_dumps(value).encode()


ODD_ITEMS = [
    [[1, [2, [3, []]]], [], {"k": []}],
    [],
    ["caf\u00e9 \u2603", {"\u00fc": "\u00df"}],
    ['say "hi"', "back\\slash", "tab\t and \n newline", "\\\"", ""],
    [0.1 + 0.2, 1e16, 1e-7, -0.0, 3, -17, 2.5, None, True, False],
    [{"b": [1.5, {"d": None, "c": "x"}], "a": {}}, {}],
]
LISTS = {"records": "records", "trace": {"spans": "spans"}}


class TestReader:
    """:func:`repro.jsontext.read_object` returns each kept item's bytes,
    and in canonical text each is ``canonical_dumps`` of its value."""

    @pytest.mark.parametrize(
        "items",
        ODD_ITEMS,
        ids=["nested-lists", "empty", "non-ascii", "quotes-backslashes",
             "numbers", "objects"],
    )
    def test_every_slice_is_canonical_dumps_of_its_value(self, items):
        value = {"version": 3, "records": items, "trace": {"spans": items[::-1]}}
        raw = canonical_dumps(value).encode()
        obj, kept = read_object(raw, LISTS)
        assert obj == json.loads(raw)
        assert list(kept) == ["records", "spans"]
        assert kept["records"] == [canonical_dumps(v).encode() for v in items]
        assert kept["spans"] == [canonical_dumps(v).encode() for v in items[::-1]]
        for data, parsed in zip(kept["records"], obj["records"]):
            assert data == canonical_dumps(parsed).encode()

    def test_other_forms_parse_and_lists_elsewhere_are_not_kept(self):
        value = {"trace": None, "other": {"records": [1]}, "records": [[1, 2], {}]}
        # json.dumps' default separators: the version-2 checkpoint form.
        raw = json.dumps(value).encode()
        obj, kept = read_object(raw, LISTS)
        assert obj == value
        assert kept == {"records": [b"[1, 2]", b"{}"]}
        obj, kept = read_object(b" " + json.dumps(value, indent=1).encode(), LISTS)
        assert obj == value and len(kept["records"]) == 2
        # A repeated key keeps the last value, as json.loads does.
        obj, kept = read_object(b'{"records":[1,2],"records":[3]}', LISTS)
        assert obj == {"records": [3]} and kept == {"records": [b"3"]}

    @pytest.mark.parametrize(
        "raw",
        [b"", b" ", b"{", b'{"records": [1,', b'{"a": 1}x', b"[1]", b'{"a" 1}',
         b'{"\xc3\xa9": 1}', b'{"a": 1,}'],
    )
    def test_anything_but_one_object_is_a_value_error(self, raw):
        with pytest.raises(ValueError):
            read_object(raw, LISTS)
