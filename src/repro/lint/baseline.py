"""Committed JSON baseline for grandfathered findings.

A baseline lets the linter gate *new* violations while old ones are paid
down incrementally: findings whose fingerprint appears in the baseline
are reported as "baselined" and do not fail the run.

Fingerprints are content-addressed, not line-addressed: the hash covers
(rule id, file path, stripped source line, occurrence index among
identical lines in that file).  Edits elsewhere in a file shift line
numbers without invalidating its baseline entries; editing the offending
line itself -- including fixing it -- does invalidate the entry, which
is exactly the behaviour a ratchet needs.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List

from repro.canonical import canonical_dumps_pretty
from repro.lint.findings import Finding

BASELINE_VERSION = 1

#: Default baseline filename, looked up relative to the lint root.
DEFAULT_BASELINE_NAME = "lint-baseline.json"


def fingerprint(rule: str, path: str, snippet: str, occurrence: int) -> str:
    payload = "\0".join((rule, path, snippet, str(occurrence)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def fingerprint_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Attach fingerprints; occurrence indices disambiguate duplicates.

    Callers must pass findings of one file in report order so occurrence
    numbering is stable.
    """
    counts: Counter = Counter()
    out: List[Finding] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.snippet)
        occurrence = counts[key]
        counts[key] += 1
        out.append(
            Finding(
                rule=finding.rule,
                path=finding.path,
                line=finding.line,
                col=finding.col,
                message=finding.message,
                snippet=finding.snippet,
                severity=finding.severity,
                fingerprint=fingerprint(
                    finding.rule, finding.path, finding.snippet, occurrence
                ),
            )
        )
    return out


class Baseline:
    """The set of grandfathered fingerprints."""

    def __init__(self, entries: Dict[str, Dict[str, object]]) -> None:
        self.entries = entries

    @classmethod
    def empty(cls) -> "Baseline":
        return cls({})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("version") != BASELINE_VERSION:
            raise ValueError(f"unsupported baseline version in {path}")
        return cls(dict(data.get("findings", {})))

    def __contains__(self, fp: str) -> bool:
        return fp in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def write(
        path: Path,
        findings: Iterable[Finding],
        previous: "Baseline" = None,
    ) -> None:
        """Serialise ``findings`` as the new baseline (sorted, stable).

        ``previous`` carries hand-written ``justification`` fields over:
        an entry whose fingerprint survives the rewrite keeps its
        justification, so re-running ``--write-baseline`` never erases
        the documented rationale for grandfathered findings.
        """
        entries = {}
        for f in sorted(findings, key=Finding.sort_key):
            entry = {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "snippet": f.snippet,
            }
            if previous is not None:
                old = previous.entries.get(f.fingerprint, {})
                if "justification" in old:
                    entry["justification"] = old["justification"]
            entries[f.fingerprint] = entry
        payload = {"version": BASELINE_VERSION, "findings": entries}
        path.write_text(
            canonical_dumps_pretty(payload) + "\n",
            encoding="utf-8",
        )
