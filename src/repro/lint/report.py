"""Text, JSON and SARIF reporters.

All renderers are pure functions of the :class:`LintReport`, with no
timestamps, absolute paths, or machine state, so two runs over the same
tree -- serial or parallel -- render byte-identical output.
"""

from __future__ import annotations

from typing import Dict, List

from repro.canonical import canonical_dumps_pretty
from repro.lint.context import scope_components
from repro.lint.findings import Finding
from repro.lint.registry import rules_by_family
from repro.lint.runner import LintReport

REPORT_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "repro-lint"


def render_text(report: LintReport) -> str:
    lines = []
    for finding in report.new_findings:
        lines.append(finding.render())
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    summary = (
        f"{len(report.new_findings)} finding(s) in {report.files} file(s)"
        f" ({len(report.baselined)} baselined, {report.suppressed} suppressed)"
    )
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(report: LintReport) -> str:
    payload = {
        "version": REPORT_VERSION,
        "files": report.files,
        "findings": [f.to_dict() for f in report.new_findings],
        "baselined": [f.to_dict() for f in report.baselined],
        "suppressed": report.suppressed,
    }
    return canonical_dumps_pretty(payload) + "\n"


def _sarif_level(severity: str) -> str:
    return {"error": "error", "warning": "warning"}.get(severity, "note")


def _sarif_result(finding: Finding, baselined: bool) -> Dict[str, object]:
    result: Dict[str, object] = {
        "ruleId": finding.rule,
        "level": _sarif_level(finding.severity),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                }
            }
        ],
        "partialFingerprints": {"reproLint/v1": finding.fingerprint},
    }
    if baselined:
        result["suppressions"] = [{"kind": "external"}]
    return result


def render_sarif(report: LintReport) -> str:
    """Minimal SARIF 2.1.0: one run, every rule described, baselined
    findings carried as externally suppressed results."""
    rules = []
    grouped = rules_by_family()
    for family in sorted(grouped):
        for rule in sorted(grouped[family], key=lambda r: r.id):
            rules.append(
                {
                    "id": rule.id,
                    "name": rule.name,
                    "shortDescription": {"text": rule.name},
                    "fullDescription": {"text": rule.rationale},
                    "defaultConfiguration": {
                        "level": _sarif_level(rule.severity)
                    },
                }
            )
    results = [_sarif_result(f, baselined=False) for f in report.new_findings]
    results += [_sarif_result(f, baselined=True) for f in report.baselined]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "informationUri": "docs/LINT.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return canonical_dumps_pretty(payload) + "\n"


def _scope_label(rule) -> str:
    """Human-readable path scope for one rule line."""
    if getattr(rule, "whole_program", False):
        return "whole-program"
    if rule.scope is None:
        return "all paths"
    components = ", ".join(scope_components(rule.scope))
    return f"{rule.scope} paths ({components})"


def render_rules() -> str:
    """``--list-rules``: rules grouped by family, with path scopes."""
    lines: List[str] = []
    grouped = rules_by_family()
    for family in sorted(grouped):
        lines.append(f"{family}:")
        for rule in sorted(grouped[family], key=lambda r: r.id):
            lines.append(
                f"  {rule.id}  [{_scope_label(rule)}]  {rule.name}"
            )
            lines.append(f"        {rule.rationale}")
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
