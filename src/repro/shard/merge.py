"""Recombining per-shard artifacts into serial-identical output.

Inputs are the per-shard supervisor checkpoints (which already carry
each shard's records, trace, metrics, stats, and optional ledger); the
observability splice lives in :mod:`repro.obs.merge`.  This module adds
the crawl-level assembly:

- **records**: shards are contiguous population blocks, so plain
  concatenation in shard order *is* the serial visit order;
- **stats**: work counters sum; result counters are reconciled from the
  merged records exactly as the serial supervisor reconciles its own;
- **checkpoint**: a version-3 supervisor checkpoint is assembled from
  the merged parts -- loadable by a serial
  :class:`~repro.crawl.supervisor.CrawlSupervisor` to extend the crawl,
  and byte-identical to the final checkpoint the serial run writes;
- **canonical files**: ``crawl.trace.jsonl`` / ``crawl.ledger.jsonl`` /
  ``crawl.metrics.json`` / ``crawl.records.json`` next to the
  checkpoint, each in the byte-stable form the oracle tests diff
  against a serial run.

The checkpoint and the files share one canonical encoding per item: a
record's bytes are spliced verbatim from its shard checkpoint into both
the merged checkpoint and ``crawl.records.json``, and each rebased span
and ledger entry is encoded once, for the checkpoint and the export.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.crawl.crawler import CrawlResult
from repro.crawl.supervisor import SupervisorStats, read_snapshot, write_snapshot
from repro.crawl.visit import VisitRecord
from repro.jsontext import Encoded, dumps_ascii, encoded_list, encoded_object
from repro.obs.export import write_trace
from repro.obs.merge import (
    MergeError,
    merge_ledger_entries,
    merge_metrics_states,
    merge_spans,
    shard_durations,
)
from repro.obs.probes import LedgerEntry, write_ledger
from repro.obs.span import Span
from repro.shard.plan import ShardPlan
from repro.shard.worker import ShardRunSpec, shard_paths

#: Work counters summed across shards verbatim (result counters --
#: visits/reached/failed/resumed -- are reconciled from records).
_SUMMED_STATS = (
    "attempts",
    "retries",
    "recovered",
    "faults_seen",
    "recycles",
    "breaker_skips",
)


@dataclass(frozen=True)
class MergedArtifacts:
    """The merged crawl's on-disk artifacts."""

    checkpoint: Path
    trace: Path
    metrics: Path
    records: Path
    ledger: Optional[Path]


def _exact_sum(values: Sequence[float]) -> float:
    # A left fold, exactly like the serial clock's advance sequence; the
    # dyadic grid makes it exact, so the order spelled out here is
    # documentation more than necessity.
    total = 0.0
    for value in values:
        total += value
    return total


def merge_shards(
    out_dir: Union[str, Path],
    plan: ShardPlan,
    spec: ShardRunSpec,
    browser_states: Sequence[Dict[str, int]],
) -> "MergedCrawl":
    """Merge every shard's checkpoint into serial-identical artifacts.

    ``browser_states`` is the full-crawl exit state (the executor's fold
    of all shard fault logs) -- what the serial supervisor's browsers
    would hold at crawl end.
    """
    out_dir = Path(out_dir)
    # Each shard's payload is turned into objects as it is read and then
    # dropped: the parsed dicts of every shard at once would be the
    # merge's peak memory.
    shard_spans: List[List[Span]] = []
    shard_entries: List[List[LedgerEntry]] = []
    metrics_states: List[Dict[str, Any]] = []
    records: List[VisitRecord] = []
    record_json: List[bytes] = []
    stats = SupervisorStats()
    for shard in plan.shards:
        checkpoint = shard_paths(out_dir, shard.index).checkpoint
        if not checkpoint.exists():
            raise MergeError(
                f"shard {shard.index}: no checkpoint at {checkpoint}; "
                "merge requires a fully-executed plan"
            )
        payload, items = read_snapshot(checkpoint.read_bytes(), checkpoint)
        shard_spans.append(list(map(Span.from_dict, payload["trace"]["spans"])))
        if spec.ledger:
            shard_entries.append(
                list(map(LedgerEntry.from_dict, payload["ledger"]["entries"]))
            )
        metrics_states.append(payload["metrics"])
        records.extend(map(VisitRecord.from_dict, payload["records"]))
        record_json.extend(items["records"])
        for name in _SUMMED_STATS:
            setattr(
                stats, name, getattr(stats, name) + int(payload["stats"][name])
            )

    durations = shard_durations(shard_spans)
    merged_spans = merge_spans(shard_spans)
    clock_ms = _exact_sum(durations)
    metrics_state = merge_metrics_states(metrics_states)
    stats.visits = len(records)
    stats.reached = sum(1 for record in records if record.reached)
    stats.failed = stats.visits - stats.reached
    stats.resumed = 0

    merged_ledger: Optional[List[LedgerEntry]] = None
    ledger_state: Optional[Encoded] = None
    if spec.ledger:
        merged_ledger = merge_ledger_entries(shard_entries, durations)
        ledger_state = encoded_object(
            (
                ("next_id", len(merged_ledger) + 1),
                ("scopes", []),
                (
                    "entries",
                    encoded_list(entry.checkpoint_json() for entry in merged_ledger),
                ),
            )
        )

    records_json = encoded_list(record_json)
    metrics_json = dumps_ascii(metrics_state)
    checkpoint_path = out_dir / "crawl.ckpt.json"
    write_snapshot(
        checkpoint_path,
        crawler_name=spec.crawler_name,
        seed=spec.seed,
        instances=spec.instances,
        clock_ms=clock_ms,
        stats=asdict(stats),
        browsers=[dict(state) for state in browser_states],
        trace=encoded_object(
            (
                ("next_id", len(merged_spans) + 1),
                ("open", []),
                ("spans", encoded_list(s.checkpoint_json() for s in merged_spans)),
            )
        ),
        metrics=Encoded([metrics_json]),
        records=records_json,
        ledger=ledger_state,
    )

    trace_path = write_trace(out_dir / "crawl.trace.jsonl", merged_spans)
    metrics_path = out_dir / "crawl.metrics.json"
    metrics_path.write_bytes(metrics_json + b"\n")
    records_path = out_dir / "crawl.records.json"
    records_path.write_bytes(b"".join([*records_json.parts, b"\n"]))
    ledger_path: Optional[Path] = None
    if merged_ledger is not None:
        ledger_path = write_ledger(out_dir / "crawl.ledger.jsonl", merged_ledger)

    result = CrawlResult(crawler_name=spec.crawler_name, records=records)
    return MergedCrawl(
        result=result,
        stats=stats,
        clock_ms=clock_ms,
        artifacts=MergedArtifacts(
            checkpoint=checkpoint_path,
            trace=trace_path,
            metrics=metrics_path,
            records=records_path,
            ledger=ledger_path,
        ),
    )


@dataclass
class MergedCrawl:
    """The merged crawl: result, stats, and artifact locations."""

    result: CrawlResult
    stats: SupervisorStats
    clock_ms: float
    artifacts: MergedArtifacts
