"""The sharded-crawl resume manifest.

``manifest.json`` in the output directory records what the executor
knows: the plan it is executing (digest, shard ids, population digest),
the run spec fingerprint, and -- per completed shard -- the meta record
:func:`repro.shard.worker.run_shard` returned (duration + fault log).

Resume contract (see ``docs/SHARDING.md``):

- a shard **absent** from the manifest has not completed; re-running it
  picks up any mid-shard supervisor checkpoint on disk;
- a shard **present** is complete; the executor re-runs it only if the
  fixpoint pass finds its recycle triggers diverge from the true serial
  entry state (:mod:`repro.shard.state`);
- a manifest whose plan digest or spec fingerprint does not match the
  requested run is an error, never silently reused.

Writes are atomic (tmp + replace), matching the supervisor's checkpoint
discipline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.canonical import canonical_dumps
from repro.faults.plan import FaultPlan
from repro.shard.plan import ShardPlan
from repro.shard.state import FaultLogEntry
from repro.shard.worker import ShardRunSpec

#: Version 2: the shard checkpoints beside the manifest are checkpoint
#: version 3 (canonical JSON).  A version-1 directory holds version-2
#: shard checkpoints, which the merge cannot read, so it is refused here,
#: before any shard runs.
MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"


class ManifestError(ValueError):
    """Raised when a manifest cannot serve the requested run."""


def schedule_digest(plan: FaultPlan) -> str:
    """sha256 of the plan's schedule, sorted by (domain, visit).

    The schedule is not a function of (seed, rate) alone: the fault
    types and ``max_attempts_affected`` a plan was generated with change
    it too, so the fingerprint pins the schedule itself.
    """
    entries = sorted(
        [s.domain, s.visit_index, s.fault_type.value, s.attempts_affected]
        for s in plan.schedule.values()
    )
    return hashlib.sha256(canonical_dumps(entries).encode()).hexdigest()


def spec_fingerprint(spec: ShardRunSpec) -> Dict[str, Any]:
    """The JSON-safe identity of a run spec.

    The fault plan is summarised by its seed, rate and
    :func:`schedule_digest`, which pins every entry without storing it.
    """
    plan = spec.fault_plan
    return {
        "crawler_name": spec.crawler_name,
        "seed": spec.seed,
        "instances": spec.instances,
        "with_extension": spec.with_extension,
        "config": asdict(spec.config),
        "fault_plan": (
            None
            if plan is None
            else {
                "seed": plan.seed,
                "rate": plan.rate,
                "schedule": schedule_digest(plan),
            }
        ),
        "ledger": spec.ledger,
        "watchdogs": spec.watchdogs,
    }


def decode_fault_log(raw: List[List[int]]) -> List[FaultLogEntry]:
    """Inverse of the ``fault_log`` wire form ``run_shard`` returns."""
    return [
        FaultLogEntry(int(browser), bool(fatal), bool(triggered))
        for browser, fatal, triggered in raw
    ]


@dataclass
class ShardManifest:
    """The executor's durable view of one sharded crawl."""

    path: Path
    data: Dict[str, Any]

    @classmethod
    def load_or_create(
        cls,
        out_dir: Union[str, Path],
        plan: ShardPlan,
        spec: ShardRunSpec,
    ) -> "ShardManifest":
        """Open the output directory's manifest, verifying it belongs to
        this plan and spec; create a fresh one if none exists."""
        path = Path(out_dir) / MANIFEST_NAME
        fingerprint = spec_fingerprint(spec)
        plan_record = {
            "digest": plan.digest,
            "seed": plan.seed,
            "shard_size": plan.shard_size,
            "shard_count": len(plan),
            "population_digest": plan.population_digest,
            "shard_ids": [shard.shard_id for shard in plan.shards],
        }
        if path.exists():
            data = json.loads(path.read_text())
            if data.get("version") != MANIFEST_VERSION:
                raise ManifestError(
                    f"unsupported manifest version in {path}"
                )
            if data.get("plan", {}).get("digest") != plan.digest:
                raise ManifestError(
                    f"{path} records a different shard plan; refusing to "
                    "mix outputs (use a fresh output directory)"
                )
            if data.get("spec") != fingerprint:
                raise ManifestError(
                    f"{path} records a different run spec; refusing to "
                    "mix outputs (use a fresh output directory)"
                )
            return cls(path=path, data=data)
        data = {
            "version": MANIFEST_VERSION,
            "plan": plan_record,
            "spec": fingerprint,
            "shards": {},
        }
        return cls(path=path, data=data)

    # -- per-shard records ----------------------------------------------

    def shard_meta(self, index: int) -> Optional[Dict[str, Any]]:
        """The recorded meta of shard ``index``, or None if incomplete."""
        return self.data["shards"].get(str(index))

    def record_shard(self, meta: Dict[str, Any]) -> None:
        """Record one completed shard's meta (``run_shard``'s result)."""
        self.data["shards"][str(meta["shard"])] = meta

    def completed(self) -> int:
        """How many shards have completed."""
        return len(self.data["shards"])

    def fault_log(self, index: int) -> List[FaultLogEntry]:
        """The recorded fault log of a completed shard."""
        meta = self.shard_meta(index)
        if meta is None:
            raise ManifestError(f"shard {index} has not completed")
        return decode_fault_log(meta["fault_log"])

    def save(self) -> None:
        """Atomically persist the manifest."""
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(canonical_dumps(self.data))
        tmp.replace(self.path)
