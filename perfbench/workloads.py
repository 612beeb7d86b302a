"""The benchmark's workloads: inputs from a seed, timed runs, output oracles.

Every workload drives the program only through public entry points and
hands it only the inputs generated here.  A workload object has five
steps, which the runner calls in this order:

- ``setup()`` -- generate the inputs and build what a user builds before
  the first run (timed as part of ``setup_s``);
- ``oracle()`` -- compute the reference outputs once per seed (untimed);
- ``prepare()`` -- reset files and objects for the next run (untimed);
- ``run()`` -- one timed unit of work;
- ``check(output)`` -- compare one run's outputs with the oracle
  (untimed); returns ``(attempted, failures)``.

See ``README.md`` next to this file for why each workload exists and
which layers and metrics it is meant to move.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from repro.crawl import PopulationConfig, generate_population, visit_coverage
from repro.detection import DetectionLevel, DetectorBattery
from repro.experiment import BrowsingScenario, HLISAAgent, HumanAgent, SeleniumAgent
from repro.faults import FaultPlan
from repro.humans import HumanProfile
from repro.obs import trace_to_jsonl
from repro.shard import ShardRunSpec, build_supervisor, run_sharded_crawl

# Bound at import, before the traced run can wrap ``json.dumps``: oracle
# encoding is the benchmark's work, not the program's.
_DUMPS = json.dumps
_LOADS = json.loads

#: What a fresh process imports before it can run the workload (the
#: import part of ``setup_s``).
CRAWL_MODULES = ("repro.crawl", "repro.faults", "repro.obs", "repro.shard")
INTERACTION_MODULES = ("repro.experiment", "repro.detection", "repro.humans")

FAULT_RATE = 0.05
CRAWLER_NAME = "OpenWPM"

# Seed streams: every input is derived from the one benchmark seed.
_POPULATION, _FAULTS, _CRAWLER, _VISIT = 1, 2, 3, 4


def derive(seed: int, *stream: int) -> int:
    """A 32-bit seed for one input, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is the measured size, ``SMOKE`` the tiny
    one the benchmark's own tests use.

    ``FULL`` crawls 500 sites x 8 instances (4,000 visits), in shards of
    50 (``run_sharded_crawl``'s default, so 10 shards).  The production
    crawl is 1,000 sites x 8, but on a 2-core host one checkpointed
    1,000-site crawl takes about 37 s, which leaves no room for repeated
    runs in the benchmark's time budget (see ``README.md``).
    """

    sites: int
    instances: int
    shard_size: int
    clicks: int
    population: Dict[str, int] = field(default_factory=dict)


FULL = Scale(sites=500, instances=8, shard_size=50, clicks=45)
#: Below ~60 sites the default special-detector counts do not fit.
SMOKE = Scale(
    sites=24,
    instances=2,
    shard_size=8,
    clicks=15,
    population=dict(
        n_no_ads_detectors=0,
        n_less_ads_detectors=0,
        n_block_detectors=1,
        n_captcha_detectors=0,
        n_freeze_video_detectors=0,
        n_other_signal_ad_detectors=0,
        n_side_effect_blockers=0,
        n_http_only_detectors=1,
    ),
)


# -- output oracles --------------------------------------------------------


def canonical(payload) -> bytes:
    return _DUMPS(payload, sort_keys=True, separators=(",", ":")).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def crawl_artifacts(records, metrics_state, trace: bytes) -> Dict[str, bytes]:
    """The byte forms of a crawl's records, metrics and exported trace."""
    return {
        "records": canonical([record.to_dict() for record in records]),
        "metrics": canonical(metrics_state),
        "trace": trace,
    }


def check_artifacts(expected: Dict[str, str], artifacts: Dict[str, bytes]) -> List[str]:
    """Names of the artifacts whose sha256 differs from the oracle's."""
    return [
        name for name, data in sorted(artifacts.items()) if digest(data) != expected[name]
    ]


@dataclass
class RunOutput:
    """One timed run's outputs, kept until ``check`` has looked at them."""

    visits: int
    coverage: float
    retries: int = 0
    recycles: int = 0
    plan_shards: int = 0
    #: Wall time of each visit (interaction study only).
    visit_ms: List[float] = field(default_factory=list)
    #: ``(agent, level, flagged, events recorded)`` per visit
    #: (interaction study only).
    verdicts: List[Tuple[str, int, bool, int]] = field(default_factory=list)
    #: Builds the artifacts to compare (crawls only; called untimed).
    artifacts: object = None
    #: Extra invariants, name -> holds (crawls only).
    invariants: Dict[str, bool] = field(default_factory=dict)


# -- crawls ----------------------------------------------------------------


class CrawlWorkload:
    """A supervised crawl of one seeded population with a 5% fault plan."""

    modules = CRAWL_MODULES
    per_visit_samples = False

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = Path(workdir)

    def setup(self) -> Dict[str, float]:
        scale = self.scale
        start = perf_counter()
        self.population = generate_population(
            PopulationConfig(
                n_sites=scale.sites,
                seed=derive(self.seed, _POPULATION),
                **scale.population,
            )
        )
        generate_s = perf_counter() - start
        self.plan = FaultPlan.generate(
            self.population,
            scale.instances,
            rate=FAULT_RATE,
            seed=derive(self.seed, _FAULTS),
        )
        self.spec = ShardRunSpec(
            crawler_name=CRAWLER_NAME,
            seed=derive(self.seed, _CRAWLER),
            instances=scale.instances,
            fault_plan=self.plan,
        )
        self.prepare()
        return {"generate_s": generate_s}

    def prepare(self) -> None:
        self.supervisor = build_supervisor(self.spec)

    def oracle(self) -> None:
        """An uninterrupted serial crawl with trace export."""
        supervisor = build_supervisor(self.spec)
        path = self.workdir / "oracle.trace.jsonl"
        result = supervisor.crawl(self.population, trace_path=path)
        artifacts = crawl_artifacts(
            result.records, supervisor.metrics.state_dict(), path.read_bytes()
        )
        self.expected = {name: digest(data) for name, data in artifacts.items()}
        path.unlink()

    def _output(self, result, stats, artifacts, **extra) -> RunOutput:
        return RunOutput(
            visits=len(self.population) * self.scale.instances,
            coverage=visit_coverage(result, self.population, self.scale.instances),
            retries=stats.retries,
            recycles=stats.recycles,
            artifacts=artifacts,
            **extra,
        )

    def check(self, output: RunOutput) -> Tuple[int, List[str]]:
        wrong = check_artifacts(self.expected, output.artifacts())
        wrong += [name for name, holds in sorted(output.invariants.items()) if not holds]
        return 1, ["run: " + ", ".join(wrong)] if wrong else []


class CrawlPlain(CrawlWorkload):
    """Serial crawl, in-memory tracer, no checkpoint, no export."""

    name = "crawl-plain"

    def run(self) -> RunOutput:
        supervisor = self.supervisor
        result = supervisor.crawl(self.population)
        return self._output(
            result,
            supervisor.stats,
            lambda: crawl_artifacts(
                result.records,
                supervisor.metrics.state_dict(),
                trace_to_jsonl(supervisor.tracer.spans).encode(),
            ),
        )


class CrawlCheckpointed(CrawlWorkload):
    """Checkpointed crawl with trace export, interrupted once at the
    middle site boundary and resumed by a fresh supervisor."""

    name = "crawl-checkpointed"

    def prepare(self) -> None:
        self.checkpoint = self.workdir / "crawl.ckpt.json"
        self.trace = self.workdir / "crawl.trace.jsonl"
        for path in (self.checkpoint, self.trace):
            if path.exists():
                path.unlink()
        super().prepare()

    def run(self) -> RunOutput:
        cut = len(self.population) // 2
        self.supervisor.crawl(self.population[:cut], checkpoint_path=self.checkpoint)
        resumed = build_supervisor(self.spec)
        result = resumed.crawl(
            self.population, checkpoint_path=self.checkpoint, trace_path=self.trace
        )
        return self._output(
            result,
            resumed.stats,
            lambda: crawl_artifacts(
                result.records, resumed.metrics.state_dict(), self.trace.read_bytes()
            ),
            invariants={"resumed": resumed.stats.resumed == cut * self.scale.instances},
        )


class CrawlSharded(CrawlWorkload):
    """The checkpointed crawl's population through ``run_sharded_crawl``."""

    name = "crawl-sharded"

    def prepare(self) -> None:
        self.out_dir = self.workdir / "sharded"
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self) -> RunOutput:
        spec = self.spec
        outcome = run_sharded_crawl(
            self.population,
            out_dir=self.out_dir,
            crawler_name=spec.crawler_name,
            seed=spec.seed,
            instances=spec.instances,
            fault_plan=spec.fault_plan,
            shard_size=self.scale.shard_size,
            jobs=min(2, len(os.sched_getaffinity(0))),
        )
        merged = outcome.artifacts
        return self._output(
            outcome.result,
            outcome.stats,
            lambda: crawl_artifacts(
                outcome.result.records,
                _LOADS(merged.metrics.read_text()),
                merged.trace.read_bytes(),
            ),
            plan_shards=len(outcome.plan),
            invariants={"complete": outcome.complete},
        )


# -- the interaction study -------------------------------------------------

AGENTS = ("hlisa", "selenium", "human")
LEVELS = (DetectionLevel.ARTIFICIAL, DetectionLevel.DEVIATION, DetectionLevel.CONSISTENCY)


def make_agent(kind: str, seed: int):
    if kind == "hlisa":
        return HLISAAgent(seed=seed)
    if kind == "selenium":
        return SeleniumAgent()
    return HumanAgent(HumanProfile(seed=seed))


def visit_failures(kind: str, level: int, flagged: bool, events: int) -> List[str]:
    """The study's oracle: every visit records events, Selenium is
    flagged at every level, HLISA at neither L1 nor L2 (the paper's
    Section 5 result)."""
    failures = [] if events else ["no events recorded"]
    if kind == "selenium" and not flagged:
        failures.append(f"selenium not flagged at L{level}")
    if kind == "hlisa" and level <= DetectionLevel.DEVIATION and flagged:
        failures.append(f"hlisa flagged at L{level}")
    return failures


class InteractionStudy:
    """Behavioural visits: one ``BrowsingScenario`` per visit, judged by
    one site battery.  A run is one cycle of every agent at every level.
    Each visit of the cycle has its own seed, derived from the benchmark
    seed and its place in the cycle, so every run carries the same work,
    however many runs fit in the measured time."""

    name = "interaction-study"
    modules = INTERACTION_MODULES
    per_visit_samples = True

    def __init__(self, seed: int, scale: Scale, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale

    def setup(self) -> Dict[str, float]:
        self.batteries = {level: DetectorBattery(level) for level in LEVELS}
        self.visits = [
            (kind, level, derive(self.seed, _VISIT, position))
            for position, (kind, level) in enumerate(
                (kind, level) for kind in AGENTS for level in LEVELS
            )
        ]
        return {"generate_s": 0.0}

    def oracle(self) -> None:
        """The oracle is the fixed per-visit rule in ``visit_failures``."""

    def prepare(self) -> None:
        pass

    def run(self) -> RunOutput:
        visit_ms: List[float] = []
        verdicts: List[Tuple[str, int, bool, int]] = []
        for kind, level, seed in self.visits:
            start = perf_counter()
            agent = make_agent(kind, seed)
            recorder = BrowsingScenario(clicks=self.scale.clicks, seed=seed).run(
                agent
            ).recorder
            report = self.batteries[level].evaluate(recorder)
            visit_ms.append((perf_counter() - start) * 1_000.0)
            verdicts.append((kind, int(level), report.is_bot, len(recorder)))
        return RunOutput(
            visits=len(verdicts),
            coverage=sum(1 for *_, events in verdicts if events) / len(verdicts),
            visit_ms=visit_ms,
            verdicts=verdicts,
        )

    def check(self, output: RunOutput) -> Tuple[int, List[str]]:
        failures = []
        for index, verdict in enumerate(output.verdicts):
            wrong = visit_failures(*verdict)
            if wrong:
                failures.append(f"visit {index} ({verdict[0]}): " + ", ".join(wrong))
        return output.visits, failures


WORKLOADS = {
    cls.name: cls
    for cls in (CrawlPlain, CrawlCheckpointed, CrawlSharded, InteractionStudy)
}


def evasion_rate(verdicts) -> float:
    """HLISA visits not flagged by the L1/L2 batteries."""
    judged = [
        flagged
        for kind, level, flagged, _ in verdicts
        if kind == "hlisa" and level <= DetectionLevel.DEVIATION
    ]
    return judged.count(False) / len(judged)
