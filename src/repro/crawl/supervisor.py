"""The resilient crawl supervisor: retries, recycling, checkpointing.

:class:`CrawlSupervisor` wraps an :class:`~repro.crawl.crawler.
OpenWPMCrawler` with the recovery behaviour a real field study needs
(and the bare double loop lacks):

- **retry with exponential backoff** -- failed visits are retried up to
  a budget, with deterministic seeded jitter advancing the simulated
  clock (never the wall clock);
- **step budgets** -- hangs and page-load timeouts cost exactly the
  per-visit budget on the simulated timeline (the watchdog semantics);
- **browser recycling** -- a browser instance that accumulated too many
  faults (or died outright) is torn down and re-spawned: fresh
  :class:`~repro.browser.window.Window`, fresh driver, re-injected
  :class:`~repro.spoofing.extension.SpoofingExtension` -- matching
  OpenWPM's browser-restart semantics;
- **per-domain circuit breaker** -- a host that keeps failing is
  skipped instead of hammered;
- **checkpoint/resume** -- completed records are flushed at site
  boundaries to an append-only journal, so an interrupted crawl resumes
  without re-visiting completed (site, visit_index) pairs, and the
  resumed result is byte-identical to an uninterrupted run;
- **observability** -- every crawl builds a :mod:`repro.obs` span tree
  (crawl -> visit -> attempt -> WebDriver commands) with fault,
  backoff, recycle and breaker decisions as span events, plus a
  metrics registry; both are carried through checkpoints, so a resumed
  crawl's exported trace is byte-identical to an uninterrupted one's.

Determinism is the design constraint throughout: every visit attempt
draws from its own rng stream derived from ``(seed, rank, visit_index,
attempt)``, so outcomes are independent of execution order and survive
resumption.

The checkpoint file is a journal of newline-separated JSON lines, so a
flush costs what happened since the previous one, not the whole crawl:

- **head** -- the first line, a full version-2 snapshot.  The first
  flush of a fresh crawl writes it (atomically, via a temporary file);
  a resumed crawl takes whatever snapshot is already on disk as its
  head.
- **segments** -- every later flush appends one line: the records and
  finished spans (and probe-ledger entries) since the previous flush,
  plus the constant-size state -- clock, stats, browser states,
  metrics, the tracer's id counter and open spans.  Resume parses the
  head and replays the segments in order.
- **torn tail** -- an append cut short by a crash leaves a last line
  that does not parse.  Resume drops it, and the next append truncates
  the file back to the last whole line before writing.
- **crawl end** -- the final flush replaces the journal with one
  version-2 snapshot of the whole crawl, the same bytes a single full
  rewrite produces, so the shard merge and its serial oracle read it
  unchanged.  It is written one top-level field at a time, never as one
  string holding the whole crawl.

Every finished span, completed record and probe-ledger entry is
encoded to its checkpoint JSON once, the first time a flush needs it
(``checkpoint_json``); segments and snapshots splice those bytes
(:mod:`repro.jsontext`) instead of encoding the crawl again.  Nothing
is encoded unless the crawl has a checkpoint path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.browser.session import SimulatedBrowserSession
from repro.bus import (
    AttemptFinished,
    AttemptStarted,
    BrowserRecycled,
    BrowserRecycleRequested,
    EventBus,
    FaultObserved,
)
from repro.clock import VirtualClock
from repro.crawl.crawler import CrawlResult, OpenWPMCrawler
from repro.crawl.population import SiteConfig
from repro.crawl.visit import FailureReason, VisitRecord, simulate_visit
from repro.crawl.watchdogs import default_watchdogs
from repro.detection.fingerprint import _reference_navigator
from repro.faults.plan import FaultInjector, FaultPlan
from repro.faults.recovery import BackoffPolicy, BreakerState, CircuitBreaker
from repro.faults.types import FaultError
from repro.jsontext import Encoded, encoded_list, encoded_object, object_chunks
from repro.obs import CrawlReport, Tracer, build_report, write_trace
from repro.obs.probes import ProbeLedger, write_ledger
from repro.obs.tracer import NULL_TRACER

#: Version 2 adds the ``trace`` and ``metrics`` fields that carry the
#: observability state across interruptions.  The optional ``ledger``
#: field (present only when the supervisor was built with a probe
#: ledger) rides within version 2: default-off checkpoints are unchanged.
#: The version lives in the journal's head, a version-2 snapshot;
#: segments are deltas on top of it, and the crawl-end checkpoint is a
#: plain version-2 snapshot again (see the module docstring).
CHECKPOINT_VERSION = 2

#: Sub-stream tags keeping visit and jitter draws on disjoint streams.
_VISIT_STREAM = 0x51
_JITTER_STREAM = 0x52


@dataclass
class SupervisorConfig:
    """Recovery policy knobs (defaults sized for the paper's crawl)."""

    #: Attempts per visit, including the first.
    max_attempts: int = 4
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    #: Simulated per-visit step budget: what a hang or page-load timeout
    #: costs before the watchdog fires.
    visit_budget_ms: float = 60_000.0
    #: Simulated cost of a completed (or site-side-failed) visit.
    visit_cost_ms: float = 8_000.0
    #: Simulated cost of a fault detected immediately (crash, reset...).
    fault_detect_ms: float = 2_000.0
    #: Recycle a browser instance after this many faults.
    recycle_after_faults: int = 3
    #: Per-attempt probability of a transient web-dynamics failure
    #: (forwarded to :func:`repro.crawl.visit.simulate_visit`).
    per_visit_failure: float = 0.002
    #: Consecutive per-domain failures before the breaker opens.
    breaker_failure_threshold: int = 4
    #: Simulated cooldown before an open breaker half-opens.
    breaker_cooldown_ms: float = 300_000.0
    #: Default checkpoint file (``crawl(checkpoint_path=...)`` overrides).
    checkpoint_path: Optional[str] = None
    #: Flush a checkpoint every N freshly-crawled sites.  Checkpoints
    #: land on site boundaries only, so resumed breaker state is always
    #: exact (all visits of a domain live on one side of the cut).
    checkpoint_every_sites: int = 25
    #: Simulated cost of dismissing a modal/cookie overlay.
    overlay_dismiss_ms: float = 1_500.0
    #: Simulated wait for a challenge interstitial to clear.
    challenge_wait_ms: float = 5_000.0
    #: Simulated cost of the scripted direct fill on an obstructed input.
    direct_fill_ms: float = 800.0
    #: What an *unbounded* stall (no stall watchdog) costs: the page
    #: hangs until an external kill, far beyond the step budget.
    stall_unbounded_cost_ms: float = 300_000.0


@dataclass
class SupervisorStats:
    """Counters describing one supervised crawl.

    ``visits`` / ``reached`` / ``failed`` / ``resumed`` describe the
    *result* of the most recent :meth:`CrawlSupervisor.crawl` call: they
    are reconciled at crawl end from the records actually emitted, so a
    resumed crawl over a shrunk population never inherits counts for
    checkpointed visits it dropped.  The remaining counters (attempts,
    retries, faults_seen, ...) describe the *work done* across the
    crawl's whole history, including the interrupted portion restored
    from a checkpoint.
    """

    visits: int = 0
    reached: int = 0
    failed: int = 0
    attempts: int = 0
    retries: int = 0
    recovered: int = 0
    faults_seen: int = 0
    recycles: int = 0
    breaker_skips: int = 0
    resumed: int = 0


class BrowserInstance:
    """One long-lived browser of the crawl (OpenWPM's browser slot).

    Wraps a :class:`~repro.browser.session.BrowserSession` (the
    simulated backend by default) and holds the fault count that
    triggers recycling.  Recycling re-runs the session's full spawn
    sequence: fresh window, fresh driver, extension re-injected -- with
    the supervisor's tracer re-wired into the fresh driver.
    """

    def __init__(
        self, index: int, extension=None, tracer=None, ledger=None, session=None
    ) -> None:
        self.index = index
        self.extension = extension
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ledger = ledger
        self.fault_count = 0
        self.recycles = 0
        self.session = (
            session
            if session is not None
            else SimulatedBrowserSession(
                index, extension=extension, tracer=self.tracer, ledger=ledger
            )
        )

    @property
    def window(self):
        return self.session.window

    @property
    def driver(self):
        return self.session.driver

    def note_fault(self) -> int:
        """Record one fault; returns the running count."""
        self.fault_count += 1
        return self.fault_count

    def state_dict(self) -> Dict[str, int]:
        """The recycling state a checkpoint must carry: resumed crawls
        must reach the fault budget exactly where an uninterrupted one
        would."""
        return {"fault_count": self.fault_count, "recycles": self.recycles}

    def load_state(self, state: Dict[str, int]) -> None:
        self.fault_count = int(state.get("fault_count", 0))
        self.recycles = int(state.get("recycles", 0))

    def recycle(self) -> None:
        """Tear the browser down and spawn a fresh one."""
        self.recycles += 1
        self.fault_count = 0
        self.session.spawn()


class CrawlSupervisor:
    """Fault-aware wrapper around :class:`OpenWPMCrawler`.

    Parameters
    ----------
    crawler:
        Supplies name, extension, instance count and the seed all rng
        streams derive from.
    config:
        Recovery policy; defaults are reasonable for the seed study.
    plan:
        Optional :class:`~repro.faults.plan.FaultPlan`; without one the
        supervisor runs fault-free (pure web dynamics).
    tracer:
        Observability sink.  Defaults to a fresh :class:`repro.obs.
        Tracer` over the supervisor's clock; pass
        :data:`repro.obs.NULL_TRACER` to disable tracing.  A
        caller-built tracer is re-wired onto the supervisor's clock --
        spans must be stamped from the one clock checkpoint resume
        advances in place.
    probe_ledger:
        Optional :class:`repro.obs.probes.ProbeLedger` (off by default).
        When given it is re-wired onto the supervisor's clock and metrics
        registry, attached to every browser window, carried through
        checkpoints, and exportable via ``crawl(ledger_path=...)``.
    watchdogs:
        The pluggable recovery subscribers (see :mod:`repro.crawl.
        watchdogs`).  ``None`` (the default) attaches
        :func:`~repro.crawl.watchdogs.default_watchdogs`; pass ``()``
        for the unprotected ablation baseline -- no recycling, no stall
        bounding, no overlay recovery.
    """

    def __init__(
        self,
        crawler: OpenWPMCrawler,
        config: Optional[SupervisorConfig] = None,
        plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
        probe_ledger: Optional[ProbeLedger] = None,
        watchdogs=None,
    ) -> None:
        self.crawler = crawler
        self.config = config or SupervisorConfig()
        self.injector = FaultInjector(plan) if plan is not None else None
        self.clock = VirtualClock()
        if tracer is None:
            tracer = Tracer(self.clock)
        elif tracer.enabled and tracer.clock is not self.clock:
            tracer.clock = self.clock
        self.tracer = tracer
        self.metrics = tracer.metrics
        # Opt-in probe ledger (off by default): re-wired onto the one
        # shared clock and the tracer's metrics registry, so ledger
        # timestamps live on the checkpointed timeline and per-trap
        # counters land next to the crawl's other metrics.
        self.ledger = probe_ledger
        if probe_ledger is not None:
            probe_ledger.clock = self.clock
            probe_ledger.metrics = self.metrics
        self.stats = SupervisorStats()
        self._instances: Optional[List[BrowserInstance]] = None
        self._restored_browsers: Optional[List[Dict[str, int]]] = None
        self._entry_browsers: Optional[List[Dict[str, int]]] = None
        # Journal cursor: byte length of the intact journal on disk
        # (``None`` until a head exists), plus what the next segment
        # must carry -- records, spans and ledger entries since the last
        # flush.
        self._journal_end: Optional[int] = None
        self._journal_records: List[VisitRecord] = []
        self._trace_mark = None
        self._ledger_mark = 0
        self._bind_metric_handles()
        # The deterministic event bus every crawl collaborator talks
        # over: sessions execute command events, watchdogs subscribe to
        # fault/hostile events, and the supervisor itself only executes
        # recycle requests.
        self.bus = EventBus(self.clock, self.tracer)
        self.watchdogs = tuple(
            default_watchdogs() if watchdogs is None else watchdogs
        )
        for watchdog in self.watchdogs:
            watchdog.attach(self)
        self.bus.subscribe(
            BrowserRecycleRequested,
            self._on_recycle_requested,
            name="supervisor.recycle",
        )
        self._attached_sessions: List = []

    def _bind_metric_handles(self) -> None:
        """Cache per-visit metric handles (one method call on hot paths).

        Must be re-run whenever ``metrics.load_state`` replaces the
        registry's contents, or the cached handles would keep feeding
        orphaned objects.
        """
        metrics = self.metrics
        self._visit_ms = metrics.histogram("visit_ms")
        self._attempt_ms = metrics.histogram("attempt_ms")
        self._backoff_ms = metrics.histogram("backoff_ms")

    # -- main loop -------------------------------------------------------

    def crawl(
        self,
        population: Sequence[SiteConfig],
        *,
        checkpoint_path: Optional[Union[str, Path]] = None,
        trace_path: Optional[Union[str, Path]] = None,
        ledger_path: Optional[Union[str, Path]] = None,
    ) -> CrawlResult:
        """Visit every site ``crawler.instances`` times, resiliently.

        ``trace_path`` additionally exports the crawl's span tree as
        canonical JSONL (see :mod:`repro.obs.export`) when the crawl
        completes; ``ledger_path`` does the same for the probe ledger
        (requires a supervisor constructed with ``probe_ledger=``).
        """
        if ledger_path is not None and self.ledger is None:
            raise ValueError(
                "ledger_path given but this supervisor has no probe ledger; "
                "construct it with CrawlSupervisor(..., probe_ledger=...)"
            )
        config = self.config
        path = checkpoint_path or config.checkpoint_path
        path = Path(path) if path is not None else None
        completed = self._load_checkpoint(path)
        if self._restored_browsers is None and self._entry_browsers is not None:
            # Shard entry state (see crawl_shard): applied only when no
            # checkpoint restored the browsers -- a mid-shard checkpoint
            # already embeds the entry state's effects.
            self._restored_browsers = self._entry_browsers
        self._entry_browsers = None
        root = self.tracer.resume_or_start(
            "crawl",
            crawler=self.crawler.name,
            seed=self.crawler.seed,
            instances=self.crawler.instances,
        )

        instances = [
            BrowserInstance(
                i, self.crawler.extension, tracer=self.tracer, ledger=self.ledger
            )
            for i in range(self.crawler.instances)
        ]
        if self._restored_browsers is not None:
            for instance, state in zip(instances, self._restored_browsers):
                instance.load_state(state)
            self._restored_browsers = None
        self._instances = instances
        self._attach_sessions(instances)
        reference = _reference_navigator()
        records: List[VisitRecord] = []
        fresh_sites = 0
        reused = 0
        for site in population:
            breaker = CircuitBreaker(
                config.breaker_failure_threshold,
                config.breaker_cooldown_ms,
                listener=self._breaker_listener(site.domain),
            )
            site_was_fresh = False
            for visit_index in range(self.crawler.instances):
                key = (site.domain, visit_index)
                if key in completed:
                    records.append(completed[key])
                    reused += 1
                    continue
                site_was_fresh = True
                record = self._visit_with_retry(
                    site, visit_index, instances[visit_index], breaker, reference
                )
                records.append(record)
                completed[key] = record
                self._journal_records.append(record)
                self.stats.visits += 1
                if record.reached:
                    self.stats.reached += 1
                else:
                    self.stats.failed += 1
            if site_was_fresh and path is not None:
                fresh_sites += 1
                if fresh_sites >= config.checkpoint_every_sites:
                    if self._journal_end is None:
                        self._write_checkpoint(path, records)
                    else:
                        self._append_segment(path)
                    fresh_sites = 0
        # Reconcile the result-facing counters from the records actually
        # emitted: a resumed crawl over a shrunk or reordered population
        # restores checkpointed stats wholesale, which may count visits
        # whose records this population no longer produces.
        self.stats.visits = len(records)
        self.stats.reached = sum(1 for record in records if record.reached)
        self.stats.failed = self.stats.visits - self.stats.reached
        self.stats.resumed = reused
        self.tracer.end(root)
        if path is not None:
            self._write_checkpoint(path, records)
        if trace_path is not None:
            write_trace(trace_path, self.tracer.spans)
        if ledger_path is not None:
            write_ledger(ledger_path, self.ledger)
        return CrawlResult(crawler_name=self.crawler.name, records=records)

    def crawl_shard(
        self,
        sites: Sequence[SiteConfig],
        *,
        entry_browser_states: Optional[List[Dict[str, int]]] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        trace_path: Optional[Union[str, Path]] = None,
        ledger_path: Optional[Union[str, Path]] = None,
    ) -> CrawlResult:
        """Run one contiguous shard of a larger population.

        The shard-scoped entry point the :mod:`repro.shard` executor
        uses: identical to :meth:`crawl` over ``sites``, except the
        browser instances start from ``entry_browser_states`` -- the
        fault/recycle counters the browsers would carry at this point of
        the equivalent serial crawl (the fold of the preceding shards'
        fault logs, see :mod:`repro.shard.state`).  The states apply
        only when no checkpoint restores the browsers: a mid-shard
        checkpoint already embeds them.

        Everything else about determinism is inherited: the shard runs
        on this supervisor's own virtual clock starting at zero, so its
        trace/ledger/metrics are a clean segment the merge layer can
        rebase onto the serial timeline.
        """
        if entry_browser_states is not None:
            self._entry_browsers = [dict(s) for s in entry_browser_states]
        return self.crawl(
            sites,
            checkpoint_path=checkpoint_path,
            trace_path=trace_path,
            ledger_path=ledger_path,
        )

    def _attach_sessions(self, instances: List[BrowserInstance]) -> None:
        """Subscribe this crawl's browser sessions to the bus.

        A repeated ``crawl()`` call builds fresh instances; the previous
        crawl's sessions are detached first so command events never
        reach stale browsers (and dispatch order stays deterministic).
        """
        for session in self._attached_sessions:
            session.detach(self.bus)
        self._attached_sessions = [instance.session for instance in instances]
        for session in self._attached_sessions:
            session.attach(self.bus)

    def _on_recycle_requested(self, event: BrowserRecycleRequested) -> None:
        """Execute a watchdog's recycle request (the supervisor is the
        only subscriber that may tear browsers down)."""
        instance = event.instance
        if instance is None:
            return
        self._recycle(instance, event.reason)
        self.bus.publish(
            BrowserRecycled(reason=event.reason, browser=instance.index)
        )

    # -- observability ---------------------------------------------------

    def _breaker_listener(self, domain: str):
        tracer = self.tracer
        metrics = self.metrics

        def on_transition(old_state: BreakerState, new_state: BreakerState) -> None:
            tracer.event(
                "breaker." + new_state.value,
                domain=domain,
                previous=old_state.value,
            )
            metrics.counter("breaker." + new_state.value).inc()

        return on_transition

    def export_trace(self, path: Union[str, Path]) -> Path:
        """Write the crawl's span tree as canonical JSONL."""
        return write_trace(path, self.tracer.spans)

    def report(self) -> CrawlReport:
        """Aggregate the crawl's trace and metrics into a report."""
        return build_report(self.tracer.spans, metrics=self.metrics.state_dict())

    # -- one visit, with recovery ---------------------------------------

    def _visit_with_retry(
        self,
        site: SiteConfig,
        visit_index: int,
        instance: BrowserInstance,
        breaker: CircuitBreaker,
        reference,
    ) -> VisitRecord:
        tracer = self.tracer
        span = tracer.start(
            "visit", domain=site.domain, rank=site.rank, visit_index=visit_index
        )
        start_ms = self.clock.now()
        try:
            record = self._run_attempts(
                site, visit_index, instance, breaker, reference
            )
            span.attrs["attempts"] = record.attempts
            if not record.reached:
                span.status = "failed:" + (record.failure_reason or "unknown")
            return record
        finally:
            self._visit_ms.observe(self.clock.now() - start_ms)
            tracer.end(span)

    def _run_attempts(
        self,
        site: SiteConfig,
        visit_index: int,
        instance: BrowserInstance,
        breaker: CircuitBreaker,
        reference,
    ) -> VisitRecord:
        config = self.config
        tracer = self.tracer
        last_reason = FailureReason.TRANSIENT
        attempts_made = 0
        for attempt in range(config.max_attempts):
            if not breaker.allow(self.clock.now()):
                self.stats.breaker_skips += 1
                tracer.event("breaker.skip", domain=site.domain, attempt=attempt)
                self.metrics.counter("breaker.skips").inc()
                return VisitRecord(
                    domain=site.domain,
                    rank=site.rank,
                    visit_index=visit_index,
                    reached=False,
                    failure_reason=FailureReason.CIRCUIT_OPEN,
                    attempts=attempts_made,
                )
            attempts_made += 1
            self.stats.attempts += 1
            rng = np.random.default_rng(
                [self.crawler.seed, _VISIT_STREAM, site.rank, visit_index, attempt]
            )
            if self.injector is not None:
                self.injector.arm(site.domain, visit_index, attempt)
            span = tracer.start("attempt", attempt=attempt)
            attempt_start_ms = self.clock.now()
            reached = False
            failure_reason: Optional[str] = None
            try:
                self.bus.publish(
                    AttemptStarted(
                        domain=site.domain,
                        visit_index=visit_index,
                        attempt=attempt,
                        browser=instance.index,
                    )
                )
                try:
                    record = simulate_visit(
                        site,
                        extension=self.crawler.extension,
                        visit_index=visit_index,
                        rng=rng,
                        reference=reference,
                        per_visit_failure=config.per_visit_failure,
                        driver=instance.driver,
                        injector=self.injector,
                        bus=self.bus,
                        browser=instance.index,
                        attempt=attempt,
                    )
                except FaultError as fault:
                    self.stats.faults_seen += 1
                    last_reason = fault.fault_type.value
                    failure_reason = last_reason
                    span.status = "fault:" + last_reason
                    tracer.event("fault", fault_type=last_reason, hook=fault.hook)
                    self.metrics.counter("faults." + last_reason).inc()
                    cost = (
                        config.visit_budget_ms
                        if fault.fault_type.exhausts_budget
                        else config.fault_detect_ms
                    )
                    self.clock.advance(min(cost, config.visit_budget_ms))
                    breaker.record_failure(self.clock.now())
                    # Recovery policy is no longer inline: watchdog
                    # subscribers decide whether this fault warrants a
                    # recycle (crash -> immediate, budget -> proactive).
                    self.bus.publish(
                        FaultObserved(
                            fault_type=last_reason,
                            hook=fault.hook,
                            domain=site.domain,
                            visit_index=visit_index,
                            attempt=attempt,
                            browser_fatal=fault.fault_type.browser_fatal,
                            instance=instance,
                        )
                    )
                    self._backoff(site, visit_index, attempt)
                    continue
                finally:
                    if self.injector is not None:
                        self.injector.disarm()

                record.attempts = attempts_made
                failure_reason = record.failure_reason
                if record.reached:
                    reached = True
                    record.recovered = attempts_made > 1
                    self.clock.advance(config.visit_cost_ms)
                    breaker.record_success()
                    if record.recovered:
                        self.stats.recovered += 1
                    return record

                # Site-side failure: permanent conditions are not retried.
                # A watchdog-aborted stall is charged exactly the step
                # budget; an unbounded stall (no watchdog) costs the
                # external-kill timeout.  Either way the breaker records
                # ONE failure -- watchdog intervention never double-counts.
                if record.failure_reason == FailureReason.STALLED:
                    self.clock.advance(config.visit_budget_ms)
                elif record.failure_reason == FailureReason.STALLED_UNBOUNDED:
                    self.clock.advance(config.stall_unbounded_cost_ms)
                else:
                    self.clock.advance(config.visit_cost_ms)
                breaker.record_failure(self.clock.now())
                if FailureReason.is_permanent(record.failure_reason):
                    span.status = "failed:" + record.failure_reason
                    return record
                last_reason = record.failure_reason or last_reason
                span.status = "failed:" + last_reason
                self._backoff(site, visit_index, attempt)
            finally:
                self.bus.publish(
                    AttemptFinished(
                        domain=site.domain,
                        visit_index=visit_index,
                        attempt=attempt,
                        browser=instance.index,
                        reached=reached,
                        failure_reason=failure_reason,
                    )
                )
                self._attempt_ms.observe(self.clock.now() - attempt_start_ms)
                tracer.end(span)

        return VisitRecord(
            domain=site.domain,
            rank=site.rank,
            visit_index=visit_index,
            reached=False,
            failure_reason=FailureReason.exhausted(last_reason),
            attempts=attempts_made,
        )

    def _recycle(self, instance: BrowserInstance, reason: str) -> None:
        instance.recycle()
        self.stats.recycles += 1
        self.tracer.event("browser.recycle", browser=instance.index, reason=reason)
        self.metrics.counter("recycles").inc()

    def _backoff(self, site: SiteConfig, visit_index: int, attempt: int) -> None:
        """Advance the simulated clock by the jittered retry delay."""
        rng = np.random.default_rng(
            [self.crawler.seed, _JITTER_STREAM, site.rank, visit_index, attempt]
        )
        delay_ms = self.config.backoff.delay_ms(attempt, rng)
        self.tracer.event("backoff", delay_ms=delay_ms, attempt=attempt)
        self._backoff_ms.observe(delay_ms)
        self.clock.advance(delay_ms)
        self.stats.retries += 1

    # -- checkpointing ---------------------------------------------------

    def _load_checkpoint(
        self, path: Optional[Path]
    ) -> Dict[Tuple[str, int], VisitRecord]:
        completed: Dict[Tuple[str, int], VisitRecord] = {}
        self._journal_end = None
        self._journal_records = []
        if path is None or not path.exists():
            self._mark_journal()
            return completed
        head, segments, self._journal_end = _parse_journal(path.read_bytes())
        data = json.loads(head)
        if data.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version in {path}")
        if (
            data.get("crawler_name") != self.crawler.name
            or data.get("seed") != self.crawler.seed
            or data.get("instances") != self.crawler.instances
            or ("ledger" in data) != (self.ledger is not None)
        ):
            raise ValueError(
                f"checkpoint {path} belongs to a different crawl configuration"
            )
        latest = self._replay_journal(data, segments)
        for record_data in data["records"]:
            record = VisitRecord.from_dict(record_data)
            completed[(record.domain, record.visit_index)] = record
        # Advance the one shared clock in place.  The tracer, breakers
        # and any collaborator wired before resume hold *references* to
        # this clock; rebinding a fresh VirtualClock here would leave
        # them all ticking a stale timeline.
        behind = float(latest.get("clock_ms", 0.0)) - self.clock.now()
        if behind < 0:
            raise ValueError(
                f"checkpoint {path} is older than this supervisor's clock; "
                "resume with a fresh supervisor"
            )
        self.clock.advance(behind)
        self._restored_browsers = latest.get("browsers")
        stats = latest.get("stats")
        if stats is not None:
            self.stats = SupervisorStats(**stats)
        self.stats.resumed = len(completed)
        metrics_state = latest.get("metrics")
        if metrics_state is not None:
            self.metrics.load_state(metrics_state)
            self._bind_metric_handles()
        self._mark_journal()
        return completed

    def _replay_journal(
        self, head: Dict[str, Any], segments: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Restore the tracer and ledger from the head plus every
        segment, and fold the segments' records into ``head``.

        Returns the line holding the latest constant-size state (clock,
        stats, browsers, metrics): the last segment, or the head.
        """
        ledger = self.ledger
        if head.get("trace") is not None:
            self.tracer.load_state(head["trace"])
        if ledger is not None and head.get("ledger") is not None:
            ledger.load_state(head["ledger"])
        for segment in segments:
            head["records"].extend(segment["records"])
            if segment["trace"] is not None:
                self.tracer.extend_state(segment["trace"])
            if ledger is not None and segment.get("ledger") is not None:
                ledger.extend_state(segment["ledger"])
        return segments[-1] if segments else head

    def _mark_journal(self) -> None:
        """Start the next segment here: nothing since is on disk yet."""
        self._journal_records = []
        self._trace_mark = self.tracer.mark()
        self._ledger_mark = len(self.ledger) if self.ledger is not None else 0

    def _state_fields(self) -> Dict[str, Any]:
        """The constant-size state every head and segment carries."""
        return {
            "clock_ms": self.clock.now(),
            "stats": asdict(self.stats),
            "browsers": [
                instance.state_dict() for instance in self._instances or []
            ],
        }

    def _write_checkpoint(self, path: Path, records: List[VisitRecord]) -> None:
        """Replace the journal with one full snapshot: the head of a fresh
        crawl's journal, and the crawl-end checkpoint."""
        self._journal_end = write_snapshot(
            path,
            crawler_name=self.crawler.name,
            seed=self.crawler.seed,
            instances=self.crawler.instances,
            **self._state_fields(),
            trace=self.tracer.state_json(),
            metrics=self.metrics.state_dict(),
            records=encoded_list(r.checkpoint_json() for r in records),
            ledger=self.ledger.state_json() if self.ledger is not None else None,
        )
        self._mark_journal()

    def _append_segment(self, path: Path) -> None:
        """Append what changed since the last flush as one journal line."""
        segment = {
            **self._state_fields(),
            "trace": self.tracer.state_json(self._trace_mark),
            "metrics": self.metrics.state_dict(),
            "records": encoded_list(
                r.checkpoint_json() for r in self._journal_records
            ),
        }
        if self.ledger is not None:
            segment["ledger"] = self.ledger.state_json(self._ledger_mark)
        line = b"\n" + encoded_object(segment.items()).data
        with open(path, "ab") as handle:
            # Cut a torn tail an interrupted append left behind.
            handle.truncate(self._journal_end)
            handle.write(line)
        self._journal_end += len(line)
        self._mark_journal()


def write_snapshot(
    path: Path,
    *,
    crawler_name: str,
    seed: int,
    instances: int,
    clock_ms: float,
    stats: Dict[str, Any],
    browsers: List[Dict[str, int]],
    trace: Union[Dict[str, Any], Encoded, None],
    metrics: Dict[str, Any],
    records: Union[List[Dict[str, Any]], Encoded],
    ledger: Union[Dict[str, Any], Encoded, None] = None,
) -> int:
    """Atomically write one version-2 checkpoint snapshot (tmp + replace)
    and return its length.

    The bytes are ``json.dumps`` of the payload, deliberately unsorted:
    key order is part of the format, so the serial supervisor and the
    shard merge, which both write snapshots through here, produce
    byte-comparable files.  Each field is a JSON-safe value or its
    already-encoded :class:`~repro.jsontext.Encoded` form, and is
    written with one write of its own.  ``ledger`` is written only when
    given: default-off checkpoints stay byte-identical to pre-ledger
    ones.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "crawler_name": crawler_name,
        "seed": seed,
        "instances": instances,
        "clock_ms": clock_ms,
        "stats": stats,
        "browsers": browsers,
        "trace": trace,
        "metrics": metrics,
        "records": records,
    }
    if ledger is not None:
        payload["ledger"] = ledger
    tmp = path.with_name(path.name + ".tmp")
    length = 0
    with open(tmp, "wb") as handle:
        for chunk in object_chunks(payload.items()):
            length += handle.write(b"".join(chunk))
    tmp.replace(path)
    return length


def _parse_journal(raw: bytes) -> Tuple[bytes, List[Dict[str, Any]], int]:
    """Split checkpoint-journal bytes into the head line and the parsed
    segments.

    Returns ``(head, segments, end)`` where ``end`` is the byte length of
    the intact journal.  A last line that does not parse is a torn
    append and is dropped; an unparsable line anywhere else is
    corruption.
    """
    head, *lines = raw.split(b"\n")
    segments: List[Dict[str, Any]] = []
    end = len(head)
    for number, line in enumerate(lines, start=1):
        try:
            segments.append(json.loads(line))
        except ValueError:
            if number == len(lines):
                break
            raise ValueError(
                f"checkpoint journal is corrupt at line {number + 1}"
            ) from None
        end += 1 + len(line)
    return head, segments, end


def visit_coverage(
    result: CrawlResult, population: Sequence[SiteConfig], instances: int
) -> float:
    """Reached visits over the visits a perfect crawler could make
    (unreachable sites are excluded from the denominator)."""
    reachable = sum(1 for site in population if not site.unreachable)
    expected = reachable * instances
    if expected == 0:
        return 1.0
    return len(result.successful_visits) / expected
