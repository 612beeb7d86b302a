"""The resilient crawl supervisor: retries, recycling, checkpoint/resume."""

import builtins
import hashlib
import io
import itertools
import json
import re
from dataclasses import asdict

import pytest

import repro.crawl.supervisor as supervisor_module

from repro.clock import VirtualClock
from repro.crawl import (
    CrawlSupervisor,
    FailureReason,
    OpenWPMCrawler,
    PopulationConfig,
    SiteConfig,
    SupervisorConfig,
    evaluate_crawl_health,
    evaluate_screenshots,
    generate_population,
    visit_coverage,
)
from repro.canonical import canonical_dumps
from repro.faults import BackoffPolicy, FaultPlan, FaultType
from repro.crawl.supervisor import CHECKPOINT_VERSION, _parse_journal
from repro.crawl.visit import VisitRecord
from repro.obs import Tracer
from repro.obs.probes import LedgerEntry, ProbeLedger
from repro.obs.span import Span
from repro.spoofing import SpoofingExtension


def small_population(n=60, seed=3):
    return generate_population(
        PopulationConfig(
            n_sites=n,
            seed=seed,
            n_no_ads_detectors=1,
            n_less_ads_detectors=1,
            n_block_detectors=1,
            n_captcha_detectors=1,
            n_freeze_video_detectors=1,
            n_other_signal_ad_detectors=1,
            n_side_effect_blockers=1,
            n_http_only_detectors=3,
        )
    )


def make_supervisor(
    plan=None, config=None, seed=7, instances=4, extension="spoof", ledger=False
):
    crawler = OpenWPMCrawler(
        "supervised",
        extension=SpoofingExtension() if extension == "spoof" else None,
        instances=instances,
        seed=seed,
    )
    return CrawlSupervisor(
        crawler,
        config=config,
        plan=plan,
        probe_ledger=ProbeLedger() if ledger else None,
    )


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        population = small_population()
        plan_args = dict(rate=0.08, seed=99)
        a = make_supervisor(FaultPlan.generate(population, 4, **plan_args)).crawl(
            population
        )
        b = make_supervisor(FaultPlan.generate(population, 4, **plan_args)).crawl(
            population
        )
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_different_seed_differs(self):
        population = small_population()
        a = make_supervisor(seed=7).crawl(population)
        b = make_supervisor(seed=8).crawl(population)
        assert json.dumps(a.to_dict()) != json.dumps(b.to_dict())

    def test_backoff_advances_simulated_clock_deterministically(self):
        population = small_population()
        plan = FaultPlan.generate(population, 2, rate=0.2, seed=5)
        sup_a = make_supervisor(plan, instances=2)
        sup_a.crawl(population)
        sup_b = make_supervisor(FaultPlan.generate(population, 2, rate=0.2, seed=5),
                                instances=2)
        sup_b.crawl(population)
        assert sup_a.stats.retries > 0
        assert sup_a.clock.now() == sup_b.clock.now()
        assert sup_a.stats == sup_b.stats


class TestCheckpointResume:
    def test_resume_is_byte_identical(self, tmp_path):
        population = small_population()

        def fresh():
            return make_supervisor(FaultPlan.generate(population, 4, rate=0.08, seed=99))

        full = fresh().crawl(population)
        checkpoint = tmp_path / "crawl.json"
        fresh().crawl(population[:25], checkpoint_path=checkpoint)  # "interrupted"
        resumed_sup = fresh()
        resumed = resumed_sup.crawl(population, checkpoint_path=checkpoint)
        assert resumed_sup.stats.resumed == 25 * 4
        assert json.dumps(full.to_dict()) == json.dumps(resumed.to_dict())

    def test_resume_skips_completed_pairs(self, tmp_path):
        population = small_population(n=20)
        checkpoint = tmp_path / "crawl.json"
        first = make_supervisor()
        first.crawl(population, checkpoint_path=checkpoint)
        resumed_sup = make_supervisor()
        resumed_sup.crawl(population, checkpoint_path=checkpoint)
        assert resumed_sup.stats.resumed == 20 * 4
        # Stats are restored from the checkpoint and nothing is re-visited.
        assert resumed_sup.stats.attempts == first.stats.attempts

    def test_checkpoint_file_is_json_with_records(self, tmp_path):
        population = small_population(n=24)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population, checkpoint_path=checkpoint)
        data = json.loads(checkpoint.read_text())
        assert data["crawler_name"] == "supervised"
        assert len(data["records"]) == 24 * 4
        assert data["clock_ms"] > 0

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        population = small_population(n=24)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor(seed=7).crawl(population, checkpoint_path=checkpoint)
        with pytest.raises(ValueError):
            make_supervisor(seed=8).crawl(population, checkpoint_path=checkpoint)

    @pytest.mark.parametrize(
        "written, resumed",
        [(False, True), (True, False)],
        ids=["ledger-off-checkpoint", "ledger-on-checkpoint"],
    )
    def test_checkpoint_of_the_other_ledger_setting_rejected(
        self, tmp_path, written, resumed
    ):
        """Regression: a ledger-on resume of a ledger-off checkpoint
        exported only the entries recorded after the cut, and a
        ledger-off resume dropped ``ledger`` from the crawl-end
        checkpoint; both were silently accepted."""
        population = small_population(n=24)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor(instances=2, ledger=written).crawl(
            population[:12], checkpoint_path=checkpoint
        )
        with pytest.raises(ValueError, match="different crawl configuration"):
            make_supervisor(instances=2, ledger=resumed).crawl(
                population, checkpoint_path=checkpoint
            )

    def test_interrupt_at_every_site_boundary_is_byte_identical(self, tmp_path):
        """Result AND trace must match the uninterrupted run for every cut."""
        population = small_population(n=12)

        def fresh():
            plan = FaultPlan.generate(population, 2, rate=0.25, seed=5)
            config = SupervisorConfig(checkpoint_every_sites=3)
            return make_supervisor(plan, config=config, instances=2)

        full_trace = tmp_path / "full.jsonl"
        full = fresh().crawl(population, trace_path=full_trace)
        full_json = json.dumps(full.to_dict())
        full_bytes = full_trace.read_bytes()
        for cut in range(1, len(population) + 1):
            checkpoint = tmp_path / f"ck{cut}.json"
            fresh().crawl(population[:cut], checkpoint_path=checkpoint)
            resumed_trace = tmp_path / f"resumed{cut}.jsonl"
            resumed = fresh().crawl(
                population, checkpoint_path=checkpoint, trace_path=resumed_trace
            )
            assert json.dumps(resumed.to_dict()) == full_json, f"cut={cut}"
            assert resumed_trace.read_bytes() == full_bytes, f"cut={cut}"

    def test_resume_advances_the_shared_clock_in_place(self, tmp_path):
        """Regression: _load_checkpoint used to rebind ``self.clock`` to a
        fresh VirtualClock, leaving collaborators that captured the old
        reference (the tracer, notably) on a stale timeline."""
        population = small_population(n=20)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population[:10], checkpoint_path=checkpoint)
        resumed = make_supervisor()
        clock_before = resumed.clock
        tracer_clock_before = resumed.tracer.clock
        resumed.crawl(population, checkpoint_path=checkpoint)
        assert resumed.clock is clock_before
        assert resumed.tracer.clock is resumed.clock
        assert tracer_clock_before is resumed.clock
        # The span timeline actually advanced past the checkpointed time.
        assert resumed.tracer.spans[0].end_ms == resumed.clock.now()

    def test_stale_checkpoint_behind_supervisor_clock_rejected(self, tmp_path):
        population = small_population(n=12)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population, checkpoint_path=checkpoint)
        reused = make_supervisor()
        reused.clock.advance(10_000_000_000.0)  # way past the checkpoint
        with pytest.raises(ValueError):
            reused.crawl(population, checkpoint_path=checkpoint)

    def test_resume_with_shrunk_population_reconciles_stats(self, tmp_path):
        """Regression: restored stats counted checkpointed visits whose
        sites a shrunk population no longer contains, so ``stats`` and
        ``CrawlResult.records`` disagreed."""
        population = small_population(n=12)
        checkpoint = tmp_path / "crawl.json"
        make_supervisor().crawl(population, checkpoint_path=checkpoint)
        shrunk = population[:5] + population[6:]  # one checkpointed site gone
        resumed = make_supervisor()
        result = resumed.crawl(shrunk, checkpoint_path=checkpoint)
        assert len(result.records) == len(shrunk) * 4
        assert resumed.stats.visits == len(result.records)
        assert resumed.stats.reached == len(result.successful_visits)
        assert resumed.stats.failed == len(result.failed_visits)
        assert resumed.stats.resumed == len(shrunk) * 4

    def test_checkpoint_carries_observability_state(self, tmp_path):
        population = small_population(n=24)
        checkpoint = tmp_path / "crawl.json"
        sup = make_supervisor(FaultPlan.generate(population, 4, rate=0.1, seed=2))
        result = sup.crawl(population, checkpoint_path=checkpoint)
        raw = checkpoint.read_bytes()
        data = json.loads(raw)
        assert data["version"] == CHECKPOINT_VERSION == 3
        assert len(data["trace"]["spans"]) == len(sup.tracer.spans)
        assert data["metrics"] == sup.metrics.state_dict()
        assert len(data["browsers"]) == 4
        assert raw == canonical_dumps(snapshot_payload(sup, result.records)).encode()


class Crash(BaseException):
    """A process kill in the middle of a crawl: nothing catches it."""


def crash_after(monkeypatch, calls):
    """Make the ``calls + 1``-th visit attempt kill the crawl."""
    real = supervisor_module.simulate_visit
    counter = itertools.count(1)

    def visit(*args, **kwargs):
        if next(counter) > calls:
            raise Crash
        return real(*args, **kwargs)

    monkeypatch.setattr(supervisor_module, "simulate_visit", visit)


def count_attempts(monkeypatch):
    """Count visit attempts (``simulate_visit`` calls) into a list."""
    real = supervisor_module.simulate_visit
    seen = []

    def visit(*args, **kwargs):
        seen.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(supervisor_module, "simulate_visit", visit)
    return seen


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def journal_state(supervisor):
    """The constant-size fields every head and segment carries."""
    return {
        "clock_ms": supervisor.clock.now(),
        "stats": asdict(supervisor.stats),
        "browsers": [instance.state_dict() for instance in supervisor._instances],
    }


def snapshot_payload(supervisor, records):
    """A checkpoint snapshot's payload, built from the dict forms."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "crawler_name": supervisor.crawler.name,
        "seed": supervisor.crawler.seed,
        "instances": supervisor.crawler.instances,
        **journal_state(supervisor),
        "trace": supervisor.tracer.state_dict(),
        "metrics": supervisor.metrics.state_dict(),
        "records": [r.to_dict() for r in records],
    }
    if supervisor.ledger is not None:
        payload["ledger"] = supervisor.ledger.state_dict()
    return payload


class TestJournal:
    """The checkpoint journal: head snapshot, appended segments, torn tails.

    Every resume is compared with one uninterrupted crawl by the sha256
    of its records, its metrics and its exported trace.
    """

    POPULATION = small_population(n=12)

    def fresh(self):
        plan = FaultPlan.generate(self.POPULATION, 2, rate=0.25, seed=5)
        config = SupervisorConfig(checkpoint_every_sites=1)
        return make_supervisor(plan, config=config, instances=2)

    def digests(self, supervisor, result, trace_path):
        return (
            sha256(json.dumps(result.to_dict()).encode()),
            sha256(
                json.dumps(supervisor.metrics.state_dict(), sort_keys=True).encode()
            ),
            sha256(trace_path.read_bytes()),
        )

    def resume(self, checkpoint, trace_path):
        supervisor = self.fresh()
        result = supervisor.crawl(
            self.POPULATION, checkpoint_path=checkpoint, trace_path=trace_path
        )
        return self.digests(supervisor, result, trace_path)

    def crash(self, monkeypatch, checkpoint, calls):
        with monkeypatch.context() as patch:
            crash_after(patch, calls)
            with pytest.raises(Crash):
                self.fresh().crawl(self.POPULATION, checkpoint_path=checkpoint)

    @pytest.fixture
    def expected(self, tmp_path, monkeypatch):
        """The uninterrupted crawl's digests; sets ``self.attempts``."""
        trace_path = tmp_path / "full.jsonl"
        supervisor = self.fresh()
        with monkeypatch.context() as patch:
            attempts = count_attempts(patch)
            result = supervisor.crawl(self.POPULATION, trace_path=trace_path)
        self.attempts = len(attempts)
        return self.digests(supervisor, result, trace_path)

    def journal(self, tmp_path, monkeypatch, calls):
        """The journal a crawl killed before attempt ``calls + 1`` leaves."""
        checkpoint = tmp_path / "journal.json"
        self.crash(monkeypatch, checkpoint, calls)
        data = checkpoint.read_bytes()
        head, segments, end = _parse_journal(data)
        assert end == len(data) and len(segments) >= 2
        return data, head

    def test_interrupt_anywhere_mid_population(self, tmp_path, monkeypatch, expected):
        """Kill the crawl before every visit attempt -- right after each
        flush and between flushes alike -- then resume."""
        most_segments = 0
        for calls in range(self.attempts):
            checkpoint = tmp_path / f"ck{calls}.json"
            self.crash(monkeypatch, checkpoint, calls)
            if checkpoint.exists():
                segments = _parse_journal(checkpoint.read_bytes())[1]
                most_segments = max(most_segments, len(segments))
            resumed = self.resume(checkpoint, tmp_path / f"resumed{calls}.jsonl")
            assert resumed == expected, f"interrupted before attempt {calls + 1}"
        assert most_segments >= len(self.POPULATION) - 2

    def test_truncation_at_every_byte_offset(self, tmp_path, monkeypatch, expected):
        """Every truncation after the head reads as the whole segments
        before the cut; resuming from each kind of cut matches."""
        data, head = self.journal(tmp_path, monkeypatch, self.attempts // 4)
        boundaries = [len(head)]
        for line in data[len(head) + 1:].split(b"\n"):
            boundaries.append(boundaries[-1] + 1 + len(line))
        resume_at = set(boundaries)
        for start, stop in zip(boundaries, boundaries[1:]):
            # torn right after the newline, mid-line, one byte short
            resume_at.update({start + 1, (start + stop) // 2, stop - 1})
        truncated = tmp_path / "truncated.json"
        for offset in range(len(head), len(data) + 1):
            _, segments, end = _parse_journal(data[:offset])
            intact = max(b for b in boundaries if b <= offset)
            assert end == intact, f"offset {offset}"
            assert len(segments) == boundaries.index(intact), f"offset {offset}"
            if offset in resume_at:
                truncated.write_bytes(data[:offset])
                resumed = self.resume(truncated, tmp_path / "resumed.jsonl")
                assert resumed == expected, f"offset {offset}"

    def test_torn_tail_is_cut_before_the_next_append(
        self, tmp_path, monkeypatch, expected
    ):
        """Resume from a torn tail, crash again, resume again: the torn
        fragment must never be glued onto the next segment."""
        data, head = self.journal(tmp_path, monkeypatch, self.attempts // 2)
        last = data.rindex(b"\n")
        checkpoint = tmp_path / "ck.json"
        for offset in (last + 1, (last + len(data)) // 2, len(data) - 1):
            checkpoint.write_bytes(data[:offset])
            # Enough attempts to redo the lost site and append for it.
            self.crash(monkeypatch, checkpoint, 8)
            journal = checkpoint.read_bytes()
            _, segments, end = _parse_journal(journal)
            assert end == len(journal), f"torn at {offset}: fragment kept"
            assert journal.startswith(data[:last] + b"\n{")
            assert len(segments) >= data.count(b"\n")
            assert self.resume(checkpoint, tmp_path / "again.jsonl") == expected

    def test_corrupt_line_before_the_tail_is_rejected(
        self, tmp_path, monkeypatch, expected
    ):
        data, head = self.journal(tmp_path, monkeypatch, self.attempts // 2)
        first = len(head) + 1
        checkpoint = tmp_path / "corrupt.json"
        checkpoint.write_bytes(data[:first] + b"#" + data[first + 1:])
        with pytest.raises(ValueError):
            self.fresh().crawl(self.POPULATION, checkpoint_path=checkpoint)

    @pytest.mark.parametrize("cut", ["empty", "first-byte", "half", "one-short"])
    def test_empty_or_truncated_head_is_corrupt(self, tmp_path, cut):
        checkpoint = tmp_path / "crawl.json"
        self.fresh().crawl(self.POPULATION, checkpoint_path=checkpoint)
        raw = checkpoint.read_bytes()
        keep = {"empty": 0, "first-byte": 1, "half": len(raw) // 2}.get(
            cut, len(raw) - 1
        )
        checkpoint.write_bytes(raw[:keep])
        with pytest.raises(
            ValueError,
            match=f"^checkpoint {re.escape(str(checkpoint))} is corrupt at line 1",
        ):
            self.fresh().crawl(self.POPULATION, checkpoint_path=checkpoint)

    def test_truncated_head_before_intact_segments_is_corrupt(
        self, tmp_path, monkeypatch, expected
    ):
        data, head = self.journal(tmp_path, monkeypatch, self.attempts // 2)
        checkpoint = tmp_path / "corrupt.json"
        checkpoint.write_bytes(head[: len(head) // 2] + data[len(head):])
        with pytest.raises(ValueError, match="is corrupt at line 1"):
            self.fresh().crawl(self.POPULATION, checkpoint_path=checkpoint)

    def test_version_2_head_is_refused(self, tmp_path):
        """A version-2 snapshot (``json.dumps``' default form, its fixed
        key order) parses, and is refused by its version."""
        checkpoint = tmp_path / "crawl.json"
        self.fresh().crawl(self.POPULATION, checkpoint_path=checkpoint)
        data = json.loads(checkpoint.read_bytes())
        data["version"] = 2
        keys = ["version", "crawler_name", "seed", "instances", "clock_ms",
                "stats", "browsers", "trace", "metrics", "records"]
        checkpoint.write_text(json.dumps({key: data[key] for key in keys}))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            self.fresh().crawl(self.POPULATION, checkpoint_path=checkpoint)

    def test_crawl_end_rewrites_the_journal_as_one_snapshot(self, tmp_path):
        checkpoint = tmp_path / "crawl.json"
        supervisor = self.fresh()
        result = supervisor.crawl(self.POPULATION, checkpoint_path=checkpoint)
        raw = checkpoint.read_bytes()
        assert b"\n" not in raw
        assert json.loads(raw)["version"] == CHECKPOINT_VERSION == 3
        assert raw == canonical_dumps(
            snapshot_payload(supervisor, result.records)
        ).encode()

    def test_persistence_bytes_grow_linearly(self, tmp_path, monkeypatch):
        """Bytes written before the crawl-end snapshot at 2N sites are at
        most 2.2x those at N sites (a full rewrite per flush gives ~4x)."""
        written = [0]
        real_open = io.open

        class Counted:
            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                written[0] += len(data)
                return self.raw.write(data)

            def __enter__(self):
                self.raw.__enter__()
                return self

            def __exit__(self, *exc):
                return self.raw.__exit__(*exc)

            def __getattr__(self, name):
                return getattr(self.raw, name)

        def counting_open(file, mode="r", *args, **kwargs):
            raw = real_open(file, mode, *args, **kwargs)
            return Counted(raw) if set(mode) & set("wax+") else raw

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        population = small_population(n=48)
        before_end = []
        for sites in (24, 48):
            checkpoint = tmp_path / f"crawl{sites}.json"
            written[0] = 0
            make_supervisor(
                config=SupervisorConfig(checkpoint_every_sites=2), instances=2
            ).crawl(population[:sites], checkpoint_path=checkpoint)
            before_end.append(written[0] - checkpoint.stat().st_size)
        assert before_end[0] > 0
        assert before_end[1] <= 2.2 * before_end[0], before_end


class TestSpliceWriter:
    """Segments and snapshots are spliced from once-encoded spans,
    records and ledger entries.  Every segment line and every snapshot
    must equal ``canonical_dumps`` of the dict forms, built here: the
    version-3 format."""

    POPULATION = small_population(n=12)

    def fresh(self, ledger=False, tracer=None, name="supervised"):
        crawler = OpenWPMCrawler(
            name, extension=SpoofingExtension(), instances=2, seed=5
        )
        return CrawlSupervisor(
            crawler,
            config=SupervisorConfig(checkpoint_every_sites=2),
            plan=FaultPlan.generate(self.POPULATION, 2, rate=0.25, seed=5),
            tracer=tracer,
            probe_ledger=ProbeLedger() if ledger else None,
        )

    @pytest.fixture
    def checked(self, monkeypatch):
        """Check every flush against the oracle; lists what was checked."""
        checked = []
        real_append = CrawlSupervisor._append_segment
        real_write = CrawlSupervisor._write_checkpoint

        def append(supervisor, path):
            segment = {
                **journal_state(supervisor),
                "trace": supervisor.tracer.state_since(supervisor._trace_mark),
                "metrics": supervisor.metrics.state_dict(),
                "records": [r.to_dict() for r in supervisor._journal_records],
            }
            if supervisor.ledger is not None:
                segment["ledger"] = supervisor.ledger.state_since(
                    supervisor._ledger_mark
                )
            kept = path.read_bytes()[: supervisor._journal_end]
            real_append(supervisor, path)
            line = ("\n" + canonical_dumps(segment)).encode()
            assert path.read_bytes() == kept + line
            checked.append("segment")

        def write(supervisor, path, records):
            payload = snapshot_payload(supervisor, records)
            real_write(supervisor, path, records)
            assert path.read_bytes() == canonical_dumps(payload).encode()
            checked.append("snapshot")

        monkeypatch.setattr(CrawlSupervisor, "_append_segment", append)
        monkeypatch.setattr(CrawlSupervisor, "_write_checkpoint", write)
        return checked

    def test_fresh_crawl(self, tmp_path, checked):
        self.fresh().crawl(self.POPULATION, checkpoint_path=tmp_path / "ck.json")
        assert checked.count("segment") >= 4
        assert checked[0] == checked[-1] == "snapshot"

    @pytest.mark.parametrize("ledger", [False, True], ids=["no-ledger", "ledger"])
    def test_interrupted_and_resumed_crawl(
        self, tmp_path, monkeypatch, checked, ledger
    ):
        checkpoint = tmp_path / "ck.json"
        with monkeypatch.context() as patch:
            crash_after(patch, 11)
            with pytest.raises(Crash):
                self.fresh(ledger).crawl(self.POPULATION, checkpoint_path=checkpoint)
        assert "segment" in checked
        del checked[:]
        resumed = self.fresh(ledger)
        resumed.crawl(self.POPULATION, checkpoint_path=checkpoint)
        assert "segment" in checked and checked[-1] == "snapshot"
        assert resumed.stats.resumed > 0
        if ledger:
            assert len(resumed.ledger) > 0

    def test_second_crawl_reopens_the_closed_root(self, tmp_path, checked):
        """A new checkpoint path keeps the in-memory spans, so the root the
        first crawl-end snapshot closed (and encoded) is reopened and
        must not be written with its stale end."""
        supervisor = self.fresh(ledger=True)
        supervisor.crawl(self.POPULATION[:6], checkpoint_path=tmp_path / "a.json")
        root = supervisor.tracer.spans[0]
        closed_at = root.end_ms
        supervisor.crawl(self.POPULATION, checkpoint_path=tmp_path / "b.json")
        assert root.end_ms > closed_at
        assert checked.count("snapshot") == 4

    def test_resume_from_a_crawl_end_snapshot_reopens_the_loaded_root(
        self, tmp_path, checked
    ):
        """The loaded root was closed, with its bytes kept; resuming over
        a grown population reopens it, and it must not be written with
        its stale end."""
        checkpoint = tmp_path / "ck.json"
        self.fresh(ledger=True).crawl(self.POPULATION[:6], checkpoint_path=checkpoint)
        resumed = self.fresh(ledger=True)
        resumed.crawl(self.POPULATION, checkpoint_path=checkpoint)
        assert resumed.stats.resumed == 6 * 2
        assert checked[-1] == "snapshot" and "segment" in checked

    def test_attrs_with_non_ascii_quotes_and_floats(self, tmp_path, checked):
        """A finished span from before the crawl carries the odd values."""
        tracer = Tracer(VirtualClock())
        odd = {"text": 'caf\u00e9 "quoted" \\ \u2603', "sum": 0.1 + 0.2, "big": 1e16}
        span = tracer.start("setup", **odd)
        tracer.event("note", small=1e-7, **odd)
        tracer.end(span)
        checkpoint = tmp_path / "ck.json"
        self.fresh(tracer=tracer, name='cr\u00e4wler "q"').crawl(
            self.POPULATION, checkpoint_path=checkpoint
        )
        raw = checkpoint.read_bytes()
        assert raw.isascii()
        assert b"0.30000000000000004" in raw and b"1e+16" in raw
        assert json.loads(raw)["trace"]["spans"][0]["attrs"] == odd
        assert checked.count("segment") >= 4


class TestEncodeOnce:
    """Checkpoint encode work is a count, not a timing: each finished
    span, record and ledger entry is encoded once however often the
    crawl flushes, plus the open root span at each mid-crawl flush.
    The trace and ledger exports, resume and the shard merge add no
    encode of an item that already has its bytes."""

    POPULATION = small_population(n=24)

    def supervisor(self, every=25):
        return make_supervisor(
            FaultPlan.generate(self.POPULATION, 2, rate=0.1, seed=3),
            config=SupervisorConfig(checkpoint_every_sites=every),
            instances=2,
            ledger=True,
        )

    def crawl(self, monkeypatch, checkpoint, every=25, trace_path=None):
        calls = {Span: 0, VisitRecord: 0, LedgerEntry: 0, "flush": 0}

        def counted(key, real):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            return wrapper

        for cls in (Span, VisitRecord, LedgerEntry):
            monkeypatch.setattr(cls, "to_dict", counted(cls, cls.to_dict))
        for name in ("_append_segment", "_write_checkpoint"):
            real = getattr(CrawlSupervisor, name)
            monkeypatch.setattr(CrawlSupervisor, name, counted("flush", real))
        supervisor = self.supervisor(every)
        result = supervisor.crawl(
            self.POPULATION, checkpoint_path=checkpoint, trace_path=trace_path
        )
        assert len(result.records) == len(self.POPULATION) * 2
        sizes = {
            Span: len(supervisor.tracer.spans),
            VisitRecord: len(result.records),
            LedgerEntry: len(supervisor.ledger),
        }
        return calls, sizes

    @pytest.mark.parametrize("every", [2, 50])
    def test_one_encode_per_item(self, tmp_path, monkeypatch, every):
        calls, sizes = self.crawl(monkeypatch, tmp_path / "ck.json", every)
        flushes = calls["flush"]
        mid_crawl = len(self.POPULATION) // every
        assert flushes == mid_crawl + 1
        assert calls[VisitRecord] == sizes[VisitRecord]
        assert calls[LedgerEntry] == sizes[LedgerEntry] > 0
        # The crawl-end flush finds the root closed: its one cached encode.
        assert calls[Span] == sizes[Span] + flushes - 1

    def test_no_checkpoint_path_encodes_nothing(self, monkeypatch):
        calls, _ = self.crawl(monkeypatch, None)
        assert calls == {Span: 0, VisitRecord: 0, LedgerEntry: 0, "flush": 0}

    def test_trace_export_reuses_the_checkpoint_bytes(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.jsonl"
        calls, sizes = self.crawl(monkeypatch, tmp_path / "ck.json", trace_path=trace)
        assert calls["flush"] == 1
        assert calls[Span] == sizes[Span] == len(trace.read_bytes().splitlines())

    def test_resume_encodes_nothing_it_loaded(self, tmp_path, monkeypatch):
        checkpoint = tmp_path / "ck.json"
        with monkeypatch.context() as patch:
            crash_after(patch, 20)
            with pytest.raises(Crash):
                self.supervisor(every=2).crawl(
                    self.POPULATION, checkpoint_path=checkpoint
                )
        assert len(_parse_journal(checkpoint.read_bytes())[1]) >= 2
        loaded = {Span: [], VisitRecord: [], LedgerEntry: []}
        encoded = set()
        for cls in loaded:
            real_from_dict, real_to_dict = cls.from_dict, cls.to_dict

            def from_dict(cls, data, raw=None, _real=real_from_dict):
                item = _real(data, raw)
                # An open span (the root) is encoded afresh at each flush.
                if getattr(item, "end_ms", 0.0) is not None:
                    loaded[cls].append(item)
                return item

            def to_dict(item, _real=real_to_dict):
                encoded.add(id(item))
                return _real(item)

            monkeypatch.setattr(cls, "from_dict", classmethod(from_dict))
            monkeypatch.setattr(cls, "to_dict", to_dict)
        supervisor = self.supervisor(every=2)
        supervisor.crawl(
            self.POPULATION,
            checkpoint_path=checkpoint,
            trace_path=tmp_path / "trace.jsonl",
            ledger_path=tmp_path / "ledger.jsonl",
        )
        assert len(loaded[VisitRecord]) == supervisor.stats.resumed > 0
        assert len(loaded[Span]) > len(loaded[VisitRecord])
        assert len(loaded[LedgerEntry]) > 0
        for cls, items in loaded.items():
            assert all(item._json is not None for item in items), cls.__name__
            assert not encoded & {id(item) for item in items}, cls.__name__

    def test_merge_splices_records_and_encodes_each_span_once(
        self, tmp_path, monkeypatch
    ):
        import repro.shard.executor as executor_module
        from repro.shard import run_sharded_crawl

        calls = {Span: 0, VisitRecord: 0, LedgerEntry: 0}
        merging = []
        for cls in calls:
            real = cls.to_dict

            def to_dict(item, _real=real, _cls=cls):
                if merging:
                    calls[_cls] += 1
                return _real(item)

            monkeypatch.setattr(cls, "to_dict", to_dict)
        real_merge = executor_module.merge_shards

        def merge(*args):
            merging.append(True)
            try:
                return real_merge(*args)
            finally:
                merging.clear()

        monkeypatch.setattr(executor_module, "merge_shards", merge)
        outcome = run_sharded_crawl(
            self.POPULATION,
            out_dir=tmp_path,
            crawler_name="supervised",
            seed=7,
            instances=2,
            fault_plan=FaultPlan.generate(self.POPULATION, 2, rate=0.1, seed=3),
            ledger=True,
            shard_size=8,
            jobs=1,
        )
        artifacts = outcome.artifacts
        assert calls[VisitRecord] == 0
        assert calls[Span] == len(artifacts.trace.read_bytes().splitlines()) > 0
        assert calls[LedgerEntry] == len(artifacts.ledger.read_bytes().splitlines())

    def test_export_without_checkpoint_keeps_no_bytes(self, tmp_path):
        supervisor = self.supervisor()
        trace, ledger = tmp_path / "trace.jsonl", tmp_path / "ledger.jsonl"
        supervisor.crawl(self.POPULATION, trace_path=trace, ledger_path=ledger)
        spans, entries = supervisor.tracer.spans, supervisor.ledger.entries
        assert all(span._json is None for span in spans)
        assert all(entry._json is None for entry in entries)
        assert trace.read_text() == "".join(
            canonical_dumps(span.to_dict()) + "\n" for span in spans
        )
        assert ledger.read_text() == "".join(
            canonical_dumps(entry.to_dict()) + "\n" for entry in entries
        )


class TestFailureTaxonomy:
    def test_unreachable_not_retried(self):
        population = [SiteConfig(rank=1, domain="dead.example", unreachable=True)]
        result = make_supervisor(instances=2).crawl(population)
        for record in result.records:
            assert not record.reached
            assert record.failure_reason == FailureReason.UNREACHABLE
            assert record.attempts == 1  # permanent -> no retry

    def test_transient_failures_are_retried_and_recovered(self):
        population = [SiteConfig(rank=1, domain="flaky.example")]
        config = SupervisorConfig(per_visit_failure=0.5, max_attempts=6)
        sup = make_supervisor(config=config, instances=8)
        result = sup.crawl(population)
        recovered = [r for r in result.records if r.recovered]
        assert sup.stats.retries > 0
        assert recovered, "with 50% transient failure some visits must recover"
        for record in recovered:
            assert record.reached
            assert record.attempts > 1
            assert record.failure_reason is None

    def test_exhausted_reason_keeps_last_cause(self):
        population = [SiteConfig(rank=1, domain="down.example")]
        config = SupervisorConfig(per_visit_failure=1.0, max_attempts=3)
        result = make_supervisor(config=config, instances=1).crawl(population)
        (record,) = result.records
        assert not record.reached
        assert record.attempts == 3
        assert record.failure_reason == FailureReason.exhausted(FailureReason.TRANSIENT)

    def test_fault_failure_reasons_carry_taxonomy(self):
        population = small_population(n=30)
        plan = FaultPlan.generate(
            population,
            2,
            rate=1.0,
            seed=4,
            fault_types=[FaultType.DRIVER_CRASH],
            max_attempts_affected=1,
        )
        config = SupervisorConfig(max_attempts=1)  # no retry: every fault is final
        result = make_supervisor(plan, config=config, instances=2).crawl(population)
        crashed = [
            r
            for r in result.records
            if r.failure_reason == FailureReason.exhausted(FaultType.DRIVER_CRASH.value)
        ]
        reachable = sum(1 for s in population if not s.unreachable)
        assert len(crashed) == reachable * 2

    def test_failure_counts_accounting(self):
        population = small_population()
        result = make_supervisor().crawl(population)
        counts = result.failure_counts()
        assert sum(counts.values()) == len(result.failed_visits)
        unreachable_sites = sum(1 for s in population if s.unreachable)
        assert counts[FailureReason.UNREACHABLE] == unreachable_sites * 4


class TestRecoveryMachinery:
    def test_browser_recycled_on_fatal_fault(self):
        population = small_population(n=20)
        plan = FaultPlan.generate(
            population,
            1,
            rate=1.0,
            seed=4,
            fault_types=[FaultType.OOM_RESTART],
            max_attempts_affected=1,
        )
        sup = make_supervisor(plan, instances=1)
        sup.crawl(population)
        reachable = sum(1 for s in population if not s.unreachable)
        assert sup.stats.recycles == reachable  # every OOM kills the browser

    def test_browser_recycled_after_fault_budget(self):
        population = small_population(n=30)
        plan = FaultPlan.generate(
            population,
            1,
            rate=1.0,
            seed=4,
            fault_types=[FaultType.STALE_ELEMENT],
            max_attempts_affected=1,
        )
        config = SupervisorConfig(recycle_after_faults=3)
        sup = make_supervisor(plan, config=config, instances=1)
        sup.crawl(population)
        assert sup.stats.faults_seen >= 3
        assert sup.stats.recycles == sup.stats.faults_seen // 3

    def test_circuit_breaker_short_circuits_dead_domain(self):
        population = [SiteConfig(rank=1, domain="dead.example", unreachable=True)]
        config = SupervisorConfig(breaker_failure_threshold=3)
        sup = make_supervisor(config=config, instances=8)
        result = sup.crawl(population)
        reasons = [r.failure_reason for r in result.records]
        assert reasons[:3] == [FailureReason.UNREACHABLE] * 3
        assert reasons[3:] == [FailureReason.CIRCUIT_OPEN] * 5
        assert sup.stats.breaker_skips == 5

    def test_hang_costs_the_full_step_budget(self):
        population = [SiteConfig(rank=1, domain="hang.example")]
        plan = FaultPlan.generate(
            population,
            1,
            rate=1.0,
            seed=4,
            fault_types=[FaultType.DRIVER_HANG],
            max_attempts_affected=1,
        )
        config = SupervisorConfig(
            visit_budget_ms=60_000.0,
            visit_cost_ms=8_000.0,
            backoff=BackoffPolicy(jitter=0.0),
        )
        sup = make_supervisor(plan, config=config, instances=1)
        sup.crawl(population)
        # budget (hang) + backoff(attempt 0) + clean retry cost.
        expected = 60_000.0 + config.backoff.delay_ms(0) + 8_000.0
        assert sup.clock.now() == pytest.approx(expected)


class TestCoverageAndHealth:
    def test_coverage_under_five_percent_faults(self):
        population = small_population(n=120)
        plan = FaultPlan.generate(population, 8, rate=0.05, seed=99)
        sup = make_supervisor(plan, instances=8)
        result = sup.crawl(population)
        assert len(plan) > 0
        assert visit_coverage(result, population, 8) >= 0.99
        # Every failed record explains itself.
        for record in result.failed_visits:
            assert record.failure_reason is not None

    def test_health_report_totals(self):
        population = small_population()
        plan = FaultPlan.generate(population, 4, rate=0.1, seed=12)
        sup = make_supervisor(plan)
        result = sup.crawl(population)
        health = evaluate_crawl_health(result)
        assert health.total_visits == len(population) * 4
        assert health.reached_visits + health.failed_visits == health.total_visits
        assert health.recovered_visits == sup.stats.recovered
        assert health.attempts_total >= health.total_visits
        assert sum(health.failure_counts.values()) == health.failed_visits
        labels = [label for label, _ in health.rows()]
        assert "recovered by retry" in labels

    def test_screenshot_eval_reports_failed_visits(self):
        population = small_population()
        result = make_supervisor().crawl(population)
        evaluation = evaluate_screenshots(result)
        assert evaluation.failed_visits == len(result.failed_visits)
        assert evaluation.total_visits + evaluation.failed_visits == len(result.records)

    def test_faulty_crawl_statistics_match_fault_free(self):
        """A recovered crawl must not bias the Table 2 categories."""
        population = small_population(n=120)
        clean = make_supervisor(instances=8).crawl(population)
        plan = FaultPlan.generate(population, 8, rate=0.05, seed=99)
        faulty = make_supervisor(plan, instances=8).crawl(population)
        clean_eval = evaluate_screenshots(clean)
        faulty_eval = evaluate_screenshots(faulty)
        assert faulty_eval.blocking_captchas.sites == clean_eval.blocking_captchas.sites
        assert faulty_eval.missing_ads.sites == clean_eval.missing_ads.sites
        assert (
            abs(faulty_eval.total_visits - clean_eval.total_visits)
            <= 0.01 * clean_eval.total_visits
        )
