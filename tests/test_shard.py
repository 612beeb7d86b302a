"""repro.shard: deterministic planner, fixpoint executor, byte-exact merge.

The oracle tests here are the subsystem's acceptance criteria: a sharded
crawl's merged artifacts -- checkpoint, trace, metrics, records, probe
ledger -- must be byte-identical to a serial same-seed run, for multiple
worker counts and shard sizes, and under interrupt-then-resume at every
shard boundary.
"""

import itertools
import json

import numpy as np
import pytest

import repro.crawl.supervisor as supervisor_module

from repro.crawl import (
    PopulationConfig,
    SupervisorConfig,
    generate_population,
)
from repro.faults import DELAY_GRID_MS, BackoffPolicy, FaultPlan, FaultType
from repro.obs.merge import MergeError, merge_metrics_states, merge_spans
from repro.obs.span import Span
from repro.shard import (
    FaultLogEntry,
    ManifestError,
    ShardRunSpec,
    build_supervisor,
    fold_fault_log,
    fresh_browser_states,
    observed_triggers,
    plan_shards,
    population_digest,
    run_sharded_crawl,
    shard_paths,
)
from repro.shard.cli import main as shard_main
from repro.shard.worker import WATCHDOGS_NONE, ShardTask, run_shard


def small_population(n=32, seed=3):
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


def make_config():
    # A tight recycle budget so faults recycle browsers *across* shard
    # boundaries: the hard case the entry-state fixpoint exists for.
    return SupervisorConfig(recycle_after_faults=2, checkpoint_every_sites=3)


def make_spec(watchdogs="default"):
    return ShardRunSpec(
        crawler_name="supervised",
        seed=7,
        instances=3,
        with_extension=True,
        config=make_config(),
        fault_plan=FaultPlan.generate(POPULATION, 3, rate=0.3, seed=11),
        ledger=True,
        watchdogs=watchdogs,
    )


POPULATION = small_population()


def run_serial(spec, out_dir):
    """The serial oracle: one supervisor, same crawl, canonical exports."""
    out_dir.mkdir(parents=True, exist_ok=True)
    supervisor = build_supervisor(spec)
    result = supervisor.crawl(
        POPULATION,
        checkpoint_path=out_dir / "crawl.ckpt.json",
        trace_path=out_dir / "crawl.trace.jsonl",
        ledger_path=out_dir / "crawl.ledger.jsonl" if spec.ledger else None,
    )
    canonical = dict(sort_keys=True, separators=(",", ":"))
    (out_dir / "crawl.metrics.json").write_text(
        json.dumps(supervisor.metrics.state_dict(), **canonical) + "\n"
    )
    (out_dir / "crawl.records.json").write_text(
        json.dumps([r.to_dict() for r in result.records], **canonical) + "\n"
    )
    return result


ARTIFACTS = (
    "crawl.ckpt.json",
    "crawl.trace.jsonl",
    "crawl.metrics.json",
    "crawl.records.json",
    "crawl.ledger.jsonl",
)


def assert_identical_dirs(dir_a, dir_b, artifacts=ARTIFACTS):
    for name in artifacts:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), (
            f"{name} diverges between {dir_a} and {dir_b}"
        )


@pytest.fixture(scope="module")
def serial_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("serial")
    run_serial(make_spec(), out)
    return out


class TestPlanner:
    def test_contiguous_blocks_cover_population(self):
        plan = plan_shards(POPULATION, 7, seed=7)
        assert [shard.start for shard in plan.shards] == [0, 7, 14, 21, 28]
        flattened = [site for shard in plan.shards for site in shard.sites]
        assert flattened == list(POPULATION)

    def test_plan_is_independent_of_anything_but_inputs(self):
        first = plan_shards(POPULATION, 7, seed=7)
        second = plan_shards(list(POPULATION), 7, seed=7)
        assert first.digest == second.digest
        assert [s.shard_id for s in first.shards] == [
            s.shard_id for s in second.shards
        ]

    def test_seed_and_size_and_content_move_the_digest(self):
        base = plan_shards(POPULATION, 7, seed=7)
        assert plan_shards(POPULATION, 7, seed=8).digest != base.digest
        assert plan_shards(POPULATION, 8, seed=7).digest != base.digest
        assert (
            plan_shards(POPULATION[:-1], 7, seed=7).digest != base.digest
        )

    def test_population_digest_is_content_addressed(self):
        assert population_digest(POPULATION) == population_digest(
            list(POPULATION)
        )
        assert population_digest(POPULATION) != population_digest(
            POPULATION[::-1]
        )

    def test_rejects_nonpositive_shard_size(self):
        with pytest.raises(ValueError):
            plan_shards(POPULATION, 0, seed=7)


class TestBackoffGrid:
    def test_jittered_delays_land_on_the_dyadic_grid(self):
        policy = BackoffPolicy()
        for attempt in range(4):
            for draw in range(20):
                rng = np.random.default_rng([7, 0x52, attempt, draw])
                delay = policy.delay_ms(attempt, rng=rng)
                # Exactly representable: an integer number of grid steps.
                steps = delay / DELAY_GRID_MS
                assert steps == int(steps)

    def test_quantisation_stays_inside_the_jitter_envelope(self):
        policy = BackoffPolicy()
        for attempt in range(4):
            base = policy.delay_ms(attempt)  # un-jittered, exact
            rng = np.random.default_rng([7, 0x52, attempt])
            delay = policy.delay_ms(attempt, rng=rng)
            slack = policy.jitter * base + DELAY_GRID_MS
            assert base - slack <= delay <= base + slack


class TestFaultLogFold:
    def test_fatal_faults_recycle_immediately(self):
        log = [FaultLogEntry(0, True, False), FaultLogEntry(0, True, False)]
        exits, triggers = fold_fault_log(
            fresh_browser_states(2), log, recycle_after_faults=2
        )
        assert exits[0] == {"fault_count": 0, "recycles": 2}
        assert triggers == []

    def test_budget_triggers_at_threshold_and_resets(self):
        log = [FaultLogEntry(1, False, False)] * 5
        exits, triggers = fold_fault_log(
            fresh_browser_states(2), log, recycle_after_faults=2
        )
        assert triggers == [1, 3]
        assert exits[1] == {"fault_count": 1, "recycles": 2}

    def test_entry_state_moves_the_trigger_positions(self):
        log = [FaultLogEntry(0, False, False)] * 3
        _, cold = fold_fault_log(
            fresh_browser_states(1), log, recycle_after_faults=2
        )
        _, warm = fold_fault_log(
            [{"fault_count": 1, "recycles": 0}], log, recycle_after_faults=2
        )
        assert cold == [1]
        assert warm == [0, 2]

    def test_recycling_off_is_inert(self):
        log = [FaultLogEntry(0, False, True), FaultLogEntry(0, True, False)]
        entry = [{"fault_count": 1, "recycles": 4}]
        exits, triggers = fold_fault_log(
            entry, log, recycle_after_faults=2, recycling=False
        )
        assert exits == entry and exits is not entry
        assert triggers == []

    def test_observed_triggers_reads_the_flags(self):
        log = [
            FaultLogEntry(0, False, False),
            FaultLogEntry(0, False, True),
            FaultLogEntry(1, False, True),
        ]
        assert observed_triggers(log) == [1, 2]


def _span(span_id, parent, name, start, end):
    span = Span(span_id, parent, name, float(start), {})
    span.end_ms = float(end)
    return span


class TestSpanMerge:
    def test_renumbers_and_rebases_across_shards(self):
        shard0 = [
            _span(1, 0, "crawl", 0, 100),
            _span(2, 1, "visit", 10, 40),
        ]
        shard1 = [
            _span(1, 0, "crawl", 0, 50),
            _span(2, 1, "visit", 5, 30),
            _span(3, 2, "attempt", 6, 20),
        ]
        merged = merge_spans([shard0, shard1])
        assert [(s.span_id, s.parent_id, s.name) for s in merged] == [
            (1, 0, "crawl"),
            (2, 1, "visit"),
            (3, 1, "visit"),
            (4, 3, "attempt"),
        ]
        assert merged[0].end_ms == 150.0
        assert merged[2].start_ms == 105.0
        assert merged[3].start_ms == 106.0

    def test_inputs_are_not_mutated(self):
        shard0 = [_span(1, 0, "crawl", 0, 100), _span(2, 1, "visit", 1, 2)]
        shard1 = [_span(1, 0, "crawl", 0, 50), _span(2, 1, "visit", 3, 4)]
        merge_spans([shard0, shard1])
        assert shard1[1].span_id == 2 and shard1[1].start_ms == 3.0

    def test_rejects_open_or_missing_roots(self):
        open_root = Span(1, 0, "crawl", 0.0, {})
        with pytest.raises(MergeError):
            merge_spans([[open_root]])
        with pytest.raises(MergeError):
            merge_spans([[]])
        with pytest.raises(MergeError):
            merge_spans(
                [[_span(1, 0, "crawl", 0, 9), _span(2, 0, "crawl", 1, 2)]]
            )
        with pytest.raises(MergeError):
            merge_spans([[_span(1, 0, "crawl", 5, 9)]])


class TestMetricsMerge:
    def test_counters_and_histograms_sum(self):
        a = {
            "counters": {"visits": 2},
            "histograms": {
                "visit_ms": {
                    "bounds": [1.0, 2.0],
                    "buckets": [1, 0, 0],
                    "total": 0.5,
                    "count": 1,
                }
            },
        }
        b = {
            "counters": {"visits": 3, "faults.crash": 1},
            "histograms": {
                "visit_ms": {
                    "bounds": [1.0, 2.0],
                    "buckets": [0, 2, 0],
                    "total": 3.0,
                    "count": 2,
                }
            },
        }
        merged = merge_metrics_states([a, b])
        assert merged["counters"] == {"faults.crash": 1, "visits": 5}
        assert merged["histograms"]["visit_ms"] == {
            "bounds": [1.0, 2.0],
            "buckets": [1, 2, 0],
            "total": 3.5,
            "count": 3,
        }

    def test_bound_mismatch_is_an_error(self):
        a = {
            "histograms": {
                "h": {"bounds": [1.0], "buckets": [0, 0], "total": 0.0, "count": 0}
            }
        }
        b = {
            "histograms": {
                "h": {"bounds": [2.0], "buckets": [0, 0], "total": 0.0, "count": 0}
            }
        }
        with pytest.raises(MergeError):
            merge_metrics_states([a, b])


def run_sharded(out_dir, *, shard_size=7, jobs=1, watchdogs="default",
                max_shards=None):
    spec = make_spec(watchdogs)
    return run_sharded_crawl(
        POPULATION,
        out_dir=out_dir,
        crawler_name=spec.crawler_name,
        seed=spec.seed,
        instances=spec.instances,
        with_extension=spec.with_extension,
        config=spec.config,
        fault_plan=spec.fault_plan,
        ledger=spec.ledger,
        watchdogs=watchdogs,
        shard_size=shard_size,
        jobs=jobs,
        max_shards=max_shards,
    )


class TestShardedOracle:
    """Merged sharded output is byte-identical to the serial run."""

    def test_single_job_matches_serial(self, tmp_path, serial_dir):
        outcome = run_sharded(tmp_path / "sharded", jobs=1)
        assert outcome.complete
        # The fixpoint actually ran: cross-shard recycle pressure forces
        # at least one shard to re-run under its true entry state.
        assert outcome.shards_run > len(outcome.plan)
        assert_identical_dirs(tmp_path / "sharded", serial_dir)

    def test_two_jobs_match_serial(self, tmp_path, serial_dir):
        outcome = run_sharded(tmp_path / "sharded", jobs=2)
        assert outcome.complete
        assert_identical_dirs(tmp_path / "sharded", serial_dir)

    def test_shard_size_does_not_change_the_bytes(self, tmp_path, serial_dir):
        outcome = run_sharded(tmp_path / "sharded", shard_size=5, jobs=2)
        assert outcome.complete
        assert_identical_dirs(tmp_path / "sharded", serial_dir)

    def test_watchdogs_none_ablation_matches_its_serial(self, tmp_path):
        serial = tmp_path / "serial"
        run_serial(make_spec(WATCHDOGS_NONE), serial)
        outcome = run_sharded(
            tmp_path / "sharded", jobs=2, watchdogs=WATCHDOGS_NONE
        )
        assert outcome.complete
        assert outcome.stats.recycles == 0
        assert_identical_dirs(tmp_path / "sharded", serial)

    def test_merged_stats_match_the_records(self, tmp_path, serial_dir):
        outcome = run_sharded(tmp_path / "sharded", jobs=1)
        stats = outcome.stats
        assert stats.visits == len(outcome.result.records)
        assert stats.reached == len(outcome.result.successful_visits)
        assert stats.failed == len(outcome.result.failed_visits)
        assert stats.resumed == 0

    def test_merged_checkpoint_resumes_a_serial_supervisor(
        self, tmp_path, serial_dir
    ):
        outcome = run_sharded(tmp_path / "sharded", jobs=1)
        supervisor = build_supervisor(make_spec())
        resumed = supervisor.crawl(
            POPULATION, checkpoint_path=outcome.artifacts.checkpoint
        )
        assert supervisor.stats.resumed == len(POPULATION) * 3
        assert json.dumps([r.to_dict() for r in resumed.records]) == (
            json.dumps([r.to_dict() for r in outcome.result.records])
        )


class TestInterruptResume:
    def test_resume_at_every_shard_boundary_is_byte_identical(
        self, tmp_path, serial_dir
    ):
        plan_len = len(plan_shards(POPULATION, 7, seed=7))
        assert plan_len == 5
        for cut in range(1, plan_len):
            out = tmp_path / f"cut{cut}"
            interrupted = run_sharded(out, max_shards=cut)
            assert not interrupted.complete
            assert interrupted.shards_run == cut
            assert interrupted.artifacts is None
            resumed = run_sharded(out)
            assert resumed.complete
            # Only the missing shards (plus fixpoint re-runs) executed.
            assert resumed.shards_run >= plan_len - cut
            assert_identical_dirs(out, serial_dir)

    def test_resume_reuses_recorded_shards(self, tmp_path):
        out = tmp_path / "sharded"
        run_sharded(out, max_shards=2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["shards"]) == ["0", "1"]
        resumed = run_sharded(out)
        assert resumed.complete

    def test_manifest_rejects_a_different_spec(self, tmp_path):
        out = tmp_path / "sharded"
        run_sharded(out, max_shards=1)
        spec = make_spec()
        with pytest.raises(ManifestError):
            run_sharded_crawl(
                POPULATION,
                out_dir=out,
                crawler_name=spec.crawler_name,
                seed=spec.seed + 1,
                instances=spec.instances,
                config=spec.config,
                shard_size=7,
            )

    def test_manifest_rejects_a_different_plan(self, tmp_path):
        out = tmp_path / "sharded"
        run_sharded(out, max_shards=1)
        with pytest.raises(ManifestError):
            run_sharded(out, shard_size=5)

    def test_manifest_of_the_older_checkpoint_format_is_refused(self, tmp_path):
        """A version-1 directory holds version-2 shard checkpoints: refused
        before any shard runs, not in the merge after all of them."""
        out = tmp_path / "sharded"
        run_sharded(out, max_shards=1)
        manifest = out / "manifest.json"
        data = json.loads(manifest.read_text())
        assert data["version"] == 2
        data["version"] = 1
        manifest.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="unsupported manifest version"):
            run_sharded(out)
        assert sorted(p.name for p in out.glob("*.ckpt.json")) == [
            "shard-0000.ckpt.json"
        ]

    @pytest.mark.parametrize(
        "variant",
        (
            {"max_attempts_affected": 3},
            {"fault_types": (FaultType.DRIVER_CRASH, FaultType.OOM_RESTART)},
        ),
        ids=("attempts", "types"),
    )
    def test_manifest_rejects_a_different_fault_schedule(self, tmp_path, variant):
        spec = make_spec()
        other = FaultPlan.generate(POPULATION, 3, rate=0.3, seed=11, **variant)
        # Same seed, rate, size and keys: only the schedule tells them apart.
        assert (other.seed, other.rate) == (spec.fault_plan.seed, spec.fault_plan.rate)
        assert other.schedule.keys() == spec.fault_plan.schedule.keys()
        assert other.schedule != spec.fault_plan.schedule
        out = tmp_path / "sharded"
        run_sharded(out, max_shards=1)
        with pytest.raises(ManifestError):
            run_sharded_crawl(
                POPULATION,
                out_dir=out,
                crawler_name=spec.crawler_name,
                seed=spec.seed,
                instances=spec.instances,
                with_extension=spec.with_extension,
                config=spec.config,
                fault_plan=other,
                ledger=spec.ledger,
                shard_size=7,
            )


class Crash(BaseException):
    """A worker killed mid-shard: nothing catches it."""


class TestFreshRerun:
    """A ``fresh=True`` re-run must not replay a checkpoint journal
    recorded under a stale entry state."""

    def task(self, out_dir, entry_states, fresh):
        shard = plan_shards(POPULATION, 7, seed=7).shards[1]
        return ShardTask(
            spec=make_spec(),
            index=shard.index,
            sites=tuple(shard.sites),
            out_dir=str(out_dir),
            entry_states=tuple(entry_states),
            fresh=fresh,
        )

    def stale_journal(self, out_dir, monkeypatch):
        """Kill a run under a stale entry state after its second flush."""
        stale = [{"fault_count": 1, "recycles": 2}] * 3
        real = supervisor_module.simulate_visit
        flushes = []
        append = supervisor_module.CrawlSupervisor._append_segment

        def visit(*args, **kwargs):
            if flushes:
                raise Crash
            return real(*args, **kwargs)

        def append_then_crash(self, path):
            append(self, path)
            flushes.append(path)

        with monkeypatch.context() as patch:
            patch.setattr(supervisor_module, "simulate_visit", visit)
            patch.setattr(
                supervisor_module.CrawlSupervisor,
                "_append_segment",
                append_then_crash,
            )
            with pytest.raises(Crash):
                run_shard(self.task(out_dir, stale, fresh=False))
        checkpoint = shard_paths(out_dir, 1).checkpoint.read_bytes()
        assert checkpoint.count(b"\n") == 1  # a head and one segment

    def test_fresh_task_discards_stale_segments(self, tmp_path, monkeypatch):
        states = fresh_browser_states(3)
        clean = tmp_path / "clean"
        clean.mkdir()
        run_shard(self.task(clean, states, fresh=False))
        rerun = tmp_path / "rerun"
        rerun.mkdir()
        self.stale_journal(rerun, monkeypatch)
        run_shard(self.task(rerun, states, fresh=True))
        for name in ("checkpoint", "trace", "ledger"):
            clean_path = getattr(shard_paths(clean, 1), name)
            assert clean_path.read_bytes() == (
                getattr(shard_paths(rerun, 1), name).read_bytes()
            ), name

    def test_resumed_task_replays_the_segments(self, tmp_path, monkeypatch):
        """The control: without ``fresh`` the stale journal is resumed."""
        states = fresh_browser_states(3)
        clean = tmp_path / "clean"
        clean.mkdir()
        run_shard(self.task(clean, states, fresh=False))
        resumed = tmp_path / "resumed"
        resumed.mkdir()
        self.stale_journal(resumed, monkeypatch)
        run_shard(self.task(resumed, states, fresh=False))
        assert shard_paths(clean, 1).checkpoint.read_bytes() != (
            shard_paths(resumed, 1).checkpoint.read_bytes()
        )


class TestObsDirectorySupport:
    @pytest.fixture(scope="class")
    def sharded_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sharded-obs")
        assert run_sharded(out, jobs=1).complete
        return out

    def test_report_accepts_a_shard_directory(self, sharded_dir, capsys):
        from repro.obs.cli import main as obs_main

        assert obs_main(["report", str(sharded_dir)]) == 0
        from_dir = capsys.readouterr().out
        assert obs_main(["report", str(sharded_dir / "crawl.trace.jsonl")]) == 0
        from_file = capsys.readouterr().out
        assert from_dir == from_file

    def test_diff_shard_dir_against_serial_trace(
        self, sharded_dir, serial_dir, capsys
    ):
        from repro.obs.cli import main as obs_main

        code = obs_main(
            ["diff", str(sharded_dir), str(serial_dir / "crawl.trace.jsonl")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "identical: yes" in out

    def test_diff_ledger_kind(self, sharded_dir, serial_dir, capsys):
        from repro.obs.cli import main as obs_main

        code = obs_main(
            [
                "diff",
                str(sharded_dir),
                str(serial_dir / "crawl.ledger.jsonl"),
                "--kind",
                "ledger",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "identical: yes" in out

    def test_report_rejects_an_empty_directory(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_main

        assert obs_main(["report", str(tmp_path)]) == 1


class TestShardCli:
    def test_verify_exits_zero(self, tmp_path, capsys):
        code = shard_main(
            [
                "--out",
                str(tmp_path / "out"),
                "--sites",
                "60",
                "--instances",
                "2",
                "--shard-size",
                "17",
                "--jobs",
                "2",
                "--fault-rate",
                "0.2",
                "--verify",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert '"status": "complete"' in out
        assert "verify ok" in out

    def test_interrupted_run_reports_resume_hint(self, tmp_path, capsys):
        args = [
            "--out",
            str(tmp_path / "out"),
            "--sites",
            "60",
            "--instances",
            "2",
            "--shard-size",
            "17",
        ]
        assert shard_main(args + ["--max-shards", "1"]) == 0
        out = capsys.readouterr().out
        assert '"status": "interrupted"' in out
        assert (tmp_path / "out" / "manifest.json").exists()
        assert shard_main(args) == 0
        assert '"status": "complete"' in capsys.readouterr().out


class TestShardArtifactLayout:
    def test_per_shard_files_are_zero_padded_plan_order(self, tmp_path):
        outcome = run_sharded(tmp_path / "sharded", jobs=1)
        for shard in outcome.plan.shards:
            paths = shard_paths(tmp_path / "sharded", shard.index)
            assert paths.checkpoint.exists()
            assert paths.trace.exists()
            assert paths.ledger.exists()
        names = sorted(
            p.name for p in (tmp_path / "sharded").glob("shard-*.trace.jsonl")
        )
        assert names == [
            f"shard-{i:04d}.trace.jsonl" for i in range(len(outcome.plan))
        ]
