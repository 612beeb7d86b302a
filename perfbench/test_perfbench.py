"""Smoke tests for the benchmark, on tiny inputs (``--smoke``).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]

#: The end-to-end metrics and the workloads whose table shows them.
CRAWLS = {"crawl-plain", "crawl-checkpointed", "crawl-sharded"}
TABLE_METRICS = {
    "setup_s": set(WORKLOADS),
    "visits_per_s": set(WORKLOADS),
    "visit_ms_p50": {"interaction-study"},
    "visit_ms_p90": {"interaction-study"},
    "peak_rss_mb": set(WORKLOADS),
    "write_mb": CRAWLS,
    "coverage": set(WORKLOADS),
    "evasion_rate": {"interaction-study"},
    "error_rate": set(WORKLOADS),
}

sys.path.insert(0, str(ROOT / "src"))
import run  # noqa: E402
import workloads  # noqa: E402

UNITS = {*run.END_TO_END.values(), *run.TABLE_ONLY.values()}
_RUNS = {}


def smoke(workload: str, trace: int):
    """Run the benchmark once per (workload, trace) in a fresh process."""
    key = (workload, trace)
    if key not in _RUNS:
        _RUNS[key] = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                *("--workload", workload, "--seed", "3", "--seconds", "1"),
                *("--trace", str(trace), "--smoke"),
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=300,
        )
    return _RUNS[key]


def last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def table_units(stdout: str) -> dict:
    """``metric -> unit`` from the printed table rows."""
    units = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] in TABLE_METRICS:
            units[fields[0]] = next(f for f in fields[2:] if f in UNITS)
    return units


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_declared_metric_with_its_unit(workload, trace, section):
    done = smoke(workload, trace)
    assert done.returncode == 0, done.stderr
    result = last_line(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in DECLARED[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_table_prints_every_end_to_end_metric_where_it_applies(workload):
    done = smoke(workload, 0)
    expected = {
        name: ({**run.END_TO_END, **run.TABLE_ONLY})[name]
        for name, where in TABLE_METRICS.items()
        if workload in where
    }
    assert table_units(done.stdout) == expected
    assert "host {" in done.stdout


def test_end_to_end_metrics_are_never_zero():
    for workload in WORKLOADS:
        metrics = last_line(smoke(workload, 0).stdout)["metrics"]
        assert all(metric["value"] > 0 for metric in metrics.values()), workload


def test_flipped_byte_in_records_registers_in_error_rate(monkeypatch, capsys):
    check = workloads.check_artifacts

    def corrupted(expected, artifacts):
        records = bytearray(artifacts["records"])
        records[len(records) // 2] ^= 0x01
        return check(expected, {**artifacts, "records": bytes(records)})

    monkeypatch.setattr(workloads, "check_artifacts", corrupted)
    code = run.main(
        ["--workload", "crawl-checkpointed", "--seed", "3", "--seconds", "0.5", "--smoke"]
    )
    stdout = capsys.readouterr().out
    result = last_line(stdout)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    error_rate = next(line for line in stdout.splitlines() if "error_rate" in line)
    assert float(error_rate.split()[1]) == 1.0
    assert not list((ROOT / ".perfbench").glob("run-*")), "scratch dir left behind"


def test_interaction_oracle():
    assert workloads.visit_failures("selenium", 1, True, 10) == []
    assert workloads.visit_failures("selenium", 3, False, 10)
    assert workloads.visit_failures("hlisa", 2, True, 10)
    assert workloads.visit_failures("hlisa", 3, True, 10) == []
    assert workloads.visit_failures("human", 1, False, 0)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl-plain"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_probe_counts_file_writes_and_the_runs_own_peak(tmp_path):
    import multiprocessing

    from probe import RunProbe

    probe = RunProbe()
    sender, receiver = multiprocessing.Pipe()
    with probe.watching():
        (tmp_path / "a.txt").write_text("abc")
        with open(tmp_path / "b.bin", "wb") as handle:
            handle.write(b"12345")
        sender.send_bytes(b"x" * 1000)  # a pipe: not a file write
    receiver.recv_bytes()
    assert probe.written == 8
    baseline = probe.peak_kb
    with probe.watching():
        block = bytearray(64 * 1024 * 1024)
        block[::4096] = b"\x01" * len(block[::4096])
    del block
    assert probe.peak_kb - baseline > 48 * 1024
    with probe.watching():
        pass
    assert probe.peak_kb - baseline < 16 * 1024


def test_interaction_runs_repeat_the_same_visits(tmp_path):
    study = workloads.InteractionStudy(3, workloads.SMOKE, tmp_path)
    study.setup()
    first, second = study.run(), study.run()
    assert len(first.verdicts) == 9
    assert first.verdicts == second.verdicts
    assert len({seed for *_, seed in study.visits}) == 9


def test_sampled_takes_its_slices_out_of_the_wall_time(monkeypatch):
    import time

    import hostspeed

    def slice_s():  # a slice that costs 20 ms of wall time and no CPU
        time.sleep(0.02)
        return hostspeed.REFERENCE_NOMINAL_S / 2

    def busy():  # 0.3 s of this thread's CPU time; slices add none
        start = time.thread_time()
        while time.thread_time() - start < 0.3:
            pass
        return "done"

    monkeypatch.setattr(hostspeed, "reference_s", slice_s)
    start = time.perf_counter()
    result, wall, speed = hostspeed.sampled(busy)
    elapsed = time.perf_counter() - start
    assert result == "done"
    assert elapsed - wall > 0.05  # at least two slices ran inside the call
    assert 0.29 < wall < 0.36
    assert speed == 2.0
