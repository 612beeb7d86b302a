"""Outside-in benchmark for the crawl and the HLISA interaction path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload crawl-checkpointed --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced runs.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones, plus the tracing overhead; its
spans are written to ``.perfbench/traces/<workload>-seed<seed>.jsonl``.
``--smoke`` uses tiny inputs (for the benchmark's own tests).

Output: a table of every metric that applies to the workload, a host
fingerprint line, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is
0 when every output check passed, 1 when one failed, and 2 when the
program's sources (``src/repro``) are missing.

All scratch files go to a temporary directory under ``.perfbench/``,
which is removed at exit.  See ``README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from hostspeed import sampled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: End-to-end metrics on the result line (``--trace 0``), with units.
END_TO_END = {
    "setup_s": "s",
    "visits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "coverage": "ratio",
}

#: End-to-end metrics printed in the table only: each applies to some
#: workloads and is 0 or undefined on the others (see README.md).
TABLE_ONLY = {
    "visit_ms_p50": "ms",
    "visit_ms_p90": "ms",
    "write_mb": "MB",
    "evasion_rate": "ratio",
    "error_rate": "ratio",
}

#: Per-layer metrics on the result line (``--trace 1``), with units.
PER_LAYER = {
    "population.generate_s": "s",
    "visit.calls": "count",
    "visit.self_s": "s",
    "visit.reached_per_call": "ratio",
    "supervisor.retries": "count",
    "supervisor.recycles": "count",
    "bus.events": "count",
    "bus.publish_self_s": "s",
    "obs.spans": "count",
    "obs.export_s": "s",
    "obs.export_mb": "MB",
    "persist.encode_calls": "count",
    "persist.encode_s": "s",
    "persist.write_s": "s",
    "persist.write_mb": "MB",
    "persist.decode_s": "s",
    "persist.checkpoint_ms_p50": "ms",
    "shard.shards_run": "count",
    "shard.useful_ratio": "ratio",
    "shard.tasks_s": "s",
    "shard.worker_busy_s": "s",
    "shard.merge_s": "s",
    "core.perform_calls": "count",
    "core.perform_self_s": "s",
    "motor.generate_s": "s",
    "motor.points": "count",
    "input.dispatch_s": "s",
    "input.events": "count",
    "detection.evaluate_calls": "count",
    "detection.evaluate_s": "s",
    "analysis.trajectory_s": "s",
    "io.write_mb": "MB",
    "trace.overhead_pct": "%",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Imports the named modules in a fresh interpreter, sampling that
#: interpreter's own host speed while it does (see hostspeed.py).
_IMPORT_TIMER = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from hostspeed import sampled\n"
    "_, seconds, speed = sampled(lambda: [__import__(n) for n in sys.argv[3:]])\n"
    "print(seconds, speed)\n"
)


@dataclass
class Rep:
    """One timed run and what its check found."""

    output: object
    wall_s: float
    #: Host speed while the run ran (see :func:`sampled`).
    speed: float
    attempted: int
    failures: List[str]
    #: Peak RSS (MB) and bytes written to files during the run, over this
    #: process and its pool workers (untraced runs only; see probe.py).
    peak_mb: Optional[float] = None
    written: Optional[int] = None


# -- host and process probes -----------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_fingerprint() -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def import_seconds(modules):
    """Import time of ``modules`` in a fresh interpreter, and the host
    speed that interpreter saw meanwhile."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(HERE), str(SRC), *modules],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        cwd=ROOT,
    )
    seconds, speed = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(speed)


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- measuring -------------------------------------------------------------


def measure_setup(workload, repeats: int):
    """Median set-up time, host-normalized and as measured, and median
    input-generation time.  One set-up is a fresh-interpreter import of
    the workload's modules plus in-process input generation and
    construction; each part is normalized by the speed its own process
    saw."""
    generate = []

    def once():
        imported, import_speed = import_seconds(workload.modules)
        built, build_s, speed = sampled(workload.setup)
        generate.append(built["generate_s"])
        return imported * import_speed + build_s * speed, imported + build_s

    samples = [once() for _ in range(repeats)]
    return (
        statistics.median(normalized for normalized, _ in samples),
        statistics.median(seconds for _, seconds in samples),
        statistics.median(generate),
    )


def timed_rep(workload, probe=None, tracing_on=contextlib.nullcontext()) -> Rep:
    """Prepare, time and check one run; only ``workload.run()`` is timed
    (and traced, when ``tracing_on`` installs the hooks).  A ``probe``
    measures the run's peak RSS and file writes."""
    workload.prepare()
    # The previous run's cyclic garbage is the benchmark's leftover, not
    # this run's work: collect it before the clock starts.
    gc.collect()

    def run():
        with tracing_on:
            return workload.run()

    with probe.watching() if probe else contextlib.nullcontext():
        output, wall, speed = sampled(run)
    attempted, failures = workload.check(output)
    output.artifacts = None  # the run's supervisors and spans; free them
    rep = Rep(output, wall, speed, attempted, failures)
    if probe:
        rep.peak_mb = probe.peak_kb / 1024.0
        rep.written = probe.written
    return rep


@contextlib.contextmanager
def traced(log, index: int):
    """Hooks installed and a root span open for one run."""
    import tracing

    log.reset()
    log.run_id = index
    hooks = tracing.install(log)
    root = log.begin("run")
    log.root = root[0]
    try:
        yield
    finally:
        log.end(root)
        log.root = 0
        hooks.remove()


def traced_rep(workload, log, index: int):
    import tracing

    first = len(log.spans)
    rep = timed_rep(workload, tracing_on=traced(log, index))
    log.collect_spool()
    log.fold_pipelines()
    output = rep.output
    layers = tracing.layer_metrics(
        log.spans[first:],
        log.counters,
        log.write_samples_ms,
        retries=output.retries,
        recycles=output.recycles,
        plan_shards=output.plan_shards,
    )
    return rep, layers


def loop(seconds: float, step) -> None:
    """Call ``step`` until ``seconds`` of wall time have passed (once at least)."""
    start = perf_counter()
    step()
    while perf_counter() - start < seconds:
        step()


# -- reporting -------------------------------------------------------------


def visits_per_s(reps: List[Rep], normalized: bool) -> float:
    """Median over runs of visits per second, host-normalized or as measured."""
    return statistics.median(
        rep.output.visits / (rep.wall_s * (rep.speed if normalized else 1.0))
        for rep in reps
    )


def visit_ms(reps: List[Rep], normalized: bool) -> Dict[str, float]:
    """Percentiles of single visits' wall times (interaction study)."""
    samples = [
        ms * (rep.speed if normalized else 1.0)
        for rep in reps
        for ms in rep.output.visit_ms
    ]
    return {
        "visit_ms_p50": percentile(samples, 50),
        "visit_ms_p90": percentile(samples, 90),
    }


def failures_of(reps: List[Rep]):
    return sum(rep.attempted for rep in reps), sum(len(rep.failures) for rep in reps)


def end_to_end(workload, reps: List[Rep], setup_s: float) -> Dict[str, float]:
    outputs = [rep.output for rep in reps]
    attempted, failed = failures_of(reps)
    metrics = {
        "setup_s": setup_s,
        "visits_per_s": visits_per_s(reps, normalized=True),
        "peak_rss_mb": statistics.median(rep.peak_mb for rep in reps),
        "coverage": statistics.median(output.coverage for output in outputs),
        "error_rate": failed / attempted,
    }
    if workload.per_visit_samples:
        from workloads import evasion_rate

        metrics.update(visit_ms(reps, normalized=True))
        metrics["evasion_rate"] = evasion_rate(
            [verdict for output in outputs for verdict in output.verdicts]
        )
    else:
        metrics["write_mb"] = statistics.median(rep.written for rep in reps) / 1e6
    return metrics


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, (int, float)) else value


def print_table(title: str, header, rows) -> None:
    print(title)
    print(f"  {header[0]:<26} {header[1]:>14} {header[2]:>14} {'unit':<6} note")
    for name, value, measured, unit, note in rows:
        print(f"  {name:<26} {fmt(value):>14} {fmt(measured):>14} {unit:<6} {note}")


def result_line(reps: List[Rep], metrics: Dict[str, float], units: Dict[str, str]) -> bool:
    attempted, failed = failures_of(reps)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return failed == 0


def report_failures(reps: List[Rep]) -> None:
    for index, rep in enumerate(reps):
        for failure in rep.failures:
            print(f"perfbench: run {index}: output check failed: {failure}", file=sys.stderr)


def run_untraced(workload, args, setup) -> bool:
    from probe import RunProbe

    setup_s, setup_wall_s, _ = setup
    probe = RunProbe()
    reps: List[Rep] = []
    loop(args.seconds, lambda: reps.append(timed_rep(workload, probe)))
    report_failures(reps)
    metrics = end_to_end(workload, reps, setup_s)
    wall = {"setup_s": setup_wall_s, "visits_per_s": visits_per_s(reps, normalized=False)}
    notes = {
        "setup_s": f"median of {args.setup_repeats} set-ups",
        "peak_rss_mb": f"during the run, this process or a worker; median of {len(reps)} runs",
        "error_rate": "failed / attempted",
        "evasion_rate": "over every HLISA visit at L1 or L2",
    }
    if workload.per_visit_samples:
        wall.update(visit_ms(reps, normalized=False))
        visits = sum(rep.output.visits for rep in reps)
        notes["visit_ms_p50"] = notes["visit_ms_p90"] = f"over {visits} visits"
    rows = [
        (name, metrics[name], wall.get(name, ""), unit, notes.get(name, f"median of {len(reps)} runs"))
        for name, unit in {**END_TO_END, **TABLE_ONLY}.items()
        if name in metrics
    ]
    print_table(
        f"perfbench {workload.name} seed={args.seed} runs={len(reps)} (untraced)",
        ("metric", "host-normalized", "as measured"),
        rows,
    )
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    return result_line(reps, metrics, END_TO_END)


def run_traced(workload, args, setup) -> bool:
    import tracing
    from probe import RunProbe

    probe = RunProbe()
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=args.workdir))
    log = tracing.SpanLog(spool)
    plain: List[Rep] = []
    traced_reps: List[Rep] = []
    layer_runs: List[Dict[str, float]] = []

    def pair() -> None:
        plain.append(timed_rep(workload, probe))
        rep, layers = traced_rep(workload, log, len(traced_reps) + 1)
        traced_reps.append(rep)
        layer_runs.append(layers)

    loop(args.seconds, pair)
    report_failures(plain + traced_reps)
    metrics = {
        name: statistics.median(run[name] for run in layer_runs)
        for name in layer_runs[0]
    }
    metrics["population.generate_s"] = setup[2]
    metrics["io.write_mb"] = statistics.median(rep.written for rep in plain) / 1e6
    untraced_s = statistics.median(rep.wall_s * rep.speed for rep in plain)
    traced_s = statistics.median(rep.wall_s * rep.speed for rep in traced_reps)
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0

    SCRATCH.joinpath("traces").mkdir(parents=True, exist_ok=True)
    spans_path = SCRATCH / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
    tracing.write_spans(spans_path, log.spans)

    visits = plain[0].output.visits
    print_table(
        f"perfbench {workload.name} seed={args.seed} traced runs={len(traced_reps)} "
        f"(median per traced run; host-normalized visits/s: untraced "
        f"{fmt(visits / untraced_s)}, traced {fmt(visits / traced_s)})",
        ("metric", "value", ""),
        [(name, metrics[name], "", unit, "") for name, unit in PER_LAYER.items()],
    )
    wall = sum(rep.wall_s for rep in traced_reps)
    print("self time by layer over all traced runs (s, share of traced wall time):")
    for layer, seconds in tracing.layer_ranking(log.spans):
        print(f"  {layer:<28} {fmt(seconds):>14} {seconds / wall:7.1%}")
    print(f"spans: {spans_path.relative_to(ROOT)}")
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    return result_line(plain + traced_reps, metrics, PER_LAYER)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    SCRATCH.mkdir(exist_ok=True)
    args.workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    args.setup_repeats = 1 if args.smoke else SETUP_REPEATS
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = args.workdir
    try:
        scale = workloads.SMOKE if args.smoke else workloads.FULL
        workload = workloads.WORKLOADS[args.workload](args.seed, scale, Path(args.workdir))
        setup = measure_setup(workload, args.setup_repeats)
        workload.oracle()
        run = run_traced if args.trace else run_untraced
        correct = run(workload, args, setup)
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(args.workdir, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
