"""The host's speed while a timed call runs.

The benchmark was tuned on a shared 2-core host whose speed switches
between spells up to 1.8x apart, about once a second, while the share of
slow spells drifts from minute to minute.  A timed call is therefore
sampled while it runs: a timer signal interrupts it every
``SAMPLE_INTERVAL_S`` and runs one slice of a small fixed reference
workload that does not touch the program.  The gated times are scaled
by the speed the slices saw (see ``README.md``).

This module imports only ``gc``, ``json``, ``signal`` and ``time``: the
set-up's fresh interpreter loads it before timing the program's imports,
and must not import the stdlib modules those imports would load.
"""

from __future__ import annotations

import gc
import json
import signal
from time import perf_counter, thread_time

# Bound at import, before the traced run can wrap ``json.dumps``: a slice
# must not be booked as the program's persistence.
_DUMPS = json.dumps

#: CPU time of one :func:`reference_s` slice on the 2-core host the
#: benchmark was tuned on, in its usual mix of fast and slow spells.  It
#: only sets the scale: on that host the host-normalized figures read like
#: wall figures.
REFERENCE_NOMINAL_S = 0.0025

#: Interval between samples while a timed call runs.
SAMPLE_INTERVAL_S = 0.1


def reference_s() -> float:
    """CPU time of a small fixed pure-Python and JSON workload: the
    host's speed at this moment.

    The garbage collector is off while it runs: otherwise a collection
    over whatever heap the benchmark holds at that moment (a crawl's
    records, say) would land in the slice, and it would measure the heap
    rather than the host.  It counts this thread's CPU time, not wall
    time, so that a slice taken while pool workers keep both cores busy
    does not count the time it waits for a core.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = thread_time()
        doc = {f"k{i}": [i, i * 0.5, f"v{i}", {"n": i, "ok": True}] for i in range(100)}
        total = 0
        for i in range(2500):
            row = doc[f"k{i % 100}"]
            total += row[0] + len(row[2]) + row[3]["n"]
        for _ in range(5):
            _DUMPS(doc, sort_keys=True)
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()


def sampled(call):
    """``call()``'s result, its wall time, and the host speed while it ran.

    One slice runs just before the call, one every ``SAMPLE_INTERVAL_S``
    inside it (on ``SIGALRM``) and one just after.  The speed is the mean
    of ``REFERENCE_NOMINAL_S / slice``: the samples are even in time, so
    fast and slow spells weigh by how long each lasted.  The wall time of
    the slices inside the call is taken out of the call's wall time.
    Pool workers forked meanwhile inherit the handler but not the timer,
    so only this process is interrupted.
    """
    samples = [reference_s()]
    inside = 0.0

    def tick(signum, frame) -> None:
        nonlocal inside
        start = perf_counter()
        samples.append(reference_s())
        inside += perf_counter() - start

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = perf_counter()
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    samples.append(reference_s())
    speed = sum(REFERENCE_NOMINAL_S / sample for sample in samples) / len(samples)
    return result, wall - inside, speed
