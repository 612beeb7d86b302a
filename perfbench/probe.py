"""Peak RSS and bytes written to files during one timed run.

Both figures cover the run alone, not the benchmark's own work around
it (set-ups, the oracle crawl, the output checks):

- **Peak RSS.** Just before the run, free memory is handed back to the
  OS (``malloc_trim``) and the process's high-water mark is reset by
  writing ``5`` to ``/proc/self/clear_refs``; right after the run,
  ``VmHWM`` is read from ``/proc/self/status``.  Pool workers read their
  own ``VmHWM`` at the end of every shard task.  The run's peak is the
  largest of these.
- **Bytes written.** Files the program opens for writing while the run
  is in progress count the bytes passed to their ``write()``; pipes (the
  pool's task and result pickles) do not count.  Pool workers add the
  bytes of each shard task.

Workers hand their figures to the parent through shared memory created
before the pool forks them, so measuring adds no file or pipe traffic.
"""

from __future__ import annotations

import builtins
import contextlib
import ctypes
import ctypes.util
import functools
import io
import multiprocessing
import os
import resource
from typing import Callable

from tracing import Hooks

# Bound at import, before any hook is installed.
_OPEN = io.open
_WRITE_MODES = frozenset("wax+")


def rss_peak_kb() -> int:
    """This process's RSS high-water mark (``VmHWM``), in kB."""
    with _OPEN("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def reset_rss_peak() -> bool:
    """Reset the high-water mark to the current RSS; False if the kernel
    does not allow it."""
    try:
        with _OPEN("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        rss_peak_kb()
    except OSError:
        return False
    return True


def release_free_memory() -> None:
    """Return the allocator's free pages to the OS (glibc only), so the
    run's peak is not set by memory an earlier step left behind."""
    name = ctypes.util.find_library("c")
    try:
        ctypes.CDLL(name).malloc_trim(0)
    except (OSError, AttributeError, TypeError):
        pass


class _CountedFile:
    """A file opened for writing whose ``write()`` calls are counted."""

    def __init__(self, raw, probe: "RunProbe") -> None:
        self._raw = raw
        self._probe = probe

    def write(self, data):
        if isinstance(data, str) and not data.isascii():
            self._probe.written += len(data.encode(self._raw.encoding))
        else:
            self._probe.written += len(data)
        return self._raw.write(data)

    def __enter__(self):
        self._raw.__enter__()
        return self

    def __exit__(self, *exc):
        return self._raw.__exit__(*exc)

    def __iter__(self):
        return iter(self._raw)

    def __getattr__(self, name):
        return getattr(self._raw, name)


class RunProbe:
    """Measures one timed run at a time; see the module docstring."""

    def __init__(self) -> None:
        self.parent_pid = os.getpid()
        self._lock = multiprocessing.Lock()
        #: Workers' largest ``VmHWM`` (kB) and their bytes written.
        self._workers = multiprocessing.RawArray("d", 2)
        self.written = 0
        self.peak_kb = 0
        self.exact_peak = True

    def _open(self, fn: Callable):
        @functools.wraps(fn)
        def wrapper(file, mode="r", *args, **kwargs):
            raw = fn(file, mode, *args, **kwargs)
            if _WRITE_MODES.isdisjoint(mode):
                return raw
            return _CountedFile(raw, self)

        return wrapper

    def _task(self, fn: Callable):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.parent_pid:
                return fn(*args, **kwargs)
            before = self.written
            try:
                return fn(*args, **kwargs)
            finally:
                peak = rss_peak_kb()
                with self._lock:
                    self._workers[0] = max(self._workers[0], peak)
                    self._workers[1] += self.written - before

        return wrapper

    @contextlib.contextmanager
    def watching(self):
        """Count writes and track peak RSS while the block runs; the
        figures are in :attr:`peak_kb` and :attr:`written` afterwards."""
        self._workers[0] = self._workers[1] = 0.0
        self.written = 0
        hooks = Hooks()
        opener = self._open(_OPEN)
        hooks.replace(io, "open", opener)
        hooks.replace(builtins, "open", opener)
        hooks.function("repro.shard.worker", "run_shard", self._task)
        release_free_memory()
        self.exact_peak = reset_rss_peak()
        try:
            yield self
        finally:
            hooks.remove()
        own = (
            rss_peak_kb()
            if self.exact_peak
            else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
        self.peak_kb = max(own, int(self._workers[0]))
        self.written += int(self._workers[1])
