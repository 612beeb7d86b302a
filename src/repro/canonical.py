"""Canonical JSON: the one byte format every diffed export is written in.

Traces, ledgers, profiles, reports, merged shard files and the bench
history are compared byte-for-byte across runs, so they must not depend
on dict insertion order.  Both forms sort keys:

- :func:`canonical_dumps` -- compact, one line (minimal separators):
  JSONL lines and machine-diffed files;
- :func:`canonical_dumps_pretty` -- two-space indent: reports and files
  people read.

Neither adds a trailing newline; each caller keeps its own choice.  The
version-3 crawl checkpoint is compact canonical JSON too, so a span's,
record's or ledger entry's checkpoint bytes are also its export line:
see :mod:`repro.jsontext` and
:func:`repro.crawl.supervisor.write_snapshot`.
"""

from __future__ import annotations

import json
from typing import Any


def canonical_dumps(value: Any) -> str:
    """``value`` as sorted-key, minimal-separator, single-line JSON."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_dumps_pretty(value: Any) -> str:
    """``value`` as sorted-key JSON indented by two spaces."""
    return json.dumps(value, sort_keys=True, indent=2)
