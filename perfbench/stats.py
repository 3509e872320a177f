"""Small numeric helpers shared by the workloads and the runner."""

from __future__ import annotations

import json
import re
import zlib
from typing import Sequence

#: metric and workload names (the BENCHMARK.json contract's alphabet)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: a percentile is reported only with this many samples beyond it
MIN_TAIL_SAMPLES = 10


def supports(count: int, pct: float) -> bool:
    """Whether ``count`` samples leave :data:`MIN_TAIL_SAMPLES` beyond
    the ``pct``-th percentile — a tail read off a handful of samples is
    noise, not a measurement."""
    return count * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values`` by nearest rank."""
    n = len(values)
    rank = min(n - 1, max(0, int(round(n * pct / 100.0)) - 1))
    return sorted(values)[rank]


def checksum(obj: object) -> int:
    """crc32 of the canonical JSON of ``obj`` (repeats exactly)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(text.encode("utf-8"))
