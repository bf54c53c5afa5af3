"""Shared plumbing of the benchmark: source lookup, statistics, output.

Everything here is independent of the program under test, so a change
to ``src/repro`` cannot change how a run is counted or reported.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
#: scratch space for journals and span dumps, inside the checkout and
#: listed in the root .gitignore
WORK = ROOT / ".perfbench-work"

#: a run serves at least this many measured requests, so the tail rule
#: below always has ten samples beyond the reported percentile
MIN_REQUESTS = 40
TAIL_BEYOND = 10


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def require_source() -> None:
    """Put the checkout's ``src`` on the import path, or raise."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SourceMissing(
            f"no program source at {SOURCE}; run the benchmark from a "
            f"checkout of the repository"
        )
    path = str(SOURCE)
    if path not in sys.path:
        sys.path.insert(0, path)


def benchmark_spec() -> dict:
    """The checked-in ``BENCHMARK.json`` (metric names, units, bounds)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics ----------------------------------------------------------------


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile: the smallest value with at least
    ``percentile`` per cent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest nearest-rank percentile that leaves at least
    ``TAIL_BEYOND`` samples above it: rank ``count - 10`` of ``count``."""
    if count < MIN_REQUESTS:
        raise ValueError(
            f"{count} samples is too few for a tail; need {MIN_REQUESTS}"
        )
    return 100.0 * (count - TAIL_BEYOND) / count


def tail(values: Sequence[float]) -> float:
    """The value at :func:`tail_percentile` (exactly rank ``n - 10``)."""
    tail_percentile(len(values))  # refuses too few samples
    ordered = sorted(values)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the inter-quartile distance as a share of
    the median — the steadiness figure the bounds are checked against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else float("inf"),
    }


# -- process measurements ------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Clock:
    """Wall-clock stopwatch over ``time.perf_counter``."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


# -- results -------------------------------------------------------------------


class CheckFailed(AssertionError):
    """An output check found the program's results wrong."""


def expect(condition: bool, message: str) -> None:
    """Fail the run loudly when an output check does not hold."""
    if not condition:
        raise CheckFailed(message)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def emit(
    *, correct: bool, attempted: int, failed: int,
    metrics: Dict[str, Dict[str, object]],
) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)


def work_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def stdout_lines(text: str) -> List[str]:
    return [line for line in text.splitlines() if line.strip()]
