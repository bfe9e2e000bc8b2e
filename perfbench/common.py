"""Shared plumbing: repository paths, statistics and resource readings."""

from __future__ import annotations

import math
import os
import pathlib
import resource
import statistics
import sys
import time
from typing import Callable, Optional, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for cache directories and daemon logs: inside the
#: checkout, one directory per run, removed when the run ends
WORK_ROOT = ROOT / ".perfbench_work"
WORK_DIR = WORK_ROOT / str(os.getpid())


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def use_repo_sources() -> None:
    """Make ``import repro`` load this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC}/repro: run the "
                         f"benchmark from the root of a full checkout")
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile, refused unless at least ten
    samples lie beyond it -- a tail estimated from fewer is noise."""
    n = len(samples)
    rank = math.ceil(q / 100.0 * n)      # 1-based nearest rank
    beyond = n - rank
    if n == 0 or beyond < 10:
        raise BenchError(f"p{q:g} needs at least ten samples beyond it; "
                         f"{n} sample(s) leave {max(beyond, 0)}")
    return sorted(samples)[rank - 1]


def rate_from_passes(work_per_pass: int, pass_seconds: Sequence[float]
                     ) -> float:
    """Work per second of the median timed pass (robust to one slow
    pass, unlike a mean; repeatable, unlike min-of-N)."""
    return work_per_pass / median(pass_seconds)


def repeat_passes(run_pass: Callable[[bool], object], seconds: float,
                  traced: bool, min_passes: int) -> tuple[list, list]:
    """Run timed passes until *seconds* are used up and at least
    *min_passes* ran: ``(untraced outputs, traced outputs)``.

    ``run_pass(use_trace)`` runs one pass.  A traced run alternates
    untraced and traced passes and ends on a whole pair, so the two
    halves see the same machine conditions.
    """
    plain: list = []
    traced_out: list = []
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = traced and len(plain) > len(traced_out)
        (traced_out if use_trace else plain).append(run_pass(use_trace))
        if (time.perf_counter() >= deadline
                and len(plain) + len(traced_out) >= min_passes
                and len(traced_out) == (len(plain) if traced else 0)):
            return plain, traced_out


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak resident set of the largest waited-for child, MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process, MiB (None when unreadable)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def env_with_sources() -> dict:
    """Environment for a child Python process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env
