"""Shared helpers for the benchmark: paths, statistics, environment record.

Everything here is benchmark-side plumbing; nothing imports ``repro`` at
module level, so the runner can report a missing source tree cleanly.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Optional, Sequence

#: The benchmark's own directory (``perfbench/``) and the checkout root.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: ledgers, trace files, run records.
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: Every seed is folded into this many recorded input sets, so each run's
#: outputs can be compared against a reference recorded for its inputs.
INPUT_SETS = 16


def input_seed(seed: int) -> int:
    """The recorded input set a ``--seed`` value selects."""
    return seed % INPUT_SETS


def unit_seeds(seed: int, per_set: int) -> list[int]:
    """The *per_set* simulation seeds of ``--seed``'s input set.

    A run cycles its units through all of them, so one run's median
    averages over several arrival processes instead of resting on one.
    """
    first = input_seed(seed) * per_set
    return list(range(first, first + per_set))


def work_path(*parts: str) -> str:
    """A path under the benchmark's scratch directory (created)."""
    path = os.path.join(WORK_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def child_env() -> dict[str, str]:
    """Environment for child processes: ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100), linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return float(num) / float(den) if den else 0.0


# -- environment record -------------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def calibration_ms(repeats: int = 3) -> float:
    """Best-of-*repeats* time of a fixed pure-Python loop, in ms.

    Dividing a later run's timings by the ratio of calibration times puts
    runs on different hosts on a common footing.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return best * 1e3


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_environment() -> dict[str, Any]:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "calibration_ms": calibration_ms(),
    }


# -- process helpers ----------------------------------------------------------


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of *pid* (default: self), MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def children_peak_rss_mb() -> float:
    """Largest peak RSS of any waited-for child process, MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def emit(line_obj: Any) -> None:
    """Print one JSON line and flush (children talk to the runner so)."""
    sys.stdout.write(json.dumps(line_obj, sort_keys=True) + "\n")
    sys.stdout.flush()


def load_references() -> dict[str, Any]:
    with open(os.path.join(BENCH_DIR, "references.json")) as fh:
        return json.load(fh)


def canonical(obj: Any) -> str:
    """Canonical JSON text (sorted keys; floats round-trip exactly)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
