"""Shared plumbing: environment, peak RSS, percentiles, per-seed cache."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: One BLAS / kernel thread everywhere: the box has few cores, and the
#: serving workload shares them with its load generator.
THREADS = 1
THREAD_VARS = (
    "REPRO_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"


def pin_environment() -> None:
    """Pin thread counts (before numpy is imported) and make ``repro`` importable."""
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment_info(rss_method: str) -> Dict[str, Any]:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "peak_rss_method": rss_method,
    }


# ---------------------------------------------------------------------------
# Peak RSS
# ---------------------------------------------------------------------------
def status_kb(pid: int, field: str) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


class PeakRss:
    """True peak RSS of one process: reset the high-water mark, read ``VmHWM``.

    Where ``/proc/<pid>/clear_refs`` cannot be written, falls back to
    sampling ``VmRSS`` every 5 ms on a thread; :attr:`method` says which.
    """

    def __init__(self, pid: int):
        self.pid = pid
        self.method = "vmhwm"
        self._peak = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def reset(self) -> None:
        try:
            with open(f"/proc/{self.pid}/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
        except OSError:
            self.method = "sampled"
            self._thread = threading.Thread(target=self._sample, daemon=True)
            self._thread.start()

    def _sample(self) -> None:
        while not self._stop.is_set():
            self._peak = max(self._peak, status_kb(self.pid, "VmRSS") or 0.0)
            self._stop.wait(0.005)

    def read_mb(self) -> float:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            return self._peak / 1024.0
        return (status_kb(self.pid, "VmHWM") or 0.0) / 1024.0


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def nearest_rank(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), nearest rank: always an observed value."""
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


# ---------------------------------------------------------------------------
# Per-seed input cache
# ---------------------------------------------------------------------------
def cache_dir(workload: str, seed: int, spec: Dict[str, Any]) -> Path:
    """The cache directory of one workload's inputs and references at a seed."""
    key = hashlib.blake2b(
        json.dumps(spec, sort_keys=True).encode("utf-8"), digest_size=6
    ).hexdigest()
    path = CACHE / f"{workload}-s{seed}-{key}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------
def timed_probe(args: List[str]) -> float:
    """Seconds from spawning ``perfbench/probe.py args`` to its ``ready`` line."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return elapsed
