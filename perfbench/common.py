"""Shared plumbing: isolated run roots, child accounting, statistics.

Every child the benchmark starts runs with its own cache, history and
home directories under a per-run temporary root inside the checkout, so
nothing reads or writes ``~/.cache``. Peak RSS and CPU time come from
``os.wait4`` on that one child; ``RUSAGE_CHILDREN`` would report the
maximum over every child the benchmark ever reaped.
"""

from __future__ import annotations

import math
import os
import pathlib
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Where the per-run temporary roots live, relative to the checkout root.
TMP_PARENT = pathlib.Path(".perfbench_tmp")
SRC = pathlib.Path("src")


def child_env(root: pathlib.Path) -> Dict[str, str]:
    """Environment for a repro child confined to ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.resolve())
    env["REPRO_CACHE_DIR"] = str(root / "cache")
    env["REPRO_HISTORY_DIR"] = str(root / "history")
    env["XDG_CACHE_HOME"] = str(root / "xdg")
    env["HOME"] = str(root / "home")
    env.pop("REPRO_CACHE_DISABLE", None)
    return env


def runall_command(seed: int, scale: float, out: pathlib.Path,
                   cache: Optional[pathlib.Path] = None) -> List[str]:
    cache = cache if cache is not None else out.parent / "cache"
    return [
        sys.executable, "-m", "repro", "--seed", str(seed), "run-all",
        "--scale", f"{scale:g}", "--json", str(out), "--cache-dir", str(cache),
    ]


@dataclass
class Child:
    status: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool
    log: pathlib.Path


def spawn(cmd: Sequence[str], root: pathlib.Path, log_name: str) -> subprocess.Popen:
    """Start ``cmd`` confined to ``root``, output to ``root / log_name``."""
    with open(root / log_name, "wb") as log:
        return subprocess.Popen(
            list(cmd), env=child_env(root), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT,
        )


def wait_child(proc: subprocess.Popen, deadline_s: float):
    """Reap ``proc`` within ``deadline_s``: its rusage, or None if still alive."""
    started = time.perf_counter()
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.perf_counter() - started > deadline_s:
            return None
        time.sleep(0.005)


def kill_child(proc: subprocess.Popen):
    """SIGKILL ``proc`` and reap it; returns its rusage."""
    proc.kill()
    return wait_child(proc, math.inf)


def run_child(cmd: Sequence[str], root: pathlib.Path, deadline_s: float = 150.0,
              log_name: str = "child.log") -> Child:
    """Run ``cmd`` to completion (killed at the deadline) and account for it."""
    started = time.perf_counter()
    proc = spawn(cmd, root, log_name)
    usage = wait_child(proc, deadline_s)
    timed_out = usage is None
    if timed_out:
        usage = kill_child(proc)
    return Child(
        status=proc.returncode, wall_s=time.perf_counter() - started,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0, timed_out=timed_out,
        log=root / log_name,
    )


def host_calibration() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    started = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i % 7
    if total < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - started


def compile_bytecode() -> None:
    """Write ``.pyc`` files for ``src`` so no timed child compiles."""
    import compileall

    if not compileall.compile_dir(str(SRC), quiet=1, workers=1):
        raise RuntimeError("compiling src failed")


# -- statistics -------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of p50/p90/p95/p99/p99.9 with >= 10 samples beyond it."""
    best = None
    for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
        if count * (1.0 - pct / 100.0) >= 10:
            best = pct
    return best


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, the deepest tail percentile the sample count supports, n."""
    out = {"n": len(values), "p50": statistics.median(values) if values else math.nan}
    pct = tail_percentile(len(values))
    if pct is not None and pct > 50.0:
        out[f"p{pct:g}"] = quantile(values, pct / 100.0)
    return out


def fmt_summary(values: Sequence[float], unit: str) -> str:
    parts = summary(values)
    text = [f"p50={parts['p50']:.4g}{unit}"]
    for key, value in parts.items():
        if key.startswith("p") and key != "p50":
            text.append(f"{key}={value:.4g}{unit}")
    text.append(f"n={parts['n']}")
    return " ".join(text)
