"""The ``runall-warm`` workload, and the traced run of the run-all layers.

Set-up fills an empty cache with one ``python -m repro run-all --scale
1.0 --json`` child: a cold run-all. Each measured operation is the same
command against that cache. Its export is checked artefact by artefact against the recorded
reference digests for the seed and against every other export made in
the same benchmark run; an artefact that did not finish ok or whose
export differs is a failed operation.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import common
import reference

SCALE = reference.SCALE
ARTEFACT_COUNT = 31


class ExportCheck:
    """Compares every export made in one benchmark run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = reference.load_reference(seed)
        #: Digests of the first export when no reference is recorded.
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def source(self) -> str:
        if self.reference:
            return f"recorded reference for seed {self.seed}"
        return f"first export of this run (seed {self.seed} not recorded)"

    def check(self, label: str, results: Dict[str, Any],
              ok_ids: Optional[set] = None,
              expected: Optional[Dict[str, str]] = None) -> None:
        """Count the artefacts of one export that are missing, not ok or differ."""
        digests = reference.digests_of(results)
        if expected is None:
            expected = self.reference or self.first
            if not expected:
                self.first = expected = digests
        ids = sorted(set(expected) | set(digests))
        bad = [
            artefact for artefact in ids
            if (ok_ids is not None and artefact not in ok_ids)
            or digests.get(artefact) != expected.get(artefact)
        ]
        self.attempted += len(ids)
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{label}: {', '.join(bad)}")

    def check_failed_run(self, label: str, why: str) -> None:
        self.attempted += ARTEFACT_COUNT
        self.failed += ARTEFACT_COUNT
        self.problems.append(f"{label}: {why}")


def _run_all(seed: int, root: pathlib.Path, cache: pathlib.Path, label: str,
             check: ExportCheck, scale: float = SCALE,
             expected: Optional[Dict[str, str]] = None):
    """One run-all child: returns (Child, report or None)."""
    out = root / f"{label}.json"
    child = common.run_child(
        common.runall_command(seed, scale, out, cache), root,
        log_name=f"{label}.log",
    )
    report = None
    if out.exists():
        report = json.loads(out.read_text())
        ok_ids = {run["artefact_id"] for run in report["runs"] if run["status"] == "ok"}
        check.check(label, report["results"], ok_ids, expected)
        out.unlink()
    if report is None or child.status != 0:
        why = ("killed at the deadline" if child.timed_out
               else f"exit {child.status}")
        tail = child.log.read_text(errors="replace")[-400:].strip()
        why = f"{why}; log ends: {tail}"
        if report is None:
            check.check_failed_run(label, why)
        else:
            check.problems.append(f"{label}: {why}")
    return child, report


def workload(seed: int, seconds: float, root: pathlib.Path) -> Dict[str, Any]:
    """Fill a cache with a cold run-all, then run warm run-alls for ``seconds``."""
    check = ExportCheck(seed)
    cache = root / "cache"
    started = time.perf_counter()
    _run_all(seed, root, cache, "fill", check)
    setup = [time.perf_counter() - started]
    walls: List[float] = []
    cpu: List[float] = []
    rss: List[float] = []
    done = 0
    measure_started = time.perf_counter()
    while not walls or time.perf_counter() - measure_started < seconds:
        child, report = _run_all(seed, root, cache, f"op-{len(walls)}", check)
        walls.append(child.wall_s)
        cpu.append(child.cpu_s)
        rss.append(child.maxrss_mb)
        done += len(report["results"]) if report is not None else 0
    if seed == 2024:
        golden_check(root, check)
    return {
        "check": check,
        "setup_s": setup,
        "wall_s": walls,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "artefacts_done": done,
    }


def golden_check(root: pathlib.Path, check: ExportCheck) -> None:
    """At seed 2024 the committed scale-0.05 golden is a second reference."""
    _run_all(2024, root, root / "cache-golden", "golden", check, scale=0.05,
             expected=reference.golden_digests())


# -- traced run ---------------------------------------------------------------


def _import_times(root: pathlib.Path) -> Dict[str, float]:
    """Seconds per package from a ``-X importtime`` child.

    ``import.repro_cli_s`` and ``import.repro_experiments_s`` are
    inclusive: everything imported on the way in, scipy included. The
    third-party figures are exclusive, the self times of the package's
    own modules, so scipy's share leaves out the numpy it pulls in.
    """
    code = ("import repro.cli, repro.core.runner\n"
            "from repro.experiments import registry\nregistry.load_all()\n")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        env=common.child_env(root), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"importtime child failed: {proc.stderr[-2000:]}")
    # Lines come in post-order, indented by depth: a line's children are
    # the lines one level deeper printed since its last sibling.
    pending: Dict[int, list] = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, label = line[len("import time:"):].split("|")
        depth = (len(label) - len(label.lstrip())) // 2
        node = (label.strip(), int(own), int(cumulative), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    roots = [node for nodes in pending.values() for node in nodes]

    def walk(package: str, inclusive: bool, nodes=roots) -> float:
        total = 0.0
        for name, own, cumulative, children in nodes:
            mine = name == package or name.startswith(package + ".")
            if mine and inclusive:
                total += cumulative / 1e6
            else:
                total += (own / 1e6 if mine else 0.0) + walk(package, inclusive, children)
        return total

    return {
        "import.total_s": sum(node[2] for node in roots) / 1e6,
        "import.repro_cli_s": walk("repro.cli", inclusive=True),
        "import.repro_experiments_s": walk("repro.experiments", inclusive=True),
        "import.scipy_s": walk("scipy", inclusive=False),
        "import.networkx_s": walk("networkx", inclusive=False),
        "import.numpy_s": walk("numpy", inclusive=False),
    }


def traced(kind: str, seed: int, root: pathlib.Path) -> Dict[str, Any]:
    """Per-layer metrics: one untraced child, then the layers timed in-process.

    ``kind`` is ``"cold"`` (every input built and stored) or ``"warm"``
    (every input loaded from a cache the untraced fill left).
    """
    check = ExportCheck(seed)
    metrics: Dict[str, Any] = {}
    # The run's default cache: the traced serve load that follows reuses it.
    cache = root / "cache"
    if kind == "warm":
        _run_all(seed, root, cache, "fill", check)
        untraced, _ = _run_all(seed, root, cache, "untraced", check)
    else:
        untraced, _ = _run_all(seed, root, root / "cache-untraced", "untraced", check)
    traced_started = time.perf_counter()
    metrics.update(_import_times(root))
    import_child_s = time.perf_counter() - traced_started

    sys.path.insert(0, str(common.SRC.resolve()))
    from layers import timed_study

    inproc_started = time.perf_counter()
    layer = timed_study(seed, SCALE, cache)
    inproc_s = time.perf_counter() - inproc_started
    check.check("traced", layer.pop("results"))
    metrics.update(layer)
    layer_sum = (
        metrics["import.total_s"] + metrics["input.total_s"]
        + metrics["analysis.total_s"] + metrics["export.jsonable_s"]
        + metrics["export.dump_s"]
    )
    metrics["unattributed_s"] = untraced.wall_s - layer_sum
    metrics["attributed_share"] = layer_sum / untraced.wall_s
    metrics["trace.overhead_s"] = import_child_s + inproc_s - untraced.wall_s
    return {"check": check, "metrics": metrics}
