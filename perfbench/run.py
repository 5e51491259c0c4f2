"""The repository benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload runall-warm --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

* ``runall-warm``: ``python -m repro run-all --scale 1.0 --json``, back to
  back, on a cache that set-up fills with one cold run of the same
  command;
* ``serve-mix``: ``python -m repro serve --scale 1.0`` on a warm cache,
  driven by an open then a closed loop from two keep-alive connections.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` is the
separate traced run: it times each layer's public functions from these
files and reports the per-layer metrics. Every export and response is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import statistics
import sys
import tempfile
from typing import Any, Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

WORKLOADS = ("runall-warm", "serve-mix")
#: The end-to-end metrics. The open-loop median is printed with
#: ``open.p99_ms`` but is not one of them: see NOTES.md.
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "open.p99_ms": "ms",
    "closed.rps": "1/s",
}


def _end_to_end(workload: str, seed: int, seconds: float,
                root: pathlib.Path) -> Tuple[Dict[str, float], Dict[str, List[float]], Any]:
    """Returns (metric values, the samples behind them, the outcome counts)."""
    if workload == "runall-warm":
        import runall

        run = runall.workload(seed, seconds, root)
        check = run["check"]
        # No open loop here: a run-all invocation is the request, and the
        # invocations form a closed loop with one client.
        latency_ms = [wall * 1000.0 for wall in run["wall_s"]]
        samples = {"setup_s": run["setup_s"], "wall_s": run["wall_s"],
                   "peak_rss_mb": run["peak_rss_mb"], "open.p99_ms": latency_ms}
        values = {"closed.rps": run["artefacts_done"] / sum(run["wall_s"])}
        attempted, failed, problems = check.attempted, check.failed, check.problems
        print(f"# correctness reference: {check.source}; invocation CPU "
              f"{', '.join(f'{c:.2f}' for c in run['cpu_s'])} s of wall "
              f"{', '.join(f'{w:.2f}' for w in run['wall_s'])} s")
    else:
        import serve

        run = serve.load(seed, seconds, root, traced=False)
        check = run["check"]
        requests = run["open"] + run["closed"]
        closed_ok = sum(sample.ok for sample in run["closed"])
        samples = {"setup_s": run["setup_s"], "wall_s": [run["session_s"]],
                   "peak_rss_mb": [run["peak_rss_mb"]],
                   "open.p99_ms": [s.latency_ms for s in run["open"]],
                   "closed.rps": [closed_ok / run["closed_s"]]}
        values = {"closed.rps": closed_ok / run["closed_s"]}
        attempted = len(requests) + 1
        failed = sum(not sample.ok for sample in requests)
        problems = list(check.problems)
        if not run["clean_stop"]:
            failed += 1
            problems.append("server still alive at the SIGTERM deadline: killed")
        print(f"# fill {run['fill_s']:.2f} s, drain {run['drain_s']:.3f} s, "
              f"{len(run['open'])} open-loop and {len(run['closed'])} closed-loop requests")
    for name, series in samples.items():
        values.setdefault(name, common.quantile(series, 0.99) if name == "open.p99_ms"
                          else statistics.median(series))
    return values, samples, (attempted, failed, problems)


def _traced(workload: str, seed: int, seconds: float,
            root: pathlib.Path) -> Tuple[Dict[str, float], Any]:
    """Every per-layer metric: run-all layers, then the serving layers.

    On ``runall-warm`` the run-all layers load every input from a filled
    cache, as its operations do. ``serve-mix`` runs no run-all, so its
    traced run gives the run-all layers an empty cache instead: that is
    the cold run-all ``runall-warm`` times as its set-up. The serving
    layers then run on the cache either leaves.
    """
    import runall
    import serve

    flavour = "warm" if workload == "runall-warm" else "cold"
    ran = runall.traced(flavour, seed, root)
    served = serve.traced(seed, seconds, root)
    metrics = {**ran["metrics"], **served["metrics"]}
    attempted = ran["check"].attempted + served["metrics"]["loadgen.sent"] + 1
    failed = ran["check"].failed + served["metrics"]["loadgen.failed"]
    problems = ran["check"].problems + served["check"].problems
    if not served["clean_stop"]:
        failed += 1
        problems.append("server still alive at the SIGTERM deadline: killed")
    print(f"# correctness reference: {ran['check'].source}; idle-connection "
          f"drain exited {served['idle_drain_s']:.3f} s after the client closed")
    return metrics, (attempted, failed, problems)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {common.SRC.resolve()}; run from the "
              "repository root", file=sys.stderr)
        return 2

    common.compile_bytecode()
    calib_s = common.host_calibration()
    common.TMP_PARENT.mkdir(exist_ok=True)
    root = pathlib.Path(
        tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.TMP_PARENT)).resolve()
    try:
        if args.trace:
            values, outcome = _traced(args.workload, args.seed, args.seconds, root)
            values["host.calib_s"] = calib_s
            units = {name: _layer_unit(name) for name in values}
            for name in sorted(values):
                print(f"{name:34} {values[name]:14.6g} {units[name]}")
        else:
            values, samples, outcome = _end_to_end(
                args.workload, args.seed, args.seconds, root)
            units = UNITS
            for name in UNITS:
                detail = common.fmt_summary(samples.get(name, []), units[name]) \
                    if name in samples else ""
                print(f"{name:14} {values[name]:14.6g} {units[name]:4} {detail}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    attempted, failed, problems = outcome
    print(f"# fail_ratio {failed / attempted:.6g} ({failed}/{attempted}); "
          f"host.calib_s {calib_s:.4f}")
    for problem in problems:
        print(f"# FAILED {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": _finite(values[name]), "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    """Per-layer units follow the metric names: ``_s``, ``_us.p50``, ..."""
    stem = name.rsplit(".", 1)[0] if name.rsplit(".", 1)[-1] in ("p50", "p99", "mean") else name
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_us", "us"),
                         ("_ms", "ms"), ("_ms_per_req", "ms"),
                         ("_share", "ratio"), ("_ratio", "ratio")):
        if stem.endswith(suffix):
            return unit
    return "count"


def _finite(value: float) -> Any:
    return value if math.isfinite(value) else str(value)


if __name__ == "__main__":
    sys.exit(main())
