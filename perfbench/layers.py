"""The run-all layers timed from outside, in the benchmark's own process.

Nothing in ``src/`` is edited: the benchmark calls each layer's public
functions itself and times the calls. An ``ArtifactCache`` subclass,
installed with ``set_default_cache``, times the cache layer underneath
the input getters. Importing this module imports repro, so the caller
puts ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import json
import pathlib
import time
import urllib.parse
from typing import Any, Dict, List

from common import quantile
from repro.core import cache as cache_mod
from repro.core.study import ThickMnaStudy
from repro.experiments import common, registry, rx1
from repro.experiments.export import jsonable


class TimedCache(cache_mod.ArtifactCache):
    """An ``ArtifactCache`` that adds up time and bytes per load and store."""

    def __init__(self, root: pathlib.Path) -> None:
        super().__init__(root=root)
        self.load_s = self.store_s = 0.0
        self.load_bytes = self.store_bytes = 0

    def load(self, key: str):
        started = time.perf_counter()
        value = super().load(key)
        self.load_s += time.perf_counter() - started
        if value is not None:
            self.load_bytes += self._path(key).stat().st_size
        return value

    def store(self, key: str, value: Any):
        started = time.perf_counter()
        path = super().store(key, value)
        self.store_s += time.perf_counter() - started
        if path is not None:
            self.store_bytes += path.stat().st_size
        return path


def _timed(metrics: Dict[str, float], name: str, fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    metrics[name] = time.perf_counter() - started
    return value


def timed_study(seed: int, scale: float, cache_root: pathlib.Path) -> Dict[str, Any]:
    """Acquire every run-all input, then run, export and render each artefact.

    Inputs come first, in the order ``StudyRunner.warm_inputs`` and the
    experiments ask for them, so each ``analysis.<ID>_s`` is analysis
    alone: RX1's chaos campaign and XA's default-scale campaign are
    acquired up front like the others.
    """
    cache = TimedCache(cache_root)
    previous = cache_mod.get_default_cache()
    cache_mod.set_default_cache(cache)
    common.clear_caches()
    metrics: Dict[str, Any] = {}
    try:
        _timed(metrics, "input.world_s", common.get_world, seed)
        _timed(metrics, "input.device_dataset_s", common.get_device_dataset,
               scale, seed)
        _timed(metrics, "input.web_dataset_s", common.get_web_dataset, seed)
        _timed(metrics, "input.market_s", common.get_market)
        _timed(metrics, "input.device_dataset_chaos_s", common.get_device_dataset,
               scale, seed, chaos=rx1.default_chaos(seed))
        _timed(metrics, "input.device_dataset_default_s", common.get_device_dataset,
               common.DEFAULT_SCALE, seed)
        metrics["input.total_s"] = sum(
            value for name, value in metrics.items() if name.startswith("input."))

        study = ThickMnaStudy(seed=seed)
        results: Dict[str, Any] = {}
        for artefact in registry.artefact_ids():
            spec = registry.get_spec(artefact)
            results[artefact] = _timed(
                metrics, f"analysis.{artefact}_s", study.run, artefact,
                scale=scale if spec.supports_scale else None)
        metrics["analysis.total_s"] = sum(
            value for name, value in metrics.items() if name.startswith("analysis."))

        flat = _timed(metrics, "export.jsonable_s",
                      lambda: {key: jsonable(value) for key, value in results.items()})
        text = _timed(metrics, "export.dump_s", json.dumps,
                      {"results": flat}, indent=2, sort_keys=True)
        metrics["export.json_bytes"] = len(text.encode("utf-8"))
        _timed(metrics, "export.render_s",
               lambda: [study.format_result(key, value) for key, value in results.items()])
    finally:
        cache_mod.set_default_cache(previous)
        common.clear_caches()
    metrics.update({
        "cache.load_s": cache.load_s,
        "cache.load_bytes": cache.load_bytes,
        "cache.store_s": cache.store_s,
        "cache.store_bytes": cache.store_bytes,
        "cache.hits": cache.stats.hits,
        "cache.misses": cache.stats.misses,
        "results": flat,
    })
    return metrics


def timed_state(seed: int, scale: float, cache_root: pathlib.Path,
                paths: List[str]) -> Dict[str, Any]:
    """Warm a ``ServerState`` in this process and replay ``paths`` against it.

    Each request calls the state method the HTTP handler would call, so
    the figures are the server's compute without the transport: the
    query or artefact, then the JSON encoding ``_send_json`` does, and a
    ``/metrics`` exposition render.
    """
    from repro import obs
    from repro.obs import exposition
    from repro.server.state import ServerState

    previous_cache = cache_mod.get_default_cache()
    cache_mod.set_default_cache(cache_mod.ArtifactCache(root=cache_root))
    common.clear_caches()
    recorder = obs.MetricsRecorder()
    previous = obs.set_recorder(recorder)
    timings: Dict[str, List[float]] = {
        "query": [], "artefact": [], "healthz": [], "encode": [], "render": []}
    sizes: List[int] = []
    try:
        state = ServerState(seed=seed, scale=scale)
        started = time.perf_counter()
        state.warm()
        warm_s = time.perf_counter() - started
        for path in paths:
            parsed = urllib.parse.urlsplit(path)
            route = parsed.path.strip("/").split("/")[0]
            started = time.perf_counter()
            if route == "metrics":
                body = exposition.render(registry=recorder.metrics).encode("utf-8")
                timings["render"].append(time.perf_counter() - started)
                sizes.append(len(body))
                continue
            if route == "query":
                params = {key: values[-1] for key, values
                          in urllib.parse.parse_qs(parsed.query).items()}
                kind = params.pop("kind")
                group_by = tuple(filter(None, params.pop("group_by", "").split(",")))
                count_by = tuple(filter(None, params.pop("count_by", "").split(",")))
                records = int(params.pop("records", "0") or 0)
                payload = state.query(kind, where=params, group_by=group_by,
                                      count_by=count_by, records=records)
            elif route == "artefact":
                payload = state.artefact(parsed.path.rsplit("/", 1)[1])
            else:
                payload = state.healthz()
            timings[route].append(time.perf_counter() - started)
            started = time.perf_counter()
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            timings["encode"].append(time.perf_counter() - started)
            sizes.append(len(body))
    finally:
        obs.set_recorder(previous)
        cache_mod.set_default_cache(previous_cache)
        common.clear_caches()

    def us(name: str, q: float) -> float:
        return quantile(timings[name], q) * 1e6

    return {
        "state.warm_s": warm_s,
        "state.query_us.p50": us("query", 0.5),
        "state.query_us.p99": us("query", 0.99),
        "state.artefact_us.p50": us("artefact", 0.5),
        "state.healthz_us.p50": us("healthz", 0.5),
        "encode_us.p50": us("encode", 0.5),
        "exposition.render_us.p50": us("render", 0.5),
        "response_bytes.mean": sum(sizes) / len(sizes),
    }
