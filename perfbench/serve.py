"""The ``serve-mix`` workload: ``repro serve`` under an open then a closed loop.

One client (this process) holds two keep-alive connections. The
request schedule is a pure function of the seed and of the country
list the server reports, so every run at one seed sends the same
requests in the same order.

Phase 1 is an open loop: Poisson arrivals at :data:`OPEN_RATE` per
second, each request timed from when it was due, so a stalled request
also delays the ones queued behind it. Phase 2 is a closed loop: both
connections send back to back. A request fails on a non-200 status, a
timeout, a connection error or a response that fails its check.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import common
import reference

SCALE = reference.SCALE
OPEN_RATE = 20.0
CONNECTIONS = 2
#: Share of ``--seconds`` given to the open loop; the rest is closed loop.
OPEN_SHARE = 0.8
REQUEST_TIMEOUT_S = 10.0
READY_DEADLINE_S = 120.0
DRAIN_DEADLINE_S = 20.0
#: How long an idle keep-alive connection may hold up a SIGTERM drain.
IDLE_DRAIN_WAIT_S = 5.0
#: Readiness is measured this many times per run (the last server serves).
SETUP_SPAWNS = 3
#: A request whose transport time exceeds this counts as stalled.
STALL_MS = 30.0

KINDS = ("traceroute", "speedtest", "cdn", "dns", "video", "web")
DIMENSIONS = ("country", "sim_kind", "architecture", "b_mno", "v_mno",
              "pgw_provider", "pgw_country", "rat", "config")
#: ``records=10`` pivots: 40-90 KB responses.
RECORD_PIVOTS = (("traceroute", "architecture"), ("speedtest", "country"),
                 ("cdn", "sim_kind"), ("dns", "architecture"))
ARTEFACTS = ("T2", "T4", "F7")
MIX = (
    (0.35, "count_by"), (0.25, "group_by"), (0.15, "where"),
    (0.10, "records"), (0.10, "artefact"), (0.05, "ops"),
)


# -- the server process -------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    ready_s: float


def spawn_server(seed: int, root: pathlib.Path, label: str) -> Server:
    """Start ``repro serve --port 0``; returns once ``/healthz`` says 200."""
    log = root / f"{label}.log"
    started = time.perf_counter()
    proc = common.spawn(
        [sys.executable, "-u", "-m", "repro", "--seed", str(seed), "serve",
         "--port", "0", "--scale", f"{SCALE:g}"],
        root, log.name,
    )
    port = None
    while time.perf_counter() - started < READY_DEADLINE_S:
        if common.wait_child(proc, 0.0) is not None:
            raise RuntimeError(f"server exited with {proc.returncode}; log ends: "
                               f"{log.read_text(errors='replace')[-400:]}")
        if port is None:
            for line in log.read_text(errors="replace").splitlines():
                if line.startswith("repro-serve listening on "):
                    url = line.split()[3]
                    port = urllib.parse.urlsplit(url).port
        elif _healthz_ok(port):
            return Server(proc, port, time.perf_counter() - started)
        time.sleep(0.01)
    common.kill_child(proc)
    raise RuntimeError(f"server not ready within {READY_DEADLINE_S:g} s; log ends: "
                       f"{log.read_text(errors='replace')[-400:]}")


def _healthz_ok(port: int) -> bool:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except OSError:
        return False
    finally:
        conn.close()


def stop_server(server: Server, deadline_s: float = DRAIN_DEADLINE_S) -> Tuple[bool, float, float]:
    """SIGTERM, wait; kill at the deadline. Returns (clean, drain_s, maxrss_mb)."""
    started = time.perf_counter()
    server.proc.send_signal(signal.SIGTERM)
    usage = common.wait_child(server.proc, deadline_s)
    drain_s = time.perf_counter() - started
    clean = usage is not None and server.proc.returncode == 0
    if usage is None:
        usage = common.kill_child(server.proc)
    return clean, drain_s, usage.ru_maxrss / 1024.0


def server_cpu_s(pid: int) -> float:
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- the request schedule -----------------------------------------------------


def _get(conn: http.client.HTTPConnection, path: str,
         headers: Optional[Dict[str, str]] = None):
    conn.request("GET", path, headers=headers or {})
    response = conn.getresponse()
    return response.status, response.read(), response


def countries(port: int) -> List[str]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        status, body, _ = _get(conn, "/query?kind=traceroute&count_by=country")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"bootstrap query returned {status}")
    return sorted(json.loads(body)["counts"])


def _request(rng: random.Random, shape: str, country_list: List[str]) -> str:
    kind = rng.choice(KINDS)
    if shape == "count_by":
        return f"/query?kind={kind}&count_by={rng.choice(DIMENSIONS)}"
    if shape == "group_by":
        return f"/query?kind={kind}&group_by={rng.choice(DIMENSIONS)}"
    if shape == "where":
        return (f"/query?kind={kind}&country={rng.choice(country_list)}"
                f"&sim_kind={rng.choice(('esim', 'sim'))}")
    if shape == "records":
        kind, dimension = rng.choice(RECORD_PIVOTS)
        return f"/query?kind={kind}&group_by={dimension}&records=10"
    if shape == "artefact":
        return f"/artefact/{rng.choice(ARTEFACTS)}"
    return rng.choice(("/healthz", "/metrics"))


def _requests(rng: random.Random, count: int, country_list: List[str]) -> List[str]:
    """``count`` requests whose shapes have exactly the :data:`MIX` shares."""
    shapes: List[str] = []
    for share, shape in MIX:
        shapes += [shape] * round(share * count)
    shapes = (shapes + [MIX[0][1]] * count)[:count]
    rng.shuffle(shapes)
    return [_request(rng, shape, country_list) for shape in shapes]


def schedule(seed: int, country_list: List[str], open_s: float,
             closed_count: int) -> Tuple[List[Tuple[float, str]], List[str]]:
    """Open-loop (due time, path) pairs and the closed-loop path sequence.

    The arrival times are one fixed realisation of a Poisson process at
    :data:`OPEN_RATE` (conditioned on its count), the same for every
    seed: the open-loop tail is set by how arrivals cluster, and a
    seed-dependent clustering would move ``open.p99_ms`` more than any
    change to the server. The seed chooses the requests and their order.
    """
    count = round(OPEN_RATE * open_s)
    arrivals_rng = random.Random(f"serve-mix:arrivals:{count}")
    due = sorted(arrivals_rng.uniform(0.0, open_s) for _ in range(count))
    rng = random.Random(f"serve-mix:{seed}")
    arrivals = list(zip(due, _requests(rng, count, country_list)))
    return arrivals, _requests(rng, closed_count, country_list)


# -- the client ---------------------------------------------------------------


@dataclass
class Sample:
    path: str
    latency_ms: float
    ok: bool
    lag_ms: float = 0.0
    server_ms: Optional[float] = None
    rtt_ms: float = 0.0
    body: bytes = b""


@dataclass
class ResponseCheck:
    """Same request, same bytes; artefacts match the run-all reference."""

    reference: Dict[str, str] = field(default_factory=dict)
    seen: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def ok(self, path: str, body: bytes) -> bool:
        if path in ("/healthz", "/metrics"):
            return bool(body)
        payload = json.loads(body)
        if path.startswith("/artefact/"):
            artefact = path.rsplit("/", 1)[1]
            expected = self.reference.get(artefact)
            if expected is not None and reference.digest(payload["result"]) != expected:
                return self.problem(f"{path}: result differs from run-all reference")
            body = json.dumps(payload["result"], sort_keys=True).encode()
        else:
            total = payload["count"]
            parts = payload.get("counts", payload.get("groups"))
            if parts is not None and sum(parts.values()) != total:
                return self.problem(f"{path}: parts do not add up to count")
        digest = reference.digest(body.decode())
        with self.lock:
            first = self.seen.setdefault(path, digest)
        return first == digest or self.problem(f"{path}: response changed")

    def problem(self, text: str) -> bool:
        with self.lock:
            if len(self.problems) < 20:
                self.problems.append(text)
        return False


class Client:
    """Two keep-alive connections; reconnects after a failed request."""

    def __init__(self, port: int, check: ResponseCheck, traced: bool) -> None:
        self.port = port
        self.check = check
        self.traced = traced
        self.conns = [self._connect() for _ in range(CONNECTIONS)]
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def close(self) -> None:
        for conn in self.conns:
            conn.close()

    def send(self, slot: int, path: str) -> Tuple[bool, float, Optional[float], bytes]:
        """One GET: (status 200, seconds, server span ms or None, body)."""
        headers = {}
        if self.traced:
            with self._lock:
                span = next(self._ids)
            headers["traceparent"] = f"00-perfbench-c{span}-01"
        started = time.perf_counter()
        try:
            status, body, response = _get(self.conns[slot], path, headers)
            elapsed = time.perf_counter() - started
            server_ms = None
            export = response.getheader("X-Repro-Span")
            if export:
                server_ms = json.loads(export)["duration_s"] * 1000.0
            if status != 200:
                self.check.problem(f"{path}: status {status}")
            return status == 200, elapsed, server_ms, body
        except (OSError, http.client.HTTPException, ValueError) as error:
            self.check.problem(f"{path}: {type(error).__name__}: {error}")
            self.conns[slot].close()
            self.conns[slot] = self._connect()
            return False, time.perf_counter() - started, None, b""

    def open_loop(self, arrivals: List[Tuple[float, str]]) -> List[Sample]:
        samples: List[Optional[Sample]] = [None] * len(arrivals)
        cursor = iter(range(len(arrivals)))
        lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def worker(slot: int) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due, path = arrivals[index]
                due_at = start + due
                delay = due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent_at = time.perf_counter()
                ok, elapsed, server_ms, body = self.send(slot, path)
                done = sent_at + elapsed
                samples[index] = Sample(
                    path, (done - due_at) * 1000.0 if ok else math.inf, ok,
                    lag_ms=(sent_at - due_at) * 1000.0, server_ms=server_ms,
                    rtt_ms=elapsed * 1000.0, body=body)

        _run_threads(worker)
        return [sample for sample in samples if sample is not None]

    def closed_loop(self, paths: List[str], seconds: float) -> Tuple[List[Sample], float]:
        samples: List[Sample] = []
        cursor = iter(paths)
        lock = threading.Lock()
        deadline = time.perf_counter() + seconds
        started = time.perf_counter()

        def worker(slot: int) -> None:
            while time.perf_counter() < deadline:
                with lock:
                    path = next(cursor, None)
                if path is None:
                    return
                ok, elapsed, server_ms, body = self.send(slot, path)
                sample = Sample(path, elapsed * 1000.0 if ok else math.inf, ok,
                                server_ms=server_ms, rtt_ms=elapsed * 1000.0,
                                body=body)
                with lock:
                    samples.append(sample)

        _run_threads(worker)
        return samples, time.perf_counter() - started


def _run_threads(worker) -> None:
    threads = [threading.Thread(target=worker, args=(slot,), daemon=True)
               for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=600)
        if thread.is_alive():
            raise RuntimeError("client thread did not finish")


# -- the workload -------------------------------------------------------------


def _fill(seed: int, root: pathlib.Path) -> float:
    """Warm the run's cache once: a server started on an empty cache."""
    started = time.perf_counter()
    server = spawn_server(seed, root, "fill")
    clean, _, _ = stop_server(server)
    if not clean:
        raise RuntimeError("filling server did not drain after SIGTERM")
    return time.perf_counter() - started


def load(seed: int, seconds: float, root: pathlib.Path, traced: bool) -> Dict[str, Any]:
    """Fill, measure readiness, run both loops; returns samples and counts."""
    fill_s = _fill(seed, root)
    setup: List[float] = []
    for spawn_index in range(SETUP_SPAWNS):
        server = spawn_server(seed, root, f"serve-{spawn_index}")
        setup.append(server.ready_s)
        if spawn_index < SETUP_SPAWNS - 1:
            if not stop_server(server)[0]:
                raise RuntimeError("server did not drain after SIGTERM")
    served_at = time.perf_counter()
    check = ResponseCheck(reference.load_reference(seed))
    open_s = seconds * OPEN_SHARE
    closed_s = seconds - open_s
    out: Dict[str, Any] = {"check": check, "setup_s": setup, "fill_s": fill_s}
    try:
        arrivals, closed_paths = schedule(
            seed, countries(server.port), open_s, closed_count=int(closed_s * 400))
        scrape_before = _scrape(server.port) if traced else None
        cpu_before = server_cpu_s(server.proc.pid)
        client = Client(server.port, check, traced)
        try:
            out["open"] = client.open_loop(arrivals)
            out["closed"], out["closed_s"] = client.closed_loop(closed_paths, closed_s)
        finally:
            client.close()
        requests = len(out["open"]) + len(out["closed"])
        out["cpu_ms_per_req"] = (
            (server_cpu_s(server.proc.pid) - cpu_before) * 1000.0 / requests)
        if traced:
            out["scrapes"] = (scrape_before, _scrape(server.port))
    finally:
        clean, drain_s, maxrss = stop_server(server)
    out.update(clean_stop=clean, drain_s=drain_s, peak_rss_mb=maxrss,
               session_s=time.perf_counter() - served_at + setup[-1])
    # Responses are checked once the server is gone, so checking costs
    # neither client time during the load nor session wall.
    for sample in out["open"] + out["closed"]:
        if sample.ok and not check.ok(sample.path, sample.body):
            sample.ok, sample.latency_ms = False, math.inf
        sample.body = b""
    return out


def _scrape(port: int) -> Dict[str, float]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        status, body, _ = _get(conn, "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics returned {status}")
    values: Dict[str, float] = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            values[name] = float(value)
    return values


def drain_idle(seed: int, root: pathlib.Path) -> Tuple[int, float]:
    """Does one idle keep-alive connection hold up a SIGTERM drain?

    Returns (1 if the server was still alive :data:`IDLE_DRAIN_WAIT_S`
    after SIGTERM, else 0; seconds from the client's close to the exit).
    A server still alive :data:`DRAIN_DEADLINE_S` after the close is
    killed.
    """
    server = spawn_server(seed, root, "idle")
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S)
    signalled = False
    try:
        _get(conn, "/healthz")
        server.proc.send_signal(signal.SIGTERM)
        signalled = True
        hung = int(common.wait_child(server.proc, IDLE_DRAIN_WAIT_S) is None)
    finally:
        conn.close()
        closed_at = time.perf_counter()
        if server.proc.returncode is None:
            if not signalled:
                server.proc.send_signal(signal.SIGTERM)
            if common.wait_child(server.proc, DRAIN_DEADLINE_S) is None:
                common.kill_child(server.proc)
    return hung, time.perf_counter() - closed_at


def traced(seed: int, seconds: float, root: pathlib.Path) -> Dict[str, Any]:
    """Per-layer serving metrics: a traced load, then the state in-process."""
    run = load(seed, seconds, root, traced=True)
    samples = run["open"] + run["closed"]
    server_ms = [s.server_ms for s in samples if s.ok and s.server_ms is not None]
    transport_ms = [s.rtt_ms - s.server_ms for s in samples
                    if s.ok and s.server_ms is not None]
    before, after = run["scrapes"]

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    builds = delta("repro_query_index_build_total")
    reuses = delta("repro_query_index_reuse_total")
    hung, idle_drain_s = drain_idle(seed, root)
    metrics = {
        "http.server_ms.p50": common.quantile(server_ms, 0.5),
        "http.server_ms.p99": common.quantile(server_ms, 0.99),
        "http.transport_ms.p50": common.quantile(transport_ms, 0.5),
        "http.transport_ms.p99": common.quantile(transport_ms, 0.99),
        "http.stall_ratio": sum(t > STALL_MS for t in transport_ms) / len(transport_ms),
        "query.index_builds": builds,
        "query.index_reuse_ratio": reuses / (builds + reuses) if builds + reuses else 0.0,
        "serve.cpu_ms_per_req": run["cpu_ms_per_req"],
        "serve.drain_s": run["drain_s"],
        "serve.drain_idle_timeout": hung,
        "loadgen.sent": len(samples),
        "loadgen.failed": sum(not s.ok for s in samples),
        "loadgen.lag_p99_ms": common.quantile([s.lag_ms for s in run["open"]], 0.99),
    }
    sys.path.insert(0, str(common.SRC.resolve()))
    from layers import timed_state

    metrics.update(timed_state(seed, SCALE, root / "cache", [s.path for s in samples]))
    return {"check": run["check"], "metrics": metrics, "clean_stop": run["clean_stop"],
            "idle_drain_s": idle_drain_s}
