"""The ``serve-mixed`` workload: a ``repro serve`` subprocess under load.

The served artifact is exact (float64), memory-mapped and carries its graph.
The requests are single-user ``/v1/topk`` requests (n=10) and single-source
u-side ``/v1/similar`` requests (MHS and MHP in equal parts), drawn from the
seed.  Every answer is compared element by element with ``TopKEngine`` /
``SimilarityEngine`` lists computed from the same artifact before timing.

The untraced run measures unloaded latency: one request at a time, closed
loop, with the benchmark and the server pinned to one CPU and the server's
straggler window off, so that the CPU never idles while a request is in
flight.  The traced run sends an open-loop Poisson schedule in two
consecutive phases: one at a low rate (nothing coalesces, so the micro-batch
window is pure cost), then one at a high rate (batching and queueing
matter).  Its generator is one process with at most ``nproc`` requests in
flight; each request is timed from when it was due, so a slow answer delays
the requests queued behind it and the wait counts.
"""

from __future__ import annotations

import atexit
import hashlib
import http.client
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from common import BENCH_DIR, CACHE, cache_dir, nearest_rank, status_kb

SERVE = {
    "num_u": 3000,
    "num_v": 15000,
    "num_edges": 70000,
    "exponent": 0.8,
    "weighted": False,
    "dimension": 32,
}
NAME = "bench"
TOP_N = 10
TAU = 5  # the service's similarity truncation (EmbeddingService default)
#: Request mix: top-k and similarity (MHS, MHP) in a 3:2 ratio.
MIX = (("topk", 0.6), ("mhs", 0.2), ("mhp", 0.2))
#: Arrival rates (requests/s), frozen from the measured capacity at the seed
#: shape (about 300 requests/s of this mix over two connections, closed loop,
#: on a 2-vCPU x86 VM): low is about an eighth of it, high about a quarter.
#: Higher rates put the generator and the server on both vCPUs at once, and
#: the tail then follows the shared host more than the program.
RATES = {"low": 40.0, "high": 80.0}
SLO_MS = 50.0
#: Each phase sends at least this many requests: >= 200 per class
#: (top-k vs similarity), so p95 has at least 10 samples beyond it.
MIN_PER_PHASE = 600
#: The unloaded pass answers at least this many requests per class.
MIN_PER_CLASS = 200
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Server launches per run; the middle one is measured, so the set-ups are
#: spread over the run.
SETUP_REPEATS = 5
#: The untraced run's server arguments.  A straggler window is a timed wait
#: on every single-user request, in which the pinned CPU idles, and the
#: wake-up after it costs what the shared host makes it cost (pinned, on a
#: calm host: top-k 5.8 ms with the default 2 ms window, 3.1 ms without).
UNLOADED_SERVER_ARGS = ("--max-wait-ms", "0")
WARM_DEADLINE_MS = 600000.0
LAUNCHER = BENCH_DIR / "serve_launcher.py"

_LIVE: List[subprocess.Popen] = []


def _kill_live() -> None:
    for proc in _LIVE:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


atexit.register(_kill_live)


# ---------------------------------------------------------------------------
# Inputs, schedule, oracle
# ---------------------------------------------------------------------------
def _inputs(seed: int) -> Path:
    """The artifact store root holding the fitted, graph-bearing artifact."""
    where = cache_dir("serve-mixed", seed, SERVE)
    root = where / "artifacts"
    if not (where / "ready").exists():
        from repro.core import GEBEPoisson
        from repro.datasets.random_bipartite import power_law_bipartite
        from repro.serve.artifacts import ArtifactStore

        graph = power_law_bipartite(
            SERVE["num_u"],
            SERVE["num_v"],
            SERVE["num_edges"],
            exponent=SERVE["exponent"],
            weighted=SERVE["weighted"],
            seed=seed,
        )
        result = GEBEPoisson(dimension=SERVE["dimension"], seed=seed).fit(graph)
        ArtifactStore(root).publish(NAME, result.u, result.v, graph=graph, method=result.method)
        (where / "ready").write_text("ok\n")
    return root


def schedule(seed: int, seconds: float) -> Dict[str, List[Tuple[float, str, int]]]:
    """Per phase (rate), ``(due offset s, kind, index)`` in due order.

    Both phases send the same number of requests, at least MIN_PER_PHASE,
    and together last about ``seconds``.
    """
    rng = np.random.default_rng([seed, 1])
    count = max(MIN_PER_PHASE, math.ceil(seconds / sum(1.0 / r for r in RATES.values())))
    kinds = [k for k, _ in MIX]
    shares = np.array([p for _, p in MIX])
    phases: Dict[str, List[Tuple[float, str, int]]] = {}
    for phase, rate in RATES.items():
        gaps = rng.exponential(1.0 / rate, size=count)
        due = np.cumsum(gaps) - gaps[0]
        kind = rng.choice(len(kinds), size=count, p=shares)
        index = rng.integers(0, SERVE["num_u"], size=count)
        phases[phase] = [(float(d), kinds[k], int(i)) for d, k, i in zip(due, kind, index)]
    return phases


def oracle(root: Path, phases) -> Dict[Tuple[str, int], List[int]]:
    """Expected lists for every (kind, index) the schedule asks for.

    Cached beside the artifact, keyed by the set of requests.
    """
    wanted = sorted({(kind, index) for reqs in phases.values() for _, kind, index in reqs})
    key = hashlib.blake2b(json.dumps(wanted).encode("utf-8"), digest_size=8).hexdigest()
    cached = root.parent / f"oracle-{key}.json"
    if cached.exists():
        with open(cached, encoding="utf-8") as handle:
            return {(kind, int(index)): row for kind, index, row in json.load(handle)}
    expected = _compute_oracle(root, phases)
    with open(cached, "w", encoding="utf-8") as handle:
        json.dump([[kind, index, row] for (kind, index), row in expected.items()], handle)
    return expected


def _compute_oracle(root: Path, phases) -> Dict[Tuple[str, int], List[int]]:
    from repro.core.pmf import PoissonPMF
    from repro.serve.artifacts import ArtifactStore
    from repro.tasks.similarity import SimilarityEngine
    from repro.tasks.topk import TopKEngine

    wanted: Dict[str, set] = {"topk": {0}, "mhs": {0}, "mhp": {0}}
    for requests in phases.values():
        for _, kind, index in requests:
            wanted[kind].add(index)
    loaded = ArtifactStore(root).load(NAME, verify=True)
    expected: Dict[Tuple[str, int], List[int]] = {}
    users = np.array(sorted(wanted["topk"]), dtype=np.int64)
    items = TopKEngine(loaded.u, loaded.v).top_items(TOP_N, users=users, exclude=loaded.graph)
    for user, row in zip(users.tolist(), items.tolist()):
        expected[("topk", user)] = row
    engine = SimilarityEngine(loaded.graph, PoissonPMF(lam=1.0), TAU, normalization="sym")
    for mode in ("mhs", "mhp"):
        sources = np.array(sorted(wanted[mode]), dtype=np.int64)
        items, _ = engine.query(sources, TOP_N, mode=mode)
        for source, row in zip(sources.tolist(), items.tolist()):
            expected[(mode, source)] = row
    return expected


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------
def _body(kind: str, index: int, deadline_ms: Optional[float] = None) -> Tuple[str, bytes]:
    if kind == "topk":
        payload: Dict[str, Any] = {"user": index, "n": TOP_N}
        path = "/v1/topk"
    else:
        payload = {"source": index, "n": TOP_N, "side": "u", "mode": kind}
        path = "/v1/similar"
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    return path, json.dumps(payload).encode("utf-8")


def call(server: "Server", method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, Any]:
    """One request on a fresh connection: ``(status, JSON body)``, -1 on error.

    A fresh connection per request, as independent clients make: on a
    kept-alive connection the server's separate header and body writes
    meet the client's delayed ACK, and every answer stalls about 40 ms.
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    except (OSError, http.client.HTTPException, ValueError):
        return -1, None
    finally:
        conn.close()


class Server:
    """One ``repro serve`` subprocess (through the benchmark's launcher)."""

    def __init__(
        self, root: Path, trace_out: Optional[Path] = None, args: Tuple[str, ...] = ()
    ):
        self.root = root
        self.trace_out = trace_out
        self.args = args
        self.proc: Optional[subprocess.Popen] = None
        self.host, self.port = "127.0.0.1", 0

    def start(self) -> None:
        cmd = [sys.executable, "-u", str(LAUNCHER)]
        if self.trace_out is not None:
            cmd += ["--trace-out", str(self.trace_out)]
        cmd += ["--", "serve", "--store", str(self.root), "--name", NAME, "--port", "0", *self.args]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        _LIVE.append(self.proc)
        watchdog = threading.Timer(120.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        marker = " on http://"
        if marker not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split(marker, 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def warm_up(self) -> None:
        """One MHS and one MHP query (the first computes the H diagonal) and
        one top-k query, with a long deadline."""
        for kind in ("mhs", "mhp", "topk"):
            status, _ = call(self, "POST", *_body(kind, 0, WARM_DEADLINE_MS))
            if status != 200:
                raise RuntimeError(f"warm-up {kind} answered {status}")

    def metrics(self) -> Dict[str, Any]:
        status, payload = call(self, "GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return payload

    def peak_rss_mb(self) -> float:
        peak_kb = status_kb(self.proc.pid, "VmHWM")
        if peak_kb is None:
            raise RuntimeError("no VmHWM")
        return peak_kb / 1024.0

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self.proc = None


def reap_strays(root: Path) -> int:
    """Kill launcher processes still serving ``root``; returns how many.

    Run after the server was stopped: a server that outlives its run keeps
    computing (e.g. a similarity batch whose caller gave up) and slows
    whatever runs next, so each one counts as a failure.
    """
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        args = [a.decode("utf-8", "replace") for a in cmdline]
        if str(LAUNCHER) in args and str(root) in args:
            found.append(int(entry.name))
    for pid in found:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return len(found)


def _launch(
    root: Path, trace_out: Optional[Path] = None, args: Tuple[str, ...] = ()
) -> Tuple[Server, float]:
    """Start and warm a server; returns it with spawn-to-warm seconds."""
    server = Server(root, trace_out, args)
    started = time.perf_counter()
    try:
        server.start()
        server.warm_up()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Load generation
# ---------------------------------------------------------------------------
def _send(server: Server, requests, expected) -> Dict[str, Any]:
    """Send ``requests`` open-loop, at most CONNECTIONS in flight at once."""
    results: List[Optional[Tuple[str, float, float, bool]]] = [None] * len(requests)
    cursor = [0]
    lock = threading.Lock()
    busy = [0.0] * CONNECTIONS
    start = time.perf_counter() + 0.05

    def worker(slot: int) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(requests):
                return
            offset, kind, index = requests[i]
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, payload = call(server, "POST", *_body(kind, index))
            done = time.perf_counter()
            busy[slot] += done - sent
            ok = status == 200 and payload["items"] == [expected[(kind, index)]]
            results[i] = (kind, (done - due) * 1e3, (sent - due) * 1e3, ok)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return {"results": results, "busy_share": sum(busy) / (CONNECTIONS * wall), "wall": wall}


def run_schedule(server: Server, phases, expected) -> Dict[str, Dict[str, Any]]:
    """Send the phases one after the other; results per phase."""
    return {name: _send(server, requests, expected) for name, requests in phases.items()}


def request_class(kind: str) -> str:
    """``topk`` or ``similar`` (MHS and MHP)."""
    return "topk" if kind == "topk" else "similar"


def class_stats(latencies: List[float]) -> Dict[str, Any]:
    """Count, p50 and p95 (ms) of one class's latencies."""
    return {"n": len(latencies), "p50_ms": median(latencies), "p95_ms": nearest_rank(latencies, 95)}


def summarize(done: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per phase and class: count, p50, p95 in ms."""
    out: Dict[str, Dict[str, Any]] = {}
    for name, phase in done.items():
        for cls in ("topk", "similar"):
            lat = [r[1] for r in phase["results"] if request_class(r[0]) == cls]
            out[f"{name}.{cls}"] = class_stats(lat)
    return out


def closed_loop(server: Server, phases, expected, seconds: float) -> Dict[str, Any]:
    """Send the schedule's requests one at a time, in order and from the
    start again, for ``seconds`` and until each class has MIN_PER_CLASS
    answers; latencies (ms) per class and the failure count."""
    requests = [(kind, index) for reqs in phases.values() for _, kind, index in reqs]
    lat: Dict[str, List[float]] = {"topk": [], "similar": []}
    failed = 0
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end or min(len(v) for v in lat.values()) < MIN_PER_CLASS:
        kind, index = requests[i % len(requests)]
        i += 1
        started = time.perf_counter()
        status, payload = call(server, "POST", *_body(kind, index))
        lat[request_class(kind)].append((time.perf_counter() - started) * 1e3)
        if status != 200 or payload["items"] != [expected[(kind, index)]]:
            failed += 1
    return {"latencies": lat, "failed": failed}


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------
def serve_mixed(seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: set-up, peak RSS and unloaded latency.

    The benchmark and its servers share one CPU, and one request is in
    flight at a time, so some thread is always runnable while a request is
    served.  Spread over two CPUs, each hand-off between client and server
    threads wakes an idle virtual CPU: on a calm host that made a top-k
    answer 5.6 ms instead of 3.1 ms, and in busy spells of a shared host the
    latencies slowed 1.5-2.3x while CPU-bound fits slowed 10-20%.
    """
    root = _inputs(seed)
    phases = schedule(seed, seconds)
    expected = oracle(root, phases)
    setup: List[float] = []
    server: Optional[Server] = None
    affinity = os.sched_getaffinity(0)
    cpu = min(affinity)
    # Servers inherit the affinity of the thread that spawns them.
    os.sched_setaffinity(0, {cpu})
    try:
        for repeat in range(SETUP_REPEATS):
            server, elapsed = _launch(root, args=UNLOADED_SERVER_ARGS)
            setup.append(elapsed)
            if repeat == SETUP_REPEATS // 2:
                done = closed_loop(server, phases, expected, seconds)
                rss = server.peak_rss_mb()
            server.stop()
            server = None
    finally:
        if server is not None:
            server.stop()
        os.sched_setaffinity(0, affinity)
    lat = done["latencies"]
    classes = {cls: class_stats(values) for cls, values in lat.items()}
    return {
        "attempted": sum(len(v) for v in lat.values()),
        "failed": done["failed"] + reap_strays(root),
        "metrics": {
            "setup_s": median(setup),
            "peak_rss_mb": rss,
            "p50_ms": sum(row["p50_ms"] for row in classes.values()) / len(classes),
        },
        "samples": {"setup": len(setup), "pinned_cpu": cpu, **classes},
        "rss_method": "vmhwm",
    }


PROBE_ROUNDS = 30


def _probe(
    server: Server, phases, expected, count: int = PROBE_ROUNDS
) -> Tuple[Dict[str, float], int]:
    """Closed-loop unloaded latencies (median per class) and failures.

    Sends the first ``count`` top-k and ``count`` similarity requests of the
    low phase one at a time.
    """
    picked = {"topk": [], "similar": []}
    for _, kind, index in phases["low"]:
        cls = request_class(kind)
        if len(picked[cls]) < count:
            picked[cls].append((kind, index))
    lat: Dict[str, List[float]] = {"topk": [], "similar": []}
    failed = 0
    for cls, requests in picked.items():
        for kind, index in requests:
            started = time.perf_counter()
            status, payload = call(server, "POST", *_body(kind, index))
            lat[cls].append((time.perf_counter() - started) * 1e3)
            if status != 200 or payload["items"] != [expected[(kind, index)]]:
                failed += 1
    return {cls: median(values) for cls, values in lat.items()}, failed


def serve_mixed_traced(seed: int, seconds: float) -> Dict[str, Any]:
    """The traced run: per-layer numbers from a server running the wrappers.

    An untraced and a traced server each answer the same closed-loop probe;
    the ratio of their medians is the tracing overhead.  The traced server
    then takes the full schedule.
    """
    root = _inputs(seed)
    phases = schedule(seed, seconds)
    expected = oracle(root, phases)
    spans_path = CACHE / f"serve-spans-{os.getpid()}.json"
    server: Optional[Server] = None
    try:
        server, _ = _launch(root)
        plain, failed_plain = _probe(server, phases, expected)
        server.stop()
        server, _ = _launch(root, trace_out=spans_path)
        traced, failed_traced = _probe(server, phases, expected)
        done = run_schedule(server, phases, expected)
        metrics = server.metrics()
        server.stop()
        server = None
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
    finally:
        if server is not None:
            server.stop()
        if spans_path.exists():
            spans_path.unlink()
    strays = reap_strays(root)
    overhead = 0.5 * sum(traced[c] / plain[c] - 1.0 for c in ("topk", "similar"))
    results = [r for phase in done.values() for r in phase["results"]]
    return {
        "attempted": len(results) + 2 * 2 * PROBE_ROUNDS,
        "failed": sum(1 for r in results if not r[3]) + failed_plain + failed_traced + strays,
        "trace_overhead": overhead,
        "phases": done,
        "server_metrics": metrics,
        "spans": spans,
    }
