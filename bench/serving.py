"""serve-zipf: an open-loop client against ``scripts/serve.py``.

Requests arrive in bursts (2 s at three times the mean rate, then 4 s
idle); each picks one pair of a 48-pair catalogue by Zipf(1.1) rank, the
rank-to-pair order shuffled by the seed.  Most requests are cache hits,
whose latency is HTTP plus scheduler overhead; the first request for a
pair misses and queues on the worker pool behind the burst.

One process drives the load: the main thread submits every request at
its due time (one connection at a time) and one listener thread reads
the server-sent-events stream for job completions.  Latency runs from a
request's due time, so a late generator shows up in the numbers; the
generator's own lag is reported beside them.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from measure import (
    Outcome,
    RunContext,
    Spans,
    attribute,
    cache_costs,
    check_pairs,
    cumulative_ms,
    latency_metrics,
    median,
    path_metrics,
    peak_rss_mb,
    profile_metrics,
    result_digest,
    time_set_ups,
    write_trace_outputs,
)

CATALOGUE_WORKLOADS = (
    "Stream", "BFS", "CFD", "Kmeans", "MST", "SSSP", "SP", "XSBench",
    "Backprop", "Hotspot", "MatMul", "DWT", "NN", "Streamcluster",
    "GEMM-Fwd", "Attn-Decode",
)
SMOKE_WORKLOADS = ("Stream", "Backprop", "DWT")

#: Mean request rate; bursts run at three times it.
MEAN_RATE = 20.0
BURST_S = 2.0
IDLE_S = 4.0
ZIPF_S = 1.1
#: Tail percentile of hit latency.  The hit count varies with the seed (an
#: 8 s run sends 240 requests, and at least 105 of them repeat a pair of
#: the first burst), so the level is fixed where every seed leaves at
#: least ten hits beyond it.
HIT_TAIL_LEVEL = 90
#: A request meets the SLO when it completes within this long of its due time.
SLO_S = 1.0
#: A generator running later than this invalidates the run.
MAX_LAG_S = 0.05
#: How long to wait for outstanding misses once every request is sent.
DRAIN_WAIT_S = 60.0


def catalogue(seed: int, smoke: bool):
    """``[(workload, config)]``: each workload on baseline, optimized, mesh-8."""
    from repro.core.presets import baseline_mcm_gpu, optimized_mcm_gpu
    from repro.workloads.suite import spec_by_name
    from repro.workloads.synthetic import SyntheticWorkload

    mesh = replace(baseline_mcm_gpu(n_gpms=8, name="mcm-mesh-8"), topology="mesh")
    configs = [baseline_mcm_gpu(), optimized_mcm_gpu()] + ([] if smoke else [mesh])
    names, factor = (SMOKE_WORKLOADS, 0.0625) if smoke else (CATALOGUE_WORKLOADS, 0.125)
    workloads = [
        SyntheticWorkload(replace(spec_by_name(name).scaled_down(factor), seed=seed))
        for name in names
    ]
    return [(workload, config) for workload in workloads for config in configs]


def schedule(seed: int, seconds: float, n_pairs: int) -> List[Tuple[float, int]]:
    """``[(due seconds, pair index)]`` for one run, sorted by due time.

    Each 6 s cycle opens with a 2 s burst of ``3 * MEAN_RATE`` requests
    per second (a fixed count, uniformly placed: Poisson arrivals given
    their number), then 4 s idle.  Pair choice is Zipf(1.1) over ranks,
    with the rank-to-pair order shuffled by ``seed``.
    """
    rng = random.Random(seed)
    order = list(range(n_pairs))
    rng.shuffle(order)
    cumulative, total = [], 0.0
    for rank in range(n_pairs):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cumulative.append(total)
    per_second = 3 * MEAN_RATE
    requests: List[Tuple[float, int]] = []
    start = 0.0
    while start < seconds:
        window = min(BURST_S, seconds - start)
        count = round(per_second * window)
        dues = sorted(start + rng.random() * window for _ in range(count))
        picks = rng.choices(order, cum_weights=cumulative, k=count)
        requests.extend(zip(dues, picks))
        start += BURST_S + IDLE_S
    return requests


class Server:
    """One ``scripts/serve.py`` process with a fresh cache directory."""

    def __init__(self, ctx: RunContext, tag: str, profile_dir: Optional[Path] = None):
        self.workdir = ctx.tmp / tag
        self.workdir.mkdir()
        self.cache_dir = self.workdir / "cache"
        serve = str(ctx.root / "scripts" / "serve.py")
        args = ["--host", "127.0.0.1", "--port", "0",
                "--workers", str(max(1, ctx.cpus - 1)), "--cache-dir", str(self.cache_dir)]
        command = [sys.executable, serve] + args
        if profile_dir is not None:
            command = [sys.executable, str(ctx.root / "bench" / "profile_server.py"),
                       str(profile_dir), serve] + args
        self.log = self.workdir / "server.log"
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for line in self.log.read_text(errors="replace").splitlines():
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start:\n{self.log.read_text(errors='replace')}")

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def stop(self) -> None:
        """Drain, wait for exit, and kill if the drain hangs."""
        try:
            if self.process.poll() is None:
                self.request("POST", "/drain", b"{}")
        except OSError:
            pass
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


class _Listener(threading.Thread):
    """Reads the SSE stream; records when each job reaches a terminal state."""

    def __init__(self, port: int) -> None:
        super().__init__(daemon=True)
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.sendall(b"GET /events?since=0 HTTP/1.1\r\nHost: bench\r\n\r\n")
        self.stream = self.sock.makefile("rb")
        self.sock.settimeout(None)
        status = self.stream.readline()
        if b" 200 " not in status:
            raise RuntimeError(f"GET /events answered {status!r}")
        while self.stream.readline() not in (b"\r\n", b""):
            pass  # response headers
        self.finished: Dict[str, Tuple[float, str]] = {}
        self.lock = threading.Lock()

    def run(self) -> None:
        for line in iter(self.stream.readline, b""):
            if not line.startswith(b"data:"):
                continue
            event = json.loads(line[5:])
            if event["state"] in ("done", "failed"):
                with self.lock:
                    self.finished.setdefault(event["job"], (time.perf_counter(), event["state"]))

    def close(self) -> None:
        """Close the stream (before any drain) and wait for the thread."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.join(timeout=10)
        self.stream.close()
        self.sock.close()


@dataclass
class _Request:
    due: float
    pair: int
    sent: float = 0.0
    answered: float = 0.0
    how: str = ""
    job: str = ""
    done: Optional[float] = None
    failed: bool = False


def drive(server: Server, plan, bodies: List[bytes]) -> Tuple[List[_Request], float]:
    """Send ``plan`` open-loop; returns the requests and the start clock."""
    listener = _Listener(server.port)
    listener.start()
    clock = time.perf_counter
    requests = [_Request(due, pair) for due, pair in plan]
    start = clock() + 0.05
    try:
        for request in requests:
            delay = start + request.due - clock()
            if delay > 0:
                time.sleep(delay)
            request.sent = clock()
            try:
                status, payload = server.request("POST", "/jobs", bodies[request.pair])
            except (OSError, http.client.HTTPException, ValueError):
                status, payload = 0, {}
            request.answered = clock()
            if status not in (200, 202):
                request.failed = True
                continue
            request.how, request.job = payload["how"], payload["id"]
            if request.how == "cached":
                request.done = request.answered
        deadline = clock() + DRAIN_WAIT_S
        waiting = [r for r in requests if r.done is None and not r.failed]
        while waiting and clock() < deadline:
            with listener.lock:
                for request in waiting:
                    finished = listener.finished.get(request.job)
                    if finished is not None:
                        request.done = max(finished[0], request.answered)
                        request.failed = finished[1] == "failed"
            waiting = [r for r in waiting if r.done is None]
            time.sleep(0.01)
    finally:
        listener.close()
    for request in requests:
        if request.done is None:
            request.failed = True
    return requests, start


def run(ctx: RunContext) -> Outcome:
    """Set up servers, drive the schedule, optionally trace, then gate."""
    from repro.serve.wire import pair_to_wire

    pairs = catalogue(ctx.seed, ctx.smoke)
    plan = schedule(ctx.seed, ctx.seconds, len(pairs))
    bodies = [json.dumps(pair_to_wire(w, c)).encode() for w, c in pairs]

    tags = itertools.count()
    setup_s, server = time_set_ups(lambda: Server(ctx, f"server-{next(tags)}"), Server.stop)
    try:
        requests, start = drive(server, plan, bodies)
        jobs = _job_views(server, requests)
        counters = server.request("GET", "/metrics")[1]
    finally:
        server.stop()

    out = Outcome(attempted=len(requests))
    stats = _latencies(requests, start)
    out.metrics.update(
        setup_s=setup_s,
        pairs_per_s=stats["answered"] / stats["answer_s"],
        peak_rss_mb=peak_rss_mb(),
    )
    latency_metrics(stats["hits"], out, level=None if ctx.smoke else HIT_TAIL_LEVEL)
    out.notes.update(requests=len(requests), misses=len(stats["misses"]),
                     lag_ms_max=stats["lag_max"] * 1e3)
    if stats["lag_max"] > MAX_LAG_S:
        out.failures.append(
            f"generator: ran {stats['lag_max'] * 1e3:.1f} ms late (limit "
            f"{MAX_LAG_S * 1e3:.0f} ms); the run is invalid"
        )

    results = _results(requests, jobs, pairs, out)
    keys = {index: f"{w.name}@{c.name}" for index, (w, c) in enumerate(pairs)}
    if ctx.traced:
        out.metrics.update(_layer_metrics(ctx, stats, counters, jobs, results, pairs))
        out.metrics.update(_traced(ctx, plan, bodies, stats))
    out.failures.extend(
        check_pairs([(keys[i], pairs[i][1], pairs[i][0], r) for i, r in results.items()],
                    ctx.seed)
    )
    out.notes["fingerprint"] = {keys[i]: result_digest([r]) for i, r in results.items()}
    return out


def _job_views(server: Server, requests: List[_Request]) -> Dict[str, dict]:
    """``GET /jobs/<id>?result=1`` for every job a request was answered by."""
    views = {}
    for job in sorted({r.job for r in requests if r.job}):
        status, view = server.request("GET", f"/jobs/{job}?result=1")
        if status == 200:
            views[job] = view
    return views


def _latencies(requests: List[_Request], start: float) -> dict:
    """Latency populations and counts; every time is from the due time.

    ``answer_s`` sums each answered request's ``POST /jobs`` round trip:
    the time the server took to look the pair up and answer (a result for
    a hit, a job id for a miss), which no schedule sets.
    """
    done = [r for r in requests if not r.failed]
    latency = {id(r): r.done - (start + r.due) for r in done}
    queued = [r for r in done if r.how == "queued"]
    answered = [r for r in requests if r.how]
    return {
        "hits": [latency[id(r)] for r in done if r.how == "cached"],
        "misses": [latency[id(r)] for r in done if r.how != "cached"],
        "queued": queued,
        "latency": latency,
        "answered": len(answered),
        "answer_s": sum(r.answered - r.sent for r in answered),
        "lag_max": max(r.sent - (start + r.due) for r in requests),
        "slo": sum(1 for r in done if latency[id(r)] <= SLO_S) / len(requests),
    }


def _results(requests, jobs, pairs, out: Outcome) -> Dict[int, object]:
    """One SimResult per requested pair; failed jobs and repeats that differ fail."""
    from repro.sim.result import SimResult

    seen: Dict[int, dict] = {}
    for request in requests:
        name = f"{pairs[request.pair][0].name}@{pairs[request.pair][1].name}"
        view = jobs.get(request.job)
        if request.failed or view is None or view.get("result") is None:
            error = (view or {}).get("error") or "no result"
            out.failures.append(f"{name}: request at {request.due:.3f}s failed ({error})")
            continue
        first = seen.setdefault(request.pair, view["result"])
        if first != view["result"]:
            out.failures.append(f"{name}: a repeat returned a different result")
    return {index: SimResult.from_dict(result) for index, result in seen.items()}


def _layer_metrics(ctx, stats, counters, jobs, results, pairs) -> Dict[str, float]:
    """Per-layer numbers from the untraced run's requests and job views."""
    queued = [r for r in stats["queued"] if r.job in jobs]
    views = [jobs[r.job] for r in queued]
    waits = [v["started_at"] - v["submitted_at"] for v in views]
    sims = [v["sim_seconds"] for v in views]
    overheads = [
        stats["latency"][id(r)] - wait - sim for r, wait, sim in zip(queued, waits, sims)
    ]
    records = sum(results[r.pair].records for r in queued if r.pair in results)
    metrics = {
        "serve.sims_executed": counters["sims_executed"],
        "serve.cache_served": counters["cache_served"],
        "serve.coalesced": counters["coalesced"],
        "serve.queue_wait_ms_p50": median(waits) * 1e3 if waits else 0.0,
        "serve.sim_ms_p50": median(sims) * 1e3 if sims else 0.0,
        "serve.dispatch_overhead_ms_p50": median(overheads) * 1e3 if overheads else 0.0,
        "serve.generator_lag_ms_max": stats["lag_max"] * 1e3,
        "serve.miss_p50_ms": median(stats["misses"]) * 1e3 if stats["misses"] else 0.0,
        "serve.slo_frac": stats["slo"],
        "sim.simulated_cycles": sum(result.cycles for result in results.values()),
        "sim.records_per_s": records / sum(sims) if sims else 0.0,
    }
    metrics.update(path_metrics((pairs[r.pair][1], False) for r in queued))
    metrics.update(cache_costs(list(results.values()), ctx.tmp / "cache-costs"))
    return metrics


def _traced(ctx: RunContext, plan, bodies, untraced) -> Dict[str, float]:
    """The same schedule against a profiled server, with a span per request."""
    spans = Spans()
    profile_dir = ctx.tmp / "profile"
    server = Server(ctx, "server-traced", profile_dir)
    try:
        requests, start = drive(server, plan, bodies)
        jobs = _job_views(server, requests)
    finally:
        server.stop()
    stats = _latencies(requests, start)

    for index, request in enumerate(requests):
        group = f"request-{index}"
        end = request.done if request.done is not None else request.answered
        whole = spans.add("serve.request", "serve", start + request.due, end,
                          group=group, how=request.how)
        spans.add("serve.post", "serve", request.sent, request.answered, whole, group)
        view = jobs.get(request.job)
        if request.how == "queued" and view and view.get("started_at"):
            began = spans.wall_to_clock(view["started_at"])
            spans.add("serve.queue", "serve", spans.wall_to_clock(view["submitted_at"]),
                      began, whole, group)
            spans.add("parallel.pair", "parallel", began, began + view["sim_seconds"],
                      whole, group)
    summary = attribute(profile_dir, ctx.root)
    write_trace_outputs(ctx, "serve-zipf", spans, summary)
    metrics = profile_metrics(summary)
    metrics.update({
        "sim.build_ms": cumulative_ms(profile_dir, "repro/sim/simulator.py", "__init__"),
        "walkgen.build_ms": cumulative_ms(profile_dir, "repro/core/walkgen.py", "build_walkers"),
        "trace.overhead_ratio": median(stats["hits"]) / median(untraced["hits"]),
    })
    return metrics


def catalogue_fingerprints(seed: int) -> Dict[str, str]:
    """Digest of every catalogue pair simulated locally (for ``--bless``)."""
    from repro.sim.simulator import simulate

    return {
        f"{workload.name}@{config.name}": result_digest([simulate(workload, config)])
        for workload, config in catalogue(seed, smoke=False)
    }
