"""Run explore sweeps against a ``repro.serve`` job server.

:func:`remote_runner` adapts a :class:`~repro.serve.client.ServeClient`
to the :data:`~repro.explore.search.Runner` protocol, so
:func:`~repro.explore.search.run_sweep` (and ``scripts/submit.py``) can
drive a whole successive-halving sweep through a remote server without
touching the rest of the pipeline.  Each rung batch becomes one
``POST /batches`` submission; the server dedups against its result
cache, coalesces duplicates, and fans misses over its worker pool.

Because pair keys are content-addressed and simulations deterministic,
the per-config result dicts — and therefore ``report.json`` — are
bit-identical to a local run of the same sweep.  Throughput accounting
mirrors :func:`~repro.explore.search.default_runner`: the returned
runner carries a private ``metrics`` sink fed alongside the process-wide
:data:`~repro.parallel.metrics.GLOBAL_METRICS`, with server-side
``sim_seconds`` attributed to freshly executed pairs and everything else
counted as cached.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from ..core.config import SystemConfig
from ..parallel.metrics import GLOBAL_METRICS, SuiteMetrics
from ..serve.client import ServeClient
from ..sim.result import SimResult
from ..workloads.trace import Workload
from .search import Runner


def remote_runner(client: ServeClient, timeout: float = 3600.0) -> Runner:
    """A :data:`Runner` that executes rung batches on a remote server.

    ``timeout`` bounds one rung batch end-to-end.  The runner raises
    :class:`~repro.serve.client.RemoteError` if the server reports any
    pair as failed, mirroring the local runner's fail-loud behaviour.
    """
    sink = SuiteMetrics()
    state = {"workers": 0}

    def run(
        configs: Sequence[SystemConfig], workloads: Sequence[Workload]
    ) -> List[Dict[str, SimResult]]:
        if not state["workers"]:
            # One-time: report the server's pool width, not a local count.
            state["workers"] = int(client.metrics().get("workers", 1)) or 1
        workloads = list(workloads)
        pairs = [
            (workload, config) for config in configs for workload in workloads
        ]
        start = time.perf_counter()
        rows = client.run_pairs(pairs, timeout=timeout)
        wall = time.perf_counter() - start
        per_config: List[Dict[str, SimResult]] = []
        for slot, config in enumerate(configs):
            base = slot * len(workloads)
            per_config.append(
                {
                    workload.name: rows[base + offset]["result"]
                    for offset, workload in enumerate(workloads)
                }
            )
        fresh = [row for row in rows if row["how"] == "queued"]
        cached = sum(row["how"] == "cached" for row in rows)
        for metrics in (sink, GLOBAL_METRICS):
            metrics.record_batch(
                configs=[config.name for config in configs],
                total=len(rows),
                cached=cached,
                wall=wall,
                workers=state["workers"],
                deduplicated=len(rows) - len(fresh) - cached,
            )
            for row in fresh:
                metrics.record_sim(row["config"], float(row["sim_seconds"]))
        return per_config

    run.metrics = sink  # type: ignore[attr-defined]
    return run
