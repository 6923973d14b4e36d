"""Deduplicating scheduler: jobs in, cached/coalesced/simulated results out.

The scheduler is the heart of the service.  Every submission is
content-addressed by the same ``<workload digest>##<system digest>`` key
the :class:`~repro.experiments.common.ResultCache` uses, then resolved
through three tiers:

1. **Coalesce** — an identical pair already queued or running absorbs
   the submission; both clients observe the same job, and exactly one
   simulation happens.
2. **Cache** — the shard-file result cache (refreshed on a throttle, so
   entries written by other processes become visible without reopening)
   serves the pair instantly as a ``cached`` job.
3. **Simulate** — the pair is dispatched to the
   :class:`~repro.serve.executor.PairExecutor`; the worker persists the
   result to its cache shard, and the finished job fans out to every
   coalesced client.

Graceful drain (:meth:`Scheduler.drain`) stops intake, waits for
in-flight jobs up to a grace period, cancels stragglers, and shuts the
worker pool down — the SIGTERM path of ``scripts/serve.py``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import SystemConfig
from ..experiments.common import ResultCache
from ..parallel.metrics import SuiteMetrics
from ..workloads.synthetic import SyntheticWorkload
from ..workloads.trace import Workload
from .executor import PairError, PairExecutor
from .jobs import Batch, Job, JobStore


class DrainingError(RuntimeError):
    """Submission rejected because the server is draining (HTTP 503)."""


class Scheduler:
    """Owns the job store, the result cache, and the pair executor."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        max_workers: Optional[int] = None,
        timeout: Optional[float] = None,
        crash_retries: int = 2,
        refresh_seconds: float = 2.0,
        executor: Optional[PairExecutor] = None,
    ) -> None:
        self.cache = cache
        self.store = JobStore()
        self.metrics = SuiteMetrics()
        self.executor = executor if executor is not None else PairExecutor(
            max_workers=max_workers,
            cache_dir=str(cache.directory) if cache is not None else None,
            timeout=timeout,
            crash_retries=crash_retries,
        )
        self.refresh_seconds = refresh_seconds
        #: Simulations actually executed by this server (not cache-served).
        self.sims_executed = 0
        #: Submissions answered straight from the result cache.
        self.cache_served = 0
        #: Submissions coalesced onto an already-in-flight job.
        self.coalesced = 0
        self.draining = False
        self.started_at = time.time()
        self._tasks: Dict[str, asyncio.Task] = {}
        self._last_refresh = 0.0

    # ------------------------------------------------------------------
    # cache access
    # ------------------------------------------------------------------

    def _cache_lookup(self, workload_digest: str, system_digest: str):
        """Cache lookup with a throttled cross-process shard refresh."""
        if self.cache is None:
            return None
        now = time.monotonic()
        if now - self._last_refresh >= self.refresh_seconds:
            self._last_refresh = now
            self.cache.refresh()
        return self.cache.get(workload_digest, system_digest)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, workload: Workload, config: SystemConfig) -> Job:
        """Submit one pair; returns the (possibly shared or cached) job."""
        job, _ = self.submit_classified(workload, config)
        return job

    def submit_classified(
        self, workload: Workload, config: SystemConfig
    ) -> Tuple[Job, str]:
        """Submit one pair and say how it was resolved.

        Returns ``(job, how)`` with ``how`` one of ``"queued"`` (a new
        simulation was scheduled), ``"coalesced"`` (attached to an
        in-flight job), or ``"cached"`` (served from the result cache).
        Raises :class:`DrainingError` while the server is draining.
        """
        if self.draining:
            raise DrainingError("server is draining; no new jobs accepted")
        workload_digest = workload.digest()
        system_digest = config.digest()
        key = f"{workload_digest}##{system_digest}"
        active = self.store.active_for_key(key)
        if active is not None:
            active.clients += 1
            self.coalesced += 1
            return active, "coalesced"
        cached = self._cache_lookup(workload_digest, system_digest)
        if cached is not None:
            job = self.store.create(
                key, workload.name, config.name, state="cached", result=cached
            )
            self.cache_served += 1
            return job, "cached"
        job = self.store.create(key, workload.name, config.name, state="queued")
        task = asyncio.get_running_loop().create_task(
            self._execute(job, workload, config)
        )
        self._tasks[job.id] = task
        return job, "queued"

    def submit_batch(
        self, pairs: Sequence[Tuple[Workload, SystemConfig]]
    ) -> Batch:
        """Submit many pairs as one batch (slot order preserved).

        Duplicate pairs within the batch coalesce exactly like duplicate
        submissions across clients: the first slot queues the simulation,
        the rest share its job.
        """
        slots: List[tuple] = []
        for workload, config in pairs:
            job, how = self.submit_classified(workload, config)
            slots.append((job.id, how))
        return self.store.create_batch(slots)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    async def _execute(
        self, job: Job, workload: Workload, config: SystemConfig
    ) -> None:
        """Run one queued job to a terminal state."""
        try:
            payload = (
                workload.spec if isinstance(workload, SyntheticWorkload) else workload
            )
            try:
                result, sim_seconds, summary = await self.executor.run(
                    payload,
                    config,
                    on_start=lambda: self.store.transition(job, "running"),
                )
            except PairError as exc:
                self.store.transition(
                    job, "failed", error={"kind": exc.kind, "error": str(exc)}
                )
                return
            except asyncio.CancelledError:
                self.store.transition(
                    job,
                    "failed",
                    error={"kind": "cancelled", "error": "server drained mid-run"},
                )
                raise
            except Exception as exc:  # noqa: BLE001 - keep the server alive
                self.store.transition(
                    job, "failed", error={"kind": "internal", "error": repr(exc)}
                )
                return
            if self.cache is not None:
                # The worker already persisted the result to its shard;
                # absorbing makes it visible to this process immediately.
                self.cache.absorb(result)
            self.sims_executed += 1
            self.metrics.record_sim(result.system_name, sim_seconds)
            if summary is not None:
                self.metrics.record_telemetry(summary)
            self.store.transition(job, "done", result=result, sim_seconds=sim_seconds)
        finally:
            self._tasks.pop(job.id, None)

    # ------------------------------------------------------------------
    # status and maintenance
    # ------------------------------------------------------------------

    def batch_status(self, batch: Batch) -> Dict[str, object]:
        """Per-state counts and completion flag for one batch."""
        payload = batch.to_wire()
        states: Dict[str, int] = {}
        done = True
        for job_id, _ in batch.slots:
            job = self.store.get(job_id)
            state = job.state if job is not None else "unknown"
            states[state] = states.get(state, 0) + 1
            if job is None or not job.terminal:
                done = False
        payload["states"] = states
        payload["done"] = done
        payload["workers"] = self.executor.max_workers
        return payload

    def batch_results(self, batch: Batch) -> List[Dict[str, object]]:
        """Per-slot job views (results included), in submission order."""
        rows: List[Dict[str, object]] = []
        for job_id, how in batch.slots:
            job = self.store.get(job_id)
            if job is None:  # pragma: no cover - jobs are never evicted
                continue
            row = job.to_wire(include_result=True)
            row["how"] = how
            rows.append(row)
        return rows

    def metrics_wire(self) -> Dict[str, object]:
        """JSON-safe service metrics for the ``/metrics`` endpoint."""
        payload: Dict[str, object] = {
            "uptime_seconds": time.time() - self.started_at,
            "draining": self.draining,
            "workers": self.executor.max_workers,
            "jobs": self.store.counts(),
            "sims_executed": self.sims_executed,
            "cache_served": self.cache_served,
            "coalesced": self.coalesced,
            "sim_seconds_by_config": dict(self.metrics.sim_seconds_by_config),
            "sims_by_config": dict(self.metrics.sims_by_config),
            "profiled_runs": self.metrics.profiled_runs,
            "telemetry_summaries": list(self.metrics.telemetry_summaries),
        }
        if self.cache is not None:
            stats = self.cache.stats()
            payload["cache"] = {
                "entries": stats.entries,
                "bytes_on_disk": stats.bytes_on_disk,
                "stale_entries": stats.stale_entries,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
            }
        return payload

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------

    async def drain(self, grace: Optional[float] = None) -> Dict[str, object]:
        """Stop intake, wait for in-flight jobs, shut the pool down.

        ``grace`` bounds how long to wait for running jobs; stragglers
        are cancelled and reported as failed with kind ``"cancelled"``.
        Idempotent — a second drain just waits for the first to finish.
        Returns a summary of what happened to the in-flight work.
        """
        self.draining = True
        tasks = list(self._tasks.values())
        cancelled = 0
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=grace)
            for task in pending:
                task.cancel()
                cancelled += 1
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self.executor.close(wait=cancelled == 0)
        return {
            "drained": True,
            "waited_jobs": len(tasks),
            "cancelled_jobs": cancelled,
            "jobs": self.store.counts(),
        }
