"""Async pair execution over the ``repro.parallel`` worker pool.

:class:`PairExecutor` is the bridge between the server's event loop and
the blocking :class:`~concurrent.futures.ProcessPoolExecutor` machinery:
it reuses the parallel runner's worker entry point (per-worker simulator
tables, per-process cache shards) and adds the robustness the serving
story needs — a per-job wall-clock timeout that kills hung workers, and
bounded retries when a worker process dies.  A semaphore caps in-flight
submissions at the pool width, so the pool's internal queue stays empty
and a timeout measures actual runtime rather than queueing delay.

Killing the pool is the only way to stop a stuck worker, and it takes
every in-flight job with it; casualties surface as ``BrokenProcessPool``
and consume one of their own crash retries, so a single poisoned job
cannot starve its neighbours indefinitely.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Optional, Tuple

from ..core.config import SystemConfig
from ..parallel.runner import _init_worker, _run_task, _terminate_pool, resolve_workers


class PairError(RuntimeError):
    """A pair failed to produce a result; ``kind`` labels the class."""

    kind = "exception"


class PairCrash(PairError):
    """The worker process died and the retry budget is exhausted."""

    kind = "crash"


class PairTimeout(PairError):
    """The pair exceeded its wall-clock limit and its worker was killed."""

    kind = "timeout"


class PairExecutor:
    """Process-pool execution of single (workload, config) pairs.

    ``cache_dir``, when given, makes every worker persist finished
    results to its own ``results-w<pid>.jsonl`` shard in that directory
    (the same crash-safe scheme the batch runner uses), so a server
    restart loses no completed work.  ``timeout`` is the default per-job
    wall-clock limit in seconds (None = unlimited); ``crash_retries``
    bounds how many pool rebuilds one job may survive before it is
    reported as a crash.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        timeout: Optional[float] = None,
        crash_retries: int = 2,
    ) -> None:
        self.max_workers = resolve_workers(max_workers)
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.crash_retries = crash_retries
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._slots = asyncio.Semaphore(self.max_workers)
        self._lock = asyncio.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------

    def _pool_handle(self) -> Tuple[ProcessPoolExecutor, int]:
        """The live pool (built lazily) and its generation stamp."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker,
                initargs=(self.cache_dir,),
            )
            self._generation += 1
        return self._pool, self._generation

    async def _retire_pool(self, generation: int) -> None:
        """Kill the pool of ``generation`` (no-op if already replaced).

        The generation stamp makes retirement idempotent under
        concurrency: when several jobs observe the same broken pool, only
        the first one actually tears it down.
        """
        async with self._lock:
            if self._generation != generation or self._pool is None:
                return
            pool = self._pool
            self._pool = None
        _terminate_pool(pool)

    async def close(self, wait: bool = True) -> None:
        """Shut the pool down; no further :meth:`run` calls are accepted."""
        self._closed = True
        async with self._lock:
            pool = self._pool
            self._pool = None
        if pool is None:
            return
        if wait:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=True)
            )
        else:
            _terminate_pool(pool)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    async def run(
        self,
        payload: object,
        config: SystemConfig,
        timeout: Optional[float] = None,
        on_start: Optional[Callable[[], None]] = None,
    ) -> Tuple[object, float, Optional[dict]]:
        """Simulate one pair; ``(result, sim_seconds, telemetry summary)``.

        ``payload`` follows the worker protocol: a ``WorkloadSpec`` (the
        normal case — rebuilt worker-side) or a picklable ``Workload``.
        ``timeout`` overrides the executor default for this job.
        ``on_start`` is called once the job holds a pool slot, so the time
        spent waiting for a free worker counts as queueing, not running.
        Raises :class:`PairTimeout`, :class:`PairCrash`, or
        :class:`PairError` (the simulation raised; deterministic, never
        retried).
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        limit = self.timeout if timeout is None else timeout
        async with self._slots:
            if on_start is not None:
                on_start()
            attempts = 0
            while True:
                pool, generation = self._pool_handle()
                try:
                    future = pool.submit(_run_task, payload, config)
                except Exception as exc:  # pool broken between jobs
                    await self._retire_pool(generation)
                    attempts += 1
                    if attempts > self.crash_retries:
                        raise PairCrash(
                            f"worker pool unavailable ({attempts} attempts): {exc!r}"
                        ) from exc
                    continue
                try:
                    return await asyncio.wait_for(asyncio.wrap_future(future), limit)
                except asyncio.TimeoutError:
                    await self._retire_pool(generation)
                    raise PairTimeout(f"exceeded {limit:g}s wall-clock limit") from None
                except BrokenProcessPool as exc:
                    await self._retire_pool(generation)
                    attempts += 1
                    if attempts > self.crash_retries:
                        raise PairCrash(
                            f"worker process died ({attempts} attempts)"
                        ) from exc
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    raise PairError(repr(exc)) from exc
