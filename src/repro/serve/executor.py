"""Async pair execution: a thin asyncio adapter over
:class:`~repro.parallel.PairPool`, the process-pool core the batch runner
shares, so a job times out, crashes and retries exactly as in a batch.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Callable, Optional, Tuple

from ..core.config import SystemConfig
from ..parallel import PairCrash, PairError, PairPool, PairTimeout, resolve_workers  # noqa: F401


class PairExecutor:
    """Process-pool execution of single (workload, config) pairs.

    Workers persist results to their own shard in ``cache_dir`` (None:
    no cache), so a restart loses no completed work.  ``timeout`` and
    ``crash_retries`` are the pool's.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache_dir: Optional[str] = None,
        timeout: Optional[float] = None,
        crash_retries: int = 2,
    ) -> None:
        self.max_workers = resolve_workers(max_workers)
        self.pool = PairPool(self.max_workers, cache_dir, timeout, crash_retries)

    @property
    def timeout(self) -> Optional[float]:
        """The pool's per-job wall-clock limit; settable on a live server."""
        return self.pool.timeout

    @timeout.setter
    def timeout(self, value: Optional[float]) -> None:
        self.pool.timeout = value

    async def close(self, wait: bool = True) -> None:
        """Shut the pool down; no further :meth:`run` calls are accepted."""
        await asyncio.get_running_loop().run_in_executor(None, self.pool.close, wait)

    async def run(
        self,
        payload: object,
        config: SystemConfig,
        on_start: Optional[Callable[[], None]] = None,
    ) -> Tuple[object, float, Optional[dict]]:
        """:meth:`PairPool.submit` on the loop; ``on_start`` is called on the
        loop when the pool dispatches the job, so waiting for a worker
        counts as queueing."""
        relay = None
        if on_start is not None:
            loop, home = asyncio.get_running_loop(), threading.get_ident()

            def relay() -> None:
                if threading.get_ident() == home:  # dispatched inside submit
                    return on_start()
                # From the pool's thread: two hops, behind the result that freed
                # the slot.  A job done by then still starts first; skip a cancelled one.
                loop.call_soon_threadsafe(loop.call_soon, lambda: waiter.cancelled() or on_start())

        waiter = asyncio.wrap_future(self.pool.submit(payload, config, relay))
        return await waiter
