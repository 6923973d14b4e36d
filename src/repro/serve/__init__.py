"""Simulation-as-a-service: an async job server over the result cache.

``repro.serve`` turns the repository's simulation stack into a long-
running service.  Clients submit single (workload, config) pairs or
whole sweep batches over HTTP/JSON; the server content-addresses every
pair with the same digests the :class:`~repro.experiments.common.
ResultCache` uses and resolves it through three tiers — coalesce onto an
identical in-flight job, serve from the shard-file cache, or simulate on
the ``repro.parallel`` worker pool.  Results stream back via polling or
server-sent events, and ``POST /drain`` (or SIGTERM to
``scripts/serve.py``) performs a graceful shutdown that persists the job
store.

The moving parts:

* :mod:`~repro.serve.wire` — JSON wire formats; digests are recomputed
  server-side, never trusted from clients.
* :mod:`~repro.serve.jobs` — :class:`Job`/:class:`Batch` lifecycle and
  the event ring buffer behind ``/events``.
* :mod:`~repro.serve.executor` — :class:`PairExecutor`, the asyncio
  bridge onto :class:`~repro.parallel.PairPool`, the process-pool core
  the batch runner shares (per-job timeouts, bounded crash retries).
* :mod:`~repro.serve.scheduler` — dedup/coalesce/dispatch plus graceful
  drain.
* :mod:`~repro.serve.http` — the stdlib asyncio HTTP front end.
* :mod:`~repro.serve.client` — the blocking client library used by
  ``scripts/submit.py`` and :func:`repro.explore.remote.remote_runner`.

Because cache keys are content-addressed and simulations deterministic,
a sweep driven through a server is bit-identical to the same sweep run
locally, and immediate resubmission is served entirely from cache.
"""

from .client import RemoteError, ServeClient
from .executor import PairCrash, PairError, PairExecutor, PairTimeout
from .http import ServeApp, start_server
from .jobs import ACTIVE_STATES, JOB_STATES, Batch, Job, JobStore
from .scheduler import DrainingError, Scheduler
from .wire import (
    WireError,
    config_from_wire,
    pair_from_wire,
    pair_to_wire,
    pairs_from_wire,
    spec_from_wire,
    workload_from_wire,
    workload_to_wire,
)

__all__ = [
    "ACTIVE_STATES",
    "Batch",
    "DrainingError",
    "JOB_STATES",
    "Job",
    "JobStore",
    "PairCrash",
    "PairError",
    "PairExecutor",
    "PairTimeout",
    "RemoteError",
    "Scheduler",
    "ServeApp",
    "ServeClient",
    "WireError",
    "config_from_wire",
    "pair_from_wire",
    "pair_to_wire",
    "pairs_from_wire",
    "spec_from_wire",
    "start_server",
    "workload_from_wire",
    "workload_to_wire",
]
