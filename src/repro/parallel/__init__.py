"""Parallel suite execution.

Independent (workload, configuration) simulations are embarrassingly
parallel; this package fans them out over :class:`PairPool`, the process
pool the job server shares, and one worker is the same runner in process:

* results are bit-identical at every pool width (simulations are
  deterministic and share no state across processes);
* each worker process builds at most one :class:`~repro.sim.simulator.
  Simulator` per configuration digest and reuses it across workloads;
* the shared disk cache (:class:`~repro.experiments.common.ResultCache`)
  is consulted before dispatch and written concurrently via per-process
  shard files, so interrupted runs still keep every finished result.

Worker-count policy lives in :func:`resolve_workers`: an explicit
argument wins, then the ``REPRO_WORKERS`` environment variable, then the
machine's core count.  ``REPRO_WORKERS=1`` runs every pair in process.

Throughput accounting (sims/sec, cache hit rate, per-config wall time)
is aggregated in :data:`repro.parallel.metrics.GLOBAL_METRICS` and
rendered by the experiment scripts after each run.
"""

from .metrics import GLOBAL_METRICS, SuiteMetrics
from .runner import (
    PairCrash,
    PairError,
    PairFailure,
    PairPool,
    PairTimeout,
    SuiteRunError,
    profiling_enabled,
    resolve_workers,
    run_suite_parallel,
)

__all__ = [
    "GLOBAL_METRICS",
    "PairCrash",
    "PairError",
    "PairFailure",
    "PairPool",
    "PairTimeout",
    "SuiteMetrics",
    "SuiteRunError",
    "profiling_enabled",
    "resolve_workers",
    "run_suite_parallel",
]
