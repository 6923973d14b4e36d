"""The suite runner: (workload, configuration) pairs over a process pool.

The unit of work is one (workload, config) pair.  The coordinating
process checks the result cache before dispatch, deduplicates pairs that
appear under several output slots (experiments often reuse one baseline
configuration), and merges results back into per-config
``{workload name: SimResult}`` dicts.  One worker is a pool of width one
run in the coordinating process; every pair, pooled or not, is simulated
by :func:`_simulate_pair` and recorded by one step.

Worker processes keep a module-level ``{config digest: Simulator}`` table
so a configuration's system model is built once per worker, not once per
workload, and persist every finished result to a per-process cache shard
(``results-w<pid>.jsonl``) in the shared cache directory — concurrency-
safe by construction, and crash-safe: results survive even if the
coordinating process dies before the merge.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import SystemConfig
from ..sim.result import SimResult
from ..sim.simulator import Simulator
from ..telemetry import Telemetry
from ..workloads.suite import suite_workloads
from ..workloads.synthetic import SyntheticWorkload, WorkloadSpec
from ..workloads.trace import Workload


def profiling_enabled() -> bool:
    """True when ``REPRO_PROFILE`` asks runs to carry a telemetry probe.

    Read per task (not cached) so scripts can flip profiling on after
    import; worker processes inherit the coordinator's environment.
    """
    return os.environ.get("REPRO_PROFILE", "") not in ("", "0")

# ----------------------------------------------------------------------
# Worker-process state
# ----------------------------------------------------------------------

#: Per-worker simulator table: config digest -> Simulator (built once).
_WORKER_SIMULATORS: Dict[str, Simulator] = {}

#: Per-worker cache shard (None when caching is disabled for the run).
_WORKER_CACHE = None


def _init_worker(cache_dir: Optional[str]) -> None:
    """Process-pool initializer: open this worker's cache shard."""
    global _WORKER_CACHE
    _WORKER_SIMULATORS.clear()
    if cache_dir is None:
        _WORKER_CACHE = None
        return
    from ..experiments.common import ResultCache

    _WORKER_CACHE = ResultCache(cache_dir, shard=f"w{os.getpid()}")


def _revive_workload(payload) -> Workload:
    """Rebuild the workload a task was shipped with."""
    if isinstance(payload, WorkloadSpec):
        return SyntheticWorkload(payload)
    return payload


def _simulate_pair(
    workload: Workload,
    config: SystemConfig,
    simulators: Dict[str, Simulator],
    cache,
) -> Tuple[SimResult, float, Optional[dict]]:
    """Simulate one pair, reusing ``simulators``' per-config machines.

    The one place a pair is simulated, in a worker or in process.  Returns
    ``(result, sim_seconds, telemetry_summary)``; the summary is None
    unless profiling is enabled (``REPRO_PROFILE=1``), in which case the
    run carries a probe and its compact digest goes to
    :data:`~repro.parallel.metrics.GLOBAL_METRICS`.  ``cache``, when
    given, persists the result.
    """
    digest = config.digest()
    simulator = simulators.get(digest)
    profile = profiling_enabled()
    if simulator is None:
        simulator = Simulator(config, telemetry=Telemetry() if profile else None)
        simulators[digest] = simulator
    elif profile and simulator.telemetry is None:
        simulator.telemetry = Telemetry()
        simulator.system.attach_telemetry(simulator.telemetry)
    start = time.time()
    result = simulator.run(workload)
    elapsed = time.time() - start
    if cache is not None:
        cache.put(result)
    summary = simulator.telemetry.summary() if profile and simulator.telemetry else None
    return result, elapsed, summary


def _run_task(payload, config: SystemConfig) -> Tuple[SimResult, float, Optional[dict]]:
    """Worker entry point: :func:`_simulate_pair` on this worker's state."""
    return _simulate_pair(_revive_workload(payload), config, _WORKER_SIMULATORS, _WORKER_CACHE)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PairFailure:
    """One (workload, config) pair that could not produce a result.

    ``kind`` is ``"exception"`` (the simulation raised — deterministic,
    never retried), ``"crash"`` (the worker process died and the pair
    exhausted its retry budget), or ``"timeout"`` (the pair exceeded the
    per-pair wall-clock limit).  ``error`` is the exception repr or a
    description of the crash/timeout.
    """

    key: str
    workload_name: str
    config_name: str
    kind: str
    error: str


class SuiteRunError(RuntimeError):
    """Raised when pairs failed and no ``failures`` sink was provided."""

    def __init__(self, failures: Sequence[PairFailure]) -> None:
        self.failures = list(failures)
        lines = ", ".join(
            f"{item.workload_name} on {item.config_name} [{item.kind}]"
            for item in self.failures[:5]
        )
        more = "" if len(self.failures) <= 5 else f" (+{len(self.failures) - 5} more)"
        super().__init__(f"{len(self.failures)} pair(s) failed: {lines}{more}")


#: Seconds between coordinator wake-ups while futures are outstanding —
#: the granularity of per-pair timeout checks and crash observation.
_POLL_SECONDS = 0.1


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully stop a pool whose workers are hung or poisoned.

    ``ProcessPoolExecutor`` has no public kill switch: ``shutdown`` waits
    for running tasks, which never return when a worker is stuck.
    Terminating the worker processes flips the pool into its broken state,
    after which shutdown returns immediately.
    """
    for process in list(getattr(pool, "_processes", {}).values()):
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already dead
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def resolve_workers(max_workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_WORKERS``, else cores.

    Any value below one is clamped to one (every pair runs in process); a
    malformed ``REPRO_WORKERS`` raises :class:`ValueError` naming it.
    """
    if max_workers is not None:
        return max(1, int(max_workers))
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {env!r}") from None


def _shippable(workload: Workload):
    """The payload to send a worker for ``workload``, or None if unpicklable.

    Synthetic workloads travel as their spec (tiny, always picklable) and
    are rebuilt worker-side; other Workload subclasses are shipped whole
    when pickle accepts them, and run in process when it does not.
    """
    if isinstance(workload, SyntheticWorkload):
        return workload.spec
    try:
        pickle.dumps(workload)
    except Exception:
        return None
    return workload


def run_suite_parallel(
    configs: Sequence[SystemConfig],
    workloads: Optional[Iterable[Workload]] = None,
    max_workers: Optional[int] = None,
    cache=None,
    progress=None,
    metrics=None,
    timeout: Optional[float] = None,
    crash_retries: int = 2,
    failures: Optional[List[PairFailure]] = None,
) -> List[Dict[str, SimResult]]:
    """Simulate every (workload, config) pair; the one suite runner.

    Returns one ``{workload name: SimResult}`` dict per configuration in
    input order, each keyed in workload order.  Pairs run on a process
    pool of ``max_workers`` (see :func:`resolve_workers`); one worker is a
    pool of width one run in this process, and a pair whose workload
    cannot be pickled runs here too.  Simulations are deterministic, so
    every width returns the same values.

    ``cache`` follows :class:`~repro.experiments.common.ResultCache`
    semantics: hits are returned without simulation, pool workers persist
    misses to per-process shards of the same cache directory (in-process
    pairs write through ``cache`` itself), and the coordinator absorbs
    every result in memory.  Pairs repeated across output slots are
    simulated once and fanned out.  ``progress``, when given, is called
    as ``progress(done, total, result)`` after each simulated pair, where
    ``total`` counts the batch's unique pairs to simulate (cache hits
    excluded).  ``metrics``, when given, is a private
    :class:`~repro.parallel.metrics.SuiteMetrics` sink that receives the
    same sim and batch records as the process-wide ``GLOBAL_METRICS``;
    batch records count cached pairs per output slot, so
    ``executed_pairs`` equals the simulations actually run.

    Failure handling: a pair whose simulation raises, whose worker
    process dies (after ``crash_retries`` pool rebuilds), or that runs
    longer than ``timeout`` seconds (measured from when a worker picks it
    up) becomes a structured :class:`PairFailure` instead of stalling or
    crashing the whole batch; ``timeout`` and ``crash_retries`` apply to
    pool pairs only.  With a ``failures`` list supplied, the failures are
    appended there and the surviving pairs' results are returned (failed
    pairs are simply absent from their dicts); without one, the batch
    still runs to completion and then raises :class:`SuiteRunError`
    listing every failed pair, chained to the first raised exception.
    A timeout has to kill the worker pool (hung workers cannot be
    cancelled), so pairs that were mid-flight on other workers restart on
    a fresh pool — they are not charged a crash retry.
    """
    from .metrics import GLOBAL_METRICS

    start = time.time()
    configs = list(configs)
    workload_list = list(workloads) if workloads is not None else suite_workloads()
    workers = resolve_workers(max_workers)

    merged: List[Dict[str, SimResult]] = [dict() for _ in configs]
    # pair key -> list of (config slot, workload name) output positions
    sinks: Dict[str, List[Tuple[int, str]]] = {}
    # pair key -> cached result, fanned out only after the scan completes
    # (a duplicate slot may register in sinks[key] after the cache hit)
    resolved: Dict[str, SimResult] = {}
    # pair key -> (workload, config) for pairs that must be simulated
    pending: Dict[str, Tuple[Workload, SystemConfig]] = {}

    for slot, config in enumerate(configs):
        config_digest = config.digest()
        for workload in workload_list:
            key = f"{workload.digest()}##{config_digest}"
            if key in sinks:
                sinks[key].append((slot, workload.name))
                continue
            sinks[key] = [(slot, workload.name)]
            cached = cache.get(workload.digest(), config_digest) if cache is not None else None
            if cached is not None:
                resolved[key] = cached
            else:
                pending[key] = (workload, config)

    for key, cached in resolved.items():
        _fan_out(merged, sinks[key], cached)

    # pair key -> (payload, config) for the pool; at one worker nothing is
    # pickled and every pair runs in process.
    shipped: Dict[str, Tuple[object, SystemConfig]] = {}
    if workers > 1:
        for key, (workload, config) in pending.items():
            payload = _shippable(workload)
            if payload is not None:
                shipped[key] = (payload, config)

    total = len(pending)
    done = 0

    def _record(key: str, outcome: Tuple[SimResult, float, Optional[dict]]) -> None:
        nonlocal done
        result, sim_seconds, summary = outcome
        for sink in (GLOBAL_METRICS, metrics):
            if sink is not None:
                sink.record_sim(result.system_name, sim_seconds)
        if summary is not None:
            GLOBAL_METRICS.record_telemetry(summary)
        if cache is not None:
            cache.absorb(result)
        _fan_out(merged, sinks[key], result)
        done += 1
        if progress is not None:
            progress(done, total, result)

    collected: List[PairFailure] = []
    raised: List[BaseException] = []

    def _fail(key: str, config_name: str, kind: str, error) -> None:
        if isinstance(error, BaseException):
            raised.append(error)
            error = repr(error)
        collected.append(
            PairFailure(
                key=key,
                workload_name=sinks[key][0][1],
                config_name=config_name,
                kind=kind,
                error=error,
            )
        )

    if shipped:
        cache_dir = str(cache.directory) if cache is not None else None
        _run_pool(shipped, workers, cache_dir, timeout, crash_retries, _record, _fail)

    # Pending pairs are config-major and deduplicated, so each
    # configuration's pairs are contiguous: only its simulator stays alive.
    simulators: Dict[str, Simulator] = {}
    for key, (workload, config) in pending.items():
        if key in shipped:
            continue
        if config.digest() not in simulators:
            simulators.clear()
        try:
            outcome = _simulate_pair(workload, config, simulators, cache)
        except Exception as exc:  # noqa: BLE001 - surfaced per pair
            _fail(key, config.name, "exception", exc)
            continue
        _record(key, outcome)

    if collected:
        if failures is None:
            raise SuiteRunError(collected) from (raised[0] if raised else None)
        failures.extend(collected)

    slots = len(configs) * len(workload_list)
    for sink in (GLOBAL_METRICS, metrics):
        if sink is not None:
            sink.record_batch(
                configs=[config.name for config in configs],
                total=slots,
                cached=slots - total,
                wall=time.time() - start,
                workers=workers,
            )

    names = [workload.name for workload in workload_list]
    return [
        {name: per_config[name] for name in names if name in per_config}
        for per_config in merged
    ]


def _run_pool(shipped, workers, cache_dir, timeout, crash_retries, record, fail) -> None:
    """Run the ``shipped`` pairs on process pools, rebuilt as needed.

    Each finished pair goes to ``record(key, outcome)``; each failed one to
    ``fail(key, config_name, kind, error)``, where ``error`` is the raised
    exception or a description of the crash or timeout.
    """
    pool_workers = min(workers, len(shipped))
    outstanding: Dict[str, Tuple[object, SystemConfig]] = dict(shipped)
    attempts: Dict[str, int] = {}
    # Crash suspects awaiting an isolation round (see the broken-pool
    # handler below): run one at a time so a repeat break identifies the
    # culprit unambiguously instead of charging innocent pairs.
    suspects: List[str] = []

    def _settle(key: str) -> None:
        outstanding.pop(key, None)
        if key in suspects:
            suspects.remove(key)

    while outstanding:
        suspects = [key for key in suspects if key in outstanding]
        round_keys = suspects[:1] if suspects else list(outstanding)
        pool = ProcessPoolExecutor(
            max_workers=min(pool_workers, len(round_keys)),
            initializer=_init_worker,
            initargs=(cache_dir,),
        )
        futures = {pool.submit(_run_task, *outstanding[key]): key for key in round_keys}
        started: Dict[object, float] = {}
        rebuild = False
        remaining = set(futures)
        while remaining and not rebuild:
            finished, remaining = wait(
                remaining, timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
            )
            now = time.time()
            for future in remaining:
                if future not in started and future.running():
                    started[future] = now
            broken = False
            for future in finished:
                key = futures[future]
                if key not in outstanding:
                    continue
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                except Exception as exc:  # noqa: BLE001 - surfaced per pair
                    fail(key, outstanding[key][1].name, "exception", exc)
                    _settle(key)
                    continue
                record(key, outcome)
                _settle(key)
            if broken:
                # A worker died and took the pool with it.  The pairs
                # observed running are the crash candidates; queued pairs
                # restart for free.  A single candidate is charged a
                # retry; several are ambiguous (any of them may be the
                # killer), so nobody is charged — they are queued for
                # one-at-a-time isolation rounds where a repeat break is
                # unambiguous.
                culprits = {
                    futures[item] for item in started if futures[item] in outstanding
                } or {key for key in round_keys if key in outstanding}
                if len(culprits) == 1:
                    culprit = next(iter(culprits))
                    attempts[culprit] = attempts.get(culprit, 0) + 1
                    if attempts[culprit] > crash_retries:
                        fail(
                            culprit,
                            outstanding[culprit][1].name,
                            "crash",
                            f"worker process died ({attempts[culprit]} attempts)",
                        )
                        _settle(culprit)
                else:
                    for key in sorted(culprits):
                        if key not in suspects:
                            suspects.append(key)
                rebuild = True
                continue
            if timeout is not None:
                expired = [
                    future
                    for future in remaining
                    if future in started and now - started[future] > timeout
                ]
                for future in expired:
                    key = futures[future]
                    fail(
                        key,
                        outstanding[key][1].name,
                        "timeout",
                        f"exceeded {timeout:g}s wall-clock limit",
                    )
                    _settle(key)
                if expired:
                    rebuild = True
        if rebuild:
            _terminate_pool(pool)
        else:
            pool.shutdown(wait=True)


def _fan_out(merged: List[Dict[str, SimResult]], positions, result: SimResult) -> None:
    """Write one result into every (config slot, workload name) it serves."""
    for slot, name in positions:
        merged[slot][name] = result
