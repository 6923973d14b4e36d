"""The suite runner: (workload, configuration) pairs over a process pool.

The unit of work is one (workload, config) pair.  The coordinating
process checks the result cache before dispatch, deduplicates pairs that
appear under several output slots (experiments often reuse one baseline
configuration), and merges results back into per-config
``{workload name: SimResult}`` dicts on :class:`PairPool`, the process
pool the job server shares.  One worker is a pool of width one run in
the coordinating process; every pair, pooled or not, is simulated by
:func:`_simulate_pair` and recorded by one step.

Worker processes keep a module-level ``{config digest: Simulator}`` table
(the :data:`MAX_WORKER_SIMULATORS` most recently used) so a
configuration's system model is built once per worker, not once per
workload, and persist every finished result to a per-process cache shard
(``results-w<pid>.jsonl``) in the shared cache directory — concurrency-
safe by construction, and crash-safe: results survive even if the
coordinating process dies before the merge.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, as_completed, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

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

#: Per-worker simulator table: config digest -> Simulator, least recently
#: used first.  Bounded like walkgen's compile memo, so a long-running
#: server worker that sees many machine shapes does not grow without limit.
_WORKER_SIMULATORS: Dict[str, Simulator] = {}
MAX_WORKER_SIMULATORS = 32

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


def _simulate_pair(
    workload: Workload,
    config: SystemConfig,
    simulators: Dict[str, Simulator],
    cache,
) -> Tuple[SimResult, float, Optional[dict]]:
    """Simulate one pair, reusing ``simulators``' per-config machines.

    ``simulators`` keeps insertion order as recency and at most
    :data:`MAX_WORKER_SIMULATORS` entries; the least recently used goes.
    The one place a pair is simulated, in a worker or in process.  Returns
    ``(result, sim_seconds, telemetry_summary)``; the summary is None
    unless profiling is enabled (``REPRO_PROFILE=1``), in which case the
    run carries a probe and its compact digest goes to
    :data:`~repro.parallel.metrics.GLOBAL_METRICS`.  ``cache``, when
    given, persists the result.
    """
    digest = config.digest()
    simulator = simulators.pop(digest, None)
    profile = profiling_enabled()
    if simulator is None:
        simulator = Simulator(config, telemetry=Telemetry() if profile else None)
        if len(simulators) >= MAX_WORKER_SIMULATORS:
            del simulators[next(iter(simulators))]
    elif profile and simulator.telemetry is None:
        simulator.telemetry = Telemetry()
        simulator.system.attach_telemetry(simulator.telemetry)
    simulators[digest] = simulator
    start = time.time()
    result = simulator.run(workload)
    elapsed = time.time() - start
    if cache is not None:
        cache.put(result)
    summary = simulator.telemetry.summary() if profile and simulator.telemetry else None
    return result, elapsed, summary


def _run_task(payload, config: SystemConfig) -> Tuple[SimResult, float, Optional[dict]]:
    """Worker entry point: :func:`_simulate_pair` on this worker's state."""
    workload = SyntheticWorkload(payload) if isinstance(payload, WorkloadSpec) else payload
    return _simulate_pair(workload, config, _WORKER_SIMULATORS, _WORKER_CACHE)


# ----------------------------------------------------------------------
# The pair pool
# ----------------------------------------------------------------------


class PairError(RuntimeError):
    """A pair failed to produce a result; ``kind`` labels the class."""

    kind = "exception"


class PairCrash(PairError):
    """The worker process died and the retry budget is exhausted."""

    kind = "crash"


class PairTimeout(PairError):
    """The pair exceeded its wall-clock limit and its worker was killed."""

    kind = "timeout"


def _pair_error(cause: Optional[BaseException], message: str = "") -> PairError:
    """A :class:`PairError` chained to ``cause``, by default its repr."""
    error = PairError(message or repr(cause))
    error.__cause__ = cause
    return error


@dataclass(eq=False)
class _Pair:
    payload: object
    config: SystemConfig
    on_start: Optional[Callable[[], None]]
    future: Future = field(default_factory=Future)
    attempts: int = 0  # crash retries charged
    started: float = 0.0  # monotonic time of the latest dispatch


class PairPool:
    """Runs pairs on ``workers`` processes; the only ``ProcessPoolExecutor``.

    At most ``workers`` pairs are in flight, so a run starts at dispatch.
    A pair past ``timeout`` seconds (read live) fails with
    :class:`PairTimeout` and the pool is killed; pairs beside it restart
    uncharged.  A dead worker is charged to a pair running alone
    (:class:`PairCrash` past ``crash_retries``); pairs running together
    rerun one at a time, uncharged, until a repeat death names the
    culprit.  State changes under one lock, in :meth:`submit` (dispatching
    into a free slot at once) or on the dispatcher thread; should that
    thread fail, every pair left fails with a :class:`PairError` and the
    pool closes.
    """

    def __init__(self, workers: int, cache_dir: Optional[str] = None,
                 timeout: Optional[float] = None, crash_retries: int = 2) -> None:
        self.workers = workers
        self.cache_dir = cache_dir
        self.timeout = timeout
        self.crash_retries = crash_retries
        self._lock = threading.RLock()
        self._wake: Future = Future()  # resolved to wake the dispatcher
        self._closing = False
        self._thread: Optional[threading.Thread] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._queue: Deque[_Pair] = deque()  # waiting; restarts go first
        self._suspects: List[_Pair] = []  # crash suspects, rerun alone in turn
        self._running: Dict[Future, _Pair] = {}

    def submit(self, payload, config: SystemConfig,
               on_start: Optional[Callable[[], None]] = None) -> Future:
        """Queue a ``WorkloadSpec`` or picklable ``Workload`` payload; the
        future resolves to ``(result, sim_seconds, summary)`` or raises a
        :class:`PairError`.  ``on_start`` runs at first dispatch: inside this
        call if a slot is free, else on the dispatcher thread."""
        pair = _Pair(payload, config, on_start)
        with self._lock:
            if self._closing:
                raise RuntimeError("pair pool is closed")
            self._queue.append(pair)
            self._fill()
            if self._thread is None:  # started after the first fork, not before
                self._thread = threading.Thread(target=self._serve, name="pair-pool", daemon=True)
                self._thread.start()
            self._signal()
        return pair.future

    def close(self, wait: bool = True) -> None:
        """Stop intake and shut down: after every pair ends, or (``wait=False``)
        at once, killing the workers and failing what is left."""
        with self._lock:
            self._closing = True
            if not wait:
                self._abandon("pair pool closed mid-run")
            self._signal()
        if self._thread is not None:  # set only under the lock, before closing
            self._thread.join()

    def __enter__(self) -> "PairPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)

    def _serve(self) -> None:
        """The dispatcher thread."""
        done: set = set()
        try:
            while True:
                with self._lock:
                    if self._wake.done():
                        self._wake = Future()
                    wake = self._wake
                    self._collect(done)
                    self._fill()
                    if self._closing and not self._running:
                        break
                    running = list(self._running)
                    remaining = None
                    if self.timeout is not None and running:
                        first = min(pair.started for pair in self._running.values())
                        remaining = max(0.0, first + self.timeout - time.monotonic())
                done, _ = wait([wake, *running], timeout=remaining, return_when=FIRST_COMPLETED)
            if self._pool is not None:
                self._pool.shutdown(wait=True)
        except Exception as exc:  # noqa: BLE001 - fail the pairs, never strand them
            with self._lock:
                self._abandon(f"pair pool failed: {exc!r}", exc)

    # The methods below run under the lock.

    def _abandon(self, reason: str, cause: Optional[BaseException] = None) -> None:
        """Stop intake, kill the workers and fail every pair left."""
        self._closing = True
        for pair in {*self._retire(), *self._queue, *self._suspects}:
            # A waiting pair may be cancelled meanwhile; a running one cannot.
            if pair.future.running() or pair.future.set_running_or_notify_cancel():
                pair.future.set_exception(_pair_error(cause, reason))
        self._queue, self._suspects = deque(), []

    def _signal(self) -> None:
        if not self._wake.done():
            self._wake.set_result(None)

    def _fill(self) -> None:
        """Dispatch waiting pairs into free slots; suspects run alone."""
        while len(self._running) < self.workers:
            if self._suspects:
                if self._running:
                    return
                self._dispatch(self._suspects[0])
            elif not self._queue:
                return
            else:
                pair = self._queue.popleft()
                if not pair.future.running():  # a first dispatch, not a restart
                    if not pair.future.set_running_or_notify_cancel():
                        continue  # cancelled while waiting
                    if pair.on_start is not None:
                        pair.on_start()
                self._dispatch(pair)

    def _dispatch(self, pair: _Pair) -> None:
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_init_worker, initargs=(self.cache_dir,)
                )
            future = self._pool.submit(_run_task, pair.payload, pair.config)
        except Exception:  # noqa: BLE001 - no pool, or it broke between checks
            # A casualty like the running pairs: charged only if alone, so
            # a pool that cannot start workers fails it instead of looping.
            self._crash(self._retire() + [pair])
            return
        pair.started = time.monotonic()
        self._running[future] = pair

    def _collect(self, done) -> None:
        """Settle finished pairs, then handle a dead worker or an overdue pair."""
        broken = False
        for future in done:
            pair = self._running.get(future)
            if pair is None:  # the wake-up future, or a retired pool's
                continue
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                broken = True
                continue
            del self._running[future]
            if error is None:
                self._settle(pair, future.result())
            else:
                self._settle(pair, error=_pair_error(error))
        if broken:
            self._crash(self._retire())
        limit, now = self.timeout, time.monotonic()
        if limit is not None and any(now - p.started >= limit for p in self._running.values()):
            for pair in reversed(self._retire()):
                if now - pair.started >= limit:
                    self._settle(pair, error=PairTimeout(f"exceeded {limit:g}s wall-clock limit"))
                elif pair not in self._suspects:  # restart uncharged
                    self._queue.appendleft(pair)

    def _crash(self, casualties: List[_Pair]) -> None:
        """Charge a lone casualty one retry; several rerun alone, uncharged."""
        if len(casualties) > 1:
            self._suspects += [pair for pair in casualties if pair not in self._suspects]
            return
        for pair in casualties:
            pair.attempts += 1
            if pair.attempts > self.crash_retries:
                self._settle(pair, error=PairCrash(f"worker process died ({pair.attempts} attempts)"))
            elif pair not in self._suspects:
                self._queue.appendleft(pair)

    def _retire(self) -> List[_Pair]:
        """Kill the live pool (``shutdown`` alone would wait for a hung
        worker); return the pairs that were running on it."""
        casualties = list(self._running.values())
        self._running.clear()
        if self._pool is not None:
            for process in list(getattr(self._pool, "_processes", {}).values()):
                process.terminate()
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        return casualties

    def _settle(self, pair: _Pair, outcome=None, error: Optional[PairError] = None) -> None:
        if pair in self._suspects:
            self._suspects.remove(pair)
        if error is None:
            pair.future.set_result(outcome)
        else:
            pair.future.set_exception(error)


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

    Failure handling: a pair that raises, whose worker dies past
    ``crash_retries``, or that runs past ``timeout`` seconds (both apply
    to pool pairs only, as :class:`PairPool` defines
    them) becomes a :class:`PairFailure` of the same ``kind``.  With a
    ``failures`` list they are appended there and the surviving results
    returned (failed pairs are absent from their dicts); without one the
    batch still completes, then raises :class:`SuiteRunError` listing
    every failed pair, chained to the first raised exception.
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
    shipped: Dict[str, Tuple[object, SystemConfig]] = {
        key: (payload, config)
        for key, (workload, config) in pending.items()
        if workers > 1 and (payload := _shippable(workload)) is not None
    }

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

    def _fail(key: str, error: PairError) -> None:
        if error.__cause__ is not None:
            raised.append(error.__cause__)
        names = (sinks[key][0][1], pending[key][1].name)
        collected.append(PairFailure(key, *names, kind=error.kind, error=str(error)))

    if shipped:
        cache_dir = str(cache.directory) if cache is not None else None
        with PairPool(min(workers, len(shipped)), cache_dir, timeout, crash_retries) as pool:
            futures = {pool.submit(*shipped[key]): key for key in shipped}
            for future in as_completed(futures):
                try:
                    outcome = future.result()
                except PairError as exc:
                    _fail(futures[future], exc)
                    continue
                _record(futures[future], outcome)

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
            _fail(key, _pair_error(exc))
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


def _fan_out(merged: List[Dict[str, SimResult]], positions, result: SimResult) -> None:
    """Write one result into every (config slot, workload name) it serves."""
    for slot, name in positions:
        merged[slot][name] = result
