"""Shared experiment infrastructure: suite runs and a persistent cache.

Every figure/table reproduction declares an :class:`ExperimentPlan`, and
:func:`run_plans` runs any set of plans as one batch.  Simulations are
deterministic, so results are cached on disk keyed by ``(workload digest,
system digest)``; re-running a bench (or several benches that share the
baseline) costs only the first run.  Set the ``REPRO_CACHE_DIR``
environment variable to move the cache, or ``REPRO_NO_CACHE=1`` to
disable it.

Suite runs fan out over a process pool sized by ``REPRO_WORKERS``
(defaulting to the machine's core count; see :mod:`repro.parallel`).
``REPRO_WORKERS=1`` runs every pair in this process, which is useful
when bisecting determinism issues.  The cache file format is
concurrency-safe: every entry is appended as a single ``O_APPEND`` write
under an advisory lock, and loads merge every ``results*.jsonl`` shard
in the cache directory, tolerating duplicate and truncated lines — so any number of processes may share one cache
directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

try:  # advisory file locking; absent on some exotic platforms
    import fcntl
except ImportError:  # pragma: no cover - POSIX always has fcntl
    fcntl = None  # type: ignore[assignment]

from ..analysis.speedup import geomean_speedup
from ..core.config import MODEL_REV, SystemConfig
from ..sim.result import RESULT_SCHEMA, SimResult
from ..sim.simulator import Simulator
from ..workloads.suite import suite_workloads
from ..workloads.synthetic import Category, SyntheticWorkload
from ..workloads.trace import Workload


def _default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".repro_cache"


@dataclass(frozen=True)
class CacheStoreStats:
    """Snapshot of a :class:`ResultCache`'s contents (see ``stats()``).

    ``stale_entries`` counts entries whose system digest carries a
    ``r<N>|`` model-revision prefix different from the current
    :data:`~repro.core.config.MODEL_REV` — dead weight that can never be
    served again and that :meth:`ResultCache.prune` reclaims.
    """

    entries: int
    bytes_on_disk: int
    stale_entries: int
    entries_by_rev: Dict[int, int]


def _key_model_rev(key: str) -> Optional[int]:
    """Model revision parsed from a cache key's ``r<N>|`` digest prefix.

    Keys are ``<workload digest>##<system digest>`` and system digests
    lead with ``r<MODEL_REV>|``; returns None for keys that do not parse
    (foreign or hand-edited entries).
    """
    _, sep, system_digest = key.partition("##")
    if not sep or not system_digest.startswith("r"):
        return None
    rev, sep, _ = system_digest[1:].partition("|")
    if not sep:
        return None
    try:
        return int(rev)
    except ValueError:
        return None


class ResultCache:
    """Append-only JSONL cache of simulation results.

    Safe for concurrent writers: entries are appended as single
    ``O_APPEND`` writes (additionally serialized by an advisory ``flock``
    where available), so lines from different processes never interleave.
    A cache may also be opened with a ``shard`` suffix, giving each writer
    its own ``results-<shard>.jsonl`` file; :meth:`_load` merges every
    ``results*.jsonl`` in the directory, so shard and non-shard writers
    share one namespace.  Duplicate keys are tolerated (last parsed entry
    wins — entries for one key are identical anyway because simulations
    are deterministic).

    ``hits``/``misses`` count :meth:`get` outcomes, so ``hits / (hits +
    misses)`` is the true lookup hit rate regardless of whether a miss is
    later followed by a :meth:`put`.
    """

    def __init__(self, directory: Optional[Path] = None, shard: Optional[str] = None) -> None:
        self.directory = Path(directory) if directory is not None else _default_cache_dir()
        self.shard = shard
        name = "results.jsonl" if shard is None else f"results-{shard}.jsonl"
        self.path = self.directory / name
        self._memory: Dict[str, SimResult] = {}
        #: Keys of on-disk entries written under an older RESULT_SCHEMA —
        #: never served, but reported by :meth:`stats` and reclaimed by
        #: :meth:`prune` like rev-stale entries.
        self._stale_schema_keys: List[str] = []
        #: Per-shard read progress: path -> (inode, size, mtime_ns,
        #: consumed bytes).  ``refresh`` compares a fresh ``stat`` against
        #: this to skip untouched shards and to resume appending shards
        #: from the last complete line instead of re-reading them.
        self._shard_state: Dict[str, Tuple[int, int, int, int]] = {}
        self._loaded = False
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(workload_digest: str, system_digest: str) -> str:
        """Cache key for one (workload, system) pair."""
        return f"{workload_digest}##{system_digest}"

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        self._scan()

    def _absorb_line(self, raw: bytes) -> None:
        """Parse one JSONL entry into memory (tolerating foreign lines)."""
        line = raw.strip()
        if not line:
            return
        try:
            entry = json.loads(line)
            # Entries written under an older result schema are
            # never served: their stats no longer match what
            # fresh simulations (and the invariant layer)
            # produce.  Absent marker == schema 1.
            if (
                "key" in entry
                and "result" in entry
                and entry.get("schema", 1) != RESULT_SCHEMA
            ):
                key = str(entry["key"])
                if key not in self._stale_schema_keys:
                    self._stale_schema_keys.append(key)
                return
            result = SimResult.from_dict(entry["result"])
        except (json.JSONDecodeError, KeyError, TypeError):
            return  # tolerate a truncated or foreign line
        self._memory[entry["key"]] = result

    def _read_shard(self, path: Path, offset: int) -> int:
        """Absorb complete lines of ``path`` from ``offset``; new offset.

        Only whole lines are consumed: a torn trailing line (a concurrent
        writer caught mid-append) is left for the next refresh, when the
        grown file size forces another read that picks up the completed
        entry.
        """
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:  # pragma: no cover - shard deleted mid-scan
            return offset
        complete, newline, _tail = data.rpartition(b"\n")
        if not newline:
            return offset
        for raw in complete.split(b"\n"):
            self._absorb_line(raw)
        return offset + len(complete) + 1

    def _scan(self) -> None:
        """Read every shard's unseen bytes, updating the per-shard state."""
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("results*.jsonl")):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - shard deleted mid-scan
                continue
            signature = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
            state = self._shard_state.get(str(path))
            if state is not None and state[:3] == signature:
                continue  # untouched since the last scan
            consumed = 0
            if state is not None and state[0] == signature[0] and stat.st_size >= state[3]:
                # Same inode, grown (or same-size touch): shards are
                # append-only, so resume from the last complete line.
                consumed = state[3]
            # else: new shard, or replaced/truncated (prune rewrites via
            # rename, changing the inode) — read it from the top; entry
            # absorption is idempotent, so re-reads only cost time.
            consumed = self._read_shard(path, consumed)
            self._shard_state[str(path)] = (*signature, consumed)

    def refresh(self) -> int:
        """Pick up entries appended by other processes since the last read.

        Stats every ``results*.jsonl`` shard and incrementally reads the
        ones whose (inode, size, mtime) changed — a long-running server
        polls this cheaply instead of reopening the cache.  Returns the
        number of entries that became visible (stale-schema entries
        included, since they affect :meth:`stats`/:meth:`prune`).
        """
        if not self._loaded:
            # First touch: the initial load IS the refresh, and every
            # entry it finds "became visible" to this process.
            self._load()
            return len(self._memory) + len(self._stale_schema_keys)
        before = len(self._memory) + len(self._stale_schema_keys)
        self._scan()
        return len(self._memory) + len(self._stale_schema_keys) - before

    def get(self, workload_digest: str, system_digest: str) -> Optional[SimResult]:
        """Cached result, or None.  Counts toward ``hits``/``misses``."""
        self._load()
        result = self._memory.get(self.key(workload_digest, system_digest))
        if result is not None:
            self.hits += 1
        else:
            self.misses += 1
        return result

    def put(self, result: SimResult) -> None:
        """Append a result to the cache file, and to memory once loaded.

        A put never loads: a write-only shard (a pool worker's) parses no
        other shard and holds no result in memory.  A later :meth:`get`
        loads the directory, this entry included.
        """
        key = self.key(result.workload_digest, result.system_digest)
        if self._loaded:
            self._memory[key] = result
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {"key": key, "schema": RESULT_SCHEMA, "result": result.to_dict()}
        ) + "\n"
        # One O_APPEND write per entry: atomic on local POSIX filesystems,
        # belt-and-braces flock for NFS and very large entries.
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            os.write(fd, line.encode("utf-8"))
        finally:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
            os.close(fd)

    def absorb(self, result: SimResult) -> None:
        """Record a result in memory only (it is already on disk elsewhere).

        The parallel runner's workers persist results to their own shard
        files; the coordinating process absorbs the returned results so
        later :meth:`get` calls hit without re-reading the directory.
        """
        self._load()
        self._memory[self.key(result.workload_digest, result.system_digest)] = result

    def __len__(self) -> int:
        self._load()
        return len(self._memory) + len(self._stale_schema_keys)

    def stats(self, model_rev: int = MODEL_REV) -> CacheStoreStats:
        """Entry count, disk footprint, and stale-revision census.

        ``model_rev`` is the revision considered *current*; entries with
        any other (or unparseable) ``r<N>|`` prefix count as stale, as do
        entries written under an older ``RESULT_SCHEMA`` (which are never
        served regardless of revision).  Unparseable keys are tallied
        under revision ``-1``.
        """
        self._load()
        by_rev: Dict[int, int] = {}
        for key in list(self._memory) + self._stale_schema_keys:
            rev = _key_model_rev(key)
            by_rev[rev if rev is not None else -1] = (
                by_rev.get(rev if rev is not None else -1, 0) + 1
            )
        stale = sum(
            1 for key in self._memory if _key_model_rev(key) != model_rev
        ) + len(self._stale_schema_keys)
        bytes_on_disk = 0
        if self.directory.is_dir():
            for path in self.directory.glob("results*.jsonl"):
                try:
                    bytes_on_disk += path.stat().st_size
                except OSError:  # pragma: no cover - shard deleted mid-scan
                    continue
        return CacheStoreStats(
            entries=len(self._memory) + len(self._stale_schema_keys),
            bytes_on_disk=bytes_on_disk,
            stale_entries=stale,
            entries_by_rev=by_rev,
        )

    def prune(self, model_rev: int = MODEL_REV) -> int:
        """Drop every entry not produced by ``model_rev``; compact shards.

        Long-lived caches accumulate dead entries across MODEL_REV bumps
        (old keys never match again, but their lines still cost disk and
        load time).  Rewrites the surviving entries into this cache's own
        file atomically (write-temp-then-rename) and removes every other
        ``results*.jsonl`` shard.  Not safe to run concurrently with
        writers — this is a maintenance operation, not a hot-path one.
        Returns the number of entries dropped.
        """
        self._load()
        keep = {
            key: result
            for key, result in self._memory.items()
            if _key_model_rev(key) == model_rev
        }
        dropped = len(self._memory) - len(keep) + len(self._stale_schema_keys)
        self._stale_schema_keys = []
        self.directory.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_suffix(".tmp")
        with open(temp, "w") as handle:
            for key, result in keep.items():
                handle.write(
                    json.dumps(
                        {"key": key, "schema": RESULT_SCHEMA, "result": result.to_dict()}
                    )
                    + "\n"
                )
        os.replace(temp, self.path)
        for path in list(self.directory.glob("results*.jsonl")):
            if path != self.path:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
        self._memory = keep
        # The rewrite replaced our file (new inode) and removed the other
        # shards; drop the read-progress state so a later refresh re-stats
        # from scratch instead of trusting dead signatures.
        self._shard_state = {}
        try:
            stat = self.path.stat()
            self._shard_state[str(self.path)] = (
                stat.st_ino,
                stat.st_size,
                stat.st_mtime_ns,
                stat.st_size,
            )
        except OSError:  # pragma: no cover - file removed underneath us
            pass
        return dropped


#: Sentinel meaning "use the process-wide default cache, resolved at call
#: time" — a plain ``cache=DEFAULT_CACHE`` default would freeze whatever
#: the environment looked like at import time.
_USE_DEFAULT = object()

#: Process-wide default cache instance (kept in sync by :func:`default_cache`;
#: prefer calling that over reading this directly).
DEFAULT_CACHE: Optional[ResultCache] = None

#: Environment snapshot the current DEFAULT_CACHE was built from.
_DEFAULT_CACHE_ENV: Optional[tuple] = None


def default_cache() -> Optional[ResultCache]:
    """The process-wide default cache, honoring the current environment.

    Re-reads ``REPRO_NO_CACHE``/``REPRO_CACHE_DIR`` on every call and
    rebuilds :data:`DEFAULT_CACHE` when they changed, so tests and scripts
    can flip caching on, off, or elsewhere after import.  Monkeypatching
    :data:`DEFAULT_CACHE` directly also works: the patched instance is
    returned as long as the environment is unchanged.
    """
    global DEFAULT_CACHE, _DEFAULT_CACHE_ENV
    env = (os.environ.get("REPRO_NO_CACHE", ""), os.environ.get("REPRO_CACHE_DIR", ""))
    if env != _DEFAULT_CACHE_ENV:
        _DEFAULT_CACHE_ENV = env
        disabled = env[0] not in ("", "0")
        DEFAULT_CACHE = None if disabled else ResultCache()
    return DEFAULT_CACHE


def _resolve_cache(cache) -> Optional[ResultCache]:
    if cache is _USE_DEFAULT:
        return default_cache()
    return cache


def run_one(
    workload: Workload,
    config: SystemConfig,
    cache=_USE_DEFAULT,
) -> SimResult:
    """Simulate one workload on one configuration, using the cache."""
    cache = _resolve_cache(cache)
    digest = workload.digest()
    if cache is not None:
        cached = cache.get(digest, config.digest())
        if cached is not None:
            return cached
    result = Simulator(config).run(workload)
    if cache is not None:
        cache.put(result)
    return result


def run_suite(
    config: SystemConfig,
    workloads: Optional[Iterable[Workload]] = None,
    cache=_USE_DEFAULT,
) -> Dict[str, SimResult]:
    """Run (or fetch) the whole suite on ``config``; keyed by workload name.

    Fans out over a process pool sized by
    :func:`repro.parallel.resolve_workers`; with ``REPRO_WORKERS=1``
    every pair runs in this process.
    """
    return run_suites([config], workloads=workloads, cache=cache)[0]


def _check_invariants(slots, suites) -> None:
    """Raise :class:`AssertionError` on the first result breaking an invariant."""
    # Lazy: repro.validate imports this module.
    from ..validate.invariants import check_result

    for (config, _), suite in zip(slots, suites):
        for result in suite.values():
            violations = check_result(result, config=config)
            if violations:
                raise AssertionError(
                    f"invariant violation ({result.workload_name} on "
                    f"{config.name}): {violations[0]}"
                )


def run_suites(
    configs: Sequence[SystemConfig],
    workloads: Optional[Iterable[Workload]] = None,
    cache=_USE_DEFAULT,
    max_workers: Optional[int] = None,
    progress=None,
    metrics=None,
) -> List[Dict[str, SimResult]]:
    """Run the suite on several configurations in one batch.

    Returns one ``{workload name: SimResult}`` dict per configuration, in
    input order — the exact shape :func:`run_suite` returns per config.
    One batch lets the runner overlap *all* pairs instead of synchronizing
    at each configuration boundary.  Resolves the default cache
    (``workloads=None`` is the whole suite) and delegates to
    :func:`repro.parallel.runner.run_suite_parallel`, which sizes the
    pool (``max_workers`` > ``REPRO_WORKERS`` > cores; one worker runs
    every pair in this process) and records the batch.
    ``progress``, when given, is called as ``progress(done, total,
    result)`` after each simulated pair; ``total`` counts the batch's
    unique pairs to simulate, excluding cache hits.

    Every result, simulated or cache-served, must pass
    :func:`repro.validate.invariants.check_result` against its config;
    the first violation raises :class:`AssertionError`.

    ``metrics``, when given, is a private
    :class:`~repro.parallel.metrics.SuiteMetrics` sink that receives the
    same batch/sim records as the process-wide ``GLOBAL_METRICS`` — it
    lets a caller (e.g. the explore rung accounting) scope its cost
    deltas to its own runs, immune to concurrent suite activity.
    """
    from ..parallel.runner import run_suite_parallel

    workload_list = suite_workloads() if workloads is None else list(workloads)
    slots = [(config, workload_list) for config in configs]
    per_config = run_suite_parallel(
        slots,
        max_workers=max_workers,
        cache=_resolve_cache(cache),
        progress=progress,
        metrics=metrics,
    )
    _check_invariants(slots, per_config)
    return per_config


@dataclass(frozen=True)
class ExperimentPlan:
    """The pairs one experiment simulates, and how it reads their results.

    ``slots`` lists ``(config, workloads)`` pairs; ``reduce`` is a pure
    function of their suites (one ``{workload name: SimResult}`` dict per
    slot, in slot order) returning the experiment's output.
    """

    slots: Sequence[Tuple[SystemConfig, Sequence[Workload]]]
    reduce: Callable[[List[Dict[str, SimResult]]], Any]


def variant(preset: SystemConfig, name: str, **changes) -> SystemConfig:
    """``preset`` with ``changes``, renamed ``name``; ``preset`` itself when
    the changes leave it as it is, so one machine is simulated once."""
    changed = replace(preset, **changes)
    return preset if changed == preset else replace(changed, name=name)


def suite_plan(configs, reduce, fast_factor: Optional[float] = None) -> ExperimentPlan:
    """A plan running the suite, shrunk by ``fast_factor``, on every config."""
    workloads = suite_workloads(fast_factor=fast_factor)
    return ExperimentPlan([(config, workloads) for config in configs], reduce)


def run_plans(plans: Sequence[ExperimentPlan], cache=_USE_DEFAULT) -> List[Any]:
    """Run the union of ``plans``' slots as one batch; each plan's output.

    A pair several plans share is simulated once.  A plan whose slots hold
    a failed pair or a result breaking an invariant, or whose ``reduce``
    raises, gets that exception in place of its output.
    """
    from ..parallel.runner import SuiteRunError, run_suite_parallel

    failures: list = []
    slots = [slot for plan in plans for slot in plan.slots]
    suites = run_suite_parallel(slots, cache=_resolve_cache(cache), failures=failures)
    outputs: List[Any] = []
    for plan in plans:
        own, suites = suites[: len(plan.slots)], suites[len(plan.slots):]
        keys = {ResultCache.key(w.digest(), c.digest()) for c, ws in plan.slots for w in ws}
        try:
            lost = [failure for failure in failures if failure.key in keys]
            if lost:
                raise SuiteRunError(lost)
            _check_invariants(plan.slots, own)
            outputs.append(plan.reduce(own))
        except Exception as exc:  # noqa: BLE001 - reported per experiment
            outputs.append(exc)
    return outputs


def names_in_category(category: Category) -> List[str]:
    """Suite workload names belonging to ``category``."""
    return [workload.name for workload in suite_workloads(category)]


def filter_names(results: Mapping[str, SimResult], names: Iterable[str]) -> Dict[str, SimResult]:
    """Subset of ``results`` restricted to ``names`` (order preserved)."""
    return {name: results[name] for name in names if name in results}


def category_geomeans(
    results: Mapping[str, SimResult],
    baseline: Mapping[str, SimResult],
    workloads: Optional[Iterable[SyntheticWorkload]] = None,
) -> Dict[Category, float]:
    """Geomean speedup of ``results`` over ``baseline`` per category.

    Categories come from ``workloads`` (default: the 48-workload suite);
    one with no workload in ``results`` is left out.
    """
    names: Dict[Category, List[str]] = {}
    for workload in suite_workloads() if workloads is None else workloads:
        if workload.name in results:
            names.setdefault(workload.category, []).append(workload.name)
    return {
        category: geomean_speedup(
            filter_names(results, members), filter_names(baseline, members)
        )
        for category, members in names.items()
    }


# Materialize the default so ``from repro.experiments import DEFAULT_CACHE``
# keeps returning a live cache (or None under REPRO_NO_CACHE) at import time.
default_cache()
