"""Measurement primitives shared by every benchmark workload.

* percentiles with the "at least ten samples beyond" rule;
* peak resident memory of this process plus its largest child;
* :class:`Spans` — host-time spans around the benchmark's calls into each
  layer, written as a Chrome ``traceEvents`` file;
* :class:`Profile` — ``cProfile`` self time per layer, including pool
  workers forked while it is active, with builtin time charged to the
  ``repro`` module that called it;
* result fingerprints and the per-line reference comparison.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import multiprocessing
import os
import pstats
import random
import re
import resource
import time
from dataclasses import dataclass, field
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Metric names: letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Samples a reported percentile must leave beyond it.
MIN_BEYOND = 10

#: Set-ups per run: at least this many, and more until they have taken
#: SETUP_S in all, so that a short set-up (a server start) is repeated
#: enough for a steady median.  ``setup_s`` is their median.
SETUPS = 3
SETUP_S = 4.0


def time_set_ups(set_up: Callable[[], T], tear_down: Callable[[T], None] = lambda _: None):
    """Run ``set_up`` repeatedly (see :data:`SETUPS`); returns its median seconds and last product.

    ``tear_down`` releases each product but the last before the next
    set-up starts, outside the timing, and the last one too if this raises.
    """
    times: List[float] = []
    product = None
    try:
        while len(times) < SETUPS or sum(times) < SETUP_S:
            if product is not None:
                tear_down(product)
                product = None  # release it before the next one is built
            start = time.perf_counter()
            product = set_up()
            times.append(time.perf_counter() - start)
    except BaseException:
        if product is not None:
            tear_down(product)
        raise
    return median(times), product


def another_round(rounds: int, elapsed: float, last: float, seconds: float) -> bool:
    """Whether a timed section starts another round (a serial pass, a cold sweep).

    It runs at least one round, then another only while more than half of
    the last round's time is left of ``seconds``, so the section ends
    within half a round of ``seconds`` however long a round takes.
    """
    return rounds < 1 or elapsed + last / 2 < seconds


@dataclass(frozen=True)
class RunContext:
    """Everything a workload needs to know about this invocation."""

    root: Path
    seed: int
    seconds: float
    smoke: bool
    traced: bool
    trace_dir: Path
    tmp: Path
    cpus: int


@dataclass
class Outcome:
    """What one workload run measured and what its correctness gate found.

    ``metrics`` maps metric names to values; units live in
    ``BENCHMARK.json``.  ``failures`` names each failed op (a pair, a
    request, or a fingerprint) with its reason.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)


def samples_beyond(n: int, level: float) -> int:
    """Samples above the nearest-rank ``level`` percentile of ``n``."""
    return n - max(1, math.ceil(level * n / 100.0))


def tail_level(n: int) -> int:
    """The highest whole percentile leaving :data:`MIN_BEYOND` of ``n`` samples beyond.

    Falls back to the median when ``n`` is too small for any tail.
    """
    return max(
        (level for level in range(50, 100) if samples_beyond(n, level) >= MIN_BEYOND),
        default=50,
    )


def latency_metrics(seconds: Sequence[float], out: "Outcome", level: Optional[int] = None) -> None:
    """``pair_p50_ms`` and ``pair_tail_ms`` of ``seconds``, with n and level noted.

    ``level`` fixes the tail percentile for a population whose size varies
    by seed; by default it is :func:`tail_level` of the sample count.
    """
    if level is None:
        level = tail_level(len(seconds))
    if samples_beyond(len(seconds), level) < MIN_BEYOND:
        out.notes["tail_rule"] = f"fewer than {MIN_BEYOND} samples beyond p{level}"
    out.metrics["pair_p50_ms"] = percentile(seconds, 50) * 1e3
    out.metrics["pair_tail_ms"] = percentile(seconds, level) * 1e3
    out.notes["counts"] = {"pair_p50_ms": f"p50 n={len(seconds)}",
                           "pair_tail_ms": f"p{level} n={len(seconds)}"}


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile (the value itself, never interpolated)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(level * len(ordered) / 100.0))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median of ``values`` (mean of the middle two for even counts)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# ----------------------------------------------------------------------
# correctness helpers
# ----------------------------------------------------------------------


def result_digest(results: Iterable) -> str:
    """sha256 over the sorted ``SimResult.to_dict()`` values."""
    rows = sorted(
        json.dumps(result.to_dict(), sort_keys=True) for result in results
    )
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def field_differences(result, reference) -> List[str]:
    """Names of the ``to_dict`` fields where ``result`` differs from ``reference``."""
    got, want = result.to_dict(), reference.to_dict()
    return sorted(key for key in want if got.get(key) != want[key])


def reference_run(config, workload):
    """Simulate one pair on the per-line reference engine."""
    from repro.sim.simulator import Simulator

    simulator = Simulator(config)
    simulator.engine.batched = False
    return simulator.run(workload)


def check_pairs(pairs: Sequence[tuple], seed: int, sample: int = 8) -> List[str]:
    """The correctness gate for ``(key, config, workload, result)`` pairs.

    Every result must satisfy ``check_result``; a seeded sample of
    ``sample`` pairs must equal the per-line reference field for field.
    Returns one failure line per offending pair.
    """
    from repro.validate.invariants import check_result

    ordered = sorted(pairs, key=lambda pair: pair[0])
    failures = [
        f"{key}: invariant {violation}"
        for key, config, _, result in ordered
        for violation in check_result(result, config)
    ]
    chosen = random.Random(seed).sample(ordered, min(sample, len(ordered)))
    for key, config, workload, result in chosen:
        diffs = field_differences(result, reference_run(config, workload))
        if diffs:
            failures.append(f"{key}: differs from the per-line reference in {', '.join(diffs)}")
    return failures


def cache_costs(results: Sequence, directory: Path) -> Dict[str, float]:
    """``ResultCache`` put/get/load costs over ``results`` in a fresh directory."""
    from repro.experiments.common import ResultCache

    writer = ResultCache(directory)
    start = time.perf_counter()
    for result in results:
        writer.put(result)
    put = time.perf_counter() - start
    reader = ResultCache(directory)
    start = time.perf_counter()
    reader.refresh()
    load = time.perf_counter() - start
    start = time.perf_counter()
    for result in results:
        reader.get(result.workload_digest, result.system_digest)
    get = time.perf_counter() - start
    return {
        "cache.put_us": put / len(results) * 1e6,
        "cache.get_us": get / len(results) * 1e6,
        "cache.load_ms": load * 1e3,
    }


def engine_path(config, probe: bool) -> str:
    """Which engine path a fresh simulator of ``config`` takes.

    Read from the public surface: an attached probe selects the general
    drain loop, ``make_walkers()`` returning None selects the
    ``load_batch``/``store_batch`` path, and a walker build that the code
    generator rejects (``UnsupportedWalk``) leaves the fused walker.
    """
    from repro.core.gpu import build_system
    from repro.core.walkgen import UnsupportedWalk, build_walkers

    if probe:
        return "general"
    system = build_system(config)
    system.reset()
    if system.memsys.make_walkers() is None:
        return "batch"
    try:
        build_walkers(system.memsys)
    except UnsupportedWalk:
        return "fused"
    return "walkgen"


def path_metrics(pairs: Iterable[Tuple[object, bool]]) -> Dict[str, float]:
    """``sim.path.*``: how many ``(config, probed)`` pairs took each engine path."""
    counts = dict.fromkeys(("walkgen", "batch", "general", "fused"), 0)
    seen: Dict[tuple, str] = {}
    for config, probe in pairs:
        key = (config.digest(), probe)
        if key not in seen:
            seen[key] = engine_path(config, probe)
        counts[seen[key]] += 1
    return {f"sim.path.{path}": count for path, count in counts.items()}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


class Spans:
    """In-memory host-time spans, written out as Chrome trace events.

    Every span records its name, layer, start, end and parent span (by
    the ``span`` number :meth:`add` returns).  Spans of one pair or
    request share a ``group`` id; grouped spans may overlap other groups
    (concurrent serve requests, pool pairs), so they become async
    (``b``/``e``) events keyed by the group, while the nested layer calls
    of the serial loops are complete (``X``) events on one track.  Times
    are ``time.perf_counter()`` seconds; :meth:`wall_to_clock` maps
    ``time.time()`` stamps taken by other processes onto that clock.
    """

    PID = 1

    def __init__(self) -> None:
        self.events: List[dict] = []
        self.count = 0
        self._open: Dict[int, dict] = {}
        self._origin = time.perf_counter()
        self._wall_offset = time.time() - self._origin

    def wall_to_clock(self, wall: float) -> float:
        """A ``time.time()`` stamp expressed on the ``perf_counter`` clock."""
        return wall - self._wall_offset

    def _us(self, clock: float) -> float:
        return (clock - self._origin) * 1e6

    def add(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        group: Optional[str] = None,
        **args,
    ) -> int:
        """Record one span; returns its number, a ``parent`` for later spans."""
        self.count += 1
        args.update(layer=layer, span=self.count, parent=parent, group=group)
        event = {"name": name, "cat": layer, "pid": self.PID, "ts": self._us(start)}
        if group is None:
            self.events.append(dict(event, ph="X", tid=1, dur=max(0.0, (end - start) * 1e6),
                                    args=args))
        else:
            self.events.append(dict(event, ph="b", tid=2, id=group, args=args))
            self.events.append(dict(event, ph="e", tid=2, id=group,
                                    ts=self._us(max(start, end))))
        return self.count

    def open(self, name: str, layer: str, parent: Optional[int] = None, **args) -> int:
        """Start an enclosing span now; :meth:`close` ends it."""
        now = time.perf_counter()
        span = self.add(name, layer, now, now, parent, **args)
        self._open[span] = self.events[-1]
        return span

    def close(self, span: int) -> None:
        """End a span started with :meth:`open`."""
        event = self._open.pop(span)
        event["dur"] = self._us(time.perf_counter()) - event["ts"]

    def write(self, path: Path, label: str) -> None:
        """Write ``{"traceEvents": [...]}`` (loads in Perfetto)."""
        meta = [
            {"name": "process_name", "ph": "M", "pid": self.PID, "tid": 0,
             "args": {"name": f"bench host: {label}"}},
            {"name": "thread_name", "ph": "M", "pid": self.PID, "tid": 1,
             "args": {"name": "layer calls"}},
            {"name": "thread_name", "ph": "M", "pid": self.PID, "tid": 2,
             "args": {"name": "concurrent pairs and requests"}},
        ]
        payload = {"traceEvents": meta + self.events, "displayTimeUnit": "ms"}
        path.write_text(json.dumps(payload))


# ----------------------------------------------------------------------
# cProfile attribution
# ----------------------------------------------------------------------

#: Builtins that block rather than compute; their time is waiting, not work.
_IDLE = re.compile(
    r"'(acquire|poll|select|control|sleep|waitpid|recv|recv_into|accept|"
    r"readinto|connect)' of|built-in method (time\.sleep|posix\.waitpid|"
    r"posix\.read|select\.select|_socket\.getaddrinfo)"
)

#: Functions of ``repro.workloads.trace`` that only look memoized traces up.
_TRACE_LOOKUP = {
    "trace_fn", "wrap", "kernels", "_trace_builder", "__len__", "__iter__", "__getitem__",
}

#: Layers that count as named (everything inside ``repro`` or its server script).
UNNAMED = ("harness", "unattributed")


def _module_of(filename: str, src_root: str) -> Optional[str]:
    """Dotted ``repro`` module name for a source file, or None."""
    if not filename.startswith(src_root):
        return None
    rel = filename[len(src_root):].lstrip(os.sep)
    if not rel.startswith("repro" + os.sep) or not rel.endswith(".py"):
        return None
    module = rel[:-3].replace(os.sep, ".")
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


def layer_of(func: Tuple[str, int, str], root: str) -> Optional[str]:
    """The layer a profiled function belongs to, or None for stdlib/builtins."""
    filename, _, name = func
    if filename.startswith("<walker-gpm"):
        return "core.walkgen"
    if filename.startswith("<frozen importlib"):
        return "import"
    if f"{os.sep}concurrent{os.sep}futures{os.sep}process.py" in filename or (
        f"{os.sep}multiprocessing{os.sep}" in filename
    ):
        return "parallel"  # the pool machinery repro.parallel drives
    if filename.startswith(os.path.join(root, "bench")):
        return "harness"
    if filename == os.path.join(root, "scripts", "serve.py"):
        return "serve"
    module = _module_of(filename, os.path.join(root, "src"))
    if module is None:
        return None
    parts = module.split(".")
    package = parts[1] if len(parts) > 1 else "repro"
    leaf = parts[2] if len(parts) > 2 else ""
    if package == "workloads":
        if leaf == "trace" and name == "fast_groups":
            return "workloads.pack"
        if name in _TRACE_LOOKUP:
            return "workloads.lookup"
        return "workloads.materialize"
    if package == "sim":
        return "sim.engine" if leaf == "engine" else "sim.other"
    if package == "core":
        if leaf == "walkgen":
            return "core.walkgen"
        if leaf == "memsys":
            if name in ("load_batch", "store_batch"):
                return "core.memsys.batch"
            if name in ("_make_walker", "walk", "flush"):
                return "core.memsys.fused"
            return "core.memsys.other"
        return "core.other"
    if package == "memory":
        if leaf in ("bandwidth", "cache", "migration"):
            return f"memory.{leaf}"
        return "memory.other"
    return package


class Profile:
    """cProfile of this process plus every pool worker forked meanwhile.

    Workers are profiled through a multiprocessing after-fork hook: each
    forked child starts its own profiler and dumps it when it exits
    normally.  Under a non-fork start method children are not profiled
    and :attr:`workers_profiled` says so.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.profiler = cProfile.Profile()
        self.workers_profiled = multiprocessing.get_start_method() == "fork"
        self.active = False

    def __enter__(self) -> "Profile":
        self.active = True
        if self.workers_profiled:
            mp_util.register_after_fork(self, Profile._start_child)
        self.profiler.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profiler.disable()
        self.active = False
        self.profiler.dump_stats(str(self.directory / f"profile-{os.getpid()}.pstats"))

    def _start_child(self) -> None:
        if not self.active:
            return
        profiler = cProfile.Profile()
        try:
            profiler.enable()
        except ValueError:  # another profiler owns the hook (Python 3.12+)
            return
        path = str(self.directory / f"profile-{os.getpid()}.pstats")

        def dump() -> None:
            profiler.disable()
            profiler.dump_stats(path)

        mp_util.Finalize(None, dump, exitpriority=100)


def attribute(directory: Path, root: Path) -> Dict[str, object]:
    """Self time per layer over every ``*.pstats`` dump in ``directory``.

    A function outside ``repro`` (a builtin, numpy, the stdlib) has its
    self time split over its callers in proportion to the time each
    caller spent in it, recursively, until a layer owns it.  Blocking
    builtins (lock waits, polls, sleeps) count as idle, and module
    loading as import; neither is layer work, so both stay out of the
    total and are reported on their own.
    """
    paths = sorted(str(path) for path in Path(directory).glob("*.pstats"))
    if not paths:
        raise FileNotFoundError(f"no profile dumps in {directory}")
    stats = pstats.Stats(paths[0])
    for path in paths[1:]:
        stats.add(path)
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    root_text = str(root)
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner(func, visiting) -> Dict[str, float]:
        # Recursive callers (cycles) are dropped from the split.
        if func in owners:
            return owners[func]
        layer = layer_of(func, root_text)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
            weights = {
                caller: entry[2] if entry[2] > 0 else entry[1] * 1e-12
                for caller, entry in callers.items()
                if caller not in visiting
            }
            total = sum(weights.values())
            result = {}
            for caller, weight in weights.items():
                for name, share in owner(caller, visiting | {func}).items():
                    result[name] = result.get(name, 0.0) + share * weight / total
            if not result:
                result = {"unattributed": 1.0}
        owners[func] = result
        return result

    by_layer: Dict[str, float] = {}
    idle = 0.0
    top: List[Tuple[float, str, str]] = []
    for func, (_, _, self_time, _, _) in table.items():
        if self_time <= 0:
            continue
        label = pstats.func_std_string(func)
        if layer_of(func, root_text) is None and _IDLE.search(label):
            idle += self_time
            continue
        shares = owner(func, frozenset())
        for name, share in shares.items():
            by_layer[name] = by_layer.get(name, 0.0) + self_time * share
        top.append((self_time, label, max(shares, key=shares.get)))
    imports = by_layer.pop("import", 0.0)
    total = sum(by_layer.values())
    named = sum(value for name, value in by_layer.items() if name not in UNNAMED)
    top.sort(reverse=True)
    return {
        "processes": len(paths),
        "total_s": total,
        "idle_s": idle,
        "import_s": imports,
        "named_share": named / total if total else 0.0,
        "by_layer": {
            name: {"self_s": value, "share": value / total if total else 0.0}
            for name, value in sorted(by_layer.items(), key=lambda item: -item[1])
        },
        "top_functions": [
            {"function": label, "self_s": seconds, "layer": layer}
            for seconds, label, layer in top[:40]
        ],
    }


def cumulative_ms(directory: Path, module_suffix: str, name: str) -> float:
    """Summed cumulative ms of one function across every dump in ``directory``."""
    total = 0.0
    for path in Path(directory).glob("*.pstats"):
        for (filename, _, func_name), entry in pstats.Stats(str(path)).stats.items():
            if func_name == name and filename.endswith(module_suffix):
                total += entry[3]
    return total * 1000.0


def write_trace_outputs(ctx: RunContext, name: str, spans: Spans, summary) -> None:
    """``spans.json`` and ``profile.json`` under ``<trace dir>/<workload>/``."""
    directory = ctx.trace_dir / name
    directory.mkdir(parents=True, exist_ok=True)
    spans.write(directory / "spans.json", name)
    (directory / "profile.json").write_text(json.dumps(summary, indent=2) + "\n")


#: Per-layer share metrics and the attribution layers each one sums.
SHARE_METRICS = {
    "sim.engine.self_share": "sim.engine",
    "walkgen.self_share": "core.walkgen",
    "memsys.batch_self_share": "core.memsys.batch",
    "memsys.fused_self_share": "core.memsys.fused",
    "memory.bandwidth.self_share": "memory.bandwidth",
    "memory.cache.self_share": "memory.cache",
    "memory.migration.self_share": "memory.migration",
    "interconnect.self_share": "interconnect",
    "sched.self_share": "sched",
}


def profile_metrics(summary: Dict[str, object]) -> Dict[str, float]:
    """Per-layer metrics read off an :func:`attribute` summary."""
    by_layer = summary["by_layer"]

    def layer(name: str, key: str) -> float:
        return by_layer.get(name, {}).get(key, 0.0)

    metrics = {name: layer(source, "share") for name, source in SHARE_METRICS.items()}
    metrics["workloads.materialize_ms"] = layer("workloads.materialize", "self_s") * 1e3
    metrics["workloads.pack_ms"] = layer("workloads.pack", "self_s") * 1e3
    metrics["trace.named_share"] = summary["named_share"]
    return metrics
