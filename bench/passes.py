"""steady-ring and fabric-paths: serial passes over warm (workload, config) pairs.

Set-up builds the seeded workloads and one simulator per configuration,
materialises every CTA trace and packs it for each engine path the
configurations take, so the timed passes run with warm trace memos: host
time goes to the engine and the memory model, not to trace generation.
The timed section repeats the pass for about ``--seconds`` (at least
once); each pair's host time is its best pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

from measure import (
    Outcome,
    Profile,
    RunContext,
    Spans,
    another_round,
    attribute,
    cache_costs,
    check_pairs,
    latency_metrics,
    path_metrics,
    peak_rss_mb,
    profile_metrics,
    result_digest,
    time_set_ups,
    write_trace_outputs,
)

#: One workload per behaviour class, for ``--smoke``.
SMOKE_NAMES = ("Stream", "BFS", "Backprop", "DWT")


def _scaled(names, factor):
    from repro.workloads.suite import spec_by_name

    return [spec_by_name(name).scaled_down(factor) for name in names]


def steady_specs(smoke: bool):
    """The 48 paper workloads at 0.25 (four at 0.0625 for ``--smoke``)."""
    from repro.workloads.suite import all_specs

    if smoke:
        return _scaled(SMOKE_NAMES, 0.0625)
    return [spec.scaled_down(0.25) for spec in all_specs()]


def steady_configs():
    """The two headline ring machines."""
    from repro.core.presets import baseline_mcm_gpu, optimized_mcm_gpu

    return [(baseline_mcm_gpu(), False), (optimized_mcm_gpu(), False)]


def fabric_specs(smoke: bool):
    """The 8 ML workloads plus Stream/BFS/XSBench/DWT at 0.25."""
    from repro.workloads.suite import ml_specs

    if smoke:
        return _scaled(("GEMM-Fwd", "Stream"), 0.0625)
    return [spec.scaled_down(0.25) for spec in ml_specs()] + _scaled(
        ("Stream", "BFS", "XSBench", "DWT"), 0.25
    )


def fabric_configs():
    """Six machines covering every non-default engine path.

    Mesh, torus and hierarchical run generated walkers over GraphNetwork
    routes; fully-connected and migrating placement take the
    ``load_batch``/``store_batch`` path; the probed optimized machine
    takes the general drain loop.  The bool marks the probed one.
    """
    from repro.core.presets import baseline_mcm_gpu, optimized_mcm_gpu

    eight = lambda name, topology: replace(  # noqa: E731
        baseline_mcm_gpu(n_gpms=8, name=name), topology=topology
    )
    return [
        (eight("mcm-mesh-8", "mesh"), False),
        (eight("mcm-torus-8", "torus"), False),
        (eight("mcm-hier-8", "hierarchical"), False),
        (replace(baseline_mcm_gpu(name="mcm-fc-4"), topology="fully_connected"), False),
        (
            replace(optimized_mcm_gpu(name="mcm-migrating"), placement="migrating_first_touch"),
            False,
        ),
        (optimized_mcm_gpu(), True),
    ]


@dataclass(frozen=True)
class SerialWorkload:
    """A serial benchmark workload: which specs run on which machines."""

    name: str
    specs: Callable[[bool], list]
    configs: Callable[[], List[Tuple[object, bool]]]


STEADY_RING = SerialWorkload("steady-ring", steady_specs, steady_configs)
FABRIC_PATHS = SerialWorkload("fabric-paths", fabric_specs, fabric_configs)


@dataclass
class _Prepared:
    """One set-up's products plus how long each of its phases took."""

    workloads: list
    simulators: list  # (config, probe, Simulator)
    seconds: Dict[str, float]  # phase name -> seconds


def _set_up(spec_list, machines, seed: int, spans=None, parent=None) -> _Prepared:
    from repro.core.gpu import build_system
    from repro.sim.simulator import Simulator
    from repro.telemetry import Telemetry
    from repro.workloads.synthetic import SyntheticWorkload

    seconds = {}

    def phase(name: str, layer: str, work):
        start = time.perf_counter()
        value = work()
        end = time.perf_counter()
        seconds[name] = end - start
        if spans is not None:
            spans.add(name, layer, start, end, parent)
        return value

    def geometries():
        # One fresh system per walker-path config: its walker build and the
        # WalkGeometry its traces are packed against.
        found = set()
        for config, probe in machines:
            if not probe:
                system = build_system(config)
                system.reset()
                walkers = system.memsys.make_walkers()
                found.add(system.memsys.walk_geometry(packed=walkers is not None))
        return found

    def pack():
        general = any(probe for _, probe in machines)
        for trace in traces:
            for geometry in shapes:
                trace.fast_groups(geometry)
            if general:
                trace.base_groups()

    workloads = [SyntheticWorkload(replace(spec, seed=seed)) for spec in spec_list]
    simulators = phase("sim.build", "sim", lambda: [
        (config, probe, Simulator(config, telemetry=Telemetry() if probe else None))
        for config, probe in machines
    ])
    shapes = phase("core.walkgen.build", "core.walkgen", geometries)
    traces = phase("workloads.materialize", "workloads", lambda: [
        kernel.trace_fn(cta)
        for workload in workloads
        for kernel in workload.kernels()
        for cta in range(kernel.n_ctas)
    ])
    phase("workloads.pack", "workloads", pack)
    # One run of the smallest workload per simulator lets each engine build
    # its own walkers, so no timed pass pays a build.
    smallest = min(workloads, key=lambda workload: workload.spec.total_accesses())
    phase("sim.warm-up", "sim", lambda: [sim.run(smallest) for _, _, sim in simulators])
    return _Prepared(workloads, simulators, seconds)


def _key(workload, config) -> str:
    return f"{workload.name}@{config.name}"


@dataclass
class _Timed:
    """What the timed passes measured."""

    seconds: Dict[str, List[float]]  # pair key -> host seconds, one per pass
    results: dict  # pair key -> SimResult
    failures: List[str]
    elapsed: float
    passes: int

    def best(self) -> List[float]:
        """Each pair's best pass."""
        return [min(times) for times in self.seconds.values()]


def _passes(prepared: _Prepared, seconds: float, passes=None, spans=None) -> _Timed:
    """Run serial passes: exactly ``passes``, or for about ``seconds``.

    A pair whose result changes between passes is a failure.
    """
    clock = time.perf_counter
    timed = _Timed({}, {}, [], 0.0, 0)
    start = last = clock()
    while True:
        this_pass = None if spans is None else spans.open(f"pass {timed.passes + 1}", "harness")
        for config, _, simulator in prepared.simulators:
            for workload in prepared.workloads:
                key = _key(workload, config)
                before = clock()
                result = simulator.run(workload)
                after = clock()
                timed.seconds.setdefault(key, []).append(after - before)
                if spans is not None:
                    spans.add("sim.run", "sim", before, after, this_pass, pair=key)
                if timed.results.setdefault(key, result) != result:
                    timed.failures.append(f"{key}: result changed between passes")
        timed.passes += 1
        if spans is not None:
            spans.close(this_pass)
        now = clock()
        timed.elapsed, pass_s, last = now - start, now - last, now
        if passes is not None:
            if timed.passes >= passes:
                return timed
        elif not another_round(timed.passes, timed.elapsed, pass_s, seconds):
            return timed


def _telemetry_overhead(prepared: _Prepared) -> float:
    """Probe runs' time ÷ a probe-free twin's time over the same pairs."""
    from repro.sim.simulator import Simulator

    probed = [(config, sim) for config, probe, sim in prepared.simulators if probe]
    if not probed:
        return 0.0
    clock = time.perf_counter
    with_probe = without = 0.0
    for config, simulator in probed:
        twin = Simulator(config)
        for workload in prepared.workloads:
            twin.run(workload)  # pack this geometry before timing
        for workload in prepared.workloads:
            start = clock()
            simulator.run(workload)
            middle = clock()
            twin.run(workload)
            with_probe += middle - start
            without += clock() - middle
    return with_probe / without


def run(ctx: RunContext, workload: SerialWorkload) -> Outcome:
    """Set up, time serial passes, optionally trace, then gate correctness."""
    spec_list = workload.specs(ctx.smoke)
    machines = workload.configs()
    setup_s, prepared = time_set_ups(lambda: _set_up(spec_list, machines, ctx.seed))
    timed = _passes(prepared, ctx.seconds)
    results = timed.results
    best = timed.best()
    out = Outcome(attempted=sum(len(times) for times in timed.seconds.values()),
                  failures=timed.failures)
    out.metrics.update(
        setup_s=setup_s,
        pairs_per_s=len(best) / sum(best),
        peak_rss_mb=peak_rss_mb(),
    )
    latency_metrics(best, out)
    out.notes.update(passes=timed.passes, timed_s=timed.elapsed)

    if ctx.traced:
        out.metrics.update(_traced(ctx, workload, spec_list, machines, prepared, timed))
        out.metrics["sim.records_per_s"] = sum(r.records for r in results.values()) / sum(best)
        out.metrics["sim.simulated_cycles"] = sum(r.cycles for r in results.values())
        out.metrics.update(path_metrics(
            (config, probe) for config, probe, _ in prepared.simulators
            for _ in prepared.workloads
        ))
        out.metrics.update(cache_costs(list(results.values()), ctx.tmp / "cache-costs"))

    pairs = [
        (_key(w, config), config, w, results[_key(w, config)])
        for config, _, _ in prepared.simulators
        for w in prepared.workloads
    ]
    out.failures.extend(check_pairs(pairs, ctx.seed))
    out.notes["fingerprint"] = result_digest(results.values())
    return out


def _traced(ctx, workload, spec_list, machines, prepared, untraced: _Timed):
    """Per-layer metrics: a spanned set-up, then the same passes under cProfile."""
    spans = Spans()
    setup = spans.open("setup", "harness")
    fresh = _set_up(spec_list, machines, ctx.seed, spans, setup)
    spans.close(setup)
    profile_dir = ctx.tmp / "profile"
    with Profile(profile_dir):
        traced = _passes(fresh, 0.0, passes=untraced.passes, spans=spans)
    summary = attribute(profile_dir, ctx.root)
    write_trace_outputs(ctx, workload.name, spans, summary)
    metrics = profile_metrics(summary)
    metrics.update({
        "workloads.setup_materialize_ms": fresh.seconds["workloads.materialize"] * 1e3,
        "workloads.setup_pack_ms": fresh.seconds["workloads.pack"] * 1e3,
        "sim.build_ms": fresh.seconds["sim.build"] * 1e3,
        "walkgen.build_ms": fresh.seconds["core.walkgen.build"] * 1e3,
        "telemetry.overhead_ratio": _telemetry_overhead(prepared),
        "trace.overhead_ratio": traced.elapsed / untraced.elapsed,
    })
    return metrics
