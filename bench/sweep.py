"""sweep-cold: the built-in ``page_place`` sweep (``--fast``) on a cold cache.

Every timed sweep gets a fresh result-cache directory, a freshly built
plan and a process pool of one worker per CPU, so it pays what a user
pays on a new sweep: trace materialisation and packing in every worker,
walker builds per config, pool IPC, cache shard writes and the halving
bookkeeping.  The timed section runs whole cold sweeps for about
``--seconds`` (one full sweep at the default length); when it runs more
than one, the metrics use each simulation's and each runner batch's best
time.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import time
from dataclasses import replace
from typing import Dict, List

from measure import (
    Outcome,
    Profile,
    RunContext,
    Spans,
    another_round,
    attribute,
    cache_costs,
    check_pairs,
    cumulative_ms,
    latency_metrics,
    path_metrics,
    peak_rss_mb,
    profile_metrics,
    time_set_ups,
    write_trace_outputs,
)

#: The workloads ``--smoke`` keeps: one memory-bound, one compute-bound.
SMOKE_WORKLOADS = ("Stream", "DWT")


def build(seed: int, smoke: bool):
    """The ``page_place --fast`` plan with every workload seeded."""
    from repro.explore import build_plan
    from repro.workloads.synthetic import SyntheticWorkload

    plan = build_plan("page_place", fast=True, seed=seed)
    plan.rungs = [
        (label, [
            SyntheticWorkload(replace(w.spec, seed=seed))
            for w in workloads if not smoke or w.name in SMOKE_WORKLOADS
        ])
        for label, workloads in plan.rungs
    ]
    plan.probe_workloads = plan.rungs[0][1]
    return plan


class _Sweep:
    """One cold sweep through a runner that records what the pool returned.

    The runner is ``default_runner`` plus a ``progress`` hook: it calls
    ``run_suites`` with a private metrics sink whose ``record_sim`` also
    keeps each simulation's worker seconds.
    """

    def __init__(self, cache_dir, workers: int, spans=None) -> None:
        from repro.experiments.common import ResultCache, run_suites
        from repro.parallel.metrics import SuiteMetrics

        samples: List[float] = []

        class Sink(SuiteMetrics):
            def record_sim(self, config_name, sim_seconds):
                super().record_sim(config_name, sim_seconds)
                samples.append(sim_seconds)

        #: ``workload digest##system digest`` -> worker seconds of its simulation.
        self.sim_seconds: Dict[str, float] = {}
        self.completions: List[float] = []
        self.calls = []  # (start, end, configs, workloads, per-config results)
        self.spans = spans
        self.span = None  # the open span pool pairs hang under
        sink = Sink()
        cache = ResultCache(cache_dir)
        clock = time.perf_counter

        def progress(done, total, result):
            # The pool records a simulation's seconds just before reporting it.
            now = clock()
            self.completions.append(now)
            self.sim_seconds[f"{result.workload_digest}##{result.system_digest}"] = samples[-1]
            if spans is not None:
                spans.add("parallel.pair", "parallel", now - samples[-1], now, self.span,
                          group=f"{result.workload_name}@{result.system_name}#{len(samples)}")

        def runner(configs, workloads):
            start = clock()
            outer = self.span
            if spans is not None:
                self.span = spans.open("explore.runner", "explore", outer,
                                       configs=len(configs), workloads=len(workloads))
            results = run_suites(configs, workloads=workloads, cache=cache,
                                 max_workers=workers, progress=progress, metrics=sink)
            self.calls.append((start, clock(), configs, workloads, results))
            if spans is not None:
                spans.close(self.span)
                self.span = outer
            return results

        runner.metrics = sink
        self.runner = runner
        self.sink = sink

    def run(self, plan):
        """Run the sweep; returns ``(report, wall seconds, start clock)``."""
        from repro.explore import run_sweep

        if self.spans is not None:
            self.span = self.spans.open("explore.run_sweep", "explore")
        start = time.perf_counter()
        report = run_sweep(plan, runner=self.runner)
        wall = time.perf_counter() - start
        if self.spans is not None:
            self.spans.close(self.span)
        return report, wall, start

    def pairs(self):
        """Unique ``(key, config, workload, result)`` pairs the sweep produced."""
        seen = {}
        for _, _, configs, workloads, results in self.calls:
            for config, per_config in zip(configs, results):
                for workload in workloads:
                    key = f"{workload.name}(ctas={workload.spec.n_ctas})@{config.name}"
                    seen.setdefault(key, (key, config, workload, per_config[workload.name]))
        return list(seen.values())


def _sim_seconds() -> float:
    from repro.parallel.metrics import GLOBAL_METRICS

    return sum(GLOBAL_METRICS.sim_seconds_by_config.values())


def _report_digest(report, directory) -> str:
    """sha256 of the ``report.json`` that ``write_artifacts`` writes."""
    from repro.explore import write_artifacts

    paths = write_artifacts(report, directory)
    return hashlib.sha256(paths["report.json"].read_bytes()).hexdigest()


def _set_up(ctx: RunContext) -> None:
    """What a sweep costs before its first simulation.

    Starting the sweep CLI (``scripts/explore.py --list``: interpreter
    start and every import a sweep needs) plus building the seeded plan.
    """
    subprocess.run([sys.executable, str(ctx.root / "scripts" / "explore.py"), "--list"],
                   check=True, stdout=subprocess.DEVNULL, timeout=60)
    build(ctx.seed, ctx.smoke)


def run(ctx: RunContext) -> Outcome:
    """Set up, time repeated cold sweeps, optionally trace, then gate."""
    clock = time.perf_counter
    setup_s, _ = time_set_ups(lambda: _set_up(ctx))

    # Each sweep gets a freshly built plan: with one worker the sweep runs
    # in this process and would otherwise leave the trace memos warm.
    runs = []  # (sweep, report, wall, start, worker busy seconds)
    started, wall = clock(), 0.0
    while another_round(len(runs), clock() - started, wall, ctx.seconds):
        sweep = _Sweep(ctx.tmp / f"cache-{len(runs)}", ctx.cpus)
        busy_before = _sim_seconds()
        report, wall, start = sweep.run(build(ctx.seed, ctx.smoke))
        runs.append((sweep, report, wall, start, _sim_seconds() - busy_before))
    sweeps = [item[0] for item in runs]
    out = Outcome(attempted=sum(sweep.sink.executed_pairs for sweep in sweeps))
    digests = {_report_digest(item[1], ctx.tmp / f"artifacts-{i}") for i, item in enumerate(runs)}
    keys = set.intersection(*(set(sweep.sim_seconds) for sweep in sweeps))
    if len(digests) > 1 or any(len(sweep.sim_seconds) != len(keys) for sweep in sweeps):
        out.failures.append("sweep: repeated cold sweeps disagree (report.json or pairs)")
    best = [min(sweep.sim_seconds[key] for sweep in sweeps) for key in sorted(keys)]
    call_walls = zip(*[[end - begin for begin, end, *_ in sweep.calls] for sweep in sweeps])
    best_wall = sum(min(walls) for walls in call_walls)
    out.metrics.update(
        setup_s=setup_s,
        pairs_per_s=sweeps[0].sink.executed_pairs / best_wall,
        peak_rss_mb=peak_rss_mb(),
    )
    latency_metrics(best, out)
    out.notes.update(sweeps=len(runs), sweep_walls_s=[item[2] for item in runs],
                     best_batch_wall_s=best_wall)

    first, report, wall, start, busy = runs[0]
    pairs = first.pairs()
    results = [pair[3] for pair in pairs]
    if ctx.traced:
        out.metrics.update({
            "explore.sweep_wall_s": wall,
            "explore.runner_share": sum(end - begin for begin, end, *_ in first.calls) / wall,
            "explore.sims_executed": first.sink.executed_pairs,
            "explore.sims_cached": first.sink.cached_pairs,
            "parallel.efficiency": busy / (wall * ctx.cpus),
            "parallel.first_result_ms": (first.completions[0] - start) * 1e3,
            "sim.simulated_cycles": sum(result.cycles for result in results),
            "sim.records_per_s": sum(result.records for result in results) / wall,
        })
        out.metrics.update(path_metrics((config, False) for _, config, _, _ in pairs))
        out.metrics.update(_traced(ctx, wall))
        out.metrics.update(cache_costs(results, ctx.tmp / "cache-costs"))

    out.failures.extend(check_pairs(pairs, ctx.seed))
    out.notes["fingerprint"] = digests.pop() if len(digests) == 1 else "inconsistent"
    return out


def _traced(ctx: RunContext, untraced_wall: float):
    """A spanned, profiled cold sweep, then a one-worker cold sweep."""
    spans = Spans()
    profile_dir = ctx.tmp / "profile"
    sweep = _Sweep(ctx.tmp / "cache-traced", ctx.cpus, spans)
    plan = build(ctx.seed, ctx.smoke)
    with Profile(profile_dir) as profile:
        _, wall, _ = sweep.run(plan)
    summary = attribute(profile_dir, ctx.root)
    summary["workers_profiled"] = profile.workers_profiled
    write_trace_outputs(ctx, "sweep-cold", spans, summary)

    _, serial_wall, _ = _Sweep(ctx.tmp / "cache-serial", 1).run(build(ctx.seed, ctx.smoke))
    metrics = profile_metrics(summary)
    metrics.update({
        "sim.build_ms": cumulative_ms(profile_dir, "repro/sim/simulator.py", "__init__"),
        "walkgen.build_ms": cumulative_ms(profile_dir, "repro/core/walkgen.py", "build_walkers"),
        "parallel.speedup_vs_1": serial_wall / untraced_wall,
        "trace.overhead_ratio": wall / untraced_wall,
    })
    return metrics
