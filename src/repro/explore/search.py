"""Candidate evaluation and successive halving over the suite runner.

Evaluation rides on :func:`repro.experiments.common.run_suites`, so every
(workload, candidate) pair of a rung fans out over the process pool in one
batch and lands in the shared :class:`~repro.experiments.common.ResultCache`
— re-running a sweep (or bisecting near an already-explored point) costs
only the genuinely new simulations.

The search strategy is **successive halving**: rung 0 scores every
candidate on a cheap workload set (the 0.25x-scaled suite, the same trick
``validate --fast`` uses), each following rung promotes the top
``keep_fraction`` of survivors to a more expensive set, and the final rung
runs the full 48-workload suite.  Per-rung cost accounting (pairs
evaluated, pairs simulated vs cache-served, wall and sim seconds) is
captured from :data:`~repro.parallel.metrics.GLOBAL_METRICS` deltas.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.speedup import geomean, speedups, suite_energy_joules
from ..core.config import SystemConfig
from ..experiments.common import run_suites
from ..parallel.metrics import GLOBAL_METRICS, SuiteMetrics
from ..sim.result import SimResult
from ..workloads.trace import Workload
from .spec import Candidate

if TYPE_CHECKING:  # pragma: no cover - annotation-only, avoids an import cycle
    from .analytical import AnalyticalScreen

#: A rung runner: maps (configs, workloads) to one result dict per config.
Runner = Callable[[Sequence[SystemConfig], Sequence[Workload]], List[Dict[str, SimResult]]]


@dataclass(frozen=True)
class ScoredCandidate:
    """A candidate with its score and objective vector at some rung."""

    candidate: Candidate
    #: Geometric-mean speedup over the sweep baseline on the rung's workloads.
    score: float
    #: Objective vector for Pareto analysis (see :func:`objectives_of`).
    objectives: Dict[str, float]
    #: Highest rung index this candidate was evaluated on.
    rung: int
    #: Where the score came from: "sim" (exact simulation) or
    #: "analytical" (rung-0 screen; candidate never simulated).
    source: str = "sim"

    def to_dict(self) -> Dict[str, object]:
        """JSON form for sweep artifacts."""
        return {
            "candidate": self.candidate.to_dict(),
            "score": self.score,
            "objectives": dict(self.objectives),
            "rung": self.rung,
            "source": self.source,
        }


@dataclass(frozen=True)
class RungStats:
    """Cost accounting for one halving rung.

    ``candidates``/``promoted``/``pairs`` are deterministic given the
    sweep; ``simulated``/``cached``/``wall_seconds``/``sim_seconds``
    describe *this* run (a warm-cache re-run simulates nothing) and are
    therefore kept out of the deterministic report artifact.
    """

    rung: int
    label: str
    candidates: int
    promoted: int
    pairs: int
    simulated: int
    cached: int
    wall_seconds: float
    sim_seconds: float
    #: Analytical-screen summary (rung 0 of a screened search only):
    #: band, keep, definite/ambiguous/screened counts, pairs_unscreened.
    screen: Optional[Dict[str, object]] = None

    def deterministic_dict(self) -> Dict[str, object]:
        """The run-independent fields (safe for bit-identical artifacts)."""
        payload: Dict[str, object] = {
            "rung": self.rung,
            "label": self.label,
            "candidates": self.candidates,
            "promoted": self.promoted,
            "pairs": self.pairs,
        }
        if self.screen is not None:
            payload["screen"] = dict(self.screen)
        return payload

    def runtime_dict(self) -> Dict[str, object]:
        """The run-specific fields (cache- and machine-dependent)."""
        return {
            "rung": self.rung,
            "simulated": self.simulated,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
        }


@dataclass
class HalvingResult:
    """Outcome of one successive-halving search."""

    #: Every candidate with its final score, ranked best-first (survivors
    #: of the last rung lead, candidates eliminated earlier follow in the
    #: order they were cut).
    ranking: List[ScoredCandidate]
    #: Names of the candidates that reached (and were scored on) the last rung.
    survivors: List[str]
    rungs: List[RungStats] = field(default_factory=list)

    @property
    def best(self) -> ScoredCandidate:
        """The top-ranked candidate."""
        return self.ranking[0]


def objectives_of(
    config: SystemConfig, results: Dict[str, SimResult], score: float
) -> Dict[str, float]:
    """Objective vector for Pareto analysis.

    ``geomean_speedup`` is maximized; ``link_bandwidth`` (provisioned
    bytes/cycle — the hardware cost knob of Figs 7/10/14),
    ``energy_joules`` (total data-movement energy over the evaluated
    workloads, via :mod:`repro.core.energy`) and ``area_mm2`` (package
    silicon from :mod:`repro.core.budget`) are minimized.
    """
    from ..core.budget import package_cost

    return {
        "geomean_speedup": score,
        "link_bandwidth": config.link_bandwidth,
        "energy_joules": suite_energy_joules(results),
        "area_mm2": package_cost(config).area_mm2,
    }


def promotion_count(n_candidates: int, keep_fraction: float) -> int:
    """Survivor count for one rung: ``ceil(n * keep_fraction)``, at least 1."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    if n_candidates <= 0:
        return 0
    return max(1, math.ceil(n_candidates * keep_fraction))


def select_survivors(
    scored: Sequence[ScoredCandidate], keep_fraction: float
) -> List[ScoredCandidate]:
    """Top ``keep_fraction`` of ``scored`` (ties broken by candidate name).

    Sorting is deterministic — equal scores fall back to the candidate
    name — so halving promotes the same set on every run.
    """
    ranked = sorted(scored, key=lambda item: (-item.score, item.candidate.name))
    return ranked[: promotion_count(len(ranked), keep_fraction)]


def _metrics_snapshot(metrics: SuiteMetrics) -> Tuple[int, int, float, float]:
    """(executed, cached, wall, sim-seconds) snapshot of a metrics sink."""
    return (
        metrics.executed_pairs,
        metrics.cached_pairs,
        metrics.wall_seconds,
        sum(metrics.sim_seconds_by_config.values()),
    )


def evaluate_rung(
    candidates: Sequence[Candidate],
    baseline: SystemConfig,
    workloads: Sequence[Workload],
    rung: int,
    runner: Runner,
) -> List[ScoredCandidate]:
    """Score every candidate against ``baseline`` on one workload set.

    The baseline and all candidates go through the runner as **one**
    batch, so the process pool overlaps every (workload, config) pair.
    """
    configs = [baseline] + [candidate.config for candidate in candidates]
    per_config = runner(configs, list(workloads))
    baseline_results = per_config[0]
    scored: List[ScoredCandidate] = []
    for candidate, results in zip(candidates, per_config[1:]):
        score = geomean(speedups(results, baseline_results).values())
        scored.append(
            ScoredCandidate(
                candidate=candidate,
                score=score,
                objectives=objectives_of(candidate.config, results, score),
                rung=rung,
            )
        )
    return scored


def default_runner(cache=None, max_workers: Optional[int] = None) -> Runner:
    """The production runner: batched, cached, process-pooled suite runs.

    ``cache=None`` keeps :func:`run_suites`' default-cache semantics; pass
    an explicit :class:`~repro.experiments.common.ResultCache` to pin the
    cache directory (as tests and the CI smoke job do).

    The returned runner carries its own private ``metrics`` sink
    (:class:`~repro.parallel.metrics.SuiteMetrics`): every batch it runs
    is recorded there in addition to the process-wide ``GLOBAL_METRICS``,
    so the halving rung accounting sees only this runner's cost even when
    other suite runs (a crossover search, a calibration fit) interleave
    in the same process.
    """
    sink = SuiteMetrics()

    def run(
        configs: Sequence[SystemConfig], workloads: Sequence[Workload]
    ) -> List[Dict[str, SimResult]]:
        if cache is None:
            return run_suites(
                configs, workloads=workloads, max_workers=max_workers, metrics=sink
            )
        return run_suites(
            configs,
            workloads=workloads,
            cache=cache,
            max_workers=max_workers,
            metrics=sink,
        )

    run.metrics = sink  # type: ignore[attr-defined]
    return run


def _screened_rung0(
    screen: "AnalyticalScreen",
    alive: Sequence[Candidate],
    baseline: SystemConfig,
    workloads: Sequence[Workload],
    keep_fraction: float,
    runner: Runner,
) -> Tuple[List[ScoredCandidate], List[ScoredCandidate], Dict[str, object], int]:
    """Run rung 0 behind the analytical screen.

    Returns ``(scored, survivors, screen summary, rung pairs)``.  Only
    the ambiguous candidates (plus the baseline) are simulated; definite
    promotions and eliminations carry analytical scores/objectives and
    ``source="analytical"``.  The promotion slots left after the
    definite-ins are filled from the ambiguous candidates' *simulated*
    ranking, so a screened search promotes exactly the candidates the
    unscreened search would — provided the calibrated band holds.
    """
    keep = promotion_count(len(alive), keep_fraction)
    outcome = screen.classify(alive, keep)
    by_name = {candidate.name: candidate for candidate in alive}
    ambiguous = [by_name[name] for name in outcome.ambiguous]
    scored_ambiguous = (
        evaluate_rung(ambiguous, baseline, workloads, 0, runner) if ambiguous else []
    )
    analytical = {
        name: ScoredCandidate(
            candidate=by_name[name],
            score=outcome.scores[name],
            objectives=screen.objectives(by_name[name]),
            rung=0,
            source="analytical",
        )
        for name in outcome.definite_in + outcome.screened_out
    }
    need = max(0, keep - len(outcome.definite_in))
    ranked_ambiguous = sorted(
        scored_ambiguous, key=lambda item: (-item.score, item.candidate.name)
    )
    survivors = [analytical[name] for name in outcome.definite_in]
    survivors += ranked_ambiguous[:need]
    scored = list(analytical.values()) + scored_ambiguous
    pairs = (len(ambiguous) + 1) * len(workloads) if ambiguous else 0
    return scored, survivors, outcome.to_dict(), pairs


def successive_halving(
    candidates: Sequence[Candidate],
    baseline: SystemConfig,
    rungs: Sequence[Tuple[str, Sequence[Workload]]],
    keep_fraction: float = 0.5,
    runner: Optional[Runner] = None,
    screen: Optional["AnalyticalScreen"] = None,
) -> HalvingResult:
    """Run the successive-halving search.

    ``rungs`` is an ordered list of ``(label, workloads)`` tiers, cheapest
    first; every candidate is scored on rung 0, and only the top
    ``keep_fraction`` (per rung, at least one) advances to each following
    rung.  A candidate's final score is the one from the last rung it
    reached.  Rung boundaries are barriers by design: promotion needs all
    of a rung's scores before any next-rung work starts.

    ``screen``, when given (see :class:`repro.explore.analytical.
    AnalyticalScreen`), screens rung 0: analytically-certain promotions
    and eliminations skip the exact simulator, only band-ambiguous
    candidates simulate.  The screen applies only when there is a later
    rung to verify survivors on — a single-rung search always simulates.

    Rung cost accounting is scoped to the runner's private metrics sink
    when it has one (``default_runner`` always does), falling back to the
    process-global :data:`~repro.parallel.metrics.GLOBAL_METRICS`; an
    unrelated suite run interleaving with the sweep therefore cannot
    distort the per-rung ``simulated``/``cached`` deltas.
    """
    if not rungs:
        raise ValueError("successive halving needs at least one rung")
    if runner is None:
        runner = default_runner()
    sink = getattr(runner, "metrics", None) or GLOBAL_METRICS

    alive = list(candidates)
    final_score: Dict[str, ScoredCandidate] = {}
    eliminated_by_rung: List[List[ScoredCandidate]] = []
    stats: List[RungStats] = []
    last = len(rungs) - 1
    for rung, (label, workloads) in enumerate(rungs):
        before = _metrics_snapshot(sink)
        wall_start = time.time()
        screen_summary: Optional[Dict[str, object]] = None
        if screen is not None and rung == 0 and last > 0:
            scored, survivors, screen_summary, rung_pairs = _screened_rung0(
                screen, alive, baseline, workloads, keep_fraction, runner
            )
        else:
            scored = evaluate_rung(alive, baseline, workloads, rung, runner)
            survivors = (
                select_survivors(scored, keep_fraction) if rung != last else
                sorted(scored, key=lambda item: (-item.score, item.candidate.name))
            )
            rung_pairs = (len(alive) + 1) * len(workloads)
        wall = time.time() - wall_start
        after = _metrics_snapshot(sink)
        for item in scored:
            final_score[item.candidate.name] = item
        survivor_names = {item.candidate.name for item in survivors}
        cut = [item for item in scored if item.candidate.name not in survivor_names]
        eliminated_by_rung.append(
            sorted(cut, key=lambda item: (-item.score, item.candidate.name))
        )
        executed_delta = after[0] - before[0]
        cached_delta = after[1] - before[1]
        stats.append(
            RungStats(
                rung=rung,
                label=label,
                candidates=len(alive),
                promoted=len(survivors) if rung != last else len(scored),
                pairs=rung_pairs,
                simulated=executed_delta,
                cached=cached_delta,
                wall_seconds=wall,
                sim_seconds=after[3] - before[3],
                screen=screen_summary,
            )
        )
        alive = [item.candidate for item in survivors]

    survivors_ranked = [final_score[candidate.name] for candidate in alive]
    # Survivors lead; candidates cut on later (more trusted) rungs outrank
    # those cut earlier, best-first within each rung.
    ranking = survivors_ranked + [
        item for cuts in reversed(eliminated_by_rung) for item in cuts
    ]
    return HalvingResult(
        ranking=ranking,
        survivors=[item.candidate.name for item in survivors_ranked],
        rungs=stats,
    )
