"""Design-space exploration: sweeps, halving searches, Pareto frontiers.

Turns the simulator into a search engine over :class:`~repro.core.config.
SystemConfig` space.  Declare axes as dot-paths (:mod:`~repro.explore.
spec`), rank candidates with a cache-aware successive-halving driver
(:mod:`~repro.explore.search`), extract Pareto frontiers and sensitivity/
crossover answers (:mod:`~repro.explore.pareto`, :mod:`~repro.explore.
sensitivity`), and write deterministic ``explore/<sweep>/`` artifacts
(:mod:`~repro.explore.report`).  ``scripts/explore.py`` is the CLI;
:data:`~repro.explore.builtin.BUILTIN_SWEEPS` lists the shipped sweeps.
"""

from .analytical import AnalyticalScreen, ScreenOutcome
from .builtin import BUILTIN_SWEEPS, SweepPlan, build_plan, run_sweep, screen_for_plan
from .pareto import DEFAULT_OBJECTIVES, Objective, dominates, pareto_front, pareto_indices
from .report import SweepReport, render_text, write_artifacts
from .search import (
    HalvingResult,
    RungStats,
    ScoredCandidate,
    default_runner,
    promotion_count,
    select_survivors,
    successive_halving,
)
from .sensitivity import (
    AxisSensitivity,
    CrossoverResult,
    bisect_crossover,
    find_crossover,
    oat_sensitivity,
)
from .spec import Axis, Candidate, SweepSpec, config_replace

__all__ = [
    "AnalyticalScreen",
    "Axis",
    "AxisSensitivity",
    "BUILTIN_SWEEPS",
    "Candidate",
    "CrossoverResult",
    "DEFAULT_OBJECTIVES",
    "HalvingResult",
    "Objective",
    "RungStats",
    "ScoredCandidate",
    "ScreenOutcome",
    "SweepPlan",
    "SweepReport",
    "SweepSpec",
    "bisect_crossover",
    "build_plan",
    "config_replace",
    "default_runner",
    "dominates",
    "find_crossover",
    "oat_sensitivity",
    "pareto_front",
    "pareto_indices",
    "promotion_count",
    "render_text",
    "run_sweep",
    "screen_for_plan",
    "select_survivors",
    "successive_halving",
    "write_artifacts",
]
