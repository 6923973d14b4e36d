"""ML-era verdicts: do the paper's conclusions survive 2017→now?

Sets the ML suite's outcomes (see :mod:`repro.experiments.ml_workloads`)
beside the 48-workload suite's on the same three machines, for the
paper's three headline comparisons: the 16 MB remote-only L1.5's
memory-intensive gain (Fig 6), the fully optimized build's whole-suite
gain (Fig 13/16), and the share of workloads it improves (Fig 15).  Each
yields an explicit HOLDS/BREAKS verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis.speedup import geomean_speedup, speedups
from ..workloads.suite import ml_workloads, suite_workloads
from ..workloads.synthetic import Category
from .common import ExperimentPlan, category_geomeans
from .ml_workloads import machines

#: A conclusion "holds" on ML traffic when the ML-suite figure reaches at
#: least this fraction of the 2017-suite figure (for geomean gains) —
#: generous enough to tolerate suite-composition noise, strict enough
#: that a sign flip or a collapse to nil reads as "breaks".
HOLD_RATIO = 0.5


@dataclass(frozen=True)
class Verdict:
    """One paper conclusion evaluated on 2017-style vs ML-era traffic."""

    conclusion: str
    era2017: float
    ml_era: float
    holds: bool
    detail: str


def plan(fast_factor=None) -> ExperimentPlan:
    """Both suites on the study's three machines.

    ``fast_factor`` scales every workload down (tests, CI smoke).
    """
    configs = machines()
    ml_suite = ml_workloads(fast_factor=fast_factor)
    suite = suite_workloads(fast_factor=fast_factor)

    def reduce(suites) -> List[Verdict]:
        base17, l15_17, opt17, base_ml, l15_ml, opt_ml = suites
        # Gains over 1.0, in signed percentage points.
        l15_17g = category_geomeans(l15_17, base17)[Category.M_INTENSIVE] - 1.0
        l15_mlg = category_geomeans(l15_ml, base_ml, ml_suite)[Category.M_INTENSIVE] - 1.0
        opt_17g = geomean_speedup(opt17, base17) - 1.0
        opt_mlg = geomean_speedup(opt_ml, base_ml) - 1.0
        (up_17, n_17), (up_ml, n_ml) = (
            (sum(1 for v in ups.values() if v > 1.001), len(ups))
            for ups in (speedups(opt17, base17), speedups(opt_ml, base_ml))
        )
        frac_17, frac_ml = up_17 / max(1, n_17), up_ml / max(1, n_ml)
        return [
            Verdict("Fig 6: 16MB remote-only L1.5 lifts M-intensive geomean", l15_17g, l15_mlg,
                    l15_mlg >= HOLD_RATIO * l15_17g and l15_mlg > 0,
                    f"geomean gain {l15_17g:+.1%} (2017) vs {l15_mlg:+.1%} (ML)"),
            Verdict("Fig 13/16: fully optimized build lifts the whole-suite geomean",
                    opt_17g, opt_mlg, opt_mlg >= HOLD_RATIO * opt_17g and opt_mlg > 0,
                    f"geomean gain {opt_17g:+.1%} (2017) vs {opt_mlg:+.1%} (ML)"),
            Verdict("Fig 15: optimized build improves most workloads", frac_17, frac_ml,
                    frac_ml >= HOLD_RATIO * frac_17,
                    f"improved {up_17}/{n_17} (2017) vs {up_ml}/{n_ml} (ML)"),
        ]

    return ExperimentPlan(
        [(config, suite) for config in configs] + [(config, ml_suite) for config in configs],
        reduce,
    )


def report(verdicts: List[Verdict]) -> str:
    """Render one HOLDS/BREAKS line per conclusion."""
    return "\n".join(
        f"[{'HOLDS' if verdict.holds else 'BREAKS'}] {verdict.conclusion} — {verdict.detail}"
        for verdict in verdicts
    )
