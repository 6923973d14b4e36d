"""ML-era workload study: do the paper's conclusions survive 2017→now?

Runs the post-2017 ML extension suite (:func:`repro.workloads.suite.ml_specs`
— GEMM tiling, attention prefill/decode, ring allreduce, Zipfian
embedding gathers, bursty MoE dispatch) through the paper's three
headline comparisons and sets the outcomes side by side with the original
48-workload suite:

* **Fig 6-style** — does the 16 MB remote-only L1.5 still deliver a
  solid memory-intensive geomean gain?
* **Fig 13/16-style** — does the fully optimized build (L1.5 +
  distributed scheduling + first-touch) still approach the paper's
  headline uplift?
* **Fig 15-style** — does the optimized build still improve the large
  majority of workloads, with few regressions?

Each comparison yields an explicit hold/break verdict, so the report
answers the ROADMAP's "where do MCM-GPU's conclusions hold or break on
modern traffic?" question directly rather than leaving the reader to
eyeball two tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.report import format_table
from ..analysis.speedup import geomean_speedup, speedups
from ..core.presets import baseline_mcm_gpu, mcm_gpu_with_l15, optimized_mcm_gpu
from ..workloads.characterize import cached_profile
from ..workloads.suite import ml_workloads, suite_workloads
from ..workloads.synthetic import Category
from .common import category_geomeans, run_suites

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


@dataclass(frozen=True)
class MLStudy:
    """Results of the ML-era comparison study."""

    #: Per-ML-workload speedups: name -> (l15, optimized).
    per_workload: Dict[str, Tuple[float, float]]
    #: Static characterization rows: name -> (hot concentration,
    #: shared-line fraction, store fraction).
    characterization: Dict[str, Tuple[float, float, float]]
    verdicts: List[Verdict]
    ml_improved: int
    ml_degraded: int
    ml_total: int
    #: Baseline inter-GPM link bytes per trace record of AllReduce-Ring
    #: (0.0 when the suite lacks it): the ring exchange's traffic signature.
    allreduce_link_per_record: float


def _gain(geomean: float) -> float:
    """Geomean expressed as a gain over 1.0 (signed percentage points)."""
    return geomean - 1.0


def run_ml_workloads(fast_factor=None) -> MLStudy:
    """Run the three headline comparisons on both suites.

    ``fast_factor`` scales every workload down (tests, CI smoke); the
    published study runs at full scale.  2017-suite results come from the
    shared result cache when other experiments already produced them.
    """
    configs = [
        baseline_mcm_gpu(),
        mcm_gpu_with_l15(16, remote_only=True),
        optimized_mcm_gpu(),
    ]
    ml_suite = ml_workloads(fast_factor=fast_factor)
    base17, l15_17, opt17 = run_suites(configs, workloads=suite_workloads(fast_factor=fast_factor))
    base_ml, l15_ml, opt_ml = run_suites(configs, workloads=ml_suite)

    l15_gain_17 = _gain(category_geomeans(l15_17, base17)[Category.M_INTENSIVE])
    l15_gain_ml = _gain(
        category_geomeans(l15_ml, base_ml, ml_suite)[Category.M_INTENSIVE]
    )
    opt_gain_17 = _gain(geomean_speedup(opt17, base17))
    opt_gain_ml = _gain(geomean_speedup(opt_ml, base_ml))

    opt_speedups_17 = speedups(opt17, base17)
    opt_speedups_ml = speedups(opt_ml, base_ml)
    improved_17 = sum(1 for v in opt_speedups_17.values() if v > 1.001)
    improved_ml = sum(1 for v in opt_speedups_ml.values() if v > 1.001)
    degraded_ml = sum(1 for v in opt_speedups_ml.values() if v < 0.999)
    frac_17 = improved_17 / max(1, len(opt_speedups_17))
    frac_ml = improved_ml / max(1, len(opt_speedups_ml))

    verdicts = [
        Verdict(
            conclusion="Fig 6: 16MB remote-only L1.5 lifts M-intensive geomean",
            era2017=l15_gain_17,
            ml_era=l15_gain_ml,
            holds=l15_gain_ml >= HOLD_RATIO * l15_gain_17 and l15_gain_ml > 0,
            detail=f"geomean gain {l15_gain_17:+.1%} (2017) vs {l15_gain_ml:+.1%} (ML)",
        ),
        Verdict(
            conclusion="Fig 13/16: fully optimized build lifts the whole-suite geomean",
            era2017=opt_gain_17,
            ml_era=opt_gain_ml,
            holds=opt_gain_ml >= HOLD_RATIO * opt_gain_17 and opt_gain_ml > 0,
            detail=f"geomean gain {opt_gain_17:+.1%} (2017) vs {opt_gain_ml:+.1%} (ML)",
        ),
        Verdict(
            conclusion="Fig 15: optimized build improves most workloads",
            era2017=frac_17,
            ml_era=frac_ml,
            holds=frac_ml >= HOLD_RATIO * frac_17,
            detail=(
                f"improved {improved_17}/{len(opt_speedups_17)} (2017) vs "
                f"{improved_ml}/{len(opt_speedups_ml)} (ML)"
            ),
        ),
    ]

    l15_per = speedups(l15_ml, base_ml)
    per_workload = {
        name: (l15_per.get(name, float("nan")), opt_speedups_ml.get(name, float("nan")))
        for name in (w.name for w in ml_suite)
    }
    allreduce = base_ml.get("AllReduce-Ring")
    characterization = {}
    for workload in ml_suite:
        profile = cached_profile(workload)
        characterization[workload.name] = (
            profile.hot_concentration,
            profile.shared_line_fraction,
            profile.store_fraction,
        )
    return MLStudy(
        per_workload=per_workload,
        characterization=characterization,
        verdicts=verdicts,
        ml_improved=improved_ml,
        ml_degraded=degraded_ml,
        ml_total=len(opt_speedups_ml),
        allreduce_link_per_record=(
            allreduce.link_bytes / max(allreduce.records, 1) if allreduce else 0.0
        ),
    )


def report(study: MLStudy) -> str:
    """Render the ML-era study: per-workload table + verdicts."""
    headers = ["Workload", "L1.5 16MB", "Optimized", "Hot10%", "Shared", "Stores"]
    rows: List[List[object]] = []
    for name, (l15, opt) in study.per_workload.items():
        hot, shared, store = study.characterization.get(name, (0.0, 0.0, 0.0))
        rows.append([name, l15, opt, hot, shared, store])
    table = format_table(
        headers,
        rows,
        title="ML-era workloads: speedups over baseline MCM-GPU + characterization",
    )
    lines = [table, ""]
    lines.append(
        f"optimized build on ML suite: {study.ml_improved} improved / "
        f"{study.ml_degraded} degraded of {study.ml_total}"
    )
    for verdict in study.verdicts:
        status = "HOLDS" if verdict.holds else "BREAKS"
        lines.append(f"[{status}] {verdict.conclusion} — {verdict.detail}")
    return "\n".join(lines)
