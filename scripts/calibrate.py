#!/usr/bin/env python
"""Calibration harness: compares model output against the paper's headlines.

Run while tuning workload/config parameters.  Uses the shared disk cache,
so unchanged (workload, system) pairs are free on re-run.  The paper's
figures print from ``scripts/run_experiment.py`` (e.g. ``fig2 fig4 fig6
fig7 fig9 fig13 fig14 fig16 fig17``, one batch); the ``mono`` section
adds the monolithic comparisons no figure report prints, among them the
optimized MCM-GPU's +45.5% over the largest buildable (128-SM) GPU.

Usage: python scripts/calibrate.py [section ...]
Sections: mono all (default: mono)

``--analytical [--fast] [--bless]`` fits the analytical tier instead:
predicted vs golden cycles per workload class, predicted vs simulated
sweep scores on the calibration matrix, and (with ``--bless``) the
``golden/analytical.json`` artifact the explore screen loads.
"""

import math
import sys
import time

from repro.analysis.speedup import geomean_speedup
from repro.core.presets import baseline_mcm_gpu, monolithic_gpu, optimized_mcm_gpu
from repro.experiments.common import run_suites
from repro.parallel import GLOBAL_METRICS


def mono():
    print("== Monolithic comparisons ==")
    base, opt, m128, m256 = run_suites(
        [baseline_mcm_gpu(), optimized_mcm_gpu(), monolithic_gpu(128), monolithic_gpu(256)]
    )
    print(f"opt vs mono-128: {geomean_speedup(opt, m128):.3f}  (paper 1.455)")
    print(f"mono-256 vs opt: {geomean_speedup(m256, opt):.3f}  (paper ~1.10)")
    print(f"mono-256 vs mono-128: {geomean_speedup(m256, m128):.3f}")
    print(f"baseline-mcm vs mono-128: {geomean_speedup(base, m128):.3f}")


def analytical(fast=False, bless=False):
    from repro.validate.analytical import default_calibration_path, fit_calibration

    print("== Analytical tier calibration (prediction vs exact simulator) ==")
    calibration, rows = fit_calibration(fast=fast)
    print(f"model r{calibration.model_rev}; {calibration.note}")
    print(f"{'class':<22} {'pairs':>5} {'scale':>7} {'band':>7}  worst |residual|")
    for name in sorted(calibration.classes):
        band = calibration.classes[name]
        residuals = [
            abs(float(r["log_error"]) - math.log(band.cycles_scale))
            for r in rows["golden"]
            if r["class"] == name
        ]
        print(
            f"{name:<22} {band.pairs:>5} {band.cycles_scale:7.3f} "
            f"{band.cycles_band:7.3f}  {max(residuals):.3f} log-cycles"
        )
    print(f"\nscore matrix ({len(rows['scores'])} points):")
    print(f"{'candidate':<42} {'family':<11} {'rung':>13} {'sim':>7} {'pred':>7} {'log err':>8}")
    for row in rows["scores"]:
        print(
            f"{row['candidate']:<42} {row['family']:<11} {row['rung']:>13} "
            f"{row['sim_score']:7.3f} {row['pred_score']:7.3f} {row['log_error']:+8.4f}"
        )
    print("\nblessed score bands (worst centered residual x safety, per sweep rung):")
    for key in sorted(calibration.score_bands):
        print(f"  {key:<26} +/-{calibration.score_bands[key]:.4f} log-score")
    print(f"  {'(widest)':<26} +/-{calibration.score_band:.4f} log-score")
    if bless:
        path = calibration.save(default_calibration_path())
        print(f"blessed -> {path}")
    else:
        print("(dry run; pass --bless to write golden/analytical.json)")


SECTIONS = {"mono": mono}

if __name__ == "__main__":
    argv = sys.argv[1:]
    if "--analytical" in argv:
        fast = "--fast" in argv
        bless = "--bless" in argv
        extra = [a for a in argv if a not in ("--analytical", "--fast", "--bless")]
        if extra:
            print(f"--analytical takes only --fast/--bless, got: {' '.join(extra)}")
            sys.exit(2)
        t0 = time.time()
        analytical(fast=fast, bless=bless)
        print(f"[analytical: {time.time()-t0:.0f}s]")
        sys.exit(0)
    args = argv or ["mono"]
    if args == ["all"]:
        args = list(SECTIONS)
    for name in args:
        GLOBAL_METRICS.reset()
        t0 = time.time()
        SECTIONS[name]()
        metrics = GLOBAL_METRICS.report(per_config=False)
        if metrics != "no suite runs recorded":
            print(f"[{name} throughput] {metrics}")
        print(f"[{name}: {time.time()-t0:.0f}s]\n")
