#!/usr/bin/env python
"""Run the model-validation tiers (see ``src/repro/validate/``).

Usage:
    python scripts/validate.py quick              # live invariants, micro suite
    python scripts/validate.py properties         # metamorphic config sweeps
    python scripts/validate.py fidelity [--fast]  # paper shape-fidelity bands
    python scripts/validate.py ml [--fast]        # ML-era suite fidelity bands
    python scripts/validate.py topology [--fast]  # cross-topology hop bands
    python scripts/validate.py golden [--bless]   # golden-metrics drift gate
    python scripts/validate.py quick properties   # tiers combine freely

Tiers are ordered by cost: ``quick`` simulates a few shrunken workloads
with the live validator attached (seconds); ``properties`` sweeps ~10
small configs (tens of seconds); ``fidelity``, ``ml`` and ``topology``
run the experiments their claims in ``repro.validate.claims`` name as
one batch, check the claims' bands and print the batch's throughput
line (minutes cold, seconds cached);
``golden`` reruns the pinned golden matrix and diffs it against
``golden/metrics.json``.  Exit status is non-zero if any requested tier
fails.
"""

import argparse
import os
import sys
import time
from functools import partial

TIERS = ("quick", "properties", "fidelity", "ml", "topology", "golden")


def run_quick(opts) -> bool:
    """Live invariant checking over the micro suite on key machines."""
    from repro.core.presets import baseline_mcm_gpu, monolithic_gpu, optimized_mcm_gpu
    from repro.validate import check_result, validated_run
    from repro.validate.properties import micro_suite

    workloads = micro_suite(opts.micro)
    configs = [baseline_mcm_gpu(), optimized_mcm_gpu(), monolithic_gpu(256)]
    failures = 0
    for config in configs:
        for workload in workloads:
            result, validator = validated_run(workload, config, strict=False)
            violations = validator.violations + check_result(result, config=config)
            status = "ok" if not violations else "FAIL"
            if violations:
                failures += 1
            print(
                f"  {workload.name:>14s} on {config.name:<20s} "
                f"{validator.kernels_checked} kernels checked  {status}"
            )
            for violation in violations:
                print(f"    {violation}")
    print(f"[quick] {len(configs) * len(workloads)} validated runs, {failures} failed")
    return failures == 0


def run_properties_tier(opts) -> bool:
    """Metamorphic properties over config sweeps of the micro suite."""
    from repro.validate.properties import micro_suite, run_properties

    outcomes = run_properties(micro_suite(opts.micro))
    for outcome in outcomes:
        status = "ok" if outcome.passed else "FAIL"
        print(f"  {outcome.name:<22s} {status}  {outcome.detail}")
    failed = sum(1 for outcome in outcomes if not outcome.passed)
    print(f"[properties] {len(outcomes)} properties, {failed} failed")
    return failed == 0


def run_claims_tier(tier: str, opts) -> bool:
    """Evaluate one tier of the paper-claim table (fidelity, ml, topology)."""
    from repro.parallel import GLOBAL_METRICS
    from repro.validate.claims import report, run_tier

    GLOBAL_METRICS.reset()
    checks = run_tier(tier, fast=opts.fast)
    print(report(checks))
    metrics = GLOBAL_METRICS.report()
    if metrics != "no suite runs recorded":
        print(f"[{tier} throughput] {metrics}")
    return all(check.passed for check in checks)


def run_golden_tier(opts) -> bool:
    """Golden-metrics snapshot: bless or diff."""
    from pathlib import Path

    from repro.validate.golden import GoldenStore, bless, compare

    store = GoldenStore(Path(opts.store)) if opts.store else GoldenStore()
    if opts.bless:
        count, path = bless(store, note=opts.note)
        print(f"[golden] blessed {count} entries into {path}")
        return True
    try:
        report = compare(store)
    except FileNotFoundError as error:
        print(f"[golden] {error}")
        return False
    print(report.render())
    return report.clean


RUNNERS = {
    "quick": run_quick,
    "properties": run_properties_tier,
    "fidelity": partial(run_claims_tier, "fidelity"),
    "ml": partial(run_claims_tier, "ml"),
    "topology": partial(run_claims_tier, "topology"),
    "golden": run_golden_tier,
}


def main() -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="Validate the timing model.")
    parser.add_argument(
        "tiers",
        nargs="+",
        choices=TIERS,
        metavar="tier",
        help=f"one or more of: {', '.join(TIERS)}",
    )
    parser.add_argument(
        "--bless",
        action="store_true",
        help="golden tier: freeze the current metrics as the new snapshot",
    )
    parser.add_argument(
        "--note",
        default=None,
        metavar="TEXT",
        help="golden tier with --bless: provenance note stored in the snapshot",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="fidelity/ml/topology tiers: shrunken workloads and widened bands",
    )
    parser.add_argument(
        "--micro",
        type=int,
        default=2,
        metavar="N",
        help="quick/properties tiers: number of micro-suite workloads (1-4)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="golden tier: snapshot path (default golden/metrics.json)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size for suite runs (overrides REPRO_WORKERS)",
    )
    opts = parser.parse_args()
    if opts.workers is not None:
        os.environ["REPRO_WORKERS"] = str(opts.workers)

    ok = True
    for tier in opts.tiers:
        print(f"== {tier} ==")
        start = time.time()
        passed = RUNNERS[tier](opts)
        print(f"[{tier}: {'passed' if passed else 'FAILED'} in {time.time() - start:.1f}s]\n")
        ok = ok and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
