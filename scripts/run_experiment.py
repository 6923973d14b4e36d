#!/usr/bin/env python
"""Run paper experiments and print their tables/series.

Usage:
    python scripts/run_experiment.py                 # list experiments
    python scripts/run_experiment.py fig4            # run Figure 4
    python scripts/run_experiment.py --workers 8 all # run everything (slow)

Results come from the shared disk cache when available, so re-running an
experiment after a benchmark session is instant.  The named experiments'
plans run as one batch over a process pool sized by ``--workers`` /
``REPRO_WORKERS`` (default: core count), followed by one throughput
summary (sims/sec, cache hit rate, per-config sim time).  ``--profile``
attaches a telemetry probe to every simulated run and folds per-run
digests (peak pipe occupancy, quiesce tails) into that summary; for a
deep profile of one run use ``scripts/profile_run.py``.
"""

import argparse
import sys
import time
import traceback

from repro.experiments import EXPERIMENTS, run_plans
from repro.parallel import GLOBAL_METRICS


def main() -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Run paper experiments.", add_help=True
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size for suite runs (overrides REPRO_WORKERS; "
        "1 runs every pair in this process)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach a telemetry probe to every simulated run and append "
        "per-run profiling digests to the throughput summary (cached "
        "pairs are not re-simulated, so they carry no profile; use "
        "REPRO_NO_CACHE=1 to profile everything)",
    )
    parser.add_argument("experiments", nargs="*", metavar="id")
    opts = parser.parse_args()
    if opts.workers is not None or opts.profile:
        import os

        if opts.workers is not None:
            os.environ["REPRO_WORKERS"] = str(opts.workers)
        if opts.profile:
            os.environ["REPRO_PROFILE"] = "1"

    args = opts.experiments
    if not args:
        print("available experiments:")
        for exp_id, module in EXPERIMENTS.items():
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"  {exp_id:<8} {summary}")
        print("\nusage: python scripts/run_experiment.py [--workers N] <id> [<id> ...] | all")
        return 0
    label = " ".join(args)
    if args == ["all"]:
        args = list(EXPERIMENTS)
    unknown = [arg for arg in args if arg not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 1
    GLOBAL_METRICS.reset()
    start = time.time()
    outputs = run_plans([EXPERIMENTS[exp_id].plan() for exp_id in args])
    elapsed = time.time() - start
    failed = []
    for exp_id, output in zip(args, outputs):
        # One broken experiment must not silence the rest of an `all` run,
        # but it must fail the process — CI keys off the exit status.
        try:
            if isinstance(output, Exception):
                raise output
            print(EXPERIMENTS[exp_id].report(output) + "\n")
        except Exception:
            traceback.print_exc()
            print(f"[{exp_id}: FAILED]\n", file=sys.stderr)
            failed.append(exp_id)
    metrics = GLOBAL_METRICS.report()
    if metrics != "no suite runs recorded":
        print(f"[{label} throughput] {metrics}")
    print(f"[{label}: {elapsed:.1f}s]\n")
    if failed:
        print(f"{len(failed)} experiment(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
