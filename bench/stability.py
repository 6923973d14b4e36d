#!/usr/bin/env python3
"""Run the benchmark over several seeds, in two sets, and check it is steady.

    python3 bench/stability.py --workload steady-ring
    python3 bench/stability.py --runs 10 --sets 2 --out bench/results/stability.json

Each run is ``bench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0`` in a fresh process.  A set is one run per seed (``--runs``
seeds from ``--first-seed``) of every chosen workload, workload after
workload; the sets run back to back.  For every end-to-end metric the
script prints each set's median and quartile distance as a share of the
median (quartiles from ``statistics.quantiles(values, n=4)``), and how far
apart the sets' medians are, as a share of the smaller.  The benchmark is
steady when every spread except ``setup_s``'s is below a third of the
metric's bound in ``BENCHMARK.json``, every two sets' medians are within
the bound of each other, and no run failed; the exit status is 1 otherwise.
A failed run is recorded with its output and the sets go on.  Each run's
wall time is kept, to check the whole series fits its time cap.  The pair timings
an untraced run also takes (its report's ``measured`` field) are
summarised the same way, without a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("steady-ring", "fabric-paths", "sweep-cold", "serve-zipf")
#: Untraced pair timings summarised beside the end-to-end metrics.
TIMINGS = ("pairs_per_s", "pair_p50_ms", "pair_tail_ms")


def run_once(workload: str, seed: int, seconds: float):
    """One benchmark run's full report and wall seconds; None and the output if it failed."""
    out = ROOT / "bench" / "out" / f"stability-{workload}-{seed}.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if done.returncode != 0:
        return None, wall, f"exited {done.returncode}:\n{done.stdout}{done.stderr}"
    return json.loads(out.read_text()), wall, ""


def spread(values):
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid


def summarise(workload: str, sets, declared) -> dict:
    """Each metric's spread in every set and how far apart the sets' medians are."""
    bounds = {item["name"]: item["bound"] for item in declared}
    summary, steady = {}, True
    for name in list(bounds) + list(TIMINGS):
        bound = bounds.get(name)
        per_set = [spread([run[name] for run in runs]) for runs in sets]
        medians = [mid for mid, *_ in per_set]
        apart = (max(medians) - min(medians)) / min(medians)
        ok = None
        if bound is not None:
            noisy = name != "setup_s" and any(share >= bound / 3 for *_, share in per_set)
            ok = not noisy and apart <= bound
            steady &= ok
        summary[name] = {
            "bound": bound,
            "sets": [{"median": mid, "q1": q1, "q3": q3, "iqr_share": share}
                     for mid, q1, q3, share in per_set],
            "apart": apart,
            "ok": ok,
        }
        shares = " ".join(f"{share:.1%}" for *_, share in per_set)
        verdict = ("" if ok else "  <-- not steady") if bound is not None else "  (per-layer)"
        limit = f"bound {bound:.0%}" if bound is not None else "no bound"
        print(f"{workload} {name}: medians {' '.join(f'{m:.4g}' for m in medians)}  "
              f"IQR {shares}  apart {apart:.1%} ({limit}){verdict}", flush=True)
    return {"metrics": summary, "steady": steady}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None, help="write every run and the summary here")
    opts = parser.parse_args()
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = opts.workload or list(WORKLOADS)
    seeds = range(opts.first_seed, opts.first_seed + opts.runs)

    sets = {workload: [] for workload in workloads}
    report = {"run_seconds": declaration["run_seconds"], "seeds": list(seeds), "workloads": {},
              "failed_runs": []}
    started = time.monotonic()
    for number in range(1, opts.sets + 1):
        for workload in workloads:
            runs = []
            for seed in seeds:
                full, wall, output = run_once(workload, seed, declaration["run_seconds"])
                if full is None:  # a failed check or a crash: keep going, fail at the end
                    report["failed_runs"].append({"set": number, "workload": workload,
                                                  "seed": seed, "output": output})
                    print(f"set {number} {workload} seed {seed}: FAILED {output}", flush=True)
                    continue
                report.setdefault("model_rev", full["model_rev"])
                report.setdefault("machine", full["machine"])
                entry = full["workloads"][workload]
                values = {k: v["value"] for k, v in entry["metrics"].items()}
                values.update({k: entry["measured"][k] for k in TIMINGS})
                runs.append({"seed": seed, "attempted": entry["attempted"],
                             "failed": entry["failed"], "wall_s": wall, **values})
                print(f"set {number} {workload} seed {seed}: wall_s={wall:.1f} "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
            sets[workload].append(runs)
    report["wall_s"] = time.monotonic() - started
    print(f"{sum(len(runs) for s in sets.values() for runs in s)} runs took "
          f"{report['wall_s']:.0f} s", flush=True)

    for workload in workloads:
        report["workloads"][workload] = dict(
            summarise(workload, sets[workload], declaration["end_to_end"]),
            sets=sets[workload],
        )
    if opts.out:
        opts.out.parent.mkdir(parents=True, exist_ok=True)
        opts.out.write_text(json.dumps(report, indent=2) + "\n")
    steady = all(entry["steady"] for entry in report["workloads"].values())
    return 0 if steady and not report["failed_runs"] else 1


if __name__ == "__main__":
    sys.exit(main())
