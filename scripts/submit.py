#!/usr/bin/env python
"""Submit work to a running ``repro.serve`` job server.

Usage:
    python scripts/submit.py --server http://127.0.0.1:8731 --health
    python scripts/submit.py --server URL --workload Stream --preset baseline
    python scripts/submit.py --server URL --sweep smoke --fast --out explore
    python scripts/submit.py --server URL --metrics
    python scripts/submit.py --server URL --drain --grace 10

Three modes:

* ``--workload NAME --preset P`` submits one (workload, config) pair
  (``--scale`` shrinks the workload) and waits for the result.
* ``--sweep NAME`` runs a whole built-in explore sweep **through the
  server**: the local successive-halving driver plans rungs, but every
  simulation batch travels over HTTP and is dedupped/coalesced/executed
  remotely.  Artifacts are written exactly like ``scripts/explore.py``
  — ``report.json``/``report.txt`` are bit-identical to a local run.
* Maintenance flags (``--health``, ``--metrics``, ``--cache-stats``,
  ``--refresh``, ``--prune``, ``--drain``) print the server's JSON
  response.
"""

import argparse
import json
import sys
import time


def main() -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="Submit jobs to a repro.serve server.")
    parser.add_argument(
        "--server", required=True, metavar="URL", help="server base URL"
    )
    parser.add_argument("--workload", metavar="NAME", help="suite workload to submit")
    parser.add_argument(
        "--preset",
        metavar="P",
        help="configuration preset for --workload "
        "(baseline, l15, optimized, monolithic, multi-gpu)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        metavar="F",
        help="scale the --workload down by this fraction (e.g. 0.25)",
    )
    parser.add_argument(
        "--sweep",
        action="append",
        default=None,
        metavar="NAME",
        help="built-in explore sweep to run through the server (repeatable)",
    )
    parser.add_argument(
        "--fast", action="store_true", help="4x-smaller workloads on every rung"
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N", help="sweep seed (default: 0)"
    )
    parser.add_argument(
        "--keep",
        type=float,
        default=0.5,
        metavar="F",
        help="halving promotion fraction (default: 0.5)",
    )
    parser.add_argument(
        "--out",
        default="explore",
        metavar="DIR",
        help="sweep artifact root (default: explore)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="end-to-end wait limit per batch/job (default: 3600)",
    )
    parser.add_argument("--health", action="store_true", help="print /healthz")
    parser.add_argument("--metrics", action="store_true", help="print /metrics")
    parser.add_argument("--cache-stats", action="store_true", help="print /cache/stats")
    parser.add_argument(
        "--refresh", action="store_true", help="POST /cache/refresh and print"
    )
    parser.add_argument("--prune", action="store_true", help="POST /cache/prune and print")
    parser.add_argument("--drain", action="store_true", help="drain the server")
    parser.add_argument(
        "--grace",
        type=float,
        default=None,
        metavar="SECONDS",
        help="drain grace period (with --drain)",
    )
    opts = parser.parse_args()

    from repro.serve import RemoteError, ServeClient

    client = ServeClient(opts.server)
    try:
        return _run(client, opts)
    except RemoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(client, opts) -> int:
    """Dispatch the selected mode against ``client``."""
    did_something = False
    if opts.health:
        print(json.dumps(client.health(), indent=2))
        did_something = True
    if opts.metrics:
        print(json.dumps(client.metrics(), indent=2))
        did_something = True
    if opts.cache_stats:
        print(json.dumps(client.cache_stats(), indent=2))
        did_something = True
    if opts.refresh:
        print(json.dumps(client.refresh(), indent=2))
        did_something = True
    if opts.prune:
        print(json.dumps(client.prune(), indent=2))
        did_something = True

    if opts.workload:
        if _submit_single(client, opts) != 0:
            return 1
        did_something = True

    if opts.sweep:
        if _run_sweeps(client, opts) != 0:
            return 1
        did_something = True

    if opts.drain:
        print(json.dumps(client.drain(opts.grace), indent=2))
        did_something = True

    if not did_something:
        print(
            "nothing to do: pass --workload/--preset, --sweep, or a "
            "maintenance flag (--health, --metrics, ...)",
            file=sys.stderr,
        )
        return 1
    return 0


def _submit_single(client, opts) -> int:
    """Submit one (workload, preset) pair and wait for its result."""
    from repro.core import presets
    from repro.sim.result import SimResult
    from repro.workloads.suite import spec_by_name
    from repro.workloads.synthetic import SyntheticWorkload

    preset_factories = {
        "baseline": presets.baseline_mcm_gpu,
        "l15": presets.mcm_gpu_with_l15,
        "optimized": presets.optimized_mcm_gpu,
        "monolithic": presets.monolithic_gpu,
        "multi-gpu": presets.multi_gpu,
    }
    if opts.preset not in preset_factories:
        print(
            f"--preset must be one of: {', '.join(preset_factories)}",
            file=sys.stderr,
        )
        return 1
    try:
        spec = spec_by_name(opts.workload)
    except KeyError:
        print(f"unknown workload {opts.workload!r}", file=sys.stderr)
        return 1
    if opts.scale is not None:
        spec = spec.scaled_down(opts.scale)
    workload = SyntheticWorkload(spec)
    config = preset_factories[opts.preset]()

    view = client.submit(workload, config)
    print(f"job {view['id']}: {view['workload']} on {view['config']} ({view['how']})")
    view = client.wait_job(view["id"], timeout=opts.timeout)
    if view["state"] == "failed":
        error = view.get("error") or {}
        print(
            f"job failed ({error.get('kind', '?')}): {error.get('error', '')}",
            file=sys.stderr,
        )
        return 1
    result = SimResult.from_dict(view["result"])
    print(result.summary())
    return 0


def _run_sweeps(client, opts) -> int:
    """Run each requested sweep through the server via ``remote_runner``."""
    from pathlib import Path

    from repro.explore import BUILTIN_SWEEPS, build_plan, run_sweep
    from repro.explore.remote import remote_runner
    from repro.explore.report import render_text, write_artifacts
    from repro.parallel import GLOBAL_METRICS

    unknown = [key for key in opts.sweep if key not in BUILTIN_SWEEPS]
    if unknown:
        print(f"unknown sweep(s): {', '.join(unknown)}", file=sys.stderr)
        return 1
    for key in opts.sweep:
        GLOBAL_METRICS.reset()
        start = time.time()
        plan = build_plan(key, fast=opts.fast, seed=opts.seed)
        runner = remote_runner(client, timeout=opts.timeout)
        report = run_sweep(plan, keep_fraction=opts.keep, runner=runner)
        paths = write_artifacts(report, Path(opts.out))
        print(render_text(report))
        metrics = GLOBAL_METRICS.report(per_config=False)
        if metrics != "no suite runs recorded":
            print(f"[{key} throughput] {metrics}")
        print(f"[{key}: {time.time() - start:.1f}s -> {paths['report.json'].parent}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
