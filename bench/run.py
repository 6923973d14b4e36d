#!/usr/bin/env python3
"""Layered benchmark: end-to-end and per-layer host-time metrics.

Run from the repository root::

    python3 bench/run.py                                   # all four workloads, seed 0
    python3 bench/run.py --workload steady-ring --seed 3 --seconds 8
    python3 bench/run.py --workload sweep-cold --trace 1   # per-layer run
    python3 bench/run.py --smoke                           # all four, reduced size

Workloads (see ``bench/README.md`` for why each exists):

* ``steady-ring``  — 48 paper workloads on the two ring machines, warm;
* ``fabric-paths`` — ML + four paper workloads on six machines that take
  every non-default engine path;
* ``sweep-cold``   — the built-in ``page_place`` sweep, ``--fast``, cold cache;
* ``serve-zipf``   — open-loop Zipf/bursty load on ``scripts/serve.py``.

Each metric prints as ``workload metric value unit``; the JSON report goes
to ``--out``; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or the
per-layer metrics with ``--trace 1``, which also writes ``spans.json`` and
``profile.json`` per workload under ``--trace-dir``).  The report also
keeps, under ``measured``, what the run measured beyond the printed set,
such as an untraced run's pair timings.  The exit status is non-zero when
any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("steady-ring", "fabric-paths", "sweep-cold", "serve-zipf")
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
#: A traced run fails when less profiled self time than this maps to a layer.
MIN_NAMED_SHARE = 0.9


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def pin_environment(tmp: Path, cpus: int) -> None:
    """Override every ``REPRO_*`` knob for this process and its children.

    No user setting — a warm ``.repro_cache/``, a forced reference engine,
    an attached probe, a worker count — may leak into a measurement; the
    default cache points into the run's temporary directory.
    """
    os.environ.update(
        REPRO_SIM_PERLINE="0",
        REPRO_PROFILE="0",
        REPRO_NO_CACHE="1",
        REPRO_WORKERS=str(cpus),
        REPRO_CACHE_DIR=str(tmp / "default-cache"),
        PYTHONPATH=str(ROOT / "src"),
    )


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    init = ROOT / "src" / "repro" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no repro sources at {init.parent}; run from a full checkout")
    sys.path.insert(0, str(init.parents[1]))
    import repro

    if Path(repro.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported repro from {repro.__file__}, not {init}")
    return repro


def load_declaration() -> dict:
    """``BENCHMARK.json``: the metric catalogue with units."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"bench: missing {path}")
    return json.loads(path.read_text())


def run_workload(name: str, ctx):
    """Dispatch one workload by name."""
    if name in ("steady-ring", "fabric-paths"):
        import passes

        spec = passes.STEADY_RING if name == "steady-ring" else passes.FABRIC_PATHS
        return passes.run(ctx, spec)
    if name == "sweep-cold":
        import sweep

        return sweep.run(ctx)
    import serving

    return serving.run(ctx)


def check_fingerprint(name: str, outcome, model_rev: int, bless: bool) -> None:
    """Compare (or, with ``bless``, record) the seed-0 fingerprint."""
    stored = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    entry = stored.setdefault(str(model_rev), {})
    got = outcome.notes.get("fingerprint")
    if bless:
        if name == "serve-zipf":  # record every catalogue pair, not just those requested
            import serving

            got = serving.catalogue_fingerprints(0)
        entry[name] = got
        FINGERPRINTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        return
    want = entry.get(name)
    if want is None:
        outcome.notes["fingerprint_check"] = f"no fingerprint recorded for MODEL_REV {model_rev}"
        return
    if isinstance(got, dict):  # serve-zipf: one digest per requested pair
        for pair, digest in sorted(got.items()):
            if want.get(pair) != digest:
                outcome.failures.append(f"{pair}: result fingerprint differs from BENCHMARK fingerprints")
    elif got != want:
        outcome.failures.append(f"{name}: fingerprint {got} != recorded {want}")
    outcome.notes["fingerprint_check"] = "checked"


def machine_info(cpus: int) -> dict:
    """Where the numbers were taken."""
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip()
              for line in (cpuinfo.read_text().splitlines() if cpuinfo.is_file() else [])
              if line.startswith("model name")]
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_model": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "cpus": cpus,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-section length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer run: spans, cProfile, per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=ROOT / "bench" / "out" / "trace",
                        help="where --trace 1 writes <workload>/spans.json and profile.json")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out" / "report.json",
                        help="JSON report path")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for a quick end-to-end check")
    parser.add_argument("--bless", action="store_true",
                        help="record seed-0 fingerprints for the current MODEL_REV")
    opts = parser.parse_args(argv)
    if opts.bless and (opts.seed != 0 or opts.smoke):
        parser.error("--bless records seed-0 full-size fingerprints only")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = opts.workload or list(WORKLOADS)
    if len(workloads) > 1:
        return run_each(opts, workloads)
    return run_one(opts, workloads[0])


def run_one(opts, name: str) -> int:
    """Measure one workload in this process, print it, and write the report."""
    declaration = load_declaration()
    mode = "per_layer" if opts.trace else "end_to_end"
    declared = {item["name"]: item["unit"] for item in declaration[mode]}
    known = {item["name"] for key in ("end_to_end", "per_layer") for item in declaration[key]}
    seconds = opts.seconds
    if seconds is None:
        seconds = 1.0 if opts.smoke else float(declaration["run_seconds"])

    cpus = cpu_count()
    out_root = ROOT / "bench" / "out"
    out_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_root))
    try:
        pin_environment(tmp, cpus)
        import_repro()
        from measure import RunContext
        from repro.core.config import MODEL_REV

        ctx = RunContext(
            root=ROOT, seed=opts.seed, seconds=seconds, smoke=opts.smoke,
            traced=bool(opts.trace), trace_dir=opts.trace_dir, tmp=tmp, cpus=cpus,
        )
        try:
            outcome = run_workload(name, ctx)
        except Exception:  # noqa: BLE001 - report the crash, print no result
            traceback.print_exc()
            print(f"bench: workload {name} crashed", file=sys.stderr)
            return 2
        unknown = sorted(set(outcome.metrics) - known)
        if unknown:
            print(f"bench: {name} produced undeclared metrics {unknown}", file=sys.stderr)
            return 2
        if opts.seed == 0 and not opts.smoke:
            check_fingerprint(name, outcome, MODEL_REV, opts.bless)
        named = outcome.metrics.get("trace.named_share", 1.0)
        if named < MIN_NAMED_SHARE:
            outcome.failures.append(f"profile: only {named:.1%} of self time maps to a named layer")

        metrics = {}
        for metric, unit in declared.items():
            if metric in outcome.metrics:
                value = float(outcome.metrics[metric])
            elif opts.trace:
                value = 0.0  # the layer does no work on this workload
            else:
                value = math.nan
            if not math.isfinite(value):
                print(f"bench: {name} has no finite value for {metric}", file=sys.stderr)
                return 2
            metrics[metric] = {"value": value, "unit": unit}
            counts = outcome.notes.get("counts", {}).get(metric)
            print(f"{name} {metric} {value:.6g} {unit}" + (f" {counts}" if counts else ""))
        failed = len({line.split(": ", 1)[0] for line in outcome.failures})
        for line in outcome.failures:
            print(f"FAIL {name} {line}")
        attempted = max(outcome.attempted, failed, 1)

        # Untraced runs also time pairs; those per-layer figures are kept
        # here so that runs can be compared on them (bench/README.md).
        measured = {metric: float(value) for metric, value in outcome.metrics.items()
                    if metric not in metrics}
        report = {
            "model_rev": MODEL_REV,
            "seed": opts.seed,
            "seconds": seconds,
            "trace": opts.trace,
            "smoke": opts.smoke,
            "machine": machine_info(cpus),
            "workloads": {name: {
                "metrics": metrics,
                "measured": measured,
                "attempted": attempted,
                "failed": failed,
                "failures": outcome.failures,
                "notes": {k: v for k, v in outcome.notes.items() if k != "fingerprint"},
            }},
        }
        opts.out.parent.mkdir(parents=True, exist_ok=True)
        opts.out.write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_each(opts, workloads) -> int:
    """Run every workload in a fresh process, as single runs are, and merge.

    Separate processes keep one workload's memory high-water mark, pool
    and caches out of the next one's numbers.
    """
    out_root = ROOT / "bench" / "out"
    out_root.mkdir(parents=True, exist_ok=True)
    parts = Path(tempfile.mkdtemp(prefix="parts-", dir=out_root))
    report, status = None, 0
    try:
        for name in workloads:
            part = parts / f"{name}.json"
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(opts.seed), "--trace", str(opts.trace),
                       "--trace-dir", str(opts.trace_dir), "--out", str(part)]
            command += ["--seconds", str(opts.seconds)] if opts.seconds is not None else []
            command += ["--smoke"] if opts.smoke else []
            command += ["--bless"] if opts.bless else []
            child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
            try:
                stdout, _ = child.communicate()
            finally:
                if child.poll() is None:
                    child.terminate()
                    child.wait()
            lines = stdout.splitlines()
            if child.returncode not in (0, 1) or not part.is_file():
                print("\n".join(lines))
                return 2
            print("\n".join(lines[:-1]))  # its own result line is merged below
            status = max(status, child.returncode)
            piece = json.loads(part.read_text())
            if report is None:
                report = dict(piece, workloads={})
            report["workloads"].update(piece["workloads"])
        opts.out.parent.mkdir(parents=True, exist_ok=True)
        opts.out.write_text(json.dumps(report, indent=2) + "\n")
        entries = report["workloads"]
        print(json.dumps({
            "correct": all(entry["failed"] == 0 for entry in entries.values()),
            "attempted": sum(entry["attempted"] for entry in entries.values()),
            "failed": sum(entry["failed"] for entry in entries.values()),
            "metrics": {name: entry["metrics"] for name, entry in entries.items()},
        }))
        return status
    finally:
        shutil.rmtree(parts, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
