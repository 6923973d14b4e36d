"""Self-tests for the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest bench/tests`` from the
repository root.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from measure import (
    METRIC_NAME,
    Profile,
    attribute,
    layer_of,
    percentile,
    samples_beyond,
    tail_level,
)
from serving import BURST_S, HIT_TAIL_LEVEL, IDLE_S, MEAN_RATE, schedule

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared(kind):
    return [item["name"] for item in DECLARATION[kind]]


def run_bench(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


class TestMetricNames:
    @pytest.mark.parametrize("name", ["setup_s", "sim.path.walkgen", "a-b.c_9", "9lives"])
    def test_regex_accepts(self, name):
        assert METRIC_NAME.fullmatch(name)

    @pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "a/b", "x" * 65, "é"])
    def test_regex_rejects(self, name):
        assert not METRIC_NAME.fullmatch(name)

    def test_declared_names_and_units_are_valid_and_unique(self):
        names = declared("end_to_end") + declared("per_layer") + [
            item["name"] for item in DECLARATION["workloads"]
        ]
        assert len(names) == len(set(names))
        for name in names:
            assert METRIC_NAME.fullmatch(name), name
        for item in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
            assert UNIT.fullmatch(item["unit"]), item

    def test_bounds_are_consistent(self):
        # A bound is a share of the parent's median, and set-up time, the
        # noisiest figure, gets the widest one.
        bounds = {item["name"]: item["bound"] for item in DECLARATION["end_to_end"]}
        assert all(0 < bound < 1 for bound in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())


class TestPercentileRule:
    def test_p95_at_216_leaves_ten_beyond(self):
        assert samples_beyond(216, 95) == 10
        assert samples_beyond(216, 96) < 10
        assert tail_level(216) == 95

    def test_levels_of_the_workload_populations(self):
        assert tail_level(96) == 89  # steady-ring pairs
        assert tail_level(72) == 86  # fabric-paths pairs
        assert tail_level(1056) == 99  # sweep-cold simulations
        assert tail_level(15) == 50  # too few for any tail

    @pytest.mark.parametrize("seed", range(10))
    def test_fixed_hit_level_leaves_ten_hits_beyond(self, seed):
        # Requests after the first burst for a pair already requested are
        # cache hits once the first burst's misses have drained.
        plan = schedule(seed, DECLARATION["run_seconds"], 48)
        seen, repeats = set(), 0
        for due, pair in plan:
            repeats += due >= BURST_S + IDLE_S and pair in seen
            seen.add(pair)
        assert samples_beyond(repeats, HIT_TAIL_LEVEL) >= 10

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile([3.0], 99) == 3.0


class TestServeSchedule:
    def test_same_seed_same_schedule(self):
        assert schedule(7, 10.0, 48) == schedule(7, 10.0, 48)

    def test_seeds_differ(self):
        assert schedule(1, 10.0, 48) != schedule(2, 10.0, 48)

    def test_bursts_then_idle(self):
        plan = schedule(3, 10.0, 48)
        assert len(plan) == 2 * round(3 * MEAN_RATE * BURST_S)
        cycle = BURST_S + IDLE_S
        assert all(due % cycle < BURST_S for due, _ in plan)
        assert [due for due, _ in plan] == sorted(due for due, _ in plan)
        assert all(0 <= pair < 48 for _, pair in plan)

    def test_zipf_concentrates_on_few_pairs(self):
        plan = schedule(5, 60.0, 48)
        counts = sorted((sum(1 for _, p in plan if p == pair) for pair in range(48)), reverse=True)
        assert counts[0] > 5 * counts[len(counts) // 2]


class TestAttribution:
    def test_layer_mapping(self):
        root = str(ROOT)
        src = f"{root}/src/repro"
        assert layer_of(("<walker-gpm3>", 1, "walk_u"), root) == "core.walkgen"
        assert layer_of((f"{src}/core/memsys.py", 1, "load_batch"), root) == "core.memsys.batch"
        assert layer_of((f"{src}/workloads/trace.py", 1, "fast_groups"), root) == "workloads.pack"
        assert layer_of((f"{src}/memory/cache.py", 1, "access"), root) == "memory.cache"
        assert layer_of(("~", 0, "<built-in method builtins.len>"), root) is None

    def test_a_simulation_maps_to_named_layers(self, tmp_path):
        from repro.core.presets import baseline_mcm_gpu
        from repro.sim.simulator import simulate
        from repro.workloads.suite import spec_by_name
        from repro.workloads.synthetic import SyntheticWorkload

        workload = SyntheticWorkload(spec_by_name("Stream").scaled_down(0.0625))
        with Profile(tmp_path):
            simulate(workload, baseline_mcm_gpu())
        summary = attribute(tmp_path, ROOT)
        assert summary["named_share"] >= 0.9
        assert summary["by_layer"]["sim.engine"]["self_s"] > 0


#: What ``--smoke`` aims to take for all four workloads.  Host speed on a
#: shared machine swings by tens of percent, so the test allows twice it.
SMOKE_TARGET_S = 30.0


class TestCommand:
    def test_smoke_runs_all_workloads_quickly_with_the_declared_metrics(self, tmp_path):
        start = time.monotonic()
        done = run_bench("--smoke", "--out", str(tmp_path / "report.json"))
        elapsed = time.monotonic() - start
        assert done.returncode == 0, done.stdout + done.stderr
        assert elapsed <= 2 * SMOKE_TARGET_S
        final = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] and final["failed"] == 0
        assert set(final["metrics"]) == {"steady-ring", "fabric-paths", "sweep-cold", "serve-zipf"}
        for metrics in final["metrics"].values():
            assert set(metrics) == set(declared("end_to_end"))
            assert all(item["value"] > 0 for item in metrics.values())

    def test_traced_run_prints_exactly_the_per_layer_metrics(self, tmp_path):
        done = run_bench("--smoke", "--workload", "fabric-paths", "--trace", "1",
                         "--trace-dir", str(tmp_path), "--out", str(tmp_path / "r.json"))
        assert done.returncode == 0, done.stdout + done.stderr
        final = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(final["metrics"]) == set(declared("per_layer"))
        metrics = {name: item["value"] for name, item in final["metrics"].items()}
        assert metrics["sim.path.walkgen"] and metrics["sim.path.batch"]
        assert metrics["sim.path.general"]
        spans = json.loads((tmp_path / "fabric-paths" / "spans.json").read_text())
        assert spans["traceEvents"] and all("ph" in event for event in spans["traceEvents"])
        assert (tmp_path / "fabric-paths" / "profile.json").is_file()

    def test_fails_without_the_sources(self, tmp_path):
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        shutil.copytree(ROOT / "bench", tmp_path / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__", "results"))
        done = run_bench("--workload", "steady-ring", cwd=tmp_path, timeout=60)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
