"""Tests for the design-space exploration subsystem (repro.explore)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.presets import baseline_mcm_gpu, mcm_gpu_with_l15
from repro.experiments.common import ResultCache
from repro.explore import (
    Axis,
    Candidate,
    Objective,
    SweepSpec,
    bisect_crossover,
    config_replace,
    default_runner,
    dominates,
    pareto_front,
    pareto_indices,
    promotion_count,
    select_survivors,
    successive_halving,
)
from repro.explore.builtin import BUILTIN_SWEEPS, build_plan, run_sweep
from repro.explore.report import render_text, write_artifacts
from repro.explore.search import ScoredCandidate
from repro.parallel.metrics import GLOBAL_METRICS
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec


def tiny_workload(name="xp-wl", n_ctas=16):
    return SyntheticWorkload(
        WorkloadSpec(
            name=name,
            category=Category.M_INTENSIVE,
            pattern="streaming",
            n_ctas=n_ctas,
            groups_per_cta=2,
            records_per_group=2,
            accesses_per_record=2,
            kernel_iterations=1,
            footprint_bytes=256 * 1024,
        )
    )


def tiny_base(name="xp-base"):
    return baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2, name=name)


# ----------------------------------------------------------------------
# spec: dot-paths and deterministic enumeration
# ----------------------------------------------------------------------


class TestConfigPaths:
    def test_get_and_replace_top_level(self):
        config = tiny_base()
        assert config.link_bandwidth == 768.0
        swept = config_replace(config, "link_bandwidth", 384.0)
        assert swept.link_bandwidth == 384.0
        assert config.link_bandwidth == 768.0  # original untouched

    def test_replace_nested_path(self):
        config = mcm_gpu_with_l15(16, remote_only=True)
        swept = config_replace(config, "gpm.l15.size_bytes", 4096)
        assert swept.gpm.l15.size_bytes == 4096
        assert config.gpm.l15.size_bytes != 4096

    def test_replace_through_none_l15_raises(self):
        config = tiny_base()  # baseline has no L1.5
        with pytest.raises(ValueError, match="None"):
            config_replace(config, "gpm.l15.size_bytes", 4096)

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="no field"):
            config_replace(tiny_base(), "gpm.no_such_knob", 1)


class TestSweepSpec:
    def axes(self):
        return (
            Axis("link_bandwidth", (384.0, 768.0)),
            Axis("page_bytes", (1024, 2048, 4096), label="pg"),
        )

    def test_grid_expansion_deterministic_and_collision_free(self):
        spec = SweepSpec(name="t", base=tiny_base(), axes=self.axes())
        first = spec.candidates()
        second = spec.candidates()
        assert [c.name for c in first] == [c.name for c in second]
        assert [c.config for c in first] == [c.config for c in second]
        assert len(first) == 6
        names = [c.name for c in first]
        assert len(set(names)) == len(names)
        digests = {c.config.digest() for c in first}
        assert len(digests) == len(first)

    def test_grid_row_major_order(self):
        spec = SweepSpec(name="t", base=tiny_base(), axes=self.axes())
        assignments = [tuple(c.assignment.values()) for c in spec.candidates()]
        assert assignments == [
            (384.0, 1024), (384.0, 2048), (384.0, 4096),
            (768.0, 1024), (768.0, 2048), (768.0, 4096),
        ]

    def test_candidates_materialize_assignment(self):
        spec = SweepSpec(name="t", base=tiny_base(), axes=self.axes())
        for candidate in spec.candidates():
            assert candidate.config.link_bandwidth == candidate.assignment["link_bandwidth"]
            assert candidate.config.page_bytes == candidate.assignment["page_bytes"]
            assert candidate.config.name == candidate.name

    def test_random_strategy_is_seeded_and_collision_free(self):
        spec = SweepSpec(
            name="t", base=tiny_base(), axes=self.axes(), strategy="random",
            samples=4, seed=7,
        )
        first = [c.name for c in spec.candidates()]
        assert first == [c.name for c in spec.candidates()]
        assert len(set(first)) == 4
        other_seed = SweepSpec(
            name="t", base=tiny_base(), axes=self.axes(), strategy="random",
            samples=4, seed=8,
        )
        grid = {c.name for c in SweepSpec(name="t", base=tiny_base(), axes=self.axes()).candidates()}
        assert set(first) <= grid
        assert {c.name for c in other_seed.candidates()} <= grid

    def test_random_samples_capped_at_grid_size(self):
        spec = SweepSpec(
            name="t", base=tiny_base(), axes=self.axes(), strategy="random",
            samples=99, seed=0,
        )
        assert len(spec.candidates()) == spec.grid_size

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            SweepSpec(name="t", base=tiny_base(), axes=self.axes(), strategy="sobol")
        with pytest.raises(ValueError, match="no axes"):
            SweepSpec(name="t", base=tiny_base(), axes=())
        with pytest.raises(ValueError, match="repeats"):
            SweepSpec(
                name="t", base=tiny_base(),
                axes=(Axis("page_bytes", (1024,)), Axis("page_bytes", (2048,))),
            )
        with pytest.raises(ValueError, match="samples"):
            SweepSpec(name="t", base=tiny_base(), axes=self.axes(), strategy="random")
        # Axis paths are checked against the base at construction time.
        with pytest.raises(ValueError, match="None"):
            SweepSpec(
                name="t", base=tiny_base(),
                axes=(Axis("gpm.l15.size_bytes", (4096,)),),
            )

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="no values"):
            Axis("page_bytes", ())
        with pytest.raises(ValueError, match="duplicate"):
            Axis("page_bytes", (1024, 1024))
        assert Axis("gpm.l15.size_bytes", (1,)).label == "size_bytes"


# ----------------------------------------------------------------------
# pareto: hand-built dominated / non-dominated sets
# ----------------------------------------------------------------------


class TestPareto:
    OBJECTIVES = (
        Objective("speed", maximize=True),
        Objective("cost", maximize=False),
    )

    def test_dominates(self):
        a = {"speed": 2.0, "cost": 1.0}
        b = {"speed": 1.0, "cost": 2.0}
        assert dominates(a, b, self.OBJECTIVES)
        assert not dominates(b, a, self.OBJECTIVES)
        # Equal vectors do not dominate each other.
        assert not dominates(a, dict(a), self.OBJECTIVES)

    def test_hand_built_frontier(self):
        points = [
            {"speed": 1.0, "cost": 1.0},   # frontier (cheapest)
            {"speed": 2.0, "cost": 2.0},   # frontier (middle)
            {"speed": 1.5, "cost": 3.0},   # dominated by the middle point
            {"speed": 3.0, "cost": 4.0},   # frontier (fastest)
            {"speed": 0.5, "cost": 1.0},   # dominated by the cheapest
        ]
        assert pareto_indices(points, self.OBJECTIVES) == [0, 1, 3]

    def test_duplicates_all_kept(self):
        points = [{"speed": 1.0, "cost": 1.0}, {"speed": 1.0, "cost": 1.0}]
        assert pareto_indices(points, self.OBJECTIVES) == [0, 1]

    def test_single_objective_is_argmax(self):
        points = [{"speed": 1.0}, {"speed": 3.0}, {"speed": 2.0}]
        assert pareto_indices(points, (Objective("speed", maximize=True),)) == [1]

    def test_empty_objectives_rejected(self):
        with pytest.raises(ValueError):
            pareto_indices([{"speed": 1.0}], ())

    def test_pareto_front_sorted_by_score(self):
        def scored(name, score, cost):
            candidate = Candidate(name=name, config=tiny_base(name), assignment={})
            return ScoredCandidate(
                candidate=candidate, score=score,
                objectives={"speed": score, "cost": cost}, rung=0,
            )

        items = [scored("slow", 1.0, 1.0), scored("fast", 3.0, 4.0), scored("bad", 0.9, 2.0)]
        front = pareto_front(items, self.OBJECTIVES)
        assert [item.candidate.name for item in front] == ["fast", "slow"]


# ----------------------------------------------------------------------
# search: promotion math and the full halving driver
# ----------------------------------------------------------------------


def fake_scored(name, score, rung=0):
    candidate = Candidate(name=name, config=tiny_base(name), assignment={})
    return ScoredCandidate(candidate=candidate, score=score, objectives={}, rung=rung)


class TestPromotion:
    def test_promotion_count(self):
        assert promotion_count(8, 0.5) == 4
        assert promotion_count(5, 0.5) == 3   # ceil
        assert promotion_count(3, 0.25) == 1
        assert promotion_count(1, 0.1) == 1   # never below one
        assert promotion_count(0, 0.5) == 0
        assert promotion_count(4, 1.0) == 4
        with pytest.raises(ValueError):
            promotion_count(4, 0.0)
        with pytest.raises(ValueError):
            promotion_count(4, 1.5)

    def test_select_survivors_exact_fraction_and_ties(self):
        scored = [
            fake_scored("a", 1.0),
            fake_scored("b", 3.0),
            fake_scored("c", 2.0),
            fake_scored("d", 2.0),
        ]
        top = select_survivors(scored, 0.5)
        assert [item.candidate.name for item in top] == ["b", "c"]  # tie -> name order
        assert len(select_survivors(scored, 0.25)) == 1
        assert len(select_survivors(scored, 1.0)) == 4


class TestSuccessiveHalving:
    def candidates(self):
        spec = SweepSpec(
            name="hs",
            base=tiny_base("hs-base"),
            axes=(Axis("link_bandwidth", (192.0, 384.0, 768.0, 1536.0), label="link"),),
        )
        return spec.candidates()

    def rungs(self):
        return [
            ("micro", [tiny_workload("hs-micro", n_ctas=8)]),
            ("small", [tiny_workload("hs-small", n_ctas=16)]),
        ]

    def test_promotes_configured_fraction(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = default_runner(cache=cache, max_workers=1)
        result = successive_halving(
            self.candidates(), tiny_base("hs-baseline"), self.rungs(),
            keep_fraction=0.5, runner=runner,
        )
        assert result.rungs[0].candidates == 4
        assert result.rungs[0].promoted == 2
        assert result.rungs[1].candidates == 2
        assert len(result.survivors) == 2
        assert len(result.ranking) == 4
        # Survivors carry final-rung scores; everyone appears exactly once.
        names = [item.candidate.name for item in result.ranking]
        assert len(set(names)) == 4
        assert all(item.rung == 1 for item in result.ranking[:2])
        assert all(item.rung == 0 for item in result.ranking[2:])
        # More link bandwidth never hurts, so the widest links win.
        assert "1536" in result.best.candidate.name

    def test_warm_rerun_never_resimulates(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = default_runner(cache=cache, max_workers=1)
        first = successive_halving(
            self.candidates(), tiny_base("hs-baseline"), self.rungs(),
            keep_fraction=0.5, runner=runner,
        )
        assert sum(rung.simulated for rung in first.rungs) > 0

        warm_cache = ResultCache(tmp_path)
        warm = successive_halving(
            self.candidates(), tiny_base("hs-baseline"), self.rungs(),
            keep_fraction=0.5, runner=default_runner(cache=warm_cache, max_workers=1),
        )
        assert sum(rung.simulated for rung in warm.rungs) == 0
        assert all(rung.cached == rung.pairs for rung in warm.rungs)
        assert [item.candidate.name for item in warm.ranking] == [
            item.candidate.name for item in first.ranking
        ]
        assert [item.score for item in warm.ranking] == [
            item.score for item in first.ranking
        ]

    def test_needs_at_least_one_rung(self):
        with pytest.raises(ValueError):
            successive_halving(self.candidates(), tiny_base(), [], runner=lambda c, w: [])

    def test_interleaved_suite_runs_do_not_distort_rung_accounting(self, tmp_path):
        # Regression: rung deltas were read off the process-global
        # metrics, so an unrelated suite run finishing mid-sweep inflated
        # ``simulated`` — and a cache-heavy one drove the delta negative,
        # which a silent max(0, ...) clamp then hid as zero.
        cache = ResultCache(tmp_path)
        inner = default_runner(cache=cache, max_workers=1)

        def noisy(configs, workloads):
            results = inner(configs, workloads)
            # An unrelated experiment completing elsewhere in the process:
            # 10 executed pairs, 200 cache-served pairs.
            GLOBAL_METRICS.record_batch(["elsewhere"], 210, 200, 0.0, 1)
            return results

        noisy.metrics = inner.metrics
        result = successive_halving(
            self.candidates(), tiny_base("hs-baseline"), self.rungs(),
            keep_fraction=0.5, runner=noisy,
        )
        # Cold cache: every rung pair simulated, none cached, no clamping.
        assert [rung.simulated for rung in result.rungs] == [
            rung.pairs for rung in result.rungs
        ]
        assert all(rung.cached == 0 for rung in result.rungs)


# ----------------------------------------------------------------------
# crossover: bisection on synthetic monotone objectives
# ----------------------------------------------------------------------


class TestBisectCrossover:
    def test_converges_on_monotone_objective(self):
        result = bisect_crossover(lambda x: x - 3.7, 0.0, 10.0, tolerance=0.01)
        assert result.bracketed
        assert result.status == "bracketed"
        assert result.estimate == pytest.approx(3.7, abs=0.01)
        # The estimate always sits on the winning side of the bracket.
        assert result.estimate - 3.7 >= -1e-9

    def test_already_winning_at_lo(self):
        # Regression: a positive advantage at ``lo`` used to short-circuit
        # into ``estimate == lo`` — reporting the arbitrary bracket
        # boundary as if it were the measured crossover point.  Same-sign
        # endpoints mean there is no crossover in range; both endpoint
        # advantages must be probed and reported instead.
        result = bisect_crossover(lambda x: x + 1.0, 0.0, 10.0)
        assert not result.bracketed
        assert result.status == "always_ahead"
        assert result.estimate is None
        assert result.evaluations == 2
        assert result.endpoint_advantages == (1.0, 11.0)

    def test_never_winning(self):
        result = bisect_crossover(lambda x: x - 99.0, 0.0, 10.0)
        assert not result.bracketed
        assert result.status == "never_ahead"
        assert result.estimate is None
        assert result.evaluations == 2
        assert result.endpoint_advantages == (-99.0, -89.0)

    def test_decreasing_advantage_reported_not_bisected(self):
        result = bisect_crossover(lambda x: 5.0 - x, 0.0, 10.0)
        assert not result.bracketed
        assert result.status == "non_monotone"
        assert result.estimate is None
        assert result.evaluations == 2

    def test_deterministic_probes(self):
        a = bisect_crossover(lambda x: x - 3.7, 0.0, 10.0, tolerance=0.5)
        b = bisect_crossover(lambda x: x - 3.7, 0.0, 10.0, tolerance=0.5)
        assert a.samples == b.samples

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bisect_crossover(lambda x: x, 5.0, 5.0)
        with pytest.raises(ValueError):
            bisect_crossover(lambda x: x, 0.0, 1.0, tolerance=0.0)


# ----------------------------------------------------------------------
# builtin plans and artifact writing (smoke-sized)
# ----------------------------------------------------------------------


class TestBuiltinSweeps:
    def test_registry_builds_plans(self):
        for key in BUILTIN_SWEEPS:
            plan = build_plan(key, fast=True)
            assert plan.spec.candidates()
            assert plan.rungs
            assert plan.probe_workloads

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            build_plan("nope")

    def test_smoke_sweep_end_to_end(self, tmp_path):
        plan = build_plan("smoke")
        # Shrink further for test runtime: single rung, micro workloads.
        plan.rungs = [("micro", [tiny_workload("bp-micro", n_ctas=8)])]
        plan.probe_workloads = list(plan.rungs[0][1])
        plan.crossover = None
        cache = ResultCache(tmp_path / "cache")
        report = run_sweep(plan, runner=default_runner(cache=cache, max_workers=1))
        assert report.frontier, "smoke sweep must yield a non-empty frontier"
        assert report.sensitivity
        text = render_text(report)
        assert "Pareto frontier" in text

        paths = write_artifacts(report, tmp_path / "out", cache=cache)
        data = json.loads(paths["report.json"].read_text())
        assert data["pareto_frontier"]
        assert data["ranking"]
        assert len(data["rungs"]) == 1
        run_data = json.loads(paths["run.json"].read_text())
        assert run_data["cache"]["entries"] > 0
        # The deterministic artifact must not leak runtime quantities.
        assert "wall_seconds" not in json.dumps(data)


class TestImportFootprint:
    def test_import_leaves_the_serve_client_stack_unloaded(self):
        # Every sweep imports repro.explore, and pool workers fork from it.
        # Neither it nor the server front end generates a trace, so neither
        # loads numpy.random; nor does importing the workload package with
        # its stream batches (a batch imports it on its first draw).
        script = (
            "import sys, repro.explore\n"
            "print(' '.join(name for name in ('ssl', 'asyncio', 'http.client', "
            "'repro.serve') if name in sys.modules))\n"
            "import repro.serve, repro.workloads, repro.workloads.streams\n"
            "print('numpy.random' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["", "False"]
