"""Tests for the validation subsystem (invariants, properties, golden, claims)."""

import importlib.util
import inspect
import sys
import types
from dataclasses import replace
from math import inf
from pathlib import Path

import pytest

from repro.core.presets import baseline_mcm_gpu, optimized_mcm_gpu
from repro.sim.simulator import Simulator
from repro.validate import (
    GoldenStore,
    InvariantError,
    LiveValidator,
    check_live_system,
    check_result,
    validated_run,
)
from repro.experiments import (
    EXPERIMENTS,
    ExperimentPlan,
    fig6_l15,
    fig9_ds,
    fig13_ft,
    fig15_scurve,
    fig16_breakdown,
    fig17_multigpu,
    ml_workloads,
)
from repro.parallel import runner as runner_module
from repro.validate import claims as claims_module
from repro.validate import invariants as invariants_module
from repro.validate.claims import (
    CLAIMS,
    FAST_FACTOR,
    TIERS,
    FidelityCheck,
    evaluate,
    over,
    report as fidelity_report,
    under,
)
from repro.validate.golden import metrics_of, run_golden_matrix
from repro.validate.properties import micro_suite, run_properties
from repro.workloads.suite import suite_workloads

from .stubs import stub_suites


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the shared result cache at a per-test directory."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture(scope="module")
def real_run():
    workload = micro_suite(1)[0]
    config = baseline_mcm_gpu()
    return Simulator(config).run(workload), config


class TestCheckResult:
    def test_clean_on_real_simulation(self, real_run):
        result, config = real_run
        assert check_result(result, config=config) == []

    def test_clean_without_config(self, real_run):
        result, _ = real_run
        assert check_result(result) == []

    @pytest.mark.parametrize(
        "field, delta, expected_check",
        [
            ("dram_bytes_read", 128, "dram-read-conservation"),
            ("dram_bytes_written", 128, "dram-write-conservation"),
            ("page_remote", 1, "routing-conservation"),
            ("remote_loads", 1, "remote-conservation"),
            ("loads", -1, "l1-misses"),
        ],
    )
    def test_tampering_is_caught(self, real_run, field, delta, expected_check):
        result, config = real_run
        tampered = replace(result, **{field: getattr(result, field) + delta})
        checks = {v.check for v in check_result(tampered, config=config)}
        assert expected_check in checks

    def test_negative_counter_is_caught(self, real_run):
        result, _ = real_run
        tampered = replace(result, link_bytes=-1)
        checks = {v.check for v in check_result(tampered)}
        assert "non-negative" in checks

    def test_link_bytes_out_of_band_is_caught(self, real_run):
        result, config = real_run
        inflated = replace(result, link_bytes=result.link_bytes * 100)
        checks = {v.check for v in check_result(inflated, config=config)}
        assert "link-upper-bound" in checks
        deflated = replace(result, link_bytes=0)
        checks = {v.check for v in check_result(deflated, config=config)}
        assert "link-lower-bound" in checks

    def test_phantom_link_traffic_is_caught(self, real_run):
        result, _ = real_run
        phantom = replace(
            result,
            remote_loads=0,
            remote_stores=0,
            page_local=result.page_local + result.page_remote,
            page_remote=0,
            link_bytes=4096,
        )
        checks = {v.check for v in check_result(phantom)}
        assert "link-zero" in checks


class TestLiveValidator:
    def test_validated_run_is_clean_and_checked(self):
        workload = micro_suite(1)[0]
        result, validator = validated_run(workload, optimized_mcm_gpu())
        assert validator.kernels_checked >= 1
        assert validator.runs_checked == 1
        assert validator.violations == []
        assert result.cycles > 0

    def test_results_bit_identical_with_and_without(self):
        workload = micro_suite(1)[0]
        config = baseline_mcm_gpu()
        plain = Simulator(config).run(workload)
        validated, _ = validated_run(workload, config)
        assert plain == validated

    def test_strict_raises_on_violation(self, real_run):
        result, config = real_run
        simulator = Simulator(config)
        validator = LiveValidator(strict=True)
        tampered = replace(result, dram_bytes_read=result.dram_bytes_read + 1)
        with pytest.raises(InvariantError, match="dram-read-conservation"):
            validator.after_run(simulator.system, tampered)

    def test_non_strict_accumulates(self, real_run):
        result, config = real_run
        simulator = Simulator(config)
        validator = LiveValidator(strict=False)
        tampered = replace(result, dram_bytes_read=result.dram_bytes_read + 1)
        validator.after_run(simulator.system, tampered)
        assert any(v.check == "dram-read-conservation" for v in validator.violations)

    def test_live_system_clean_after_run(self):
        config = baseline_mcm_gpu()
        simulator = Simulator(config)
        simulator.run(micro_suite(1)[0])
        assert check_live_system(simulator.system) == []


class TestProperties:
    def test_all_properties_pass_on_micro_suite(self):
        outcomes = run_properties(micro_suite(1))
        assert [outcome.name for outcome in outcomes] == [
            "bandwidth-monotonic",
            "l15-link-bytes",
            "locality-stack",
            "single-gpm-local",
            "deterministic",
        ]
        failed = [outcome for outcome in outcomes if not outcome.passed]
        assert not failed, failed

    def test_micro_suite_bounds(self):
        assert len(micro_suite(4)) == 4
        with pytest.raises(ValueError):
            micro_suite(0)
        with pytest.raises(ValueError):
            micro_suite(5)


class TestGolden:
    def small_matrix(self):
        return run_golden_matrix(
            configs=[baseline_mcm_gpu()], workloads=micro_suite(1)
        )

    def test_bless_then_compare_round_trips(self, tmp_path):
        store = GoldenStore(tmp_path / "metrics.json")
        results = self.small_matrix()
        store.bless(results)
        report = store.compare(results)
        assert report.clean
        assert "reproduced exactly" in report.render(telemetry=False)

    def test_perturbation_produces_drift(self, tmp_path):
        store = GoldenStore(tmp_path / "metrics.json")
        results = self.small_matrix()
        store.bless(results)
        perturbed = [replace(results[0], cycles=results[0].cycles * 1.05)]
        report = store.compare(perturbed)
        assert not report.clean
        drifted = {drift.metric for drift in report.drifts}
        assert "cycles" in drifted
        cycles_drift = next(d for d in report.drifts if d.metric == "cycles")
        assert cycles_drift.rel_delta == pytest.approx(0.05)
        assert "cycles" in report.render(telemetry=False)

    def test_added_and_removed_keys_reported(self, tmp_path):
        store = GoldenStore(tmp_path / "metrics.json")
        results = self.small_matrix()
        store.bless(results)
        renamed = [replace(results[0], system_name="other-system")]
        report = store.compare(renamed)
        assert not report.clean
        assert report.removed_keys and report.added_keys

    def test_digest_change_flagged(self, tmp_path):
        store = GoldenStore(tmp_path / "metrics.json")
        results = self.small_matrix()
        store.bless(results)
        moved = [replace(results[0], system_digest="different")]
        report = store.compare(moved)
        assert any("system digest" in note for note in report.digest_changes)

    def test_metrics_cover_headline_counters(self, tmp_path):
        metrics = metrics_of(self.small_matrix()[0])
        for key in ("cycles", "link_bytes", "dram_bytes_read", "l2_misses"):
            assert key in metrics


def synthetic_fidelity_outputs(**overrides):
    """Experiment outputs with the paper's shape, for the fidelity claims.

    Keys of ``overrides`` are headline quantities: category geomeans over
    the baseline MCM-GPU, the Figure 15 curve, and suite geomeans.
    """
    data = {
        "m8": 1.10,
        "m16": 1.12,
        "m32": 1.15,
        "c16": 1.02,
        "l15_m": 1.12,
        "ds_m": 1.25,
        "ft8_m": 1.55,
        "ft16_m": 1.40,
        "curve": [0.85] * 3 + [1.2] * 43 + [2.5, 3.0],
        "optimized": 1.25,
        "l15_alone": 1.06,
        "monolithic": 1.35,
        "multi_gpu": 0.95,
        "multi_gpu_opt": 1.05,
    }
    data.update(overrides)
    fig6 = [
        fig6_l15.L15Variant(mb, True, {}, data[f"m{mb}"], data["c16"], 1.0)
        for mb in (8, 16, 32)
    ]
    ft = {
        mb: fig13_ft.FTVariant(mb, {}, data[f"ft{mb}_m"], 1.05, 1.05) for mb in (8, 16)
    }
    curve = data["curve"]
    per_mgpu = data["multi_gpu"]  # Figure 17 is relative to the baseline multi-GPU
    return {
        "fig6": fig6,
        "fig9": fig9_ds.DSResult({}, data["ds_m"], 1.02, 1.0, data["l15_m"]),
        "fig13": ft,
        "fig15": fig15_scurve.SCurve({f"w{i}": value for i, value in enumerate(curve)}),
        "fig16": fig16_breakdown.Breakdown(
            {
                "l15-alone": data["l15_alone"],
                "optimized": data["optimized"],
                "monolithic-256": data["monolithic"],
            }
        ),
        "fig17": fig17_multigpu.MultiGPUComparison(
            {
                "multi-gpu-optimized": data["multi_gpu_opt"] / per_mgpu,
                "mcm-optimized": data["optimized"] / per_mgpu,
                "monolithic-256": data["monolithic"] / per_mgpu,
            }
        ),
    }


def fidelity_checks(**overrides):
    claims = [claim for claim in CLAIMS if claim.tier == "fidelity"]
    return evaluate(claims, synthetic_fidelity_outputs(**overrides))


class TestFidelity:
    def test_synthetic_paper_shape_passes(self):
        checks = fidelity_checks()
        failed = [check for check in checks if not check.passed]
        assert not failed, failed

    def test_broken_ordering_fails(self):
        checks = fidelity_checks(m16=1.20, m32=1.10)
        by_name = {check.name: check for check in checks}
        assert not by_name["fig6-capacity-32-over-16"].passed

    def test_over_reward_fails_high(self):
        checks = fidelity_checks(ft8_m=3.0)
        by_name = {check.name: check for check in checks}
        assert not by_name["fig13-8mb-m-geomean"].passed

    def test_widened_bands_absorb_drift(self):
        check = FidelityCheck("x", "ref", 1.1, 1.3, 1.05)
        assert not check.passed
        assert check.widened(0.10).passed

    def test_report_renders_verdicts(self):
        checks = fidelity_checks()
        text = fidelity_report(checks)
        assert "all passed" in text
        broken = [replace(checks[0], value=-1.0)] + checks[1:]
        assert "FAILED" in fidelity_report(broken)

    def test_bands_cover_headline_figures(self):
        names = {check.name for check in fidelity_checks()}
        for fig in ("fig6", "fig9", "fig13", "fig15", "fig16", "fig17"):
            assert any(name.startswith(fig) for name in names)


#: The claim ids each validation tier reports (``scripts/validate.py``).
TIER_IDS = {
    "fidelity": [
        "fig6-16mb-m-geomean", "fig6-capacity-32-over-16", "fig6-capacity-16-over-8",
        "fig6-c-below-m", "fig9-ds-m-geomean", "fig9-ds-over-l15",
        "fig13-8mb-m-geomean", "fig13-8mb-over-16mb", "fig15-improved",
        "fig15-degraded", "fig15-tail", "fig15-head", "fig16-l15-alone",
        "fig16-optimized", "fig16-gap-to-monolithic", "fig17-mcm-over-multi-gpu",
        "fig17-monolithic-over-mcm",
    ],
    "ml": [
        "ml-l15-geomean", "ml-l15-hot-geomean", "ml-l15-hot-over-all",
        "ml-optimized-geomean", "ml-optimized-over-l15", "ml-improved-count",
        "ml-allreduce-link-per-record",
    ],
    "topology": [
        "topo-hops-ring", "topo-hops-mesh", "topo-hops-torus",
        "topo-hops-hierarchical", "topo-hier-board-cost",
    ],
}


class TestClaimTable:
    def test_ids_unique(self):
        ids = [claim.id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_experiments_registered(self):
        assert {claim.experiment for claim in CLAIMS} <= set(EXPERIMENTS)

    def test_bands_ordered(self):
        assert all(claim.lo <= claim.hi for claim in CLAIMS)

    def test_tiers_hold_their_ids(self):
        assert set(TIERS) == set(TIER_IDS)
        assert {claim.tier for claim in CLAIMS} == set(TIERS) | {None}
        for tier, ids in TIER_IDS.items():
            assert [claim.id for claim in CLAIMS if claim.tier == tier] == ids

    def test_tier_experiments_take_fast_factor(self):
        for claim in CLAIMS:
            if claim.tier is not None:
                plan = EXPERIMENTS[claim.experiment].plan
                assert "fast_factor" in inspect.signature(plan).parameters

    def test_strict_edges_exclude_the_edge(self):
        assert over(1.0) > 1.0 and under(1.0) < 1.0
        check = FidelityCheck("x", "ref", over(0.0), inf, 0.0)
        assert not check.passed
        assert "[0+, inf]" in fidelity_report([check])

    def test_fast_tier_shrinks_workloads_and_widens_bands(self, monkeypatch):
        outputs = synthetic_fidelity_outputs()
        seen = {}

        def fake_experiment(name):
            def plan(**kwargs):
                seen.setdefault(name, []).append(kwargs)
                return ExperimentPlan((), lambda suites: outputs[name])

            return types.SimpleNamespace(plan=plan)

        fakes = {name: fake_experiment(name) for name in outputs}
        monkeypatch.setattr(claims_module, "EXPERIMENTS", fakes)
        full = claims_module.run_tier("fidelity")
        fast = claims_module.run_tier("fidelity", fast=True)
        assert set(seen) == set(outputs)
        assert all(calls == [{}, {"fast_factor": FAST_FACTOR}] for calls in seen.values())
        assert all(f.lo < c.lo and f.value == c.value for f, c in zip(fast, full))
        with pytest.raises(ValueError, match="unknown claim tier"):
            claims_module.run_tier("golden")

    @pytest.mark.parametrize("tier", TIERS)
    def test_tier_runs_one_batch(self, tier, monkeypatch):
        batches = []

        def fake_runner(slots, cache=None, failures=None):
            batches.append(slots)
            return stub_suites(slots, lambda config, workload: 1000.0)

        monkeypatch.setattr(runner_module, "run_suite_parallel", fake_runner)
        monkeypatch.setattr(invariants_module, "check_result", lambda result, config=None: [])
        profile = types.SimpleNamespace(
            hot_concentration=0.5, shared_line_fraction=0.1, store_fraction=0.2
        )
        monkeypatch.setattr(ml_workloads, "cached_profile", lambda workload: profile)
        names = {claim.experiment for claim in CLAIMS if claim.tier == tier}
        assert set(claims_module.run_experiments(names)) == names
        assert len(batches) == 1

    def test_ml_tier_simulates_no_2017_workload(self):
        names = {claim.experiment for claim in CLAIMS if claim.tier == "ml"}
        suite = {workload.digest() for workload in suite_workloads()}
        pairs = {
            (config.digest(), workload.digest())
            for name in names
            for config, workloads in EXPERIMENTS[name].plan().slots
            for workload in workloads
        }
        assert len(pairs) == 24
        assert not {workload for _, workload in pairs} & suite

    def test_machines_equal_up_to_name_share_a_digest(self):
        configs = {
            config.digest(): config
            for module in EXPERIMENTS.values()
            for config, _ in module.plan().slots
        }.values()
        for a in configs:
            for b in configs:
                if replace(a, name=b.name) == b:
                    assert a.digest() == b.digest(), (a.name, b.name)


class TestRunExperimentExitCode:
    def load_script(self):
        path = Path(__file__).resolve().parents[1] / "scripts" / "run_experiment.py"
        spec = importlib.util.spec_from_file_location("run_experiment_script", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def fake_experiment(self, fail):
        """A module-like experiment whose plan simulates nothing."""

        def reduce(suites):
            if fail:
                raise RuntimeError("experiment exploded")
            return "ok"

        return types.SimpleNamespace(
            __doc__="Fake experiment.",
            plan=lambda: ExperimentPlan((), reduce),
            report=lambda output: "fake report",
        )

    def test_failing_experiment_exits_nonzero(self, monkeypatch, capsys):
        script = self.load_script()
        experiments = {
            "fake": self.fake_experiment(fail=True),
            "fine": self.fake_experiment(fail=False),
        }
        monkeypatch.setattr(script, "EXPERIMENTS", experiments)
        monkeypatch.setattr(sys, "argv", ["run_experiment.py", "fake", "fine"])
        assert script.main() == 1
        captured = capsys.readouterr()
        assert "experiment exploded" in captured.err
        assert "fake" in captured.err
        assert "fake report" in captured.out  # the passing experiment still reports

    def test_passing_experiment_exits_zero(self, monkeypatch, capsys):
        script = self.load_script()
        monkeypatch.setattr(script, "EXPERIMENTS", {"fake": self.fake_experiment(fail=False)})
        monkeypatch.setattr(sys, "argv", ["run_experiment.py", "fake"])
        assert script.main() == 0
        assert "fake report" in capsys.readouterr().out
