"""Tests for the ML-era pattern families, suite, study, and ML claims."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ml_verdicts
from repro.experiments import ml_workloads as ml_experiment
from repro.validate.claims import CLAIMS, evaluate
from repro.workloads.characterize import cached_profile
from repro.workloads.patterns import (
    PATTERNS,
    AllReducePattern,
    AttentionPattern,
    BurstyPattern,
    GemmTilePattern,
    ZipfianPattern,
    make_pattern,
    register_pattern,
)
from repro.workloads.rng import rng_for
from repro.workloads.suite import ml_specs, ml_workloads, spec_by_name
from repro.workloads.synthetic import Category, SyntheticWorkload

from .stubs import reduce_stubbed

ML_PATTERN_NAMES = ["gemm_tile", "attention", "allreduce", "zipfian", "bursty"]


class TestRegistry:
    def test_ml_patterns_registered(self):
        for name in ML_PATTERN_NAMES:
            assert name in PATTERNS
            assert isinstance(make_pattern(name), PATTERNS[name])

    def test_pattern_name_attached_by_decorator(self):
        assert GemmTilePattern.pattern_name == "gemm_tile"
        assert ZipfianPattern.pattern_name == "zipfian"

    def test_unknown_name_lists_registered_names(self):
        with pytest.raises(ValueError, match="gemm_tile") as excinfo:
            make_pattern("flashfusion")
        message = str(excinfo.value)
        for name in ("streaming", "attention", "zipfian"):
            assert name in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_pattern("zipfian")(ZipfianPattern)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ML_PATTERN_NAMES),
    cta=st.integers(min_value=0, max_value=15),
    n_accesses=st.integers(min_value=1, max_value=200),
    footprint=st.integers(min_value=64, max_value=4096),
)
def test_ml_patterns_produce_valid_addresses(name, cta, n_accesses, footprint):
    """Property: every ML pattern yields n in-footprint line addresses."""
    pattern = make_pattern(name)
    kwargs = {"kernel_index": 2} if pattern.kernel_indexed else {}
    addrs = pattern.generate(cta, 16, n_accesses, footprint, rng_for(name, cta), **kwargs)
    assert len(addrs) == n_accesses
    assert addrs.min() >= 0
    assert addrs.max() < footprint


class TestGemmTile:
    def test_deterministic(self):
        pattern = GemmTilePattern()
        assert not pattern.kernel_variant and not pattern.kernel_indexed
        a = pattern.generate(3, 16, 200, 2048, rng_for("g", 3))
        b = pattern.generate(3, 16, 200, 2048, rng_for("g", 3))
        assert np.array_equal(a, b)

    def test_tiles_share_panels(self):
        """CTAs in the same grid row re-read the same A panel lines."""
        pattern = GemmTilePattern(k_steps=2, c_fraction=0.1)
        a = set(map(int, pattern.generate(0, 16, 400, 4096, rng_for("g", 0))))
        b = set(map(int, pattern.generate(1, 16, 400, 4096, rng_for("g", 1))))
        assert a & b  # shared panel traffic exists


class TestAttention:
    def test_causal_prefix_grows_with_cta(self):
        """Later CTAs (later queries) may gather from a longer KV prefix."""
        pattern = AttentionPattern(kv_fraction=0.5, gather_fraction=1.0, sink_fraction=0.0)
        footprint, n_ctas = 4096, 16
        kv_lines = int(footprint * 0.5)
        early = pattern.generate(0, n_ctas, 500, footprint, rng_for("a", 0))
        late = pattern.generate(15, n_ctas, 500, footprint, rng_for("a", 15))
        assert early.max() < kv_lines * (0 + 1) // n_ctas + 1
        assert late.max() > early.max()

    def test_sink_lines_are_hot(self):
        pattern = AttentionPattern(sink_fraction=0.4, sink_lines=16, gather_fraction=1.0)
        addrs = pattern.generate(8, 16, 4000, 4096, rng_for("a", 8))
        assert (addrs < 16).mean() > 0.25


class TestAllReduce:
    def test_kernel_indexed(self):
        assert AllReducePattern().kernel_indexed

    def test_peer_rotates_with_kernel_index(self):
        """Different ring steps exchange with different peer chunks."""
        pattern = AllReducePattern()
        step0 = set(map(int, pattern.generate(0, 8, 400, 4096, rng_for("r", 0), kernel_index=0)))
        step1 = set(map(int, pattern.generate(0, 8, 400, 4096, rng_for("r", 0), kernel_index=1)))
        assert step0 != step1

    def test_touches_own_and_peer_chunks(self):
        pattern = AllReducePattern(accum_ratio=0.5)
        cta, n_ctas, footprint = 2, 8, 4096
        addrs = pattern.generate(cta, n_ctas, 400, footprint, rng_for("r", cta), kernel_index=0)
        chunk = footprint // n_ctas
        own = ((addrs >= cta * chunk) & (addrs < (cta + 1) * chunk)).sum()
        assert own > 0
        assert own < len(addrs)  # peer traffic present too


class TestZipfian:
    def test_hot_head_concentration(self):
        """Zipf(alpha~1): a tiny head of lines absorbs most gathers."""
        pattern = ZipfianPattern(alpha=1.0, stream_fraction=0.0)
        addrs = pattern.generate(0, 8, 20000, 8192, rng_for("z", 0))
        _, counts = np.unique(addrs, return_counts=True)
        top = np.sort(counts)[::-1]
        assert top[: len(top) // 100 + 1].sum() / counts.sum() > 0.10

    def test_kernel_variant(self):
        assert ZipfianPattern().kernel_variant


class TestBursty:
    def test_contains_sequential_runs(self):
        pattern = BurstyPattern(burst_lines=16, hot_fraction=0.0)
        addrs = pattern.generate(0, 8, 256, 65536, rng_for("b", 0))
        deltas = np.diff(addrs)
        assert (deltas == 1).mean() > 0.7  # mostly intra-burst steps

    def test_hot_experts_absorb_traffic(self):
        pattern = BurstyPattern(hot_fraction=0.9, n_hot=2, hot_region_lines=64, burst_lines=8)
        footprint = 65536
        addrs = pattern.generate(0, 8, 4000, footprint, rng_for("b", 0))
        # Experts are evenly spaced: regions at 0 and footprint // 2, each
        # hot_region_lines + burst run long.
        spacing = footprint // 2
        within = (addrs % spacing) < 64 + 8
        assert within.mean() > 0.6


class TestMLSuite:
    def test_eight_specs_unique_names(self):
        specs = ml_specs()
        assert len(specs) == 8
        assert len({spec.name for spec in specs}) == 8
        assert all(spec.suite == "ML" for spec in specs)

    def test_spec_by_name_finds_ml_workloads(self):
        assert spec_by_name("GEMM-Fwd").pattern == "gemm_tile"
        assert spec_by_name("Attn-Decode").category is Category.LIMITED_PARALLELISM

    def test_fast_factor_shrinks(self):
        full = ml_workloads()
        fast = ml_workloads(fast_factor=0.0625)
        for a, b in zip(full, fast):
            assert b.spec.n_ctas <= a.spec.n_ctas

    def test_each_family_characterizes(self):
        for name in ("GEMM-Fwd", "Attn-Decode", "AllReduce-Ring", "DLRM-Embed", "MoE-Gate"):
            workload = SyntheticWorkload(spec_by_name(name).scaled_down(0.03))
            profile = cached_profile(workload)
            assert profile.n_ctas > 0
            assert 0.0 <= profile.hot_concentration <= 1.0

    def test_zipfian_concentrates_more_than_gemm(self):
        dlrm = SyntheticWorkload(spec_by_name("DLRM-Embed").scaled_down(0.0625))
        gemm = SyntheticWorkload(spec_by_name("GEMM-Fwd").scaled_down(0.0625))
        assert (
            cached_profile(dlrm).hot_concentration
            > cached_profile(gemm).hot_concentration
        )


class TestMLStudy:
    def outputs(self, monkeypatch, ml_cycles, cycles_2017=(900.0, 800.0)):
        """The study and its verdicts over stub suites: the baseline takes
        1000 cycles, the L1.5 and optimized machines ``(l15, opt)`` per suite."""
        monkeypatch.setattr(
            ml_experiment, "cached_profile",
            lambda workload, **kw: type(
                "P", (), {"hot_concentration": 0.5, "shared_line_fraction": 0.1,
                          "store_fraction": 0.2},
            )(),
        )
        names = [config.name for config in ml_experiment.machines()]

        def cycles(config, workload):
            l15, opt = ml_cycles if workload.spec.suite == "ML" else cycles_2017
            return (1000.0, l15, opt)[names.index(config.name)]

        return (
            reduce_stubbed(ml_experiment.plan(fast_factor=0.0625), cycles),
            reduce_stubbed(ml_verdicts.plan(fast_factor=0.0625), cycles),
        )

    def test_conclusions_hold_when_ml_keeps_the_gains(self, monkeypatch):
        study, verdicts = self.outputs(monkeypatch, (900.0, 800.0))
        assert all(verdict.holds for verdict in verdicts)
        assert study.ml_total == 8
        text = ml_verdicts.report(verdicts)
        assert "HOLDS" in text and "BREAKS" not in text

    def test_conclusions_break_when_ml_loses_the_gains(self, monkeypatch):
        _, verdicts = self.outputs(monkeypatch, (1100.0, 1200.0))
        assert not any(verdict.holds for verdict in verdicts)
        assert "BREAKS" in ml_verdicts.report(verdicts)


class TestMLFidelityBands:
    def passing_study(self, l15=1.12, opt=1.22, link_per_record=940.0):
        names = [spec.name for spec in ml_specs()]
        return ml_experiment.MLStudy(
            per_workload={name: (l15, opt) for name in names},
            characterization={},
            ml_improved=len(names),
            ml_degraded=0,
            ml_total=len(names),
            allreduce_link_per_record=link_per_record,
        )

    def checks(self, study):
        claims = [claim for claim in CLAIMS if claim.tier == "ml"]
        return {check.name: check for check in evaluate(claims, {"ml-workloads": study})}

    def test_measured_values_pass(self):
        checks = self.checks(self.passing_study())
        assert len(checks) == 7
        assert all(check.passed for check in checks.values())

    def test_l15_collapse_fails_low(self):
        checks = self.checks(self.passing_study(l15=0.90))
        assert not checks["ml-l15-geomean"].passed

    def test_over_reward_fails_high(self):
        checks = self.checks(self.passing_study(opt=2.5))
        assert not checks["ml-optimized-geomean"].passed

    def test_lost_exchange_fails(self):
        checks = self.checks(self.passing_study(link_per_record=5.0))
        assert not checks["ml-allreduce-link-per-record"].passed
