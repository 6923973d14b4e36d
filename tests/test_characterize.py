"""Unit tests for static workload characterization."""

import pytest

from repro.workloads.characterize import profile_spec, profile_workload
from repro.workloads.suite import spec_by_name
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec


def spec(**overrides):
    base = dict(
        name="prof",
        category=Category.M_INTENSIVE,
        pattern="streaming",
        n_ctas=32,
        groups_per_cta=2,
        records_per_group=4,
        accesses_per_record=4,
        write_fraction=0.25,
        compute_per_record=8.0,
        kernel_iterations=1,
        footprint_bytes=512 * 1024,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestProfileBasics:
    def test_counts_all_sampled_accesses(self):
        profile = profile_spec(spec(), max_ctas=32)
        assert profile.sampled_ctas == 32
        assert profile.total_accesses == 32 * 2 * 4 * 4

    def test_store_fraction_matches_spec(self):
        profile = profile_spec(spec(write_fraction=0.25))
        assert profile.store_fraction == pytest.approx(0.25, abs=0.02)

    def test_compute_per_access(self):
        profile = profile_spec(spec(compute_per_record=8.0, accesses_per_record=4))
        assert profile.compute_per_access == pytest.approx(2.0)
        assert profile.memory_intensity == pytest.approx(0.5)

    def test_sampling_caps_cta_count(self):
        profile = profile_spec(spec(n_ctas=32), max_ctas=8)
        assert profile.sampled_ctas == 8

    def test_sampling_builds_only_the_sampled_traces(self):
        # The sample is built as one batch; a whole-kernel build on the
        # first miss would leave the other CTAs' traces waiting in the memo.
        workload = SyntheticWorkload(spec(pattern="irregular", n_ctas=256))
        profile_workload(workload, max_ctas=8)
        memo = workload._trace_memo
        assert (memo.materializations, memo.reuses) == (8, 0)
        assert not memo._built


class TestLocalityMetrics:
    def test_streaming_has_no_sharing(self):
        profile = profile_spec(spec(pattern="streaming"), max_ctas=16)
        assert profile.shared_line_fraction < 0.05

    def test_hotset_shares_and_concentrates(self):
        hot = profile_spec(
            spec(
                pattern="hotset",
                pattern_params=(("hot_fraction", 0.6), ("hot_lines", 64)),
            ),
            max_ctas=16,
        )
        cold = profile_spec(spec(pattern="streaming"), max_ctas=16)
        assert hot.shared_line_fraction > 0.05
        assert hot.hot_concentration > cold.hot_concentration

    def test_footprint_coverage_bounded(self):
        profile = profile_spec(spec())
        assert 0.0 < profile.footprint_coverage <= 1.0


class TestSuiteClassConsistency:
    def test_m_intensive_denser_than_c_intensive(self):
        """Suite classes must reflect their paper definitions."""
        m = profile_spec(spec_by_name("Stream"), max_ctas=16)
        c = profile_spec(spec_by_name("Backprop"), max_ctas=16)
        assert m.memory_intensity > c.memory_intensity * 3

    def test_kmeans_is_hot_concentrated(self):
        kmeans = profile_spec(spec_by_name("Kmeans"), max_ctas=16)
        stream = profile_spec(spec_by_name("Stream"), max_ctas=16)
        assert kmeans.hot_concentration > stream.hot_concentration

    def test_banded_solver_shares_lines(self):
        comd = profile_spec(spec_by_name("CoMD"), max_ctas=32)
        assert comd.shared_line_fraction > 0.0
