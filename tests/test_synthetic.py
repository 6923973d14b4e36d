"""Unit tests for synthetic workload specs and trace generation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec


def spec(**overrides):
    base = dict(
        name="test-wl",
        category=Category.M_INTENSIVE,
        pattern="streaming",
        n_ctas=16,
        groups_per_cta=2,
        records_per_group=3,
        accesses_per_record=4,
        write_fraction=0.25,
        compute_per_record=5.0,
        kernel_iterations=2,
        footprint_bytes=1 << 20,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestSpecValidation:
    def test_rejects_zero_ctas(self):
        with pytest.raises(ValueError, match="n_ctas"):
            spec(n_ctas=0)

    def test_rejects_tiny_footprint(self):
        with pytest.raises(ValueError, match="footprint"):
            spec(footprint_bytes=64)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError, match="kernel_iterations"):
            spec(kernel_iterations=0)

    def test_rejects_negative_imbalance(self):
        with pytest.raises(ValueError, match="imbalance"):
            spec(imbalance=-0.5)


class TestSpecDerived:
    def test_footprint_lines(self):
        assert spec(footprint_bytes=1280).footprint_lines == 10

    def test_records_for_cta_with_imbalance(self):
        skewed = spec(imbalance=1.0, records_per_group=10)
        assert skewed.records_for_cta(0) == 10
        assert skewed.records_for_cta(15) == round(10 * (1 + 15 / 16))

    def test_records_uniform_without_imbalance(self):
        flat = spec()
        assert flat.records_for_cta(0) == flat.records_for_cta(15)

    def test_total_accesses(self):
        s = spec()
        expected = 16 * 2 * 3 * 4 * 2  # ctas*groups*records*accesses*kernels
        assert s.total_accesses() == expected

    @given(
        n_ctas=st.integers(1, 300),
        groups=st.integers(1, 4),
        records=st.integers(0, 12),
        accesses=st.integers(1, 6),
        kernels=st.integers(1, 4),
        imbalance=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    )
    def test_total_accesses_equals_the_per_cta_sum(
        self, n_ctas, groups, records, accesses, kernels, imbalance
    ):
        s = spec(
            n_ctas=n_ctas,
            groups_per_cta=groups,
            records_per_group=records,
            accesses_per_record=accesses,
            kernel_iterations=kernels,
            imbalance=imbalance,
        )
        per_kernel = sum(
            s.records_for_cta(cta) * groups * accesses for cta in range(n_ctas)
        )
        assert s.total_accesses() == per_kernel * kernels

    def test_digest_distinguishes_specs(self):
        assert spec().digest() != spec(n_ctas=17).digest()
        assert spec().digest() != spec(write_fraction=0.3).digest()
        assert spec().digest() == spec().digest()

    def test_scaled_down(self):
        small = spec(n_ctas=100).scaled_down(0.25)
        assert small.n_ctas == 25
        assert small.footprint_bytes <= spec().footprint_bytes
        with pytest.raises(ValueError, match="factor"):
            spec().scaled_down(0.0)


class TestTraceGeneration:
    def test_kernel_count(self):
        workload = SyntheticWorkload(spec(kernel_iterations=3))
        kernels = list(workload.kernels())
        assert len(kernels) == 3
        assert all(k.n_ctas == 16 for k in kernels)

    def test_trace_shape(self):
        workload = SyntheticWorkload(spec())
        kernel = next(iter(workload.kernels()))
        trace = kernel.trace_fn(0)
        assert len(trace) == 2  # groups
        assert len(trace[0]) == 3  # records
        assert trace[0][0].n_accesses == 4

    def test_trace_deterministic(self):
        workload = SyntheticWorkload(spec())
        kernel = next(iter(workload.kernels()))
        assert kernel.trace_fn(5) == kernel.trace_fn(5)

    def test_iterative_kernels_reuse_addresses(self):
        """Streaming/stencil workloads touch identical lines every launch."""
        workload = SyntheticWorkload(spec(pattern="stencil"))
        k0, k1 = list(workload.kernels())
        assert k0.trace_fn(3) == k1.trace_fn(3)

    def test_irregular_kernels_differ(self):
        workload = SyntheticWorkload(
            spec(pattern="irregular", pattern_params=(("hot_fraction", 0.2),))
        )
        k0, k1 = list(workload.kernels())
        assert k0.trace_fn(3) != k1.trace_fn(3)

    def test_write_fraction_realized(self):
        workload = SyntheticWorkload(spec(write_fraction=0.25, records_per_group=50))
        kernel = next(iter(workload.kernels()))
        trace = kernel.trace_fn(0)
        reads = sum(len(r.reads) for group in trace for r in group)
        writes = sum(len(r.writes) for group in trace for r in group)
        assert writes / (reads + writes) == pytest.approx(0.25, abs=0.02)

    def test_addresses_within_footprint(self):
        workload = SyntheticWorkload(spec())
        kernel = next(iter(workload.kernels()))
        lines = [
            addr
            for trace in (kernel.trace_fn(c) for c in range(16))
            for group in trace
            for record in group
            for addr in record.reads + record.writes
        ]
        assert min(lines) >= 0
        assert max(lines) < spec().footprint_lines

    def test_category_property(self):
        assert SyntheticWorkload(spec()).category is Category.M_INTENSIVE


class TestCategory:
    def test_high_parallelism_flag(self):
        assert Category.M_INTENSIVE.high_parallelism
        assert Category.C_INTENSIVE.high_parallelism
        assert not Category.LIMITED_PARALLELISM.high_parallelism
