"""Tests for deterministic seeding and cross-cutting simulation invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gpu import build_system
from repro.core.presets import baseline_mcm_gpu, mcm_gpu_with_l15
from repro.sim.engine import SimulationEngine
from repro.workloads.rng import rng_for, stable_seed
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, 2) == stable_seed("a", 1, 2)

    def test_distinguishes_parts(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a", 12) != stable_seed("a1", 2)

    def test_rng_reproducible(self):
        a = rng_for("workload", 3).integers(0, 1000, size=10)
        b = rng_for("workload", 3).integers(0, 1000, size=10)
        assert list(a) == list(b)

    def test_rng_streams_independent(self):
        a = rng_for("x", 0).integers(0, 1_000_000, size=8)
        b = rng_for("x", 1).integers(0, 1_000_000, size=8)
        assert list(a) != list(b)


def run_spec(**overrides):
    base = dict(
        name="inv",
        category=Category.M_INTENSIVE,
        pattern="streaming",
        n_ctas=48,
        groups_per_cta=2,
        records_per_group=3,
        accesses_per_record=3,
        write_fraction=0.25,
        compute_per_record=4.0,
        kernel_iterations=2,
        footprint_bytes=512 * 1024,
    )
    base.update(overrides)
    workload = SyntheticWorkload(WorkloadSpec(**base))
    system = build_system(mcm_gpu_with_l15(16, remote_only=True, n_gpms=4, sms_per_gpm=2))
    result = SimulationEngine(system).run(workload)
    return workload, system, result


class TestConservationInvariants:
    def test_access_conservation(self):
        """Loads + stores equal the trace's access count exactly."""
        workload, _, result = run_spec()
        assert result.accesses == workload.spec.total_accesses()

    def test_l1_sees_every_load(self):
        _, _, result = run_spec(write_fraction=0.0)
        assert result.l1.accesses == result.loads

    def test_routed_requests_partition_into_local_and_remote(self):
        _, system, result = run_spec()
        routed = result.page_local + result.page_remote
        # Every L1 load miss and every store is routed exactly once.
        assert routed == result.l1.misses + result.stores

    def test_remote_loads_bounded_by_routed_remote(self):
        _, _, result = run_spec()
        assert result.remote_loads + result.remote_stores == result.page_remote

    def test_dram_reads_equal_l2_misses(self):
        """Every L2 miss (read or write-allocate) fetches one line."""
        _, system, result = run_spec()
        assert result.dram_bytes_read == result.l2.misses * 128

    def test_dram_writes_equal_l2_writebacks(self):
        _, _, result = run_spec(write_fraction=0.5, footprint_bytes=2 << 20)
        assert result.dram_bytes_written == result.l2.writebacks * 128

    def test_bandwidth_within_physical_limits(self):
        _, _, result = run_spec(write_fraction=0.4, compute_per_record=0.5)
        config_total = 4 * 768.0
        assert result.dram_bytes / result.cycles <= config_total * 1.01


@settings(max_examples=10, deadline=None)
@given(
    n_ctas=st.integers(min_value=4, max_value=64),
    wf=st.sampled_from([0.0, 0.25, 0.5]),
    pattern=st.sampled_from(["streaming", "irregular", "hotset", "banded"]),
)
def test_simulation_invariants_hold_for_any_workload(n_ctas, wf, pattern):
    """Property: conservation laws hold across patterns and sizes."""
    workload = SyntheticWorkload(
        WorkloadSpec(
            name=f"prop-{pattern}",
            category=Category.M_INTENSIVE,
            pattern=pattern,
            n_ctas=n_ctas,
            groups_per_cta=2,
            records_per_group=2,
            accesses_per_record=2,
            write_fraction=wf,
            compute_per_record=2.0,
            kernel_iterations=1,
            footprint_bytes=256 * 1024,
        )
    )
    system = build_system(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2))
    result = SimulationEngine(system).run(workload)
    assert result.accesses == workload.spec.total_accesses()
    assert result.ctas == n_ctas
    assert result.cycles > 0
    assert result.page_local + result.page_remote == result.l1.misses + result.stores
    assert result.dram_bytes_read == result.l2.misses * 128
