"""Unit and property tests for the dynamic CTA scheduler extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gpu import build_system
from repro.core.presets import baseline_mcm_gpu
from repro.sched.distributed import make_scheduler
from repro.sched.dynamic import DynamicScheduler


def small_system(n_gpms=4, sms_per_gpm=4):
    return build_system(baseline_mcm_gpu(n_gpms=n_gpms, sms_per_gpm=sms_per_gpm))


def drain(scheduler, system, limit=10_000):
    dispatched = []
    for _ in range(limit):
        progress = False
        for sm in system.all_sms():
            cta = scheduler.next_cta(sm)
            if cta is not None:
                dispatched.append(cta)
                progress = True
        if not progress:
            break
    return dispatched


class TestConstruction:
    def test_registered_in_factory(self):
        system = small_system()
        assert isinstance(make_scheduler("dynamic", system), DynamicScheduler)

    def test_rejects_bad_batch_count(self):
        with pytest.raises(ValueError, match="batches_per_gpm"):
            DynamicScheduler(small_system(), batches_per_gpm=0)

    def test_config_accepts_dynamic(self):
        from dataclasses import replace

        config = replace(baseline_mcm_gpu(name="dyn"), scheduler="dynamic")
        assert config.scheduler == "dynamic"


class TestBatching:
    def test_covers_every_cta_exactly_once(self):
        system = small_system()
        scheduler = DynamicScheduler(system, batches_per_gpm=4)
        scheduler.start_kernel(100)
        dispatched = drain(scheduler, system)
        assert sorted(dispatched) == list(range(100))
        assert scheduler.exhausted

    def test_batches_are_contiguous_ranges(self):
        system = small_system()
        scheduler = DynamicScheduler(system, batches_per_gpm=2, steal=False)
        scheduler.start_kernel(64)
        # With 4 GPMs x 2 batches, batch size is 8: GPM 0 holds batches
        # starting at 0 and 32 (round-robin by batch index).
        first_eight = [scheduler.next_cta(system.gpms[0].sms[0]) for _ in range(8)]
        assert first_eight == list(range(8))
        next_eight = [scheduler.next_cta(system.gpms[0].sms[0]) for _ in range(8)]
        assert next_eight == list(range(32, 40))

    def test_pending_accounting(self):
        system = small_system()
        scheduler = DynamicScheduler(system, batches_per_gpm=1, steal=False)
        scheduler.start_kernel(40)

        def pending():
            return [sum(len(batch) for batch in queue) for queue in scheduler._queues]

        assert pending() == [10, 10, 10, 10]
        scheduler.next_cta(system.gpms[2].sms[0])
        assert pending() == [10, 10, 9, 10]


class TestStealing:
    def test_idle_gpm_steals_from_loaded_one(self):
        system = small_system()
        scheduler = DynamicScheduler(system, batches_per_gpm=2, steal=True)
        scheduler.start_kernel(64)
        sm0 = system.gpms[0].sms[0]
        # Drain GPM 0's own 16 CTAs...
        own = [scheduler.next_cta(sm0) for _ in range(16)]
        assert all(cta is not None for cta in own)
        # ...then the next request must steal from another GPM.
        stolen = scheduler.next_cta(sm0)
        assert stolen is not None
        assert scheduler.steals >= 1

    def test_no_steal_mode_returns_none(self):
        system = small_system()
        scheduler = DynamicScheduler(system, batches_per_gpm=1, steal=False)
        scheduler.start_kernel(8)  # 2 CTAs per GPM
        sm0 = system.gpms[0].sms[0]
        assert scheduler.next_cta(sm0) is not None
        assert scheduler.next_cta(sm0) is not None
        assert scheduler.next_cta(sm0) is None
        assert scheduler.steals == 0

    def test_stealing_still_covers_everything(self):
        system = small_system()
        scheduler = DynamicScheduler(system, batches_per_gpm=3, steal=True)
        scheduler.start_kernel(97)
        dispatched = drain(scheduler, system)
        assert sorted(dispatched) == list(range(97))


class TestEndToEnd:
    def test_dynamic_scheduler_runs_imbalanced_workload(self):
        """Imbalanced work should finish no slower than static distribution."""
        from dataclasses import replace

        from repro.sim.simulator import simulate
        from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec

        spec = WorkloadSpec(
            name="imbalanced",
            category=Category.M_INTENSIVE,
            pattern="streaming",
            n_ctas=256,
            groups_per_cta=2,
            records_per_group=4,
            accesses_per_record=4,
            kernel_iterations=1,
            footprint_bytes=1 << 20,
            imbalance=2.0,
        )
        workload = SyntheticWorkload(spec)
        static_cfg = replace(
            baseline_mcm_gpu(name="static-ds"), scheduler="distributed"
        )
        dynamic_cfg = replace(baseline_mcm_gpu(name="dynamic-ds"), scheduler="dynamic")
        static = simulate(workload, static_cfg)
        dynamic = simulate(workload, dynamic_cfg)
        assert dynamic.ctas == static.ctas == 256
        assert dynamic.cycles <= static.cycles * 1.05


@settings(max_examples=30, deadline=None)
@given(
    n_ctas=st.integers(min_value=1, max_value=300),
    batches=st.integers(min_value=1, max_value=6),
    steal=st.booleans(),
)
def test_dynamic_dispatches_each_cta_once(n_ctas, batches, steal):
    """Property: every CTA dispatched exactly once for any configuration."""
    system = small_system()
    scheduler = DynamicScheduler(system, batches_per_gpm=batches, steal=steal)
    scheduler.start_kernel(n_ctas)
    dispatched = drain(scheduler, system)
    assert sorted(dispatched) == list(range(n_ctas))
