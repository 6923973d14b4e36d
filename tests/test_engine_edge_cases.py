"""Edge-case and stress tests for the engine and memory system."""

import pytest

from repro.core.gpu import build_system
from repro.core.presets import baseline_mcm_gpu, mcm_gpu_with_l15, multi_gpu
from repro.sim.engine import SimulationEngine
from repro.sim.simulator import simulate
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec
from repro.workloads.trace import KernelLaunch, TraceRecord, Workload

from .stubs import resident


class ExplicitWorkload(Workload):
    name = "edge"

    def __init__(self, kernels, name="edge"):
        self._kernels = kernels
        self.name = name

    def kernels(self):
        return iter(self._kernels)

    def digest(self):
        return self.name


def tiny_config(**overrides):
    return baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2, **overrides)


class TestDegenerateTraces:
    def test_single_access_workload(self):
        kernel = KernelLaunch(1, 1, lambda c: [[TraceRecord(0.0, (0,), ())]], "k")
        result = SimulationEngine(build_system(tiny_config())).run(ExplicitWorkload([kernel]))
        assert result.loads == 1
        assert result.cycles > 0

    def test_store_only_workload(self):
        kernel = KernelLaunch(
            4, 1, lambda c: [[TraceRecord(0.0, (), (c, c + 100))]], "stores"
        )
        result = SimulationEngine(build_system(tiny_config())).run(ExplicitWorkload([kernel]))
        assert result.stores == 8
        assert result.loads == 0
        # Drain accounting: the makespan covers the buffered stores.
        assert result.cycles >= 1.0

    def test_compute_only_workload(self):
        kernel = KernelLaunch(2, 2, lambda c: [[TraceRecord(50.0, (), ())], [TraceRecord(30.0, (), ())]], "c")
        result = SimulationEngine(build_system(tiny_config())).run(ExplicitWorkload([kernel]))
        assert result.accesses == 0
        assert result.cycles >= 50.0

    def test_empty_group_cta_retires(self):
        kernel = KernelLaunch(1, 2, lambda c: [[], [TraceRecord(1.0, (1,), ())]], "half")
        result = SimulationEngine(build_system(tiny_config())).run(ExplicitWorkload([kernel]))
        assert result.ctas == 1

    def test_fully_empty_cta_retires(self):
        kernel = KernelLaunch(2, 1, lambda c: [[]], "empty")
        result = SimulationEngine(build_system(tiny_config())).run(ExplicitWorkload([kernel]))
        assert result.ctas == 2
        assert result.cycles == 0.0

    def test_many_kernels(self):
        kernel = KernelLaunch(1, 1, lambda c: [[TraceRecord(1.0, (c,), ())]], "k")
        result = SimulationEngine(build_system(tiny_config())).run(
            ExplicitWorkload([kernel] * 10)
        )
        assert result.kernels == 10

    def test_empty_ctas_on_refill_path_do_not_strand_work(self):
        # Regression: an empty CTA dispatched from the refill path used to
        # release its slot without asking the scheduler for the next CTA.
        # With more empty CTAs than retirement events, the heap drained
        # with CTAs undispatched and the engine raised RuntimeError.
        config = tiny_config()
        slots = config.max_resident_ctas  # 8 SMs x 4 slots = 32
        n_ctas = slots + 3 * slots  # fill every slot, then 3 empties per slot

        def trace_fn(c):
            if c < slots:
                return [[TraceRecord(1.0, (c,), ())]]
            return [[]]

        kernel = KernelLaunch(n_ctas, 1, trace_fn, "refill-empties")
        result = SimulationEngine(build_system(config)).run(ExplicitWorkload([kernel]))
        assert result.ctas == n_ctas
        assert result.records == slots

    def test_all_empty_trace_kernel_completes(self):
        # Every CTA of the kernel is empty and there are far more CTAs
        # than resident slots; all must retire through the refill chain.
        config = tiny_config()
        n_ctas = 10 * config.max_resident_ctas
        kernel = KernelLaunch(n_ctas, 2, lambda c: [[], []], "all-empty")
        result = SimulationEngine(build_system(config)).run(ExplicitWorkload([kernel]))
        assert result.ctas == n_ctas
        assert result.records == 0
        assert result.cycles == 0.0


class TestRepeatedAddresses:
    def test_same_line_many_times_hits_l1(self):
        records = [[TraceRecord(0.0, (7, 7, 7, 7), ())]]
        kernel = KernelLaunch(1, 1, lambda c: records, "dup")
        system = build_system(tiny_config())
        result = SimulationEngine(system).run(ExplicitWorkload([kernel]))
        assert result.l1.hits == 3
        assert result.l1.misses == 1

    def test_load_then_store_same_line(self):
        records = [[TraceRecord(0.0, (5,), (5,))]]
        kernel = KernelLaunch(1, 1, lambda c: records, "rw")
        system = build_system(tiny_config())
        result = SimulationEngine(system).run(ExplicitWorkload([kernel]))
        assert result.loads == 1
        assert result.stores == 1


class TestDynamicSchedulerEndToEnd:
    def test_dynamic_runs_suite_workload(self):
        from dataclasses import replace

        spec = WorkloadSpec(
            name="dyn-e2e",
            category=Category.M_INTENSIVE,
            pattern="banded",
            n_ctas=64,
            groups_per_cta=2,
            records_per_group=3,
            accesses_per_record=3,
            kernel_iterations=2,
            footprint_bytes=512 * 1024,
        )
        config = replace(tiny_config(name="dyn-edge"), scheduler="dynamic")
        result = simulate(SyntheticWorkload(spec), config)
        assert result.ctas == 128  # 64 per kernel x 2


class TestMultiGPUEndToEnd:
    def test_small_multi_gpu_sim(self):
        spec = WorkloadSpec(
            name="mgpu-e2e",
            category=Category.M_INTENSIVE,
            pattern="streaming",
            n_ctas=64,
            groups_per_cta=2,
            records_per_group=3,
            accesses_per_record=3,
            kernel_iterations=1,
            footprint_bytes=512 * 1024,
        )
        config = multi_gpu(optimized=True, sms_per_gpu=8)
        result = simulate(SyntheticWorkload(spec), config)
        assert result.ctas == 64
        assert result.link_tier == "board"
        # Board links are narrow: any remote traffic is visible.
        assert result.cycles > 0


class TestL15AllPolicyPath:
    def test_all_policy_serves_local_hits(self):
        system = build_system(
            mcm_gpu_with_l15(16, remote_only=False, n_gpms=4, sms_per_gpm=2)
        )
        sm = system.gpms[0].sms[0]
        line = 0  # home partition 0 == local
        system.memsys.load(0.0, sm, line)
        # Second access from a different SM misses its L1 but hits the
        # shared L1.5 even though the line is local.
        other = system.gpms[0].sms[1]
        before = system.gpms[0].l2.stats.accesses
        done = system.memsys.load(0.0, other, line)
        assert system.gpms[0].l15.stats.hits == 1
        assert system.gpms[0].l2.stats.accesses == before

    def test_all_policy_store_updates_resident_line(self):
        system = build_system(
            mcm_gpu_with_l15(16, remote_only=False, n_gpms=4, sms_per_gpm=2)
        )
        sm = system.gpms[0].sms[0]
        system.memsys.load(0.0, sm, 0)
        assert resident(system.gpms[0].l15, 0)
        system.memsys.store(1.0, sm, 0)
        # Write-through: still resident, never dirty.
        assert resident(system.gpms[0].l15, 0)
        assert system.gpms[0].l15.flush() == []
