"""Unit tests for the structural model: SM, GPM, GPUSystem."""

import pytest

from repro.core.gpu import build_system
from repro.core.presets import (
    baseline_mcm_gpu,
    mcm_gpu_with_l15,
    monolithic_gpu,
    multi_gpu,
)


class TestSM:
    def test_slot_accounting(self):
        system = build_system(baseline_mcm_gpu(n_gpms=2, sms_per_gpm=2))
        sm = system.gpms[0].sms[0]
        capacity = sm.config.max_resident_ctas
        for _ in range(capacity):
            sm.occupy_slot()
        assert sm.free_cta_slots == 0
        with pytest.raises(RuntimeError, match="no free CTA slot"):
            sm.occupy_slot()
        sm.release_slot()
        assert sm.free_cta_slots == 1

    def test_release_beyond_capacity_rejected(self):
        system = build_system(baseline_mcm_gpu(n_gpms=2, sms_per_gpm=2))
        sm = system.gpms[0].sms[0]
        with pytest.raises(RuntimeError, match="more slots"):
            sm.release_slot()

    def test_charge_issue_advances_clock(self):
        system = build_system(baseline_mcm_gpu(n_gpms=2, sms_per_gpm=2))
        sm = system.gpms[0].sms[0]
        sm.charge_issue(10.0, 8.0)
        assert sm.clock == pytest.approx(10.0 + 8.0 / sm.issue_throughput)

    def test_reset(self):
        system = build_system(baseline_mcm_gpu(n_gpms=2, sms_per_gpm=2))
        sm = system.gpms[0].sms[0]
        sm.occupy_slot()
        sm.charge_issue(0.0, 100.0)
        sm.l1.access(5)
        sm.reset()
        assert sm.clock == 0.0
        assert sm.free_cta_slots == sm.config.max_resident_ctas
        assert sm.l1.stats.accesses == 0
        assert not sm.l1.probe(5)


class TestGPM:
    def test_structure(self):
        system = build_system(mcm_gpu_with_l15(16))
        gpm = system.gpms[0]
        assert len(gpm.sms) == 64
        assert gpm.has_l15
        assert gpm.l2.enabled
        assert gpm.dram.pipe.bytes_per_cycle == 768.0

    def test_no_l15_baseline(self):
        system = build_system(baseline_mcm_gpu())
        assert not system.gpms[0].has_l15
        assert not system.gpms[0].l15_caches_local

    def test_kernel_boundary_flush_clears_l1_and_l15_not_l2(self):
        system = build_system(mcm_gpu_with_l15(16))
        gpm = system.gpms[0]
        gpm.sms[0].l1.access(1)
        gpm.l15.access(2)
        gpm.l2.access(3)
        gpm.kernel_boundary_flush()
        assert not gpm.sms[0].l1.probe(1)
        assert not gpm.l15.probe(2)
        assert gpm.l2.probe(3)  # memory-side L2 is not flushed

    def test_aggregate_l1_stats(self):
        system = build_system(baseline_mcm_gpu(n_gpms=2, sms_per_gpm=4))
        gpm = system.gpms[0]
        gpm.sms[0].l1.access(1)
        gpm.sms[1].l1.access(1)
        total = gpm.aggregate_l1_stats()
        assert total.misses == 2


class TestGPUSystem:
    def test_sm_ids_globally_unique(self):
        system = build_system(baseline_mcm_gpu())
        ids = [sm.sm_id for sm in system.all_sms()]
        assert ids == list(range(256))

    def test_interleaved_order_alternates_gpms(self):
        system = build_system(baseline_mcm_gpu())
        order = system.sms_interleaved()
        assert [sm.gpm_id for sm in order[:8]] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert len(order) == 256

    def test_monolithic_slices_behind_fast_fabric(self):
        system = build_system(monolithic_gpu(128))
        assert system.n_gpms == 4
        assert system.total_sms == 128
        # Fabric links are effectively unlimited and cheap.
        assert system.ring.links[0].latency_cycles < 10
        assert system.ring.links[0].request_pipe.bytes_per_cycle > 10_000

    def test_multi_gpu_structure(self):
        system = build_system(multi_gpu())
        assert system.n_gpms == 2
        assert system.total_sms == 256
        assert system.ring.links[0].latency_cycles == 320.0

    def test_reset_restores_pristine_state(self):
        system = build_system(baseline_mcm_gpu(n_gpms=2, sms_per_gpm=2))
        sm = system.gpms[0].sms[0]
        system.memsys.load(0.0, sm, 123)
        system.memsys.store(0.0, sm, 77)
        system.reset()
        assert system.memsys.loads == 0
        assert system.ring.total_link_bytes == 0
        assert system.page_table.local_resolutions == 0
        assert system.gpms[0].dram.total_bytes == 0
        assert system.gpms[0].xbar.total_requests == 0
