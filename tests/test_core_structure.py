"""Unit tests for the structural model (SM, GPM, GPUSystem) and the
package structure guards."""

import ast
from pathlib import Path

import pytest

from repro.core.gpu import build_system
from repro.core.presets import (
    baseline_mcm_gpu,
    mcm_gpu_with_l15,
    monolithic_gpu,
    multi_gpu,
)

from .stubs import resident


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
        assert not resident(sm.l1, 5)


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
        assert not resident(gpm.sms[0].l1, 1)
        assert not resident(gpm.l15, 2)
        assert resident(gpm.l2, 3)  # memory-side L2 is not flushed

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
        assert system.gpms[0].dram.pipe.bytes_transferred == 0
        assert system.gpms[0].xbar.local_requests == 0
        assert system.gpms[0].xbar.remote_requests == 0


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _parsed(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


class TestPackageStructure:
    def test_serve_imports_no_private_parallel_names(self):
        offenders = []
        for path, tree in _parsed(SRC / "serve"):
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom) or node.module is None:
                    continue
                absolute = node.level == 0 and node.module.startswith("repro.parallel")
                relative = node.level == 2 and node.module.split(".")[0] == "parallel"
                if absolute or relative:
                    offenders += [
                        f"{path.name}: {alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_")
                    ]
        assert offenders == []

    def test_one_process_pool_construction(self):
        calls = []
        for path, tree in _parsed(SRC):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == "ProcessPoolExecutor":
                        calls.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert len(calls) == 1, calls
        assert calls[0].startswith("parallel/runner.py:"), calls
