"""Unit and integration tests for the page-migration extension."""

import pytest

from dataclasses import replace

from repro.core.gpu import build_system
from repro.core.presets import baseline_mcm_gpu
from repro.memory.migration import MigratingFirstTouch
from repro.memory.placement import make_placement


class TestPolicyUnit:
    def test_registered(self):
        assert isinstance(make_placement("migrating_first_touch", 4), MigratingFirstTouch)

    def test_first_touch_semantics(self):
        policy = MigratingFirstTouch(4, threshold=4)
        assert policy.partition_of_page(10, 2) == 2
        assert policy.first_touch_allocations == 1

    def test_migrates_after_threshold(self):
        policy = MigratingFirstTouch(4, threshold=3)
        policy.partition_of_page(5, 0)  # home: 0
        assert policy.partition_of_page(5, 1) == 0
        assert policy.partition_of_page(5, 1) == 0
        # Third consecutive remote access from GPM 1 triggers migration.
        assert policy.partition_of_page(5, 1) == 1
        assert policy.migrations == 1
        assert policy.pending_migration == (5, 0, 1)
        assert policy._page_home.get(5) == 1

    def test_local_access_resets_pressure(self):
        policy = MigratingFirstTouch(4, threshold=3)
        policy.partition_of_page(5, 0)
        policy.partition_of_page(5, 1)
        policy.partition_of_page(5, 1)
        policy.partition_of_page(5, 0)  # owner touches: reset
        policy.partition_of_page(5, 1)
        policy.partition_of_page(5, 1)
        assert policy.migrations == 0

    def test_contended_page_does_not_ping_pong(self):
        policy = MigratingFirstTouch(4, threshold=3)
        policy.partition_of_page(5, 0)
        for _ in range(10):
            policy.partition_of_page(5, 1)
            policy.partition_of_page(5, 2)
        assert policy.migrations == 0  # alternating requesters cancel out

    def test_migration_cap(self):
        policy = MigratingFirstTouch(4, threshold=2, max_migrations_per_page=1)
        policy.partition_of_page(5, 0)
        policy.partition_of_page(5, 1)
        policy.partition_of_page(5, 1)  # -> migrates to 1
        policy.pending_migration = None
        assert policy._page_home.get(5) == 1
        for _ in range(10):
            policy.partition_of_page(5, 2)
        assert policy._page_home.get(5) == 1  # cap reached, stays put
        assert policy.migrations == 1

    def test_reset(self):
        policy = MigratingFirstTouch(4, threshold=2)
        policy.partition_of_page(5, 0)
        policy.reset()
        assert policy._page_home == {}
        assert policy._page_home.get(5) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            MigratingFirstTouch(4, threshold=0)
        with pytest.raises(ValueError, match="max_migrations"):
            MigratingFirstTouch(4, max_migrations_per_page=-1)


class TestMigrationInSystem:
    def _system(self):
        config = replace(
            baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2, name="migrating"),
            placement="migrating_first_touch",
        )
        return build_system(config)

    def test_migration_cost_charged(self):
        system = self._system()
        policy = system.page_table.policy
        policy.threshold = 3
        sm0 = system.gpms[0].sms[0]
        sm1 = system.gpms[1].sms[0]
        # GPM 0 touches page 0 first (lines 0..15 on 2KB pages).
        system.memsys.load(0.0, sm0, 0)
        reads_before = system.gpms[0].dram.reads
        # GPM 1 hammers the page until it migrates.
        for i in range(6):
            system.memsys.load(float(i), sm1, 1 + i % 8)
        assert policy.migrations >= 1
        assert system.memsys.migration_bytes >= system.address_map.page_bytes
        # The copy read the page from the old home.
        assert system.gpms[0].dram.reads > reads_before

    def test_migrated_page_serves_locally(self):
        system = self._system()
        policy = system.page_table.policy
        policy.threshold = 2
        sm0 = system.gpms[0].sms[0]
        sm1 = system.gpms[1].sms[0]
        system.memsys.load(0.0, sm0, 0)
        for i in range(4):
            system.memsys.load(float(i), sm1, 1 + i)
        remote_before = system.memsys.remote_loads
        system.memsys.load(10.0, sm1, 6)  # same page, now local to GPM 1
        assert system.memsys.remote_loads == remote_before

    def test_end_to_end_simulation_runs(self):
        from repro.sim.engine import SimulationEngine
        from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec

        workload = SyntheticWorkload(
            WorkloadSpec(
                name="migrate-e2e",
                category=Category.M_INTENSIVE,
                pattern="streaming",
                n_ctas=32,
                groups_per_cta=2,
                records_per_group=3,
                accesses_per_record=3,
                kernel_iterations=2,
                footprint_bytes=512 * 1024,
            )
        )
        result = SimulationEngine(self._system()).run(workload)
        assert result.ctas == 64
        assert result.cycles > 0
