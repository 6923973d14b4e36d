"""Tests for the package's public API surface."""

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_workflow(self):
        """The README quickstart snippet works end-to-end (shrunken)."""
        from repro.workloads.suite import spec_by_name
        from repro.workloads.synthetic import SyntheticWorkload

        workload = SyntheticWorkload(spec_by_name("CFD").scaled_down(0.05))
        baseline = repro.simulate(workload, repro.baseline_mcm_gpu())
        optimized = repro.simulate(workload, repro.optimized_mcm_gpu())
        assert optimized.speedup_over(baseline) > 0

    def test_subpackage_imports(self):
        import repro.analysis
        import repro.core
        import repro.experiments
        import repro.interconnect
        import repro.memory
        import repro.multigpu
        import repro.sched
        import repro.sim
        import repro.workloads

        assert repro.experiments.EXPERIMENTS

    def test_memory_exports(self):
        from repro.memory import (
            AddressMap,
            BandwidthPipe,
            DRAMPartition,
            PageTable,
            SetAssocCache,
        )

        assert all((AddressMap, BandwidthPipe, DRAMPartition, PageTable, SetAssocCache))

    def test_experiment_registry_covers_every_artifact(self):
        from repro.experiments import EXPERIMENTS

        expected = {
            "table1", "table2", "table3", "table4",
            "fig2", "fig4", "fig6", "fig7", "fig9", "fig10",
            "fig13", "fig14", "fig15", "fig16", "fig17",
            "topology", "gpm-scaling", "ml-workloads", "ml-verdicts", "sched-ablation",
            "page-ablation", "migration-ablation", "scaleout", "fabric-hops",
        }
        assert set(EXPERIMENTS) == expected
        for module in EXPERIMENTS.values():
            assert hasattr(module, "plan")
            assert hasattr(module, "report")
