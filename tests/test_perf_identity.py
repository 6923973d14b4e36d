"""Bit-identity, dispatch and accounting tests for the engine's two paths.

A memory access has exactly two implementations: the per-line reference
(``MemorySystem.load``/``store``) and the generated per-GPM walkers
(:mod:`repro.core.walkgen`).  One drain loop runs both; a warp group
takes the walkers when the system supports them, probed or not, and the
reference otherwise.

Four contracts:

1. **Bit-identity** — every machine's production run produces a
   ``SimResult`` identical *field for field* to the per-line reference
   (``engine.batched = False`` / the ``REPRO_SIM_PERLINE`` env knob), on
   ring, monolithic, multi-GPU, mesh, torus, hierarchical and
   fully-connected fabrics, under migrating placement, and with a probe,
   whose windows, phases and summary match too.
2. **Dispatch** — ring, mesh, torus, hierarchical and fully-connected
   machines take the walkers, probed or not; migrating machines take the
   reference, as does any system ``build_walkers`` rejects.
3. **Trace memoization** — materialized CTA traces are reused across
   kernel iterations and across runs (``materializations`` stays flat),
   and kernel-variant patterns still materialize per kernel.
4. **Store accounting** — every store lands in exactly one L1 counter
   (``write_hits`` or ``bypasses``; the probe-miss case used to vanish),
   and the reported hit *rates* are load-only (the Figure 6/7 quantity).
"""

from dataclasses import asdict, replace

import pytest

from repro.core import walkgen
from repro.core.gpu import build_system
from repro.core.presets import (
    baseline_mcm_gpu,
    mcm_gpu_with_l15,
    monolithic_gpu,
    multi_gpu,
)
from repro.memory.cache import CacheStats, SetAssocCache
from repro.sim.simulator import Simulator
from repro.telemetry import Telemetry
from repro.telemetry.probe import WindowSample
from repro.validate.invariants import check_result
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec

from .stubs import resident


def tiny_workload(name="pi-w", pattern="streaming", write_fraction=0.25, iterations=2):
    return SyntheticWorkload(
        WorkloadSpec(
            name=name,
            category=Category.M_INTENSIVE,
            pattern=pattern,
            n_ctas=32,
            groups_per_cta=2,
            records_per_group=3,
            accesses_per_record=4,
            write_fraction=write_fraction,
            kernel_iterations=iterations,
            footprint_bytes=256 * 1024,
        )
    )


def simulate_with_path(workload, config, batched, probe=None):
    """Run ``workload`` with walkers allowed (``batched``) or forced off."""
    simulator = Simulator(config, telemetry=probe)
    simulator.engine.batched = batched
    return simulator.run(workload)


def on_fabric(topology, n_gpms):
    return replace(baseline_mcm_gpu(n_gpms=n_gpms, sms_per_gpm=2), topology=topology)


def migrating():
    return replace(
        baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2), placement="migrating_first_touch"
    )


class Probed:
    """A config whose production run carries a telemetry probe."""

    def __init__(self, config):
        self.config = config


#: Short enough that every probed case closes several windows.
PROBE_WINDOW_CYCLES = 64.0


def unwrap(machine):
    """``(config, probe)`` for a ``CONFIG_MAKERS`` result."""
    if isinstance(machine, Probed):
        return machine.config, Telemetry(window_cycles=PROBE_WINDOW_CYCLES)
    return machine, None


CONFIG_MAKERS = [
    pytest.param(lambda: baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2), id="mcm-baseline"),
    pytest.param(
        lambda: mcm_gpu_with_l15(
            8, remote_only=True, scheduler="distributed", n_gpms=4, sms_per_gpm=2
        ),
        id="mcm-l15",
    ),
    pytest.param(
        lambda: mcm_gpu_with_l15(8, remote_only=False, n_gpms=4, sms_per_gpm=2),
        id="mcm-l15-all",
    ),
    pytest.param(lambda: monolithic_gpu(n_sms=32), id="monolithic"),
    pytest.param(lambda: multi_gpu(optimized=False, sms_per_gpu=2), id="multi-gpu"),
    pytest.param(lambda: on_fabric("mesh", 8), id="mesh-8"),
    pytest.param(lambda: on_fabric("torus", 8), id="torus-8"),
    pytest.param(lambda: on_fabric("hierarchical", 8), id="hier-8"),
    pytest.param(lambda: on_fabric("fully_connected", 4), id="fc-4"),
    pytest.param(migrating, id="migrating"),
    pytest.param(
        lambda: Probed(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)), id="probed-ring"
    ),
    pytest.param(
        lambda: Probed(
            mcm_gpu_with_l15(
                8, remote_only=True, scheduler="distributed", n_gpms=4, sms_per_gpm=2
            )
        ),
        id="probed-l15",
    ),
    pytest.param(lambda: Probed(migrating()), id="probed-migrating"),
]

WORKLOAD_MAKERS = [
    pytest.param(lambda: tiny_workload("pi-stream", "streaming"), id="streaming"),
    pytest.param(lambda: tiny_workload("pi-irr", "irregular"), id="irregular"),
    pytest.param(lambda: tiny_workload("pi-hot", "hotset"), id="hotset"),
    pytest.param(
        lambda: tiny_workload("pi-nostore", "streaming", write_fraction=0.0),
        id="no-stores",
    ),
]


class TestBatchedPerLineIdentity:
    """Production runs (``engine.batched`` on) against the per-line reference."""

    @pytest.mark.parametrize("make_config", CONFIG_MAKERS)
    @pytest.mark.parametrize("make_workload", WORKLOAD_MAKERS)
    def test_results_identical_field_for_field(self, make_config, make_workload):
        config, probe = unwrap(make_config())
        production = simulate_with_path(make_workload(), config, batched=True, probe=probe)
        perline_probe = None if probe is None else Telemetry(probe.window_cycles)
        perline = simulate_with_path(
            make_workload(), config, batched=False, probe=perline_probe
        )
        production_fields = asdict(production)
        perline_fields = asdict(perline)
        assert production_fields.keys() == perline_fields.keys()
        for name in production_fields:
            assert production_fields[name] == perline_fields[name], (
                f"field {name!r} differs: production={production_fields[name]!r} "
                f"per-line={perline_fields[name]!r}"
            )
        if probe is not None:
            # The walkers defer counters; every window must still read what
            # the reference had counted when the window closed.
            assert len(probe.windows) >= 3
            assert probe.windows == perline_probe.windows
            assert probe.phases == perline_probe.phases
            assert probe.pipe_occupancy == perline_probe.pipe_occupancy
            assert probe.summary() == perline_probe.summary()

    def test_probed_run_matches_walkers(self):
        # A probe rides the walkers too; results must not move.
        config = baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)
        fast = simulate_with_path(tiny_workload(), config, batched=True)
        simulator = Simulator(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2))
        simulator.system.attach_telemetry(Telemetry())
        probed = simulator.run(tiny_workload())
        assert fast == probed

    def test_both_paths_satisfy_invariants(self):
        config = baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)
        for batched in (True, False):
            result = simulate_with_path(tiny_workload(), config, batched=batched)
            assert check_result(result, config=config) == []

    def test_perline_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_PERLINE", "1")
        assert Simulator(monolithic_gpu(n_sms=32)).engine.batched is False
        monkeypatch.setenv("REPRO_SIM_PERLINE", "0")
        assert Simulator(monolithic_gpu(n_sms=32)).engine.batched is True
        monkeypatch.delenv("REPRO_SIM_PERLINE")
        assert Simulator(monolithic_gpu(n_sms=32)).engine.batched is True


def reference_loads(config, probe=None):
    """``MemorySystem.load`` calls made by one production run of ``config``."""
    simulator = Simulator(config, telemetry=probe)
    simulator.engine.batched = True
    memsys = simulator.system.memsys
    calls = []
    reference_load = memsys.load

    def load(now, sm, line):
        calls.append(line)
        return reference_load(now, sm, line)

    memsys.load = load
    simulator.run(tiny_workload())
    return len(calls)


def walkers_for(config):
    system = build_system(config)
    system.reset()
    return system.memsys.make_walkers()


class TestEnginePathDispatch:
    @pytest.mark.parametrize(
        "topology, n_gpms",
        [("ring", 8), ("mesh", 8), ("torus", 8), ("hierarchical", 8),
         ("fully_connected", 4)],
        ids=["ring", "mesh", "torus", "hierarchical", "fully_connected"],
    )
    def test_routed_fabrics_take_walkers(self, topology, n_gpms):
        config = on_fabric(topology, n_gpms)
        walkers = walkers_for(config)
        assert walkers is not None
        # One walker per SM, indexed by sm_id, each a plain callable.
        assert len(walkers) == config.total_sms
        for walk in walkers:
            assert callable(walk)
            assert not isinstance(walk, tuple)
        assert reference_loads(config) == 0

    @pytest.mark.parametrize(
        "make_config, reason",
        [(migrating, "migrating placement")],
        ids=["migrating"],
    )
    def test_unsupported_machines_take_reference(self, make_config, reason):
        config = make_config()
        assert walkers_for(config) is None
        system = build_system(config)
        system.reset()
        with pytest.raises(walkgen.UnsupportedWalk, match=reason):
            walkgen.build_walkers(system.memsys)
        # A rejected build leaves no half-registered counter folds behind.
        assert system.memsys.make_walkers() is None
        assert system.memsys._walker_flushes == []
        assert reference_loads(config) > 0

    def test_probed_ring_takes_walkers(self):
        config = baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)
        assert walkers_for(config) is not None
        assert reference_loads(config, probe=Telemetry()) == 0

    def test_rejected_build_falls_back_to_reference(self, monkeypatch):
        def reject(memsys):
            raise walkgen.UnsupportedWalk("rejected for the test")

        monkeypatch.setattr(walkgen, "build_walkers", reject)
        config = baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)
        assert walkers_for(config) is None
        assert reference_loads(config) > 0
        production = simulate_with_path(tiny_workload(), config, batched=True)
        monkeypatch.undo()
        perline = simulate_with_path(tiny_workload(), config, batched=False)
        assert asdict(production) == asdict(perline)


class TestWalkerCodeCache:
    def test_compiled_sources_stay_bounded(self):
        # Each link bandwidth is a distinct machine shape with its own
        # factory sources; more shapes than the bound must evict.
        bound = walkgen._compile.cache_info().maxsize
        for step in range(bound + 1):
            config = baseline_mcm_gpu(n_gpms=2, sms_per_gpm=1, link_bandwidth=1000.0 + step)
            system = build_system(config)
            system.reset()
            walkgen.build_walkers(system.memsys)
            assert walkgen._compile.cache_info().currsize <= bound
        assert walkgen._compile.cache_info().currsize == bound


#: The only names a walker closes over that each SM owns.
PER_SM_NAMES = {"l1_sets", "l1_stats", "c_l1h", "c_l1m", "c_l1wb", "c_l1byp", "c_l1wh"}


def closure_cells(fn):
    return dict(zip(fn.__code__.co_freevars, fn.__closure__))


class TestWalkerSharing:
    """SMs of one GPM share its bound names' cells; each keeps only its L1."""

    @pytest.mark.parametrize(
        "make_config",
        [lambda: baseline_mcm_gpu(n_gpms=4, sms_per_gpm=3), lambda: on_fabric("mesh", 8)],
        ids=["ring-4", "mesh-8"],
    )
    def test_gpm_names_bound_once_per_gpm(self, make_config):
        system = build_system(make_config())
        system.reset()
        walkers = system.memsys.make_walkers()
        per_gpm = []
        for gpm in system.memsys._gpms:
            cells = [closure_cells(walkers[sm.sm_id]) for sm in gpm.sms]
            first = cells[0]
            # Only ``flush`` reads ``l1_stats``.
            own = first.keys() & PER_SM_NAMES
            assert own == PER_SM_NAMES - {"l1_stats"}
            shared = first.keys() - own
            assert "_GC" in shared
            for other in cells[1:]:
                assert other.keys() == first.keys()
                for name in shared:
                    assert other[name] is first[name], name
                for name in own:
                    assert other[name] is not first[name], name
            per_gpm.append({name: first[name] for name in shared})
        for i, mine in enumerate(per_gpm):
            for theirs in per_gpm[i + 1:]:
                for name in mine.keys() & theirs.keys():
                    assert mine[name] is not theirs[name], name


class TestTraceMemo:
    def test_iterative_kernels_materialize_once(self):
        workload = tiny_workload("memo-w", "streaming", iterations=3)
        config = monolithic_gpu(n_sms=32)
        simulator = Simulator(config)
        simulator.run(workload)
        memo = workload._trace_memo
        n_ctas = workload.spec.n_ctas
        iterations = 3
        # Streaming is not kernel-variant: all three launches share the
        # seed-0 materialization, one per CTA.  On both paths the engine
        # touches each CTA's trace only at its launch, so the first
        # kernel's launches are the materializations and later kernels'
        # launches are the reuses.
        assert memo.materializations == n_ctas
        assert memo.reuses == (iterations - 1) * n_ctas

    def test_reuse_across_runs_and_configs(self):
        workload = tiny_workload("memo-x", "streaming", iterations=2)
        Simulator(monolithic_gpu(n_sms=32)).run(workload)
        after_first = workload._trace_memo.materializations
        Simulator(monolithic_gpu(n_sms=32)).run(workload)
        Simulator(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)).run(workload)
        assert workload._trace_memo.materializations == after_first

    def test_kernel_variant_pattern_materializes_per_kernel(self):
        workload = tiny_workload("memo-v", "irregular", iterations=2)
        Simulator(monolithic_gpu(n_sms=32)).run(workload)
        # Irregular re-rolls its stream per kernel: distinct trace seeds.
        assert workload._trace_memo.materializations == 2 * workload.spec.n_ctas

    def test_memoized_results_identical_to_fresh(self):
        config = monolithic_gpu(n_sms=32)
        warm = tiny_workload("memo-id")
        first = Simulator(config).run(warm)
        second = Simulator(config).run(warm)  # memo-served traces
        cold = Simulator(config).run(tiny_workload("memo-id"))
        assert first == second == cold


class TestStoreAccounting:
    def test_every_store_is_write_hit_or_bypass(self):
        config = baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)
        result = Simulator(config).run(tiny_workload())
        assert result.stores > 0
        assert result.l1.write_hits + result.l1.bypasses == result.stores
        # Regression: probe-miss stores used to touch no counter at all.
        assert result.l1.bypasses > 0
        assert result.l1.accesses == result.loads + result.l1.write_hits

    def test_touch_store_counters(self):
        cache = SetAssocCache(size_bytes=4 * 128, ways=4, name="t")
        assert cache.touch_store(7) is False
        assert cache.stats.bypasses == 1
        assert cache.stats.misses == 0  # a store probe-miss is not a lookup miss
        cache.access(7)
        assert cache.touch_store(7) is True
        assert cache.stats.hits == 1
        assert cache.stats.write_hits == 1

    def test_touch_store_refreshes_lru(self):
        cache = SetAssocCache(size_bytes=2 * 128, ways=2, name="t")  # 1 set
        cache.access(0)
        cache.access(1)
        cache.touch_store(0)  # line 0 becomes MRU
        cache.access(2)  # evicts LRU = line 1
        assert resident(cache, 0)
        assert not resident(cache, 1)

    def test_disabled_cache_store_is_bypass(self):
        cache = SetAssocCache(size_bytes=0, name="off")
        assert cache.touch_store(3) is False
        assert cache.stats.bypasses == 1
        assert cache.stats.accesses == 0


class TestLoadOnlyRates:
    def test_load_hit_rate_excludes_write_touches(self):
        stats = CacheStats(hits=10, misses=6, write_hits=4)
        assert stats.hit_rate == pytest.approx(10 / 16)
        window = WindowSample(
            start=0.0, end=1.0, records=0, loads=12, stores=4, remote_loads=0,
            remote_stores=0, l1_hits=10, l1_misses=6, l15_hits=10, l15_misses=6,
            l2_hits=0, l2_misses=0, local_requests=0, remote_requests=0,
            issue_busy_cycles=0.0, dram_bytes=0, link_bytes=0, n_sms=1,
            l1_write_hits=4, l15_write_hits=4,
        )
        assert window.l1_hit_rate == pytest.approx(6 / 12)
        assert window.l15_hit_rate == pytest.approx(6 / 12)

    def test_simulated_l15_rate_is_load_only(self):
        # Pin the reported quantity: the L1.5 hit rate used for Figure 6/7
        # analysis must not be inflated by store touch-hits.
        config = mcm_gpu_with_l15(8, remote_only=False, n_gpms=4, sms_per_gpm=2)
        simulator = Simulator(config, telemetry=Telemetry(window_cycles=1e12))
        result = simulator.run(tiny_workload("rate-w", "hotset"))
        (window,) = simulator.system.telemetry.windows
        stats = result.l15
        assert stats.write_hits > 0
        assert window.l15_write_hits == stats.write_hits
        load_hits = stats.hits - stats.write_hits
        assert window.l15_hit_rate == pytest.approx(load_hits / (load_hits + stats.misses))

    def test_telemetry_window_rates_are_load_only(self):
        simulator = Simulator(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2))
        probe = Telemetry(window_cycles=256.0)
        simulator.system.attach_telemetry(probe)
        result = simulator.run(tiny_workload())
        # Window hit fields stay totals (they must sum to the result's
        # counters) while the derived rates subtract the write share.
        assert sum(w.l1_hits for w in probe.windows) == result.l1.hits
        assert sum(w.l1_write_hits for w in probe.windows) == result.l1.write_hits
        load_hits = result.l1.hits - result.l1.write_hits
        assert probe.summary()["l1_hit_rate"] == pytest.approx(
            load_hits / (load_hits + result.l1.misses)
        )

    def test_merge_carries_write_split(self):
        merged = CacheStats(hits=2, write_hits=1, bypasses=3).merge(
            CacheStats(hits=4, write_hits=2, bypasses=1, write_misses=5)
        )
        assert merged.write_hits == 3
        assert merged.write_misses == 5
        assert merged.bypasses == 4
