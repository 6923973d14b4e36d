"""Tests for the telemetry/profiling subsystem.

The two contracts under test:

1. **Bit-identity** — attaching (or not attaching) a probe never changes a
   ``SimResult``: cycles and every counter match exactly, on the suite
   runner in process (one worker) and on its pool, with profiling on or off.
2. **Usefulness** — an attached probe records a non-empty windowed
   timeline, per-kernel phases, and pipe occupancy, and the exporters emit
   schema-valid output.
"""

import json

import pytest

from repro.core.presets import baseline_mcm_gpu, optimized_mcm_gpu
from repro.experiments.common import run_suites
from repro.parallel.metrics import SuiteMetrics
from repro.parallel.runner import profiling_enabled, run_suite_parallel
from repro.sim.simulator import Simulator, simulate
from repro.telemetry import (
    Telemetry,
    chrome_trace_dict,
    text_report,
    timeline_dict,
    write_chrome_trace,
    write_json_timeline,
)
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec


def tiny_workload(name="t-w", pattern="streaming", write_fraction=0.2):
    return SyntheticWorkload(
        WorkloadSpec(
            name=name,
            category=Category.M_INTENSIVE,
            pattern=pattern,
            n_ctas=24,
            groups_per_cta=2,
            records_per_group=2,
            accesses_per_record=2,
            write_fraction=write_fraction,
            kernel_iterations=2,
            footprint_bytes=256 * 1024,
        )
    )


def tiny_config(**overrides):
    return baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2, **overrides)


class TestBitIdentity:
    def test_result_unchanged_by_attached_probe(self):
        config = tiny_config()
        workload = tiny_workload()
        bare = simulate(workload, config)
        probed = simulate(workload, config, telemetry=Telemetry())
        assert bare == probed
        assert bare.to_dict() == probed.to_dict()

    def test_result_unchanged_with_tiny_windows(self):
        # Many boundary crossings must still not perturb timing.
        config = tiny_config()
        workload = tiny_workload()
        bare = simulate(workload, config)
        probed = simulate(workload, config, telemetry=Telemetry(window_cycles=64.0))
        assert bare.to_dict() == probed.to_dict()

    def test_detached_system_has_dormant_boundary(self):
        simulator = Simulator(tiny_config())
        simulator.run(tiny_workload())
        assert simulator.system.telemetry is None
        assert simulator.engine._next_sample == float("inf")

    def test_serial_and_parallel_suite_paths_match_with_profiling(self, monkeypatch):
        config = tiny_config()
        workloads = [tiny_workload("t-w1"), tiny_workload("t-w2", pattern="hotset")]
        [plain] = run_suites([config], workloads, None, max_workers=1)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        [profiled_serial] = run_suites([config], workloads, None, max_workers=1)
        profiled_parallel = run_suite_parallel(
            [(config, workloads)], max_workers=2, cache=None
        )[0]
        for name in plain:
            assert plain[name].to_dict() == profiled_serial[name].to_dict()
            assert plain[name].to_dict() == profiled_parallel[name].to_dict()

    def test_probe_reuse_across_runs_keeps_results_independent(self):
        config = tiny_config()
        probe = Telemetry()
        simulator = Simulator(config, telemetry=probe)
        first = simulator.run(tiny_workload("t-a"))
        simulator.run(tiny_workload("t-b", pattern="hotset"))
        again = simulator.run(tiny_workload("t-a"))
        assert first.to_dict() == again.to_dict()
        assert probe.meta["workload"] == "t-a"  # probe holds the latest run


class TestRecording:
    def test_windowed_timeline_nonempty_for_suite_workload(self):
        probe = Telemetry(window_cycles=512.0)
        simulate("Stream", tiny_config(), telemetry=probe)
        assert len(probe.windows) > 1
        assert sum(window.records for window in probe.windows) > 0
        # Windows tile the run: contiguous, ending at the final makespan.
        for earlier, later in zip(probe.windows, probe.windows[1:]):
            assert later.start == earlier.end
        assert probe.windows[-1].end == pytest.approx(probe.meta["cycles"])

    def test_window_totals_match_end_of_run_counters(self):
        probe = Telemetry(window_cycles=256.0)
        result = simulate(tiny_workload(), tiny_config(), telemetry=probe)
        assert sum(w.records for w in probe.windows) == result.records
        assert sum(w.loads for w in probe.windows) == result.loads
        assert sum(w.stores for w in probe.windows) == result.stores
        assert sum(w.l1_hits for w in probe.windows) == result.l1.hits
        assert sum(w.l2_misses for w in probe.windows) == result.l2.misses
        assert sum(w.link_bytes for w in probe.windows) == result.link_bytes
        # Each window counts the records whose accesses it counts: two
        # accesses per record in ``tiny_workload``.
        for w in probe.windows:
            assert w.loads + w.stores == 2 * w.records

    def test_kernel_phases_recorded(self):
        probe = Telemetry()
        result = simulate(tiny_workload(), tiny_config(), telemetry=probe)
        assert len(probe.phases) == result.kernels
        assert [phase.index for phase in probe.phases] == list(range(result.kernels))
        assert sum(phase.ctas for phase in probe.phases) == result.ctas
        assert sum(phase.records for phase in probe.phases) == result.records
        for phase in probe.phases:
            assert phase.end_cycle >= phase.start_cycle
            assert phase.quiesce_end_cycle >= phase.end_cycle
            assert phase.quiesce_tail >= 0.0

    def test_pipe_occupancy_collected_from_bucket_maps(self):
        probe = Telemetry()
        simulate(tiny_workload(), tiny_config(), telemetry=probe)
        assert probe.pipe_occupancy  # DRAM pipes at minimum
        assert any("dram" in name for name in probe.pipe_occupancy)
        for data in probe.pipe_occupancy.values():
            for start, occupied in data["series"]:
                assert occupied > 0
                assert occupied <= data["window_capacity"] * (1 + 1e-9)

    def test_summary_is_picklable_and_complete(self):
        import pickle

        probe = Telemetry()
        simulate(tiny_workload(), tiny_config(), telemetry=probe)
        summary = pickle.loads(pickle.dumps(probe.summary()))
        assert summary["workload"] == "t-w"
        assert summary["cycles"] > 0
        assert summary["windows"] == len(probe.windows)
        assert 0.0 <= summary["peak_pipe_occupancy"] <= 1.0 + 1e-9
        assert 0.0 <= summary["issue_utilization"] <= 1.0

    def test_window_cycles_must_be_positive(self):
        with pytest.raises(ValueError, match="window_cycles"):
            Telemetry(window_cycles=0)


class TestExporters:
    def test_chrome_trace_is_schema_valid(self, tmp_path):
        probe = Telemetry(window_cycles=512.0)
        simulate("Stream", tiny_config(), telemetry=probe)
        path = tmp_path / "trace.json"
        write_chrome_trace(probe, path)
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        assert isinstance(events, list) and events
        for event in events:
            assert isinstance(event["name"], str) and event["name"]
            assert event["ph"] in ("M", "X", "C")
            assert isinstance(event["pid"], int)
            if event["ph"] != "M":
                assert isinstance(event["ts"], (int, float))
                assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] > 0
            if event["ph"] == "C":
                assert "value" in event["args"]
        phases = [e for e in events if e["ph"] == "X" and e["cat"] == "kernel"]
        assert len(phases) == len(probe.phases)

    def test_json_timeline_round_trips(self, tmp_path):
        probe = Telemetry()
        simulate(tiny_workload(), tiny_config(), telemetry=probe)
        path = tmp_path / "timeline.json"
        write_json_timeline(probe, path)
        data = json.loads(path.read_text())
        assert data["meta"]["workload"] == "t-w"
        assert len(data["windows"]) == len(probe.windows)
        assert len(data["kernel_phases"]) == len(probe.phases)
        assert set(data["pipe_occupancy"]) == set(probe.pipe_occupancy)

    def test_timeline_dict_matches_live_objects(self):
        probe = Telemetry()
        simulate(tiny_workload(), tiny_config(), telemetry=probe)
        data = timeline_dict(probe)
        assert data["summary"] == probe.summary()
        first = data["windows"][0]
        assert first["l2_hit_rate"] == probe.windows[0].l2_hit_rate

    def test_text_report_mentions_key_sections(self):
        probe = Telemetry()
        simulate(tiny_workload(), optimized_mcm_gpu(), telemetry=probe)
        report = text_report(probe)
        assert "telemetry: t-w on" in report
        assert "kernel phases" in report
        assert "peak pipe occupancy" in report


class TestProfilingIntegration:
    def test_profiling_env_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not profiling_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert not profiling_enabled()
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert profiling_enabled()

    def test_run_suites_ships_summaries_to_metrics(self, monkeypatch):
        from repro.parallel import metrics as metrics_mod

        fresh = SuiteMetrics()
        monkeypatch.setattr(metrics_mod, "GLOBAL_METRICS", fresh)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        monkeypatch.setenv("REPRO_WORKERS", "1")
        workloads = [tiny_workload("t-m1"), tiny_workload("t-m2", pattern="hotset")]
        run_suites([tiny_config()], workloads=workloads, cache=None)
        assert len(fresh.telemetry_summaries) == 2
        assert {s["workload"] for s in fresh.telemetry_summaries} == {"t-m1", "t-m2"}
        report = fresh.report()
        assert "profiled 2 runs" in report

    def test_parallel_workers_ship_summaries(self, monkeypatch):
        from repro.parallel import metrics as metrics_mod

        fresh = SuiteMetrics()
        monkeypatch.setattr(metrics_mod, "GLOBAL_METRICS", fresh)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        workloads = [tiny_workload("t-p1"), tiny_workload("t-p2", pattern="hotset")]
        run_suite_parallel([(tiny_config(), workloads)], max_workers=2, cache=None)
        assert len(fresh.telemetry_summaries) == 2
        for summary in fresh.telemetry_summaries:
            assert summary["cycles"] > 0

    def test_no_summaries_without_profile_flag(self, monkeypatch):
        from repro.parallel import metrics as metrics_mod

        fresh = SuiteMetrics()
        monkeypatch.setattr(metrics_mod, "GLOBAL_METRICS", fresh)
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.setenv("REPRO_WORKERS", "1")
        run_suites([tiny_config()], workloads=[tiny_workload("t-n1")], cache=None)
        assert fresh.telemetry_summaries == []
