"""Tests for the parallel suite runner and the concurrent-safe cache."""

import json
import multiprocessing
import os

import pytest

from repro.core.presets import baseline_mcm_gpu
from repro.experiments.common import ResultCache, run_suites
from repro.memory.cache import CacheStats
from repro.parallel import runner
from repro.parallel.metrics import SuiteMetrics
from repro.parallel.runner import resolve_workers, run_suite_parallel
from repro.sim.result import SimResult
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec
from repro.workloads.trace import Workload


def tiny_workload(name, pattern="streaming", n_ctas=16):
    return SyntheticWorkload(
        WorkloadSpec(
            name=name,
            category=Category.M_INTENSIVE,
            pattern=pattern,
            n_ctas=n_ctas,
            groups_per_cta=2,
            records_per_group=2,
            accesses_per_record=2,
            kernel_iterations=1,
            footprint_bytes=256 * 1024,
        )
    )


class SimulatorCountProbe(Workload):
    """Fails with the size of its worker's simulator table in the message."""

    name = "simulator-count"

    def kernels(self):
        raise RuntimeError(f"simulators={len(runner._WORKER_SIMULATORS)}")

    def digest(self):
        return "simulator-count-v1"


def tiny_workloads():
    return [
        tiny_workload("p-w1"),
        tiny_workload("p-w2", pattern="hotset"),
        tiny_workload("p-w3", n_ctas=24),
        tiny_workload("p-w4", pattern="stencil"),
    ]


def tiny_configs():
    return [
        baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2),
        baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2, link_bandwidth=384.0),
    ]


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_clamps_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers() == 1
        assert resolve_workers(-4) == 1

    def test_malformed_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS.*'lots'"):
            resolve_workers()

    def test_default_is_core_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == (os.cpu_count() or 1)


class TestParallelMatchesSerial:
    def test_bit_identical_on_cold_cache(self):
        workloads = tiny_workloads()
        configs = tiny_configs()
        serial = run_suite_parallel([(c, workloads) for c in configs], max_workers=1, cache=None)
        parallel = run_suite_parallel(
            [(c, workloads) for c in configs], max_workers=4, cache=None
        )
        assert len(parallel) == len(serial)
        for serial_map, parallel_map in zip(serial, parallel):
            assert list(serial_map) == list(parallel_map)  # same iteration order
            for name in serial_map:
                assert serial_map[name].to_dict() == parallel_map[name].to_dict()

    def test_single_config_shape(self):
        [results] = run_suite_parallel(
            [(tiny_configs()[0], tiny_workloads())], max_workers=2, cache=None
        )
        assert set(results) == {"p-w1", "p-w2", "p-w3", "p-w4"}

    def test_duplicate_configs_simulated_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = tiny_configs()[0]
        workloads = tiny_workloads()
        first, second = run_suite_parallel(
            [(config, workloads)] * 2, max_workers=2, cache=cache
        )
        for name in first:
            assert first[name].to_dict() == second[name].to_dict()
        # The pair is deduplicated before dispatch: one cache entry per
        # workload, not per output slot.
        assert len(ResultCache(tmp_path)) == len(workloads)

    def test_progress_callback(self):
        seen = []
        run_suite_parallel(
            [(tiny_configs()[0], tiny_workloads())],
            max_workers=2,
            cache=None,
            progress=lambda done, total, result: seen.append((done, total)),
        )
        assert len(seen) == 4
        assert seen[-1] == (4, 4)
        assert [done for done, _ in seen] == [1, 2, 3, 4]

    def test_warm_cache_fills_duplicate_slots(self, tmp_path):
        # Regression: a cached pair serving several output slots must fan
        # out to slots registered *after* the cache hit during the scan.
        config = tiny_configs()[0]
        workloads = tiny_workloads()
        cold = run_suite_parallel(
            [(config, workloads)] * 2, max_workers=2,
            cache=ResultCache(tmp_path),
        )
        warm = run_suite_parallel(
            [(config, workloads)] * 2, max_workers=2,
            cache=ResultCache(tmp_path),
        )
        names = {workload.name for workload in workloads}
        for results in (*cold, *warm):
            assert set(results) == names
        for cold_map, warm_map in zip(cold, warm):
            for name in names:
                assert cold_map[name].to_dict() == warm_map[name].to_dict()

    def test_serial_progress_counts_only_simulated(self, tmp_path):
        # total == pairs actually simulated, so done reaches total on a
        # partly warm cache, at one worker as at several.
        config = tiny_configs()[0]
        workloads = tiny_workloads()
        run_suites([config], workloads[:2], ResultCache(tmp_path), max_workers=1)
        seen = []
        run_suites(
            [config], workloads, ResultCache(tmp_path), max_workers=1,
            progress=lambda done, total, result: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_serial_warm_cache_preserves_workload_order(self, tmp_path):
        config = tiny_configs()[0]
        workloads = tiny_workloads()
        run_suites([config], workloads[2:], ResultCache(tmp_path), max_workers=1)
        [results] = run_suites([config], workloads, ResultCache(tmp_path), max_workers=1)
        assert list(results) == [workload.name for workload in workloads]


class TestParallelCache:
    def test_workers_persist_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_suite_parallel(
            [(c, tiny_workloads()) for c in tiny_configs()], max_workers=3, cache=cache
        )
        shards = list(tmp_path.glob("results-w*.jsonl"))
        assert shards, "workers should write per-process shard files"
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 8  # 4 workloads x 2 configs, no lost entries

    def test_warm_cache_skips_dispatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_suite_parallel(
            [(c, tiny_workloads()) for c in tiny_configs()], max_workers=3, cache=cache
        )
        warm_cache = ResultCache(tmp_path)
        warm = run_suite_parallel(
            [(c, tiny_workloads()) for c in tiny_configs()], max_workers=3, cache=warm_cache
        )
        assert warm_cache.hits == 8
        assert warm_cache.misses == 0
        for cold_map, warm_map in zip(cold, warm):
            for name in cold_map:
                assert cold_map[name].to_dict() == warm_map[name].to_dict()


def _stub_result(tag, index):
    return SimResult(
        workload_name=f"wl-{tag}-{index}",
        system_name="stub",
        cycles=float(index + 1),
        kernels=1,
        ctas=1,
        records=1,
        loads=1,
        stores=0,
        remote_loads=0,
        remote_stores=0,
        l1=CacheStats(),
        l15=CacheStats(),
        l2=CacheStats(),
        dram_bytes_read=0,
        dram_bytes_written=0,
        link_bytes=0,
        page_local=0,
        page_remote=0,
        workload_digest=f"wl-{tag}-{index}",
        system_digest="sys",
    )


def _hammer_cache(directory, tag, count):
    cache = ResultCache(directory)
    for index in range(count):
        cache.put(_stub_result(tag, index))


class TestConcurrentWriters:
    def test_no_lost_entries_across_processes(self, tmp_path):
        processes = [
            multiprocessing.Process(target=_hammer_cache, args=(tmp_path, tag, 25))
            for tag in ("a", "b", "c", "d")
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
            assert process.exitcode == 0
        # Every line parses and every entry survives.
        with open(tmp_path / "results.jsonl") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 100
        for line in lines:
            json.loads(line)
        assert len(ResultCache(tmp_path)) == 100

    def test_shard_writers_share_namespace(self, tmp_path):
        for shard in ("s1", "s2"):
            cache = ResultCache(tmp_path, shard=shard)
            cache.put(_stub_result(shard, 0))
            assert cache.path.name == f"results-{shard}.jsonl"
        merged = ResultCache(tmp_path)
        assert len(merged) == 2

    def test_duplicate_entries_tolerated(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_stub_result("dup", 0))
        cache.put(_stub_result("dup", 0))
        assert len(ResultCache(tmp_path)) == 1


class TestSerialFallback:
    def test_repro_workers_1_uses_serial_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "1")

        def boom(*args, **kwargs):
            raise AssertionError("no process pool may be built at 1 worker")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", boom)
        results = run_suites(
            tiny_configs()[:1], workloads=tiny_workloads()[:2], cache=None
        )
        assert set(results[0]) == {"p-w1", "p-w2"}

    def test_run_suites_parallel_when_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        results = run_suites(tiny_configs()[:1], workloads=tiny_workloads()[:2], cache=None)
        assert set(results[0]) == {"p-w1", "p-w2"}


class TestBatchAccounting:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_duplicate_configs_count_per_slot(self, tmp_path, monkeypatch, workers):
        # Regression: with duplicated configs the runner calls cache.get
        # once per unique pair; batch accounting must still count every
        # output slot once, as cached, deduplicated or executed
        # (executed == sims run).
        from repro.parallel import metrics as metrics_mod

        fresh = SuiteMetrics()
        monkeypatch.setattr(metrics_mod, "GLOBAL_METRICS", fresh)
        monkeypatch.setenv("REPRO_WORKERS", workers)
        config = tiny_configs()[0]
        workloads = tiny_workloads()
        run_suites([config, config], workloads=workloads, cache=ResultCache(tmp_path))
        assert fresh.total_pairs == 8
        assert fresh.cached_pairs == 0  # a cold cache serves nothing
        assert fresh.deduplicated_pairs == 4  # the duplicated slots
        assert fresh.executed_pairs == 4  # sims actually run
        assert fresh.hit_rate == 0.0

        run_suites([config, config], workloads=workloads, cache=ResultCache(tmp_path))
        assert fresh.total_pairs == 16
        assert fresh.cached_pairs == 4  # warm run: each distinct pair once
        assert fresh.deduplicated_pairs == 8
        assert fresh.executed_pairs == 4
        assert fresh.hit_rate == pytest.approx(0.5)

    def test_cold_shared_pair_reports_no_cache_hit(self, tmp_path):
        # Two output slots that share one pair, on an empty cache: one
        # simulation, one deduplicated position, nothing cached.
        metrics = SuiteMetrics()
        config = tiny_configs()[0]
        workload = tiny_workloads()[0]
        run_suite_parallel(
            [(config, [workload]), (config, [workload])],
            cache=ResultCache(tmp_path),
            max_workers=1,
            metrics=metrics,
        )
        assert metrics.total_pairs == 2
        assert metrics.cached_pairs == 0
        assert metrics.deduplicated_pairs == 1
        assert metrics.executed_pairs == 1
        assert "(1 executed, 0 cached, 1 deduplicated, hit rate 0%)" in metrics.report()


class TestMetrics:
    def test_counters_and_report(self):
        metrics = SuiteMetrics()
        metrics.record_batch(configs=["a", "b"], total=96, cached=48, wall=4.0, workers=4)
        metrics.record_sim("a", 1.5)
        metrics.record_sim("a", 0.5)
        metrics.record_sim("b", 1.0)
        assert metrics.executed_pairs == 48
        assert metrics.hit_rate == pytest.approx(0.5)
        assert metrics.sims_per_second == pytest.approx(12.0)
        text = metrics.report()
        assert "96 sims" in text
        assert "hit rate 50%" in text
        assert "a: 2 sims" in text

    def test_empty_report(self):
        assert "no suite runs" in SuiteMetrics().report()

    def test_telemetry_summaries_are_bounded(self):
        def unbounded_profile_lines(summaries):
            # The report's profile section as computed over every summary.
            lines = [
                f"  profiled {len(summaries)} runs; hottest by peak pipe occupancy:"
            ]
            ranked = sorted(
                summaries, key=lambda s: -float(s.get("peak_pipe_occupancy", 0.0))
            )
            for summary in ranked[:5]:
                lines.append(
                    f"    {summary.get('workload', '?')} on "
                    f"{summary.get('system', '?')}: "
                    f"{summary.get('peak_pipe', '-') or '-'} at "
                    f"{float(summary.get('peak_pipe_occupancy', 0.0)):.0%}, "
                    f"quiesce tail "
                    f"{float(summary.get('quiesce_tail_cycles', 0.0)):,.0f} cyc"
                )
            return lines

        # Few distinct occupancies, so the top five is full of ties that
        # only arrival order breaks.
        summaries = [
            {
                "workload": f"w{i}",
                "system": "s",
                "peak_pipe": "ring0",
                "peak_pipe_occupancy": (i * 37 % 11) / 10,
                "quiesce_tail_cycles": float(i),
            }
            for i in range(1000)
        ]
        metrics = SuiteMetrics()
        metrics.record_batch(configs=["s"], total=1000, cached=0, wall=1.0, workers=1)
        expected = metrics.report().split("\n") + unbounded_profile_lines(summaries)
        for summary in summaries:
            metrics.record_telemetry(summary)
        assert metrics.profiled_runs == 1000
        assert len(metrics.telemetry_summaries) <= 5
        assert metrics.report() == "\n".join(expected)

    def test_reset(self):
        metrics = SuiteMetrics()
        metrics.record_batch(configs=["a"], total=1, cached=0, wall=1.0, workers=1)
        metrics.reset()
        assert metrics.total_pairs == 0


class TestPairFailures:
    """Structured failure reporting for crashed/hung/raising pairs."""

    def _crasher(self):
        from tests.test_serve import CrashingWorkload

        return CrashingWorkload()

    def _hanger(self):
        from tests.test_serve import HangingWorkload

        return HangingWorkload()

    def _raiser(self):
        from tests.test_serve import RaisingWorkload

        return RaisingWorkload()

    def test_worker_crash_becomes_pair_failure(self):
        from repro.parallel import PairFailure

        config = tiny_configs()[0]
        failures = []
        results = run_suite_parallel(
            [(config, [self._crasher(), tiny_workload("pf-ok")])],
            max_workers=2,
            cache=None,
            crash_retries=1,
            failures=failures,
        )
        assert len(failures) == 1
        failure = failures[0]
        assert isinstance(failure, PairFailure)
        assert failure.kind == "crash"
        assert failure.workload_name == "crasher"
        # The healthy pair still completes despite the pool rebuilds.
        assert "pf-ok" in results[0]
        assert "crasher" not in results[0]

    def test_hung_pair_times_out(self):
        config = tiny_configs()[0]
        failures = []
        results = run_suite_parallel(
            [(config, [self._hanger()])],
            max_workers=2,
            cache=None,
            timeout=1.0,
            failures=failures,
        )
        assert [failure.kind for failure in failures] == ["timeout"]
        assert results[0] == {}

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_simulation_exception_is_reported_not_retried(self, max_workers):
        config = tiny_configs()[0]
        failures = []
        results = run_suite_parallel(
            [(config, [self._raiser(), tiny_workload("pf-ok2")])],
            max_workers=max_workers,
            cache=None,
            failures=failures,
        )
        assert [failure.kind for failure in failures] == ["exception"]
        assert "intentional test failure" in failures[0].error
        assert "pf-ok2" in results[0]

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_without_sink_the_batch_raises(self, max_workers):
        from repro.parallel import SuiteRunError

        config = tiny_configs()[0]
        with pytest.raises(SuiteRunError) as info:
            run_suite_parallel(
                [(config, [self._raiser()])],
                max_workers=max_workers,
                cache=None,
            )
        assert info.value.failures[0].kind == "exception"
        # The original exception (and its traceback) is chained.
        cause = info.value.__cause__
        assert isinstance(cause, ValueError)
        assert str(cause) == "intentional test failure"


class TestPairPool:
    def test_concurrent_submitters_all_resolve(self):
        # Four threads submit while the dispatcher refills slots, with a
        # short switch interval to shake out unguarded pool state.
        import sys
        import threading

        from repro.parallel import PairPool

        config = tiny_configs()[0]
        specs = [tiny_workload(f"pp-{i}", n_ctas=4).spec for i in range(12)]
        submitted = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PairPool(3) as pool:

                def feed(chunk):
                    for spec in chunk:
                        submitted.append((spec, pool.submit(spec, config)))

                threads = [threading.Thread(target=feed, args=(specs[i::4],)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                names = {spec.name: future.result(timeout=120)[0].workload_name
                         for spec, future in submitted}
        finally:
            sys.setswitchinterval(interval)
        assert names == {spec.name: spec.name for spec in specs}


    def test_a_pool_that_cannot_start_fails_the_pair_as_a_crash(self, monkeypatch):
        from repro.parallel import PairCrash, PairPool

        def no_pool(*args, **kwargs):
            raise OSError("cannot start workers")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        with PairPool(2, crash_retries=1) as pool:
            future = pool.submit(tiny_workload("pp-nopool", n_ctas=4).spec, tiny_configs()[0])
            with pytest.raises(PairCrash, match="2 attempts"):
                future.result(timeout=30)

    def test_a_failing_dispatcher_fails_every_pair_and_closes(self, monkeypatch):
        from repro.parallel import PairError, PairPool

        def broken(self, done):
            if self._running:
                raise RuntimeError("dispatcher bug")

        monkeypatch.setattr(PairPool, "_collect", broken)
        config = tiny_configs()[0]
        pool = PairPool(1)
        try:
            with pool._lock:  # queue both before the dispatcher thread runs
                futures = [pool.submit(tiny_workload(f"pp-bug-{i}", n_ctas=4).spec, config)
                           for i in range(2)]
            for future in futures:
                with pytest.raises(PairError) as info:
                    future.result(timeout=30)
                assert str(info.value.__cause__) == "dispatcher bug"
            with pytest.raises(RuntimeError, match="closed"):
                pool.submit(tiny_workload("pp-late", n_ctas=4).spec, config)
        finally:
            pool.close()

    def test_a_worker_keeps_at_most_32_simulators(self):
        from repro.parallel import PairError, PairPool

        configs = [
            baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2, link_bandwidth=64.0 + 8 * i)
            for i in range(40)
        ]
        spec = tiny_workload("pp-lru", n_ctas=4).spec
        with PairPool(1) as pool:
            for config in configs:
                pool.submit(spec, config).result(timeout=120)
            probe = pool.submit(SimulatorCountProbe(), configs[-1])
            with pytest.raises(PairError, match="simulators=32"):
                probe.result(timeout=120)


class TestCacheRefresh:
    """Cross-process shard refresh for long-running cache holders."""

    def test_refresh_picks_up_foreign_appends(self, tmp_path):
        config = tiny_configs()[0]
        workload = tiny_workload("cr-w1")
        mine = ResultCache(tmp_path)
        assert mine.refresh() == 0  # cold, empty directory
        other = ResultCache(tmp_path, shard="other")
        [results] = run_suites([config], [workload], None, max_workers=1)
        other.put(results[workload.name])
        assert mine.refresh() == 1
        assert (
            mine.get(workload.digest(), config.digest()).to_dict()
            == results[workload.name].to_dict()
        )
        assert mine.refresh() == 0  # nothing new: stat-skip path

    def test_refresh_tolerates_torn_lines(self, tmp_path):
        config = tiny_configs()[0]
        workload = tiny_workload("cr-w2")
        mine = ResultCache(tmp_path)
        mine.refresh()
        shard = tmp_path / "results-torn.jsonl"
        from repro.experiments.common import RESULT_SCHEMA

        [results] = run_suites([config], [workload], None, max_workers=1)
        result = results[workload.name]
        line = json.dumps(
            {
                "key": f"{workload.digest()}##{config.digest()}",
                "schema": RESULT_SCHEMA,
                "result": result.to_dict(),
            }
        )
        shard.write_text(line[: len(line) // 2])  # torn mid-append
        assert mine.refresh() == 0
        shard.write_text(line + "\n")  # append completed
        assert mine.refresh() == 1
