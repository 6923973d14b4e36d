"""End-to-end and unit tests for the ``repro.serve`` job server."""

import asyncio
import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.presets import baseline_mcm_gpu
from repro.experiments.common import ResultCache, run_suites
from repro.serve import (
    JobStore,
    PairCrash,
    PairError,
    PairExecutor,
    PairTimeout,
    RemoteError,
    Scheduler,
    ServeApp,
    ServeClient,
    WireError,
    config_from_wire,
    pair_to_wire,
    start_server,
    workload_from_wire,
    workload_to_wire,
)
from repro.sim.simulator import Simulator
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


def tiny_config(**overrides):
    return baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2, **overrides)


class CrashingWorkload(Workload):
    """Kills its worker process mid-simulation (picklable, top-level)."""

    name = "crasher"

    def kernels(self):
        os._exit(13)

    def digest(self):
        return "crasher-v1"


class HangingWorkload(Workload):
    """Sleeps far past any test timeout (picklable, top-level)."""

    name = "hanger"

    def kernels(self):
        time.sleep(60)
        return iter(())

    def digest(self):
        return "hanger-v1"


class SleepingWorkload(Workload):
    """Healthy but slow: sleeps, then runs a tiny synthetic workload
    (picklable, top-level)."""

    name = "sleeper"

    def __init__(self, seconds):
        self.seconds = seconds

    def kernels(self):
        time.sleep(self.seconds)
        return tiny_workload(self.name).kernels()

    def digest(self):
        return "sleeper-v1"


class RaisingWorkload(Workload):
    """Raises a deterministic in-simulation exception."""

    name = "raiser"

    def kernels(self):
        raise ValueError("intentional test failure")

    def digest(self):
        return "raiser-v1"


# ----------------------------------------------------------------------
# wire formats
# ----------------------------------------------------------------------


class TestWire:
    def test_workload_round_trip_preserves_digest(self):
        workload = tiny_workload("wire-w1", pattern="hotset")
        revived = workload_from_wire(json.loads(json.dumps(workload_to_wire(workload))))
        assert revived.digest() == workload.digest()
        assert revived.name == workload.name

    def test_suite_reference_form(self):
        revived = workload_from_wire({"name": "Stream", "scale": 0.25})
        assert revived.name == "Stream"

    def test_config_round_trip_preserves_digest(self):
        config = tiny_config(link_bandwidth=384.0)
        revived = config_from_wire(json.loads(json.dumps(config.to_dict())))
        assert revived.digest() == config.digest()

    def test_non_synthetic_workload_rejected(self):
        with pytest.raises(WireError):
            workload_to_wire(CrashingWorkload())

    def test_malformed_payloads_rejected(self):
        with pytest.raises(WireError):
            workload_from_wire({"nonsense": 1})
        with pytest.raises(WireError):
            workload_from_wire({"name": "no-such-workload"})
        with pytest.raises(WireError):
            config_from_wire({"not": "a config"})


# ----------------------------------------------------------------------
# job store
# ----------------------------------------------------------------------


class TestJobStore:
    def test_lifecycle_and_events(self):
        store = JobStore()
        job = store.create("k1", "w", "c")
        assert job.state == "queued"
        assert store.active_for_key("k1") is job
        store.transition(job, "running")
        store.transition(job, "done")
        assert job.terminal
        assert store.active_for_key("k1") is None
        states = [event["state"] for event in store.events_since(0)]
        assert states == ["queued", "running", "done"]
        assert store.counts()["done"] == 1

    def test_cached_jobs_are_born_terminal(self):
        store = JobStore()
        job = store.create("k2", "w", "c", state="cached")
        assert job.terminal
        assert store.active_for_key("k2") is None
        assert job.finished_at is not None

    def test_event_replay_is_incremental(self):
        store = JobStore()
        job = store.create("k3", "w", "c")
        seq = store.last_seq
        store.transition(job, "failed", error={"kind": "exception", "error": "x"})
        fresh = store.events_since(seq)
        assert len(fresh) == 1
        assert fresh[0]["state"] == "failed"
        assert fresh[0]["error"]["kind"] == "exception"


# ----------------------------------------------------------------------
# pair executor (real subprocesses)
# ----------------------------------------------------------------------


class TestPairExecutor:
    def test_runs_a_pair(self):
        workload = tiny_workload("exec-w1")
        config = tiny_config()

        async def go():
            executor = PairExecutor(max_workers=1)
            try:
                return await executor.run(workload.spec, config)
            finally:
                await executor.close()

        result, sim_seconds, _ = asyncio.run(go())
        expected = Simulator(config).run(workload)
        assert result.to_dict() == expected.to_dict()
        assert sim_seconds >= 0.0

    def test_worker_crash_is_bounded(self):
        config = tiny_config()

        async def go():
            executor = PairExecutor(max_workers=1, crash_retries=1)
            try:
                with pytest.raises(PairCrash):
                    await executor.run(CrashingWorkload(), config)
            finally:
                await executor.close(wait=False)

        asyncio.run(go())

    def test_timeout_kills_the_worker(self):
        config = tiny_config()

        async def go():
            executor = PairExecutor(max_workers=1, timeout=1.0)
            try:
                start = time.monotonic()
                with pytest.raises(PairTimeout):
                    await executor.run(HangingWorkload(), config)
                assert time.monotonic() - start < 30.0
            finally:
                await executor.close(wait=False)

        asyncio.run(go())

    def test_crash_does_not_charge_a_co_running_neighbour(self):
        config = tiny_config()

        async def go():
            executor = PairExecutor(max_workers=2, crash_retries=0)
            try:
                both = asyncio.gather(
                    executor.run(CrashingWorkload(), config),
                    executor.run(SleepingWorkload(2.5), config),
                    return_exceptions=True,
                )
                return await asyncio.wait_for(both, 60)
            finally:
                await executor.close(wait=False)

        crashed, neighbour = asyncio.run(go())
        assert isinstance(crashed, PairCrash)
        assert not isinstance(neighbour, BaseException), neighbour
        expected = Simulator(config).run(SleepingWorkload(0.0))
        assert neighbour[0].to_dict() == expected.to_dict()

    def test_timeout_kill_restarts_a_co_running_neighbour_uncharged(self):
        config = tiny_config()

        async def go():
            executor = PairExecutor(max_workers=2, timeout=1.0, crash_retries=0)
            try:
                hung = asyncio.ensure_future(executor.run(HangingWorkload(), config))
                # The neighbour starts 0.6 s in and needs at least 0.5 s,
                # so it is still running when the hung pair is killed at
                # 1 s; rerun from scratch it fits well inside the limit.
                await asyncio.sleep(0.6)
                neighbour = asyncio.ensure_future(
                    executor.run(SleepingWorkload(0.5), config)
                )
                both = asyncio.gather(hung, neighbour, return_exceptions=True)
                return await asyncio.wait_for(both, 60)
            finally:
                await executor.close(wait=False)

        hung, neighbour = asyncio.run(go())
        assert isinstance(hung, PairTimeout)
        assert not isinstance(neighbour, PairCrash), neighbour
        assert not isinstance(neighbour, BaseException), neighbour
        expected = Simulator(config).run(SleepingWorkload(0.0))
        assert neighbour[0].to_dict() == expected.to_dict()

    def test_queued_job_done_before_the_loop_wakes_still_starts(self):
        # Width one: the second job is dispatched from the pool's thread.
        # The loop is blocked until both pairs are done, so that job's start
        # and its result reach the loop in one batch.
        config = tiny_config()
        events = []

        async def job(executor, name):
            await executor.run(
                tiny_workload(name).spec, config, on_start=lambda: events.append(("start", name))
            )
            events.append(("done", name))

        async def go():
            executor = PairExecutor(max_workers=1)
            pool = executor.pool
            try:
                both = asyncio.gather(job(executor, "relay-w1"), job(executor, "relay-w2"))
                await asyncio.sleep(0)  # both submitted; the first one runs
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    with pool._lock:
                        if not (pool._queue or pool._running):
                            break
                    time.sleep(0.01)
                await asyncio.wait_for(both, 60)
            finally:
                await executor.close()

        asyncio.run(go())
        assert events == [
            ("start", "relay-w1"), ("done", "relay-w1"),
            ("start", "relay-w2"), ("done", "relay-w2"),
        ]

    def test_simulation_exception_is_not_retried(self):
        config = tiny_config()

        async def go():
            executor = PairExecutor(max_workers=1)
            try:
                with pytest.raises(PairError) as info:
                    await executor.run(RaisingWorkload(), config)
                assert info.value.kind == "exception"
                assert "intentional test failure" in str(info.value)
            finally:
                await executor.close()

        asyncio.run(go())


# ----------------------------------------------------------------------
# scheduler (fake executor: deterministic coalescing)
# ----------------------------------------------------------------------


class GateExecutor:
    """In-loop fake executor that blocks until released."""

    max_workers = 2

    def __init__(self):
        self.calls = 0
        self.gate = asyncio.Event()

    async def run(self, payload, config, on_start=None):
        self.calls += 1
        await self.gate.wait()
        if on_start is not None:
            on_start()
        workload = SyntheticWorkload(payload) if isinstance(payload, WorkloadSpec) else payload
        start = time.time()
        result = Simulator(config).run(workload)
        return result, time.time() - start, None

    async def close(self, wait=True):
        pass


class ExplodingExecutor:
    """In-loop fake executor that always fails with a given kind."""

    max_workers = 1

    def __init__(self, exc_type=PairError, message="boom"):
        self.exc_type = exc_type
        self.message = message

    async def run(self, payload, config, on_start=None):
        raise self.exc_type(self.message)

    async def close(self, wait=True):
        pass


class TestScheduler:
    def test_identical_submissions_coalesce_to_one_run(self):
        workload = tiny_workload("sched-w1")
        config = tiny_config()

        async def go():
            executor = GateExecutor()
            scheduler = Scheduler(cache=None, executor=executor)
            first, how_first = scheduler.submit_classified(workload, config)
            second, how_second = scheduler.submit_classified(workload, config)
            assert how_first == "queued"
            assert how_second == "coalesced"
            assert second is first
            assert first.clients == 2
            executor.gate.set()
            await scheduler.drain()
            assert first.state == "done"
            assert executor.calls == 1

        asyncio.run(go())

    def test_batch_duplicates_share_one_job(self):
        workload = tiny_workload("sched-w2")
        config = tiny_config()

        async def go():
            executor = GateExecutor()
            executor.gate.set()
            scheduler = Scheduler(cache=None, executor=executor)
            batch = scheduler.submit_batch([(workload, config)] * 3)
            wire = batch.to_wire()
            assert wire["queued"] == 1
            assert wire["coalesced"] == 2
            await scheduler.drain()
            assert executor.calls == 1
            status = scheduler.batch_status(batch)
            assert status["done"] is True
            assert status["states"] == {"done": 3}

        asyncio.run(go())

    def test_cache_hits_become_cached_jobs(self, tmp_path):
        workload = tiny_workload("sched-w3")
        config = tiny_config()
        cache = ResultCache(tmp_path / "cache")
        cache.put(Simulator(config).run(workload))

        async def go():
            scheduler = Scheduler(cache=cache, executor=ExplodingExecutor())
            job, how = scheduler.submit_classified(workload, config)
            assert how == "cached"
            assert job.state == "cached"
            assert job.result is not None
            assert scheduler.cache_served == 1
            await scheduler.drain()

        asyncio.run(go())

    def test_failure_kind_lands_in_error_payload(self):
        workload = tiny_workload("sched-w4")
        config = tiny_config()

        async def go():
            scheduler = Scheduler(
                cache=None, executor=ExplodingExecutor(PairTimeout, "too slow")
            )
            job = scheduler.submit(workload, config)
            await scheduler.drain()
            assert job.state == "failed"
            assert job.error == {"kind": "timeout", "error": "too slow"}

        asyncio.run(go())

    def test_queue_wait_covers_the_wait_for_a_pool_slot(self):
        config = tiny_config()

        async def go():
            scheduler = Scheduler(cache=None, max_workers=1)
            first, _ = scheduler.submit_classified(tiny_workload("slot-w1"), config)
            second, _ = scheduler.submit_classified(tiny_workload("slot-w2"), config)
            await asyncio.sleep(0)
            # The one slot is taken: the second job is still queued.
            assert first.state == "running"
            assert second.state == "queued"
            assert second.started_at is None
            await scheduler.drain()
            return first, second

        first, second = asyncio.run(go())
        assert first.state == second.state == "done"
        first_run = first.finished_at - first.started_at
        assert first_run > 0.0
        assert second.started_at - second.submitted_at >= first_run
        assert second.started_at >= first.finished_at

    def test_draining_rejects_submissions(self):
        workload = tiny_workload("sched-w5")
        config = tiny_config()

        async def go():
            from repro.serve import DrainingError

            scheduler = Scheduler(cache=None, executor=GateExecutor())
            await scheduler.drain()
            with pytest.raises(DrainingError):
                scheduler.submit(workload, config)

        asyncio.run(go())


# ----------------------------------------------------------------------
# HTTP server end-to-end
# ----------------------------------------------------------------------


def _start_server_thread(tmp_path, executor=None, max_workers=2):
    """Run a ServeApp in a daemon thread; returns a handle namespace."""
    handoff = queue.Queue()

    def run():
        async def main():
            cache = ResultCache(tmp_path / "cache")
            scheduler = Scheduler(
                cache=cache, max_workers=max_workers, executor=executor
            )
            app = ServeApp(scheduler, store_path=tmp_path / "store.json")
            server = await start_server(app, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            handoff.put((port, scheduler, app))
            await app.done.wait()
            server.close()
            await server.wait_closed()

        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    port, scheduler, app = handoff.get(timeout=30)
    client = ServeClient(f"http://127.0.0.1:{port}", timeout=120.0)
    return SimpleNamespace(
        client=client, scheduler=scheduler, app=app, thread=thread, tmp=tmp_path
    )


@pytest.fixture()
def server(tmp_path):
    handle = _start_server_thread(tmp_path)
    yield handle
    try:
        handle.client.drain(grace=10.0)
    except RemoteError:
        pass
    handle.thread.join(timeout=30)


class TestServerEndToEnd:
    def test_submit_matches_local_simulation(self, server):
        workload = tiny_workload("e2e-w1")
        config = tiny_config()
        view = server.client.submit(workload, config)
        assert view["how"] == "queued"
        view = server.client.wait_job(view["id"], timeout=120)
        assert view["state"] == "done"
        expected = Simulator(config).run(workload)
        assert view["result"] == expected.to_dict()

    def test_resubmission_is_fully_cache_served(self, server):
        pairs = [
            (tiny_workload("e2e-w2"), tiny_config()),
            (tiny_workload("e2e-w3", pattern="hotset"), tiny_config()),
        ]
        first = server.client.run_pairs(pairs, timeout=120)
        assert all(row["how"] == "queued" for row in first)
        executed = server.scheduler.sims_executed
        second = server.client.run_pairs(pairs, timeout=120)
        assert all(row["how"] == "cached" for row in second)
        assert server.scheduler.sims_executed == executed
        for cold, warm in zip(first, second):
            assert cold["result"].to_dict() == warm["result"].to_dict()

    def test_concurrent_identical_submissions_run_once(self, server):
        workload = tiny_workload("e2e-w4", n_ctas=24)
        config = tiny_config()
        outcomes = []

        def submit_and_wait():
            view = server.client.submit(workload, config)
            outcomes.append(server.client.wait_job(view["id"], timeout=120))

        threads = [threading.Thread(target=submit_and_wait) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(outcomes) == 2
        assert {view["state"] for view in outcomes} <= {"done", "cached"}
        assert outcomes[0]["result"] == outcomes[1]["result"]
        assert server.scheduler.metrics.sims_by_config.get(config.name, 0) == 1

    def test_batch_duplicate_pairs_coalesce_over_http(self, server):
        workload = tiny_workload("e2e-w5")
        config = tiny_config()
        batch = server.client.submit_pairs([(workload, config)] * 2)
        assert batch["queued"] == 1
        assert batch["coalesced"] == 1
        outcome = server.client.wait_batch(batch["id"], timeout=120)
        assert [row["state"] for row in outcome["jobs"]] == ["done", "done"]
        assert outcome["jobs"][0]["id"] == outcome["jobs"][1]["id"]

    def test_cache_refresh_endpoint_sees_external_writes(self, server):
        workload = tiny_workload("e2e-w6")
        config = tiny_config()
        # Another process (here: another ResultCache instance with its own
        # shard) writes a result into the server's cache directory.
        foreign = ResultCache(server.tmp / "cache", shard="foreign")
        foreign.put(Simulator(config).run(workload))
        refreshed = server.client.refresh()
        assert refreshed["new_entries"] >= 1
        view = server.client.submit(workload, config)
        assert view["how"] == "cached"
        stats = server.client.cache_stats()
        assert stats["entries"] >= 1

    def test_events_stream_replays_transitions(self, server):
        workload = tiny_workload("e2e-w7")
        config = tiny_config()
        view = server.client.submit(workload, config)
        server.client.wait_job(view["id"], timeout=120)
        seen = []
        for event in server.client.events(since=0):
            seen.append(event)
            if event["job"] == view["id"] and event["state"] == "done":
                break
        states = [event["state"] for event in seen if event["job"] == view["id"]]
        assert states == ["queued", "running", "done"]

    def test_malformed_submission_is_a_client_error(self, server):
        with pytest.raises(RemoteError) as info:
            server.client._request("POST", "/jobs", {"workload": {"nonsense": 1}})
        assert "HTTP 400" in str(info.value)

    def test_unknown_routes_are_404(self, server):
        with pytest.raises(RemoteError) as info:
            server.client._request("GET", "/no/such/route")
        assert "HTTP 404" in str(info.value)


class TestServerFailurePaths:
    def test_executor_failure_reported_as_failed_job(self, tmp_path):
        handle = _start_server_thread(
            tmp_path, executor=ExplodingExecutor(PairCrash, "worker died")
        )
        try:
            view = handle.client.submit(tiny_workload("fail-w1"), tiny_config())
            view = handle.client.wait_job(view["id"], timeout=30)
            assert view["state"] == "failed"
            assert view["error"] == {"kind": "crash", "error": "worker died"}
            with pytest.raises(RemoteError) as info:
                handle.client.run_pairs([(tiny_workload("fail-w2"), tiny_config())])
            assert "crash" in str(info.value)
        finally:
            handle.client.drain(grace=5.0)
            handle.thread.join(timeout=30)

    def test_real_timeout_over_http(self, tmp_path):
        handle = _start_server_thread(tmp_path, max_workers=1)
        handle.scheduler.executor.timeout = 1.0
        try:
            view = handle.client._request(
                "POST",
                "/jobs",
                {
                    "workload": workload_to_wire(
                        tiny_workload("fail-w3", n_ctas=4)
                    ),
                    "config": tiny_config().to_dict(),
                },
            )
            view = handle.client.wait_job(view["id"], timeout=60)
            # Tiny pairs finish well inside a second, so this normally
            # completes; the point is the limit plumbing doesn't break
            # the happy path.  (The genuinely-hung path is covered by
            # TestPairExecutor.test_timeout_kills_the_worker.)
            assert view["state"] in ("done", "failed")
        finally:
            handle.client.drain(grace=10.0)
            handle.thread.join(timeout=30)


class TestDrain:
    def test_drain_writes_store_and_stops_intake(self, tmp_path):
        handle = _start_server_thread(tmp_path)
        workload = tiny_workload("drain-w1")
        config = tiny_config()
        view = handle.client.submit(workload, config)
        handle.client.wait_job(view["id"], timeout=120)
        summary = handle.client.drain(grace=10.0)
        assert summary["drained"] is True
        store_path = tmp_path / "store.json"
        assert store_path.is_file()
        snapshot = json.loads(store_path.read_text())
        assert snapshot["counts"]["done"] == 1
        with pytest.raises(RemoteError):
            handle.client.submit(workload, config)
        handle.thread.join(timeout=30)
        assert not handle.thread.is_alive()

    def test_drain_with_an_open_event_stream_prints_no_traceback(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.Popen(
            [
                sys.executable, str(root / "scripts" / "serve.py"),
                "--port", "0", "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            port = int(banner.strip().rsplit(":", 1)[1])
            client = ServeClient(f"http://127.0.0.1:{port}")
            with socket.create_connection(("127.0.0.1", port), timeout=30) as stream:
                stream.sendall(b"GET /events HTTP/1.1\r\nHost: test\r\n\r\n")
                assert stream.recv(64).startswith(b"HTTP/1.1 200")
                # The stream is now parked waiting for its next event.
                assert client.drain(grace=5.0)["drained"] is True
                # The drain ends the stream: the server closes it.
                while stream.recv(4096):
                    pass
                _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "Traceback" not in err
        assert "CancelledError" not in err


# ----------------------------------------------------------------------
# remote explore runner
# ----------------------------------------------------------------------


class TestRemoteRunner:
    def test_matches_local_run_suites_and_accounts_metrics(self, server):
        from repro.explore.remote import remote_runner

        configs = [tiny_config(), tiny_config(link_bandwidth=384.0)]
        workloads = [
            tiny_workload("rr-w1"),
            tiny_workload("rr-w2", pattern="hotset"),
        ]
        runner = remote_runner(server.client, timeout=120.0)
        remote = runner(configs, workloads)
        local = run_suites(configs, workloads=workloads, cache=None, max_workers=1)
        assert [
            {name: result.to_dict() for name, result in per_config.items()}
            for per_config in remote
        ] == [
            {name: result.to_dict() for name, result in per_config.items()}
            for per_config in local
        ]
        sink = runner.metrics
        assert sink.total_pairs == 4
        assert sink.cached_pairs == 0
        assert sum(sink.sims_by_config.values()) == 4
        warm = runner(configs, workloads)
        assert [
            {name: result.to_dict() for name, result in per_config.items()}
            for per_config in warm
        ] == [
            {name: result.to_dict() for name, result in per_config.items()}
            for per_config in local
        ]
        assert sink.total_pairs == 8
        assert sink.cached_pairs == 4
