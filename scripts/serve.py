#!/usr/bin/env python
"""Run the ``repro.serve`` simulation job server.

Usage:
    python scripts/serve.py                                # defaults
    python scripts/serve.py --port 0 --workers 4           # ephemeral port
    python scripts/serve.py --cache-dir .cache --store store.json \\
        --timeout 120 --grace 30

Binds the asyncio HTTP/JSON API (see ``src/repro/serve/``) on
``--host:--port`` (``--port 0`` picks an ephemeral port; the actual
address is printed either way), backed by the shard-file result cache in
``--cache-dir`` (default: the repo's standard cache location, honoring
``REPRO_CACHE_DIR``) and a process pool of ``--workers`` simulators
(default: ``REPRO_WORKERS`` or the core count).

SIGTERM or SIGINT triggers a graceful drain: intake stops (new
submissions get HTTP 503), in-flight jobs get ``--grace`` seconds to
finish, stragglers are cancelled, and — with ``--store`` — the full job
store is written as a JSON artifact before the process exits.
"""

import argparse
import asyncio
import signal
import sys
from pathlib import Path


def main() -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="Serve simulations over HTTP.")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8731, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="simulation worker processes (default: REPRO_WORKERS or cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-cache directory (default: standard cache location)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="write the job-store snapshot here on drain",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock limit (default: unlimited)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="worker deaths charged to one job before it fails; co-running "
        "casualties are not charged (default: 2)",
    )
    parser.add_argument(
        "--grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="drain grace period for in-flight jobs (default: 30)",
    )
    parser.add_argument(
        "--refresh",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="minimum seconds between cache shard refreshes (default: 2)",
    )
    opts = parser.parse_args()

    from repro.experiments.common import ResultCache
    from repro.serve import Scheduler, ServeApp, start_server

    async def run() -> int:
        cache = ResultCache(opts.cache_dir)
        scheduler = Scheduler(
            cache=cache,
            max_workers=opts.workers,
            timeout=opts.timeout,
            crash_retries=opts.retries,
            refresh_seconds=opts.refresh,
        )
        app = ServeApp(
            scheduler, store_path=Path(opts.store) if opts.store else None
        )
        server = await start_server(app, opts.host, opts.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"repro.serve listening on http://{host}:{port}", flush=True)
        print(
            f"[{scheduler.executor.max_workers} workers, "
            f"cache at {cache.directory}]",
            flush=True,
        )

        loop = asyncio.get_running_loop()

        def request_drain() -> None:
            loop.create_task(app.drain(opts.grace))

        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, request_drain)

        await app.done.wait()
        server.close()
        await server.wait_closed()
        counts = scheduler.store.counts()
        print(
            f"[drained: {counts['done']} done, {counts['cached']} cached, "
            f"{counts['failed']} failed; {scheduler.sims_executed} simulated, "
            f"{scheduler.cache_served} cache-served, "
            f"{scheduler.coalesced} coalesced]",
            flush=True,
        )
        return 0

    return asyncio.run(run())


if __name__ == "__main__":
    sys.exit(main())
