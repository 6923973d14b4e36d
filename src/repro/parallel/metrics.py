"""Throughput accounting for suite runs.

A tiny process-local aggregator: the suite runners record how many
(workload, config) pairs each batch covered, how many came from the
cache, how many shared a pair with an earlier position of the same batch,
and how much simulation time each configuration consumed; the
experiment scripts render one summary line per experiment from it.
Reset it between experiments to scope the report.
"""

from __future__ import annotations

from typing import Dict, List

#: How many profiled runs the report ranks, and so all a window keeps.
HOTTEST_RUNS = 5


def _heat(summary: Dict[str, object]) -> float:
    """Sort key: hottest (highest peak pipe occupancy) first."""
    return -float(summary.get("peak_pipe_occupancy", 0.0))


class SuiteMetrics:
    """Accumulates batch/throughput counters for one reporting window."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Clear all counters (start a new reporting window)."""
        self.total_pairs = 0
        self.cached_pairs = 0
        self.deduplicated_pairs = 0
        self.wall_seconds = 0.0
        self.workers = 1
        self.configs: List[str] = []
        self.sim_seconds_by_config: Dict[str, float] = {}
        self.sims_by_config: Dict[str, int] = {}
        #: Runs profiled in this window, and the ``HOTTEST_RUNS`` hottest
        #: of their summaries, hottest first (ties in arrival order).
        self.profiled_runs = 0
        self.telemetry_summaries: List[Dict[str, object]] = []

    # ------------------------------------------------------------------

    def record_batch(
        self,
        configs: List[str],
        total: int,
        cached: int,
        wall: float,
        workers: int,
        deduplicated: int = 0,
    ) -> None:
        """Record one batch of ``total`` output positions.

        ``cached`` of them were served from the result cache and
        ``deduplicated`` shared a pair with an earlier position (a repeated
        slot, or a job coalesced onto one in flight); the rest executed.
        """
        self.total_pairs += total
        self.cached_pairs += cached
        self.deduplicated_pairs += deduplicated
        self.wall_seconds += wall
        self.workers = max(self.workers, workers)
        for name in configs:
            if name not in self.configs:
                self.configs.append(name)

    def record_sim(self, config_name: str, sim_seconds: float) -> None:
        """Record one executed simulation's wall time for ``config_name``."""
        self.sim_seconds_by_config[config_name] = (
            self.sim_seconds_by_config.get(config_name, 0.0) + sim_seconds
        )
        self.sims_by_config[config_name] = self.sims_by_config.get(config_name, 0) + 1

    def record_telemetry(self, summary: Dict[str, object]) -> None:
        """Absorb one run's telemetry digest (see ``Telemetry.summary``).

        Worker processes produce these under ``REPRO_PROFILE=1`` and ship
        them back with the result (in-process pairs hand them over
        directly); the coordinator records them here so the
        end-of-experiment report can rank hot runs without holding full
        timelines in memory.  Only the hottest summaries are kept, so a
        long-lived window (a server) stays bounded.  The stable re-sort
        keeps exactly the entries, order and ties that ranking every
        summary ever recorded would give.
        """
        self.profiled_runs += 1
        hottest = self.telemetry_summaries
        hottest.append(dict(summary))
        hottest.sort(key=_heat)
        del hottest[HOTTEST_RUNS:]

    # ------------------------------------------------------------------

    @property
    def executed_pairs(self) -> int:
        """Pairs that actually simulated (total minus cache hits and duplicates)."""
        return self.total_pairs - self.cached_pairs - self.deduplicated_pairs

    @property
    def hit_rate(self) -> float:
        """Fraction of distinct pairs served from the cache."""
        distinct = self.total_pairs - self.deduplicated_pairs
        if distinct == 0:
            return 0.0
        return self.cached_pairs / distinct

    @property
    def sims_per_second(self) -> float:
        """Executed simulations per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.executed_pairs / self.wall_seconds

    def report(self, per_config: bool = True) -> str:
        """Human-readable summary of the current window."""
        if self.total_pairs == 0:
            return "no suite runs recorded"
        lines = [
            f"{self.total_pairs} sims in {self.wall_seconds:.1f}s wall "
            f"({self.executed_pairs} executed, {self.cached_pairs} cached, "
            f"{self.deduplicated_pairs} deduplicated, "
            f"hit rate {self.hit_rate:.0%}) — {self.sims_per_second:.1f} sims/s "
            f"on {self.workers} worker{'s' if self.workers != 1 else ''}"
        ]
        if per_config and self.sim_seconds_by_config:
            for name, seconds in sorted(
                self.sim_seconds_by_config.items(), key=lambda item: -item[1]
            ):
                count = self.sims_by_config.get(name, 0)
                lines.append(f"  {name}: {count} sims, {seconds:.1f}s sim time")
        if self.profiled_runs:
            lines.append(
                f"  profiled {self.profiled_runs} runs; "
                "hottest by peak pipe occupancy:"
            )
            for summary in self.telemetry_summaries:
                lines.append(
                    f"    {summary.get('workload', '?')} on "
                    f"{summary.get('system', '?')}: "
                    f"{summary.get('peak_pipe', '-') or '-'} at "
                    f"{float(summary.get('peak_pipe_occupancy', 0.0)):.0%}, "
                    f"quiesce tail "
                    f"{float(summary.get('quiesce_tail_cycles', 0.0)):,.0f} cyc"
                )
        return "\n".join(lines)


#: Process-wide aggregator the suite runners feed.
GLOBAL_METRICS = SuiteMetrics()
