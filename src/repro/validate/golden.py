"""Golden-metrics regression store: bless a snapshot, diff future runs.

Invariants and properties catch *inconsistent* models; they cannot catch a
quiet 3% cycles shift from an innocent-looking refactor.  This layer
freezes the full counter set of a small (workload, system) matrix into a
JSON snapshot (``golden/metrics.json`` at the repo root by default) and
diffs fresh runs against it.

Entries are keyed ``workload@@system`` by *name*, not by digest: a
:data:`~repro.core.config.MODEL_REV` bump changes every digest by design,
and the whole point of the store is to report what changed across such a
bump rather than silently starting over.  The digests and model rev are
kept as metadata, so the drift report flags identity changes ("this key's
workload digest moved") separately from metric drift.

Workflow::

    python scripts/validate.py golden --bless   # freeze current behaviour
    python scripts/validate.py golden           # diff against the snapshot

The drift report lists every per-metric change with absolute and relative
deltas, plus keys added/removed, and appends the run's suite-throughput
telemetry so a perf regression shows up alongside the metric drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import format_table
from ..core.config import MODEL_REV, SystemConfig
from ..core.presets import baseline_mcm_gpu, monolithic_gpu, multi_gpu, optimized_mcm_gpu
from ..experiments.common import run_suites
from ..parallel.metrics import GLOBAL_METRICS
from ..sim.result import SimResult
from ..workloads.suite import ml_workloads, suite_workloads
from ..workloads.trace import Workload
from .invariants import check_result

#: Relative drift below which a metric difference is reported but not
#: counted as drift (golden runs are deterministic, so any nonzero delta
#: is real; the tolerance exists for float-valued cycles only).
REL_TOLERANCE = 1e-9

#: Workloads pinned into the golden matrix: one per behavioural regime
#: (streaming, irregular, hot-set compute, limited parallelism).
GOLDEN_WORKLOADS = ("Stream", "BFS", "XSBench", "DWT")

#: ML-era workloads pinned alongside them: one per new pattern family
#: (GEMM tiling, attention gather, ring allreduce, Zipfian embedding,
#: bursty MoE dispatch).
GOLDEN_ML_WORKLOADS = (
    "GEMM-Fwd",
    "Attn-Decode",
    "AllReduce-Ring",
    "DLRM-Embed",
    "MoE-Gate",
)


def default_store_path() -> Path:
    """``golden/metrics.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "golden" / "metrics.json"


def golden_configs() -> List[SystemConfig]:
    """The six systems pinned into the golden matrix.

    The four machine classes of the paper (ring fabrics), plus two
    scale-out points (8-GPM mesh and torus).  No fully-connected or
    hierarchical machine is in the matrix: those fabrics are pinned by
    the benchmark's seed-0 fingerprints (``mcm-fc-4``, ``mcm-hier-8``)
    and ``tests/test_perf_identity.py``.
    """
    return [
        baseline_mcm_gpu(),
        optimized_mcm_gpu(),
        monolithic_gpu(256),
        multi_gpu(optimized=False),
        replace(baseline_mcm_gpu(n_gpms=8, name="mcm-mesh-8"), topology="mesh"),
        replace(baseline_mcm_gpu(n_gpms=8, name="mcm-torus-8"), topology="torus"),
    ]


def golden_workloads() -> List[Workload]:
    """Full-scale golden workloads (paper suite subset + ML families)."""
    wanted = set(GOLDEN_WORKLOADS)
    picked = [workload for workload in suite_workloads() if workload.name in wanted]
    ml_wanted = set(GOLDEN_ML_WORKLOADS)
    picked.extend(w for w in ml_workloads() if w.name in ml_wanted)
    return picked


def metrics_of(result: SimResult) -> Dict[str, float]:
    """The counter set frozen per (workload, system) pair."""
    return {
        "cycles": result.cycles,
        "loads": result.loads,
        "stores": result.stores,
        "remote_loads": result.remote_loads,
        "remote_stores": result.remote_stores,
        "link_bytes": result.link_bytes,
        "dram_bytes_read": result.dram_bytes_read,
        "dram_bytes_written": result.dram_bytes_written,
        "page_local": result.page_local,
        "page_remote": result.page_remote,
        "migration_bytes": result.migration_bytes,
        "l1_hits": result.l1.hits,
        "l1_misses": result.l1.misses,
        "l15_hits": result.l15.hits,
        "l15_misses": result.l15.misses,
        "l2_hits": result.l2.hits,
        "l2_misses": result.l2.misses,
        "l2_writebacks": result.l2.writebacks,
    }


def _snapshot_entry(result: SimResult) -> Dict[str, object]:
    return {
        "metrics": metrics_of(result),
        "workload_digest": result.workload_digest,
        "system_digest": result.system_digest,
    }


@dataclass(frozen=True)
class MetricDrift:
    """One metric that moved between the snapshot and the fresh run."""

    key: str
    metric: str
    golden: float
    current: float

    @property
    def abs_delta(self) -> float:
        return self.current - self.golden

    @property
    def rel_delta(self) -> float:
        if self.golden == 0:
            return float("inf") if self.current else 0.0
        return self.current / self.golden - 1.0


@dataclass
class DriftReport:
    """Everything that differs between the snapshot and a fresh run."""

    model_rev_golden: int
    model_rev_current: int = MODEL_REV
    drifts: List[MetricDrift] = field(default_factory=list)
    added_keys: List[str] = field(default_factory=list)
    removed_keys: List[str] = field(default_factory=list)
    digest_changes: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the fresh run reproduces the snapshot exactly."""
        return not (self.drifts or self.added_keys or self.removed_keys)

    def render(self, telemetry: bool = True) -> str:
        """Human-readable drift report (plus suite-throughput telemetry)."""
        lines: List[str] = []
        if self.model_rev_current != self.model_rev_golden:
            lines.append(
                f"model rev changed: snapshot r{self.model_rev_golden} "
                f"-> current r{self.model_rev_current}"
            )
        for note in self.digest_changes:
            lines.append(f"identity change: {note}")
        if self.removed_keys:
            lines.append(f"keys missing from this run: {', '.join(self.removed_keys)}")
        if self.added_keys:
            lines.append(f"keys not in the snapshot: {', '.join(self.added_keys)}")
        if self.drifts:
            rows = [
                [
                    drift.key,
                    drift.metric,
                    drift.golden,
                    drift.current,
                    f"{drift.rel_delta:+.3%}" if drift.golden else "new",
                ]
                for drift in self.drifts
            ]
            lines.append(
                format_table(
                    ["Pair", "Metric", "Golden", "Current", "Drift"],
                    rows,
                    title=f"{len(self.drifts)} drifting metric(s)",
                )
            )
        if not lines:
            lines.append("golden snapshot reproduced exactly")
        if telemetry and GLOBAL_METRICS.total_pairs:
            lines.append(GLOBAL_METRICS.report(per_config=False))
        return "\n".join(lines)


class GoldenStore:
    """JSON-backed snapshot of golden metrics, keyed ``workload@@system``."""

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = Path(path) if path is not None else default_store_path()

    @staticmethod
    def key(workload_name: str, system_name: str) -> str:
        return f"{workload_name}@@{system_name}"

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> Dict[str, object]:
        with open(self.path) as handle:
            return json.load(handle)

    def bless(self, results: Sequence[SimResult], note: Optional[str] = None) -> None:
        """Freeze ``results`` as the new snapshot (atomic replace).

        ``note`` is free-form provenance recorded alongside the snapshot —
        use it to say *why* a re-bless happened (e.g. "digest format
        refresh, zero metric drift") so a future diff against history has
        the context.
        """
        snapshot = {
            "model_rev": MODEL_REV,
            "entries": {
                self.key(r.workload_name, r.system_name): _snapshot_entry(r)
                for r in results
            },
        }
        if note:
            snapshot["note"] = note
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".json.tmp")
        with open(tmp, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        tmp.replace(self.path)

    def compare(self, results: Sequence[SimResult]) -> DriftReport:
        """Diff ``results`` against the snapshot."""
        snapshot = self.load()
        entries: Dict[str, Dict] = snapshot.get("entries", {})
        report = DriftReport(model_rev_golden=int(snapshot.get("model_rev", -1)))

        current: Dict[str, SimResult] = {
            self.key(r.workload_name, r.system_name): r for r in results
        }
        report.removed_keys = sorted(set(entries) - set(current))
        report.added_keys = sorted(set(current) - set(entries))
        for key in sorted(set(entries) & set(current)):
            golden_entry = entries[key]
            result = current[key]
            for name, side, fresh in (
                ("workload", golden_entry.get("workload_digest"), result.workload_digest),
                ("system", golden_entry.get("system_digest"), result.system_digest),
            ):
                if side != fresh:
                    report.digest_changes.append(f"{key}: {name} digest moved")
            golden_metrics: Dict[str, float] = golden_entry.get("metrics", {})
            fresh_metrics = metrics_of(result)
            for metric in sorted(set(golden_metrics) | set(fresh_metrics)):
                golden_value = float(golden_metrics.get(metric, 0.0))
                fresh_value = float(fresh_metrics.get(metric, 0.0))
                if golden_value == fresh_value:
                    continue
                scale = max(abs(golden_value), abs(fresh_value))
                if abs(fresh_value - golden_value) <= REL_TOLERANCE * scale:
                    continue
                report.drifts.append(
                    MetricDrift(key, metric, golden_value, fresh_value)
                )
        return report


def run_golden_matrix(
    configs: Optional[Sequence[SystemConfig]] = None,
    workloads: Optional[Sequence[Workload]] = None,
) -> List[SimResult]:
    """Simulate the golden matrix; every result is invariant-checked."""
    configs = list(configs) if configs is not None else golden_configs()
    workloads = list(workloads) if workloads is not None else golden_workloads()
    per_config = run_suites(configs, workloads=workloads)
    results: List[SimResult] = []
    for config, suite in zip(configs, per_config):
        for result in suite.values():
            violations = check_result(result, config=config)
            if violations:
                raise AssertionError(
                    f"invariant violation in golden matrix "
                    f"({result.workload_name} on {config.name}): {violations[0]}"
                )
            results.append(result)
    return results


def bless(
    store: Optional[GoldenStore] = None, note: Optional[str] = None
) -> Tuple[int, Path]:
    """Run the matrix and freeze it; returns ``(n_entries, store path)``."""
    store = store or GoldenStore()
    results = run_golden_matrix()
    store.bless(results, note=note)
    return len(results), store.path


def compare(store: Optional[GoldenStore] = None) -> DriftReport:
    """Run the matrix and diff it against the snapshot."""
    store = store or GoldenStore()
    if not store.exists():
        raise FileNotFoundError(
            f"no golden snapshot at {store.path}; run with --bless first"
        )
    return store.compare(run_golden_matrix())
