"""Sweep report assembly and ``explore/<sweep-name>/`` artifacts.

A finished sweep produces three files:

* ``report.json`` — the deterministic record: spec, ranked candidates
  (with serialized configurations), halving structure, Pareto frontier,
  sensitivity and crossover results.  Bit-identical across re-runs with
  the same seed — runtime quantities (wall seconds, cache hit counts)
  are deliberately excluded.
* ``report.txt`` — the same content rendered as aligned tables, equally
  deterministic.
* ``run.json`` — this run's cost accounting: per-rung simulated/cached
  pair counts, wall and sim seconds, and the result-cache census.  Warm
  re-runs differ here (that is the point: the CI smoke job asserts the
  second invocation simulated nothing).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.report import format_table
from ..core.config import SystemConfig
from ..experiments.common import ResultCache
from ..parallel.metrics import GLOBAL_METRICS
from .pareto import DEFAULT_OBJECTIVES, Objective
from .search import HalvingResult, ScoredCandidate
from .sensitivity import AxisSensitivity, CrossoverResult
from .spec import SweepSpec


@dataclass(frozen=True)
class ExtraTable:
    """One sweep-specific supplementary table (e.g. analytical collapse points).

    Extras are deterministic by contract — they are serialized into
    ``report.json`` and must be bit-identical across re-runs, so they may
    only derive from the spec, the analytical models, and the (already
    deterministic) ranked candidates.
    """

    title: str
    headers: List[str]
    rows: List[List[object]]

    def to_dict(self) -> Dict[str, object]:
        """JSON form for sweep artifacts."""
        return {
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
        }


@dataclass
class SweepReport:
    """Everything one sweep produced, ready for rendering and serialization."""

    spec: SweepSpec
    baseline: SystemConfig
    halving: HalvingResult
    frontier: List[ScoredCandidate]
    objectives: Tuple[Objective, ...] = DEFAULT_OBJECTIVES
    sensitivity: List[AxisSensitivity] = field(default_factory=list)
    crossover: Optional[CrossoverResult] = None
    #: Sweep-specific supplementary tables, keyed by a stable slug.
    extras: Dict[str, ExtraTable] = field(default_factory=dict)

    def deterministic_dict(self) -> Dict[str, object]:
        """The run-independent record serialized into ``report.json``."""
        data: Dict[str, object] = {
            "sweep": self.spec.to_dict(),
            "baseline": self.baseline.to_dict(),
            "objectives": [objective.to_dict() for objective in self.objectives],
            "ranking": [item.to_dict() for item in self.halving.ranking],
            "survivors": list(self.halving.survivors),
            "rungs": [rung.deterministic_dict() for rung in self.halving.rungs],
            "pareto_frontier": [item.to_dict() for item in self.frontier],
            "sensitivity": [axis.to_dict() for axis in self.sensitivity],
            "crossover": None if self.crossover is None else self.crossover.to_dict(),
        }
        if self.extras:
            data["extras"] = {
                key: table.to_dict() for key, table in sorted(self.extras.items())
            }
        return data

    def runtime_dict(self, cache: Optional[ResultCache] = None) -> Dict[str, object]:
        """This run's cost accounting, serialized into ``run.json``."""
        data: Dict[str, object] = {
            "rungs": [rung.runtime_dict() for rung in self.halving.rungs],
            "total_pairs": GLOBAL_METRICS.total_pairs,
            "cached_pairs": GLOBAL_METRICS.cached_pairs,
            "deduplicated_pairs": GLOBAL_METRICS.deduplicated_pairs,
            "executed_pairs": GLOBAL_METRICS.executed_pairs,
            "hit_rate": GLOBAL_METRICS.hit_rate,
            "wall_seconds": GLOBAL_METRICS.wall_seconds,
            "workers": GLOBAL_METRICS.workers,
        }
        if cache is not None:
            stats = cache.stats()
            data["cache"] = {
                "entries": stats.entries,
                "bytes_on_disk": stats.bytes_on_disk,
                "stale_entries": stats.stale_entries,
            }
        return data


def _fmt_obj(value: float) -> str:
    """Compact objective formatting (energy spans orders of magnitude)."""
    if value == 0:
        return "0"
    if abs(value) >= 1e4 or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:.4g}"


def render_text(report: SweepReport) -> str:
    """Render the deterministic report as aligned monospace tables."""
    objective_keys = [objective.key for objective in report.objectives]
    frontier_names = {item.candidate.name for item in report.frontier}
    screened = any(item.source != "sim" for item in report.halving.ranking)
    ranking_rows = [
        [
            item.candidate.name,
            f"{item.score:.4f}",
            item.rung,
            "*" if item.candidate.name in frontier_names else "",
        ]
        + (["a" if item.source == "analytical" else ""] if screened else [])
        + [_fmt_obj(item.objectives[key]) for key in objective_keys]
        for item in report.halving.ranking
    ]
    sections = [
        format_table(
            ["Candidate", "Score", "Rung", "Pareto"]
            + (["Src"] if screened else [])
            + objective_keys,
            ranking_rows,
            title=f"Sweep {report.spec.name!r}: ranking "
            f"(geomean speedup over {report.baseline.name})"
            + (" — 'a' = analytical screen, never simulated" if screened else ""),
        )
    ]

    frontier_rows = [
        [item.candidate.name] + [_fmt_obj(item.objectives[key]) for key in objective_keys]
        for item in report.frontier
    ]
    directions = ", ".join(
        f"{objective.key} {'max' if objective.maximize else 'min'}"
        for objective in report.objectives
    )
    sections.append(
        format_table(
            ["Candidate"] + objective_keys,
            frontier_rows,
            title=f"Pareto frontier ({directions})",
        )
    )

    halving_rows = [
        [rung.rung, rung.label, rung.candidates, rung.promoted, rung.pairs]
        for rung in report.halving.rungs
    ]
    sections.append(
        format_table(
            ["Rung", "Workloads", "Candidates", "Promoted", "Pairs"],
            halving_rows,
            title="Successive halving",
        )
    )

    for rung in report.halving.rungs:
        if rung.screen is None:
            continue
        info = rung.screen
        unscreened = int(info.get("pairs_unscreened", 0))
        reduction = (
            f"{unscreened / rung.pairs:.1f}x" if rung.pairs else "all pairs skipped"
        )
        sections.append(
            f"Analytical screen (rung {rung.rung}, band +/-{float(info['band']):.3f} "
            f"log-score): {info['definite_in']} promoted and "
            f"{info['screened_out']} eliminated without simulation, "
            f"{info['ambiguous']} ambiguous simulated; "
            f"{rung.pairs} of {unscreened} exact pairs ({reduction} reduction)"
        )

    if report.sensitivity:
        sens_rows = [
            [
                axis.label,
                axis.path,
                f"{axis.swing:.4f}",
                " ".join(f"{value}:{score:.3f}" for value, score in axis.points),
            ]
            for axis in report.sensitivity
        ]
        sections.append(
            format_table(
                ["Axis", "Path", "Swing", "Score by value"],
                sens_rows,
                title="One-at-a-time sensitivity (vs base config)",
            )
        )

    if report.crossover is not None:
        cross = report.crossover
        if cross.bracketed:
            verdict = (
                f"crossover at {cross.axis} ~= {cross.estimate:g} "
                f"(+/- {cross.tolerance:g})"
            )
        else:
            adv_lo, adv_hi = cross.endpoint_advantages
            endpoints = (
                f"advantage {adv_lo:+.4f} at {cross.lo:g}, "
                f"{adv_hi:+.4f} at {cross.hi:g}"
            )
            if cross.status == "always_ahead":
                verdict = (
                    f"no crossover in [{cross.lo:g}, {cross.hi:g}] — candidate "
                    f"already ahead across the whole range ({endpoints}); "
                    f"true threshold lies at or below {cross.lo:g}"
                )
            elif cross.status == "never_ahead":
                verdict = (
                    f"no crossover in [{cross.lo:g}, {cross.hi:g}] — candidate "
                    f"never overtakes the reference in the probed range "
                    f"({endpoints})"
                )
            else:
                verdict = (
                    f"advantage decreases across [{cross.lo:g}, {cross.hi:g}] "
                    f"({endpoints}) — monotonicity assumption violated, "
                    f"no threshold reported"
                )
        samples = "  ".join(f"{x:g}:{adv:+.4f}" for x, adv in cross.samples)
        sections.append(
            f"Crossover ({cross.axis} in [{cross.lo:g}, {cross.hi:g}], "
            f"{cross.evaluations} evaluations)\n"
            f"  {verdict}\n"
            f"  probes (value:advantage): {samples}"
        )

    for _, table in sorted(report.extras.items()):
        sections.append(format_table(table.headers, table.rows, title=table.title))

    return "\n\n".join(sections) + "\n"


def write_artifacts(
    report: SweepReport,
    out_root: Path,
    cache: Optional[ResultCache] = None,
) -> Dict[str, Path]:
    """Write ``report.json``, ``report.txt`` and ``run.json``.

    Artifacts land under ``<out_root>/<sweep-name>/``; the sweep name is
    sanitized for filesystem use.  Returns the written paths keyed by
    artifact name.
    """
    directory = Path(out_root) / report.spec.name.replace("/", "_")
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "report.json": directory / "report.json",
        "report.txt": directory / "report.txt",
        "run.json": directory / "run.json",
    }
    paths["report.json"].write_text(
        json.dumps(report.deterministic_dict(), indent=2, sort_keys=True) + "\n"
    )
    paths["report.txt"].write_text(render_text(report))
    paths["run.json"].write_text(
        json.dumps(report.runtime_dict(cache), indent=2, sort_keys=True) + "\n"
    )
    return paths
