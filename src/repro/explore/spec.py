"""Declarative sweep specifications over :class:`SystemConfig` space.

A :class:`SweepSpec` names the axes of a design-space search as dot-paths
into the nested configuration dataclasses (``link_bandwidth``,
``gpm.l15.size_bytes``, ``gpm.sm.max_resident_ctas``, ...) together with
the values each axis takes.  Candidates are materialized functionally via
:func:`dataclasses.replace` — the base configuration is never mutated —
and enumeration is fully deterministic: a grid expands in row-major axis
order, and the seeded random strategy draws a reproducible sample of the
same grid, so two enumerations of one spec are always identical (the
property result caching and re-runnable reports depend on).
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass, replace
from random import Random
from typing import Any, Dict, List, Sequence, Tuple

from ..core.config import SystemConfig

#: Enumeration strategies a spec may request.
STRATEGIES = ("grid", "random")


def config_replace(config: Any, path: str, value: Any) -> Any:
    """Functionally set one dot-path on a (frozen, nested) config dataclass.

    Rebuilds every dataclass along the path with :func:`dataclasses.replace`
    and returns the new root; the input is untouched.  Raises ``ValueError``
    for unknown fields and for paths that traverse a ``None`` intermediate
    (e.g. ``gpm.l15.size_bytes`` on a configuration without an L1.5 —
    sweeps that toggle the level must swap in a whole ``CacheConfig``).
    """
    head, _, rest = path.partition(".")
    if not is_dataclass(config):
        raise ValueError(f"cannot descend into non-dataclass value at {head!r}")
    if not hasattr(config, head):
        raise ValueError(f"no field {head!r} on {type(config).__name__}")
    if not rest:
        return replace(config, **{head: value})
    child = getattr(config, head)
    if child is None:
        raise ValueError(
            f"cannot set {path!r}: {head!r} is None on {type(config).__name__}"
        )
    return replace(config, **{head: config_replace(child, rest, value)})


def _format_value(value: Any) -> str:
    """Compact, deterministic rendering of an axis value for candidate names."""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class Axis:
    """One sweep dimension: a dot-path and the values it takes, in order."""

    path: str
    values: Tuple[Any, ...]
    #: Short name used in candidate names; defaults to the path's leaf.
    label: str = ""

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"axis {self.path!r} has no values")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ValueError(f"axis {self.path!r} has duplicate values")
        if not self.label:
            object.__setattr__(self, "label", self.path.rsplit(".", 1)[-1])

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for sweep artifacts."""
        return {"path": self.path, "label": self.label, "values": list(self.values)}


@dataclass(frozen=True)
class Candidate:
    """One materialized design point of a sweep."""

    name: str
    config: SystemConfig
    #: The axis assignment that produced this point, keyed by axis path.
    assignment: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for sweep artifacts."""
        return {
            "name": self.name,
            "assignment": dict(self.assignment),
            "config": self.config.to_dict(),
        }


@dataclass(frozen=True)
class SweepSpec:
    """A named design-space sweep: base configuration plus axes.

    ``strategy="grid"`` enumerates the full Cartesian product in
    deterministic row-major order (later axes vary fastest);
    ``strategy="random"`` draws ``samples`` distinct grid points using a
    ``random.Random(seed)`` stream, so the subset is reproducible and
    collision-free by construction.
    """

    name: str
    base: SystemConfig
    axes: Tuple[Axis, ...]
    strategy: str = "grid"
    samples: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if not self.axes:
            raise ValueError(f"sweep {self.name!r} has no axes")
        paths = [axis.path for axis in self.axes]
        if len(set(paths)) != len(paths):
            raise ValueError(f"sweep {self.name!r} repeats an axis path")
        if self.strategy == "random" and self.samples <= 0:
            raise ValueError("random strategy needs samples > 0")
        # Fail at spec-construction time, not mid-sweep: every axis path
        # must be materializable on the base configuration.
        for axis in self.axes:
            config_replace(self.base, axis.path, axis.values[0])

    @property
    def grid_size(self) -> int:
        """Number of points in the full Cartesian product."""
        size = 1
        for axis in self.axes:
            size *= len(axis.values)
        return size

    def _point(self, index: int) -> Candidate:
        """Materialize grid point ``index`` (row-major, later axes fastest)."""
        assignment: Dict[str, Any] = {}
        parts: List[str] = []
        remainder = index
        for axis in reversed(self.axes):
            remainder, offset = divmod(remainder, len(axis.values))
            assignment[axis.path] = axis.values[offset]
        config = self.base
        for axis in self.axes:
            value = assignment[axis.path]
            config = config_replace(config, axis.path, value)
            parts.append(f"{axis.label}={_format_value(value)}")
        name = f"{self.name}/" + ",".join(parts)
        config = replace(config, name=name)
        # Re-key the assignment into axis order for stable serialization.
        ordered = {axis.path: assignment[axis.path] for axis in self.axes}
        return Candidate(name=name, config=config, assignment=ordered)

    def candidates(self) -> List[Candidate]:
        """Deterministically enumerate this sweep's design points.

        Candidate names embed the axis assignment and are unique within
        the sweep, so two distinct candidates can never collide in the
        result cache (names feed configuration digests).
        """
        if self.strategy == "grid":
            indices: Sequence[int] = range(self.grid_size)
        else:
            rng = Random(self.seed)
            count = min(self.samples, self.grid_size)
            indices = sorted(rng.sample(range(self.grid_size), count))
        return [self._point(index) for index in indices]

    def to_dict(self) -> Dict[str, Any]:
        """JSON form for sweep artifacts."""
        return {
            "name": self.name,
            "strategy": self.strategy,
            "samples": self.samples,
            "seed": self.seed,
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }
