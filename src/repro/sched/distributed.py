"""Distributed CTA scheduler (Section 5.2).

The kernel's CTA index range is divided into ``n_gpms`` equal contiguous
batches and batch ``g`` is pinned to GPM ``g`` (Figure 8b).  Contiguous
CTAs therefore share a GPM — and its L1.5 and local memory partition —
which converts inter-CTA spatial locality into GPM-local traffic.

Because the split is a pure function of the CTA index, a re-launched
kernel re-binds CTA ``i`` to the same GPM (Figure 12); combined with
first-touch placement this keeps pages local across kernel iterations.

The pinning is deliberately inflexible: there is no work stealing, so
kernels whose CTAs do unequal work suffer coarse-grain load imbalance —
the degradation the paper observes for two of its workloads (Section 5.4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .base import CTAScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.sm import SM


class DistributedScheduler(CTAScheduler):
    """Contiguous CTA batches pinned one-per-GPM, no stealing."""

    def _on_start_kernel(self) -> None:
        n_gpms = self.system.n_gpms
        base, extra = divmod(self.n_ctas, n_gpms)
        self._next_index: List[int] = []
        self._limit: List[int] = []
        start = 0
        for gpm_id in range(n_gpms):
            count = base + (1 if gpm_id < extra else 0)
            self._next_index.append(start)
            self._limit.append(start + count)
            start += count

    def next_cta(self, sm: "SM") -> Optional[int]:
        gpm_id = sm.gpm_id
        index = self._next_index[gpm_id]
        if index >= self._limit[gpm_id]:
            return None
        self._next_index[gpm_id] = index + 1
        self.dispatched += 1
        return index

    def initial_fill_order(self) -> List["SM"]:
        """GPM-major SM order so each GPM's batch fills its own SMs."""
        return self.system.all_sms()


def make_scheduler(name: str, system) -> CTAScheduler:
    """Build a scheduler by configuration name."""
    from .centralized import CentralizedScheduler
    from .dynamic import DynamicScheduler

    if name == "centralized":
        return CentralizedScheduler(system)
    if name == "distributed":
        return DistributedScheduler(system)
    if name == "dynamic":
        return DynamicScheduler(system)
    raise ValueError(
        f"unknown scheduler {name!r}; expected 'centralized', 'distributed', or 'dynamic'"
    )
