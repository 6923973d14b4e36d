"""Dynamic distributed CTA scheduler (the paper's future-work extension).

Section 5.2 observes that the static equal split "suffers from the coarse
granularity of CTA division and may perform better with a smaller number
of contiguous CTAs assigned to each GPM", and Section 5.4 leaves "a
dynamic CTA scheduler" to future work.  This scheduler implements that
idea two ways:

* **finer batches** — instead of one batch per GPM, the CTA range is cut
  into ``batches_per_gpm`` contiguous batches per GPM, assigned
  round-robin in index order so batch *k* of every GPM covers nearby CTA
  ranges (locality is preserved at batch granularity, Figure 8(b) style);
* **work stealing** — a GPM that drains its own batches steals the
  *trailing* batch of the most-loaded GPM, trading a little locality for
  the tail-imbalance robustness the static scheduler lacks.

CTA->GPM binding remains deterministic for the un-stolen majority, so
first-touch placement still composes (stolen batches re-place their pages
on the thief on the next kernel only if stealing recurs, which the
deterministic steal order makes stable for a deterministic workload).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, List, Optional
from collections import deque

from .base import CTAScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.sm import SM


class DynamicScheduler(CTAScheduler):
    """Distributed scheduling with finer batches and work stealing.

    Parameters
    ----------
    system:
        The GPU being scheduled.
    batches_per_gpm:
        How many contiguous batches each GPM's share is divided into.
        ``1`` reproduces the static distributed scheduler's granularity
        (but still steals); larger values trade locality for balance.
    steal:
        Enable stealing from the most-loaded GPM when a module runs dry.
    """

    def __init__(self, system, batches_per_gpm: int = 4, steal: bool = True) -> None:
        super().__init__(system)
        if batches_per_gpm <= 0:
            raise ValueError(f"batches_per_gpm must be positive, got {batches_per_gpm}")
        self.batches_per_gpm = batches_per_gpm
        self.steal = steal
        self.steals = 0
        self._queues: List[Deque[range]] = []

    def _on_start_kernel(self) -> None:
        n_gpms = self.system.n_gpms
        n_batches = n_gpms * self.batches_per_gpm
        base, extra = divmod(self.n_ctas, n_batches)
        self._queues = [deque() for _ in range(n_gpms)]
        start = 0
        for batch_index in range(n_batches):
            count = base + (1 if batch_index < extra else 0)
            if count == 0:
                continue
            batch = deque([range(start, start + count)])
            # Batch k goes to GPM k % n: contiguous index ranges stay
            # together inside each batch, and each GPM's batches tile the
            # whole index space coarsely.
            self._queues[batch_index % n_gpms].extend(batch)
            start += count

    def _pop_local(self, gpm_id: int) -> Optional[int]:
        queue = self._queues[gpm_id]
        while queue:
            batch = queue[0]
            if len(batch) == 0:
                queue.popleft()
                continue
            cta = batch.start
            queue[0] = range(batch.start + 1, batch.stop)
            return cta
        return None

    def _steal_batch(self, thief: int) -> bool:
        """Move the trailing batch of the most-loaded GPM to ``thief``."""
        victim = max(
            range(self.system.n_gpms),
            key=lambda gpm: sum(len(batch) for batch in self._queues[gpm]),
        )
        if victim == thief:
            return False
        victim_queue = self._queues[victim]
        while victim_queue and len(victim_queue[-1]) == 0:
            victim_queue.pop()
        if not victim_queue:
            return False
        # Don't steal the batch the victim is actively draining unless it
        # is the only one left.
        batch = victim_queue.pop() if len(victim_queue) > 1 else victim_queue.popleft()
        if len(batch) == 0:
            return False
        self._queues[thief].append(batch)
        self.steals += 1
        return True

    def next_cta(self, sm: "SM") -> Optional[int]:
        gpm_id = sm.gpm_id
        cta = self._pop_local(gpm_id)
        if cta is None and self.steal and self._steal_batch(gpm_id):
            cta = self._pop_local(gpm_id)
        if cta is not None:
            self.dispatched += 1
        return cta

    def initial_fill_order(self) -> List["SM"]:
        """GPM-major SM order, like the static distributed scheduler."""
        return self.system.all_sms()
