"""GPM-local crossbar (GPM-Xbar in Figure 3).

Inside a GPM, SMs reach the local L2 slice and the ring ports through an
on-die crossbar.  On-chip wires are not a bottleneck in the paper ("10s of
TB/s", Table 2), so the crossbar is modeled as a small fixed latency with
unbounded bandwidth; its role in the code is routing bookkeeping — deciding
whether a request stays on-die or is handed to the ring — and counting that
split for the locality metrics.
"""

from __future__ import annotations


class GPMCrossbar:
    """Routes SM memory requests to the local memory partition or the ring.

    Parameters
    ----------
    gpm_id:
        Index of the GPM this crossbar belongs to (its ring port).
    latency_cycles:
        One-way traversal latency of the on-die fabric.
    """

    __slots__ = ("gpm_id", "latency_cycles", "local_requests", "remote_requests")

    def __init__(self, gpm_id: int, latency_cycles: float = 5.0) -> None:
        if latency_cycles < 0:
            raise ValueError(f"latency_cycles must be non-negative, got {latency_cycles}")
        self.gpm_id = gpm_id
        self.latency_cycles = latency_cycles
        self.local_requests = 0
        self.remote_requests = 0

    def classify(self, home_partition: int) -> bool:
        """Record and return whether ``home_partition`` is local to this GPM."""
        local = home_partition == self.gpm_id
        if local:
            self.local_requests += 1
        else:
            self.remote_requests += 1
        return local

    def reset(self) -> None:
        """Clear routing counters."""
        self.local_requests = 0
        self.remote_requests = 0
