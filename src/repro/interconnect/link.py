"""Point-to-point signaling links (GRS on-package, NVLink-class on-board).

A :class:`Link` is one *direction* of a physical channel: bandwidth pipes
plus a fixed propagation/SerDes latency.  The paper charges 32 cycles per
inter-GPM hop (Table 3) on top of serialization at the configured link
bandwidth (768 GB/s in the baseline).

Virtual networks
----------------
Each direction carries two virtual networks, mirroring real GPU NoCs:
the **request** network (read commands and write data) and the
**response** network (read data).  Real interconnects separate these
classes to avoid protocol deadlock; in this simulator the split also
serves a modeling purpose: the engine charges a whole memory
transaction's path in one pass, so response legs are booked ~150 cycles
deeper in simulated time than request legs issued immediately after.
With a single FIFO pipe per direction, shallow-timed requests would queue
behind earlier-issued but later-timed responses, creating a spurious
latency feedback loop (each store would inherit the previous read's
response timestamp and drag the DRAM queue along).  Separate networks
keep each traffic class internally time-ordered.  Each network is given
the full per-direction bandwidth; since requests are mostly small headers
the capacity double-count is bounded by the write-traffic share and is
documented in DESIGN.md.
"""

from __future__ import annotations

from ..memory.bandwidth import BandwidthPipe

#: Virtual-network selectors for ``GraphNetwork.transfer``.
REQUEST = "request"
RESPONSE = "response"


class Link:
    """One direction of a chip-to-chip link with command/data channels.

    Parameters
    ----------
    bandwidth_bytes_per_cycle:
        Peak payload bandwidth of this direction.
    latency_cycles:
        Fixed per-traversal latency (wire + SerDes + edge routing).
    """

    __slots__ = ("name", "latency_cycles", "request_pipe", "response_pipe")

    def __init__(
        self,
        bandwidth_bytes_per_cycle: float,
        latency_cycles: float = 32.0,
        name: str = "link",
    ) -> None:
        if latency_cycles < 0:
            raise ValueError(f"latency_cycles must be non-negative, got {latency_cycles}")
        self.name = name
        self.latency_cycles = latency_cycles
        self.request_pipe = BandwidthPipe(bandwidth_bytes_per_cycle, name=f"{name}.req")
        self.response_pipe = BandwidthPipe(bandwidth_bytes_per_cycle, name=f"{name}.rsp")

    @property
    def bytes_transferred(self) -> int:
        """Total payload carried by this direction (both networks)."""
        return self.request_pipe.bytes_transferred + self.response_pipe.bytes_transferred

    def reset(self) -> None:
        """Clear timing and counters."""
        self.request_pipe.reset()
        self.response_pipe.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link(name={self.name!r}, bw={self.request_pipe.bytes_per_cycle}B/cyc, "
            f"lat={self.latency_cycles}cyc)"
        )
