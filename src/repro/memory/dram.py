"""DRAM partition model.

Each GPM owns one local DRAM partition (Figure 3).  A partition is a fixed
access latency in front of a :class:`~repro.memory.bandwidth.BandwidthPipe`;
internally a real partition stripes across several channels, but because the
paper interleaves addresses finely across channels *within* a partition we
fold the channels into one aggregate pipe.
"""

from __future__ import annotations

from .bandwidth import BandwidthPipe


class DRAMPartition:
    """One GPM's local DRAM partition.

    Parameters
    ----------
    bandwidth_bytes_per_cycle:
        Peak partition bandwidth (768 GB/s -> 768.0 at 1 GHz in the paper's
        baseline 4-partition, 3 TB/s configuration).
    latency_cycles:
        Closed-page access latency (100 ns -> 100 cycles in Table 3).
    line_bytes:
        Transfer granularity for reads and write-backs.
    """

    def __init__(
        self,
        bandwidth_bytes_per_cycle: float,
        latency_cycles: float = 100.0,
        line_bytes: int = 128,
        name: str = "dram",
    ) -> None:
        if latency_cycles < 0:
            raise ValueError(f"latency_cycles must be non-negative, got {latency_cycles}")
        self.name = name
        self.latency_cycles = latency_cycles
        self.line_bytes = line_bytes
        self.pipe = BandwidthPipe(bandwidth_bytes_per_cycle, name=f"{name}.pipe")
        self.reads = 0
        self.writes = 0

    def read_line(self, now: float) -> float:
        """Fetch one line; returns the completion cycle."""
        self.reads += 1
        finish = self.pipe.transfer(now, self.line_bytes)
        return finish + self.latency_cycles

    def write_line(self, now: float) -> float:
        """Write one line (e.g. an L2 write-back); returns the completion cycle.

        Writes consume bandwidth but the requester does not wait for the
        array update, so callers typically ignore the returned time.
        """
        self.writes += 1
        return self.pipe.transfer(now, self.line_bytes)

    @property
    def bytes_read(self) -> int:
        """Total bytes fetched from the array."""
        return self.reads * self.line_bytes

    @property
    def bytes_written(self) -> int:
        """Total bytes written to the array."""
        return self.writes * self.line_bytes

    def reset(self) -> None:
        """Clear counters and timing state."""
        self.pipe.reset()
        self.reads = 0
        self.writes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DRAMPartition(name={self.name!r}, bw={self.pipe.bytes_per_cycle}B/cyc, "
            f"lat={self.latency_cycles}cyc)"
        )
