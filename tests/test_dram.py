"""Unit tests for the DRAM partition model."""

import pytest

from repro.memory.dram import DRAMPartition


class TestValidation:
    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            DRAMPartition(768.0, latency_cycles=-1)


class TestTiming:
    def test_read_includes_latency_and_serialization(self):
        dram = DRAMPartition(128.0, latency_cycles=100.0, line_bytes=128)
        finish = dram.read_line(0.0)
        assert finish == pytest.approx(101.0)

    def test_write_consumes_bandwidth_without_latency_wait(self):
        dram = DRAMPartition(128.0, latency_cycles=100.0, line_bytes=128)
        finish = dram.write_line(0.0)
        assert finish == pytest.approx(1.0)

    def test_reads_queue_under_contention(self):
        dram = DRAMPartition(1.0, latency_cycles=0.0, line_bytes=128)
        first = dram.read_line(0.0)
        second = dram.read_line(0.0)
        assert second >= first + 100.0  # 128 bytes at 1 B/cyc each


class TestAccounting:
    def test_byte_counters(self):
        dram = DRAMPartition(768.0)
        dram.read_line(0.0)
        dram.read_line(0.0)
        dram.write_line(0.0)
        assert dram.reads == 2
        assert dram.writes == 1
        assert dram.bytes_read == 256
        assert dram.bytes_written == 128
        assert dram.pipe.bytes_transferred == 384

    def test_reset(self):
        dram = DRAMPartition(768.0)
        dram.read_line(0.0)
        dram.reset()
        assert dram.reads == 0
        assert dram.pipe.bytes_transferred == 0
        assert dram.pipe.busy_until == 0.0
