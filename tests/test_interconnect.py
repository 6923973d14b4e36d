"""Unit and property tests for links, the ring network, and the crossbar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gpu import build_system
from repro.core.presets import multi_gpu
from repro.interconnect.board import BOARD_AGGREGATE_GBPS, BOARD_HOP_LATENCY_CYCLES
from repro.interconnect.crossbar import GPMCrossbar
from repro.interconnect.link import REQUEST, RESPONSE, Link
from repro.interconnect.topology import build_network


def make_ring(n_nodes, hop_latency_cycles=32.0):
    """The registry's ring at the paper's 768 GB/s link setting."""
    return build_network("ring", n_nodes, 768.0, hop_latency_cycles)


def direction_bytes(ring, step):
    """Bytes on the links from every node ``i`` to ``(i + step) % n``."""
    n_nodes = ring.n_nodes
    by_name = {link.name: link for link in ring.links}
    return sum(
        by_name[f"ring.{node}->{(node + step) % n_nodes}"].bytes_transferred
        for node in range(n_nodes)
    )


class TestLink:
    # A two-node ring is one link pair: node 0 -> 1 crosses exactly one link.
    def test_traverse_adds_latency(self):
        ring = build_network("ring", 2, 256.0, 32.0)  # 128 B/cycle per direction
        arrival = ring.transfer(0.0, 0, 1, 128)
        assert arrival == pytest.approx(33.0)

    def test_channels_are_independent(self):
        ring = build_network("ring", 2, 2.0, 0.0)  # 1 B/cycle per direction
        ring.transfer(0.0, 0, 1, 1000, REQUEST)
        prompt = ring.transfer(0.0, 0, 1, 1, RESPONSE)
        assert prompt < 100.0  # response channel unaffected by request backlog

    def test_bytes_sum_channels(self):
        ring = build_network("ring", 2, 256.0, 32.0)
        ring.transfer(0.0, 0, 1, 100, REQUEST)
        ring.transfer(0.0, 0, 1, 50, RESPONSE)
        (link,) = [link for link in ring.links if link.name == "ring.0->1"]
        assert link.bytes_transferred == 150

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            Link(100.0, latency_cycles=-5)


class TestRingTopology:
    def test_single_node_ring_has_no_links(self):
        ring = make_ring(1)
        assert ring.links == []
        assert ring.transfer(5.0, 0, 0, 128) == 5.0
        assert ring.total_link_bytes == 0

    def test_hop_counts_4_nodes(self):
        ring = make_ring(4)
        assert ring.hops_between(0, 0) == 0
        assert ring.hops_between(0, 1) == 1
        assert ring.hops_between(0, 2) == 2
        assert ring.hops_between(0, 3) == 1
        assert ring.hops_between(3, 0) == 1

    def test_average_hops_uniform_4_nodes(self):
        ring = make_ring(4)
        hops = [ring.hops_between(s, d) for s in range(4) for d in range(4) if s != d]
        assert sum(hops) / len(hops) == pytest.approx(4.0 / 3.0)

    def test_route_lengths_match_hops(self):
        ring = make_ring(6)
        for src in range(6):
            for dst in range(6):
                assert len(ring.route(src, dst)) == ring.hops_between(src, dst)

    def test_rejects_out_of_range_nodes(self):
        ring = make_ring(4)
        with pytest.raises(ValueError, match="out of range"):
            ring.hops_between(0, 4)


class TestRingTiming:
    def test_per_direction_bandwidth_is_half_link_setting(self):
        ring = make_ring(4)
        assert ring.links[0].request_pipe.bytes_per_cycle == pytest.approx(384.0)

    def test_transfer_charges_every_hop(self):
        ring = make_ring(4, hop_latency_cycles=32.0)
        arrival = ring.transfer(0.0, 0, 2, 128)
        # Two hops: 2 x (serialization + 32)
        assert arrival >= 64.0
        assert ring.total_link_bytes == 256  # 128 bytes on each of 2 links

    def test_same_node_transfer_free(self):
        ring = make_ring(4)
        assert ring.transfer(7.0, 2, 2, 4096) == 7.0

    def test_reset_clears_traffic(self):
        ring = make_ring(4)
        ring.transfer(0.0, 0, 1, 128)
        ring.reset()
        assert ring.total_link_bytes == 0


class TestCrossbar:
    def test_classify_counts(self):
        xbar = GPMCrossbar(gpm_id=1)
        assert xbar.classify(1) is True
        assert xbar.classify(0) is False
        assert xbar.classify(2) is False
        assert xbar.local_requests == 1
        assert xbar.remote_requests == 2

    def test_reset(self):
        xbar = GPMCrossbar(0)
        xbar.classify(0)
        xbar.reset()
        assert xbar.local_requests == xbar.remote_requests == 0


class TestBoard:
    """The board is the ``multi_gpu`` preset's two-node ring."""

    def test_board_is_two_node_ring(self):
        board = build_system(multi_gpu(sms_per_gpu=2)).ring
        assert board.n_nodes == 2
        assert board.hops_between(0, 1) == 1
        assert [link.name for link in board.links] == ["ring.0->1", "ring.1->0"]
        assert all(
            link.latency_cycles == BOARD_HOP_LATENCY_CYCLES for link in board.links
        )

    def test_board_bandwidth_split(self):
        board = build_system(multi_gpu(sms_per_gpu=2)).ring
        for link in board.links:
            assert link.request_pipe.bytes_per_cycle == pytest.approx(
                BOARD_AGGREGATE_GBPS / 2.0
            )


@settings(max_examples=50, deadline=None)
@given(
    n_nodes=st.integers(min_value=2, max_value=8),
    src=st.integers(min_value=0, max_value=7),
    dst=st.integers(min_value=0, max_value=7),
)
def test_hops_symmetric_and_bounded(n_nodes, src, dst):
    """Property: ring hops are symmetric and at most floor(n/2)."""
    src %= n_nodes
    dst %= n_nodes
    ring = make_ring(n_nodes)
    hops = ring.hops_between(src, dst)
    assert hops == ring.hops_between(dst, src)
    assert hops <= n_nodes // 2
    assert (hops == 0) == (src == dst)


class TestAntipodalTieBreak:
    """Regression: opposite-corner routes on an even ring must spread over
    both directions (by source parity) instead of all going clockwise."""

    def test_even_ring_splits_antipodal_directions_by_source_parity(self):
        ring = make_ring(4)
        # Even sources go clockwise: first hop of 0->2 is the 0->1 link.
        assert ring.route(0, 2)[0].name == "ring.0->1"
        # Odd sources go counter-clockwise: first hop of 1->3 is 1->0.
        assert ring.route(1, 3)[0].name == "ring.1->0"

    def test_route_lengths_still_minimal_after_tie_break(self):
        for n_nodes in (2, 4, 6, 8):
            ring = make_ring(n_nodes)
            for src in range(n_nodes):
                for dst in range(n_nodes):
                    assert len(ring.route(src, dst)) == ring.hops_between(src, dst)

    def test_antipodal_traffic_from_two_sources_uses_both_directions(self):
        ring = make_ring(4)
        ring.transfer(0.0, 0, 2, 128)
        ring.transfer(0.0, 1, 3, 128)
        clockwise_bytes = direction_bytes(ring, 1)
        counter_bytes = direction_bytes(ring, -1)
        assert clockwise_bytes > 0
        assert counter_bytes > 0

    def test_all_pairs_antipodal_traffic_balances_exactly(self):
        ring = make_ring(4)
        for src in range(4):
            ring.transfer(0.0, src, (src + 2) % 4, 128)
        clockwise_bytes = direction_bytes(ring, 1)
        counter_bytes = direction_bytes(ring, -1)
        assert clockwise_bytes == counter_bytes

    def test_odd_ring_unaffected_by_tie_break(self):
        ring = make_ring(5)
        for src in range(5):
            for dst in range(5):
                if src == dst:
                    continue
                clockwise_hops = (dst - src) % 5
                expect_clockwise = clockwise_hops < 5 - clockwise_hops
                first = ring.route(src, dst)[0]
                assert (first.name == f"ring.{src}->{(src + 1) % 5}") == expect_clockwise

    @pytest.mark.parametrize("n_nodes", range(1, 13))
    def test_route_tables_match_closed_form(self, n_nodes):
        """Clockwise iff strictly shorter, or a tie from an even source."""
        ring = make_ring(n_nodes)
        for src in range(n_nodes):
            for dst in range(n_nodes):
                clockwise_hops = (dst - src) % n_nodes
                counter_hops = (src - dst) % n_nodes
                if clockwise_hops < counter_hops or (
                    clockwise_hops == counter_hops and src % 2 == 0
                ):
                    step, hops = 1, clockwise_hops
                else:
                    step, hops = -1, counter_hops
                nodes = [(src + step * i) % n_nodes for i in range(hops + 1)]
                expected = [f"ring.{a}->{b}" for a, b in zip(nodes, nodes[1:])]
                assert [link.name for link in ring.route(src, dst)] == expected
