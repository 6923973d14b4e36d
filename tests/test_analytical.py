"""Unit tests for the Section 3.3.1 analytical bandwidth model."""

import pytest

from repro.core.analytical import (
    average_hops,
    expected_slowdown_bound,
    required_link_bandwidth,
    supply_bandwidth_per_partition,
    topology_link_count,
    topology_ports,
)


class TestSupplyBandwidth:
    def test_fifty_percent_hit_doubles_supply(self):
        """The paper's assumption: ~50% L2 hit -> each slice supplies 2b."""
        assert supply_bandwidth_per_partition(768.0, 0.5) == pytest.approx(1536.0)

    def test_zero_hit_rate_passthrough(self):
        assert supply_bandwidth_per_partition(768.0, 0.0) == pytest.approx(768.0)

    def test_rejects_invalid_hit_rate(self):
        with pytest.raises(ValueError, match="l2_hit_rate"):
            supply_bandwidth_per_partition(768.0, 1.0)


class TestRingHops:
    def test_four_gpm_ring(self):
        assert average_hops(4, "ring") == pytest.approx(4.0 / 3.0)

    def test_two_nodes(self):
        assert average_hops(2, "ring") == 1.0

    def test_single_node(self):
        assert average_hops(1, "ring") == 0.0


class TestTopologyCounts:
    def test_ring_ports_and_links(self):
        assert topology_ports(4) == 4
        assert topology_link_count(4) == 8
        # The degenerate two-node "ring" has one neighbor pair.
        assert topology_ports(2) == 2
        assert topology_link_count(2) == 2
        assert topology_ports(1) == 0
        assert topology_link_count(1) == 0

    def test_fully_connected_ports_and_links(self):
        assert topology_ports(4, "fully_connected") == 6
        assert topology_link_count(4, "fully_connected") == 12
        assert average_hops(4, "fully_connected") == 1.0
        assert average_hops(1, "fully_connected") == 0.0

    def test_unknown_topology_rejected(self):
        # "torus" is a registered fabric now; a genuinely unknown name
        # must still fail loudly everywhere the registry dispatches.
        with pytest.raises(ValueError, match="topology"):
            topology_ports(4, "hypercube")
        with pytest.raises(ValueError, match="topology"):
            topology_link_count(4, "hypercube")
        with pytest.raises(ValueError, match="topology"):
            average_hops(4, "hypercube")

    def test_registry_fabrics_dispatch(self):
        # The registry answers for every fabric: a 4-node torus is a
        # doubled ring (each wraparound fuses with the mesh edge), and
        # the 2x2 mesh is a 4-cycle.
        assert topology_ports(4, "mesh") == 4
        assert topology_link_count(4, "mesh") == 8
        assert average_hops(4, "mesh") == pytest.approx(4.0 / 3.0)
        assert average_hops(9, "torus") < average_hops(9, "mesh")


class TestRequiredBandwidth:
    def test_paper_example_4b(self):
        """Section 3.3.1: 4 GPMs, b=768 GB/s, h=50% -> 4b per-GPM demand."""
        req = required_link_bandwidth(4, 768.0, 0.5)
        assert req.per_gpm_link_demand == pytest.approx(4 * 768.0)
        assert req.egress_per_gpm == pytest.approx(1.5 * 768.0)
        assert req.ingress_per_gpm == req.egress_per_gpm
        assert req.n_links == 8
        assert req.ports_per_gpm == 4

    def test_two_node_ring_regression(self):
        # Regression: the model hard-coded 2n directional links and 4
        # ports per GPM, as if every ring had two distinct neighbors.  A
        # 2-node ring has a single neighbor pair, so each GPM's entire
        # egress rides one directional link (per-link volume used to come
        # out halved).
        req = required_link_bandwidth(2, 768.0, 0.5)
        assert req.n_links == 2
        assert req.ports_per_gpm == 2
        assert req.per_link_volume == pytest.approx(req.egress_per_gpm)
        assert req.per_gpm_link_demand == pytest.approx(
            req.egress_per_gpm + req.ingress_per_gpm
        )

    def test_fully_connected_has_no_passthrough(self):
        # Single-hop delivery: per-GPM demand is exactly egress + ingress,
        # strictly below the ring's (which adds pass-through hops).
        fc = required_link_bandwidth(4, 768.0, 0.5, topology="fully_connected")
        assert fc.per_gpm_link_demand == pytest.approx(
            fc.egress_per_gpm + fc.ingress_per_gpm
        )
        ring = required_link_bandwidth(4, 768.0, 0.5)
        assert fc.per_gpm_link_demand < ring.per_gpm_link_demand

    def test_single_gpm_needs_nothing(self):
        req = required_link_bandwidth(1, 768.0, 0.5)
        assert req.per_gpm_link_demand == 0.0
        assert req.total_link_hop_volume == 0.0

    def test_demand_grows_with_hit_rate(self):
        low = required_link_bandwidth(4, 768.0, 0.2)
        high = required_link_bandwidth(4, 768.0, 0.6)
        assert high.per_gpm_link_demand > low.per_gpm_link_demand

    def test_rejects_bad_gpm_count(self):
        with pytest.raises(ValueError, match="n_gpms"):
            required_link_bandwidth(0, 768.0)


class TestSlowdownBound:
    def test_sufficient_links_no_slowdown(self):
        assert expected_slowdown_bound(4000.0, 3072.0) == 1.0

    def test_undersized_links_throttle(self):
        assert expected_slowdown_bound(1536.0, 3072.0) == pytest.approx(0.5)

    def test_zero_requirement(self):
        assert expected_slowdown_bound(100.0, 0.0) == 1.0

    def test_consistent_with_fig4_narrative(self):
        """Low link settings bound throughput; 1.5 TB/s is the break-even."""
        req = required_link_bandwidth(4, 768.0, 0.5)
        # A setting of s yields per-GPM port capacity 2s (4 half-duplex ports).
        assert expected_slowdown_bound(2 * 6144.0, req.per_gpm_link_demand) == 1.0
        assert expected_slowdown_bound(2 * 1536.0, req.per_gpm_link_demand) == 1.0
        assert expected_slowdown_bound(2 * 768.0, req.per_gpm_link_demand) == pytest.approx(0.5)
        assert expected_slowdown_bound(2 * 384.0, req.per_gpm_link_demand) == pytest.approx(0.25)
