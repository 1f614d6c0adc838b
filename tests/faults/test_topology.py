"""Tests for relay-tree topologies and per-hop bandwidth ledgers.

Covers the pure structure layer: validation of hand-built trees,
the seeded two-level builder, path/subtree/shard queries, the
reachable-bandwidth derate input, and the all-or-nothing hop ledger.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.faults.topology import HopLedger, Topology


def two_level(n_elements: int = 8, **kwargs) -> Topology:
    defaults = dict(n_relays=2, edges_per_relay=2, seed=3)
    defaults.update(kwargs)
    return Topology.build(n_elements, **defaults)


class TestTopologyValidation:
    def test_source_parent_must_be_minus_one(self):
        with pytest.raises(ValidationError):
            Topology(parents=np.array([0, 0]),
                     element_edge=np.array([1]),
                     link_bandwidth=np.ones(2),
                     link_latency=np.zeros(2))

    def test_parents_must_be_topologically_ordered(self):
        with pytest.raises(ValidationError):
            Topology(parents=np.array([-1, 2, 0]),
                     element_edge=np.array([2]),
                     link_bandwidth=np.ones(3),
                     link_latency=np.zeros(3))

    def test_elements_must_live_on_leaves(self):
        # Node 1 is interior (node 2 hangs below it).
        with pytest.raises(ValidationError):
            Topology(parents=np.array([-1, 0, 1]),
                     element_edge=np.array([1]),
                     link_bandwidth=np.ones(3),
                     link_latency=np.zeros(3))

    def test_element_edge_bounds(self):
        with pytest.raises(ValidationError):
            Topology(parents=np.array([-1, 0]),
                     element_edge=np.array([2]),
                     link_bandwidth=np.ones(2),
                     link_latency=np.zeros(2))
        with pytest.raises(ValidationError):
            Topology(parents=np.array([-1, 0]),
                     element_edge=np.array([0]),
                     link_bandwidth=np.ones(2),
                     link_latency=np.zeros(2))

    def test_bandwidth_and_latency_vectors_are_checked(self):
        with pytest.raises(ValidationError):
            Topology(parents=np.array([-1, 0]),
                     element_edge=np.array([1]),
                     link_bandwidth=np.ones(3),
                     link_latency=np.zeros(2))
        with pytest.raises(ValidationError):
            Topology(parents=np.array([-1, 0]),
                     element_edge=np.array([1]),
                     link_bandwidth=np.array([1.0, 0.0]),
                     link_latency=np.zeros(2))
        with pytest.raises(ValidationError):
            Topology(parents=np.array([-1, 0]),
                     element_edge=np.array([1]),
                     link_bandwidth=np.ones(2),
                     link_latency=np.array([0.0, -0.1]))

    def test_build_argument_validation(self):
        with pytest.raises(ValidationError):
            Topology.build(0)
        with pytest.raises(ValidationError):
            Topology.build(4, n_relays=0)
        with pytest.raises(ValidationError):
            Topology.build(4, edges_per_relay=0)


class TestBuild:
    def test_two_level_structure(self):
        topology = two_level(8, n_relays=3, edges_per_relay=2)
        assert topology.n_nodes == 1 + 3 + 6
        assert topology.n_elements == 8
        assert topology.root_children == (1, 2, 3)
        assert topology.n_subtrees == 3
        # Every element lives on a leaf two hops down.
        for element in range(8):
            path = topology.path_of_element(element)
            assert len(path) == 2
            assert path[0] in topology.root_children

    def test_same_seed_same_tree(self):
        a, b = two_level(12, seed=9), two_level(12, seed=9)
        assert np.array_equal(a.element_edge, b.element_edge)
        c = two_level(12, seed=10)
        assert not np.array_equal(a.element_edge, c.element_edge)

    def test_every_edge_hosts_a_balanced_chunk(self):
        topology = two_level(8, n_relays=2, edges_per_relay=2)
        counts = np.bincount(topology.element_edge,
                             minlength=topology.n_nodes)
        assert counts[3:].tolist() == [2, 2, 2, 2]

    def test_link_parameters_are_placed_per_level(self):
        topology = two_level(6, relay_bandwidth=25.0,
                             edge_bandwidth=40.0, relay_latency=0.02,
                             edge_latency=0.01)
        for relay in topology.root_children:
            assert topology.link_bandwidth[relay] == 25.0
            assert topology.link_latency[relay] == 0.02
        for edge in np.unique(topology.element_edge).tolist():
            assert topology.link_bandwidth[edge] == 40.0
            assert topology.link_latency[edge] == 0.01

    def test_path_latency_sums_the_hops(self):
        topology = two_level(6, relay_latency=0.02, edge_latency=0.01)
        for element in range(6):
            assert topology.path_latency(element) == pytest.approx(0.03)

    def test_depth_of(self):
        topology = two_level(6)
        assert topology.depth_of(0) == 0
        assert topology.depth_of(topology.root_children[0]) == 1
        edge = int(topology.element_edge[0])
        assert topology.depth_of(edge) == 2

    def test_node_and_element_bounds_raise(self):
        topology = two_level(6)
        with pytest.raises(ValidationError):
            topology.path_of_node(topology.n_nodes)
        with pytest.raises(ValidationError):
            topology.path_of_element(6)
        with pytest.raises(ValidationError):
            topology.descendant_elements(-1)


class TestSubtreesAndShards:
    def test_shard_of_is_edge_membership(self):
        topology = two_level(8, n_relays=2, edges_per_relay=2)
        shards = topology.shard_of
        assert shards.shape == (8,)
        assert topology.n_shards == 4
        # Two elements share a shard exactly when they share an edge.
        for a in range(8):
            for b in range(8):
                same_edge = (topology.element_edge[a]
                             == topology.element_edge[b])
                assert (shards[a] == shards[b]) == same_edge

    def test_subtree_of_matches_first_hop(self):
        topology = two_level(8, n_relays=2, edges_per_relay=2)
        subtree = topology.subtree_of
        for element in range(8):
            top = topology.path_of_element(element)[0]
            assert topology.root_children[subtree[element]] == top

    def test_descendant_elements_is_subtree_membership(self):
        topology = two_level(8, n_relays=2, edges_per_relay=2)
        relay = topology.root_children[0]
        mask = topology.descendant_elements(relay)
        assert np.array_equal(mask, topology.subtree_of == 0)
        assert topology.descendant_elements(0).all()
        edge = int(topology.element_edge[3])
        edge_mask = topology.descendant_elements(edge)
        assert np.array_equal(edge_mask, topology.element_edge == edge)


class TestReachableBandwidth:
    def test_full_reachability_sums_all_uplinks(self):
        topology = two_level(8, n_relays=2, edges_per_relay=2,
                             relay_bandwidth=25.0)
        none_down = np.zeros(8, dtype=bool)
        assert topology.reachable_bandwidth(none_down) == 50.0

    def test_dead_subtree_capacity_is_lost(self):
        topology = two_level(8, n_relays=2, edges_per_relay=2,
                             relay_bandwidth=25.0)
        mask = topology.subtree_of == 0
        assert topology.reachable_bandwidth(mask) == 25.0
        assert topology.reachable_bandwidth(np.ones(8, dtype=bool)) \
            == 0.0

    def test_partial_subtree_outage_keeps_the_uplink(self):
        topology = two_level(8, n_relays=2, edges_per_relay=2,
                             relay_bandwidth=25.0)
        mask = topology.subtree_of == 0
        first = int(np.flatnonzero(mask)[0])
        mask[first] = False          # one survivor in the subtree
        assert topology.reachable_bandwidth(mask) == 50.0

    def test_uncapped_uplinks_report_inf(self):
        topology = two_level(8, n_relays=2, edges_per_relay=2)
        assert np.isinf(topology.reachable_bandwidth(
            np.zeros(8, dtype=bool)))

    def test_mask_shape_is_checked(self):
        topology = two_level(8)
        with pytest.raises(ValidationError):
            topology.reachable_bandwidth(np.zeros(3, dtype=bool))


class TestHopLedger:
    def make(self, relay_bandwidth=10.0, edge_bandwidth=6.0):
        topology = two_level(4, n_relays=2, edges_per_relay=1,
                             relay_bandwidth=relay_bandwidth,
                             edge_bandwidth=edge_bandwidth)
        return topology, HopLedger(topology)

    def test_period_length_validation(self):
        topology, _ = self.make()
        with pytest.raises(ValidationError):
            HopLedger(topology, period_length=0.0)

    def test_admits_until_a_hop_saturates(self):
        topology, ledger = self.make(edge_bandwidth=6.0)
        element = 0
        assert ledger.admits(element, 3.0, 0.1) is None
        ledger.charge(element, 3.0)
        assert ledger.admits(element, 3.0, 0.2) is None
        ledger.charge(element, 3.0)
        # The edge uplink (6.0) is now full; its node id comes back.
        denied_at = ledger.admits(element, 3.0, 0.3)
        assert denied_at == int(topology.element_edge[element])

    def test_relay_saturation_denies_every_sibling(self):
        topology, ledger = self.make(relay_bandwidth=4.0,
                                     edge_bandwidth=100.0)
        element = 0
        relay = topology.path_of_element(element)[0]
        sibling = int(np.flatnonzero(
            topology.subtree_of == topology.subtree_of[element])[1])
        ledger.charge(element, 4.0)
        assert ledger.admits(sibling, 1.0, 0.5) == relay

    def test_budgets_reset_at_period_boundaries(self):
        topology, ledger = self.make(edge_bandwidth=6.0)
        ledger.charge(0, 6.0)
        assert ledger.admits(0, 1.0, 0.9) is not None
        assert ledger.admits(0, 1.0, 1.1) is None

    def test_period_follows_the_window_comparison(self):
        # 3 · 0.7 divides by 0.7 to just below 3, yet it is the start
        # of window 3, so a charge there opens period 3.
        topology = two_level(4, n_relays=2, edges_per_relay=1,
                             relay_bandwidth=10.0, edge_bandwidth=6.0)
        ledger = HopLedger(topology, period_length=0.7)
        assert ledger.admits(0, 6.0, 2.0) is None
        ledger.charge(0, 6.0)
        assert ledger.admits(0, 1.0, np.nextafter(3 * 0.7, 0.0)) \
            is not None
        assert ledger.admits(0, 6.0, 3 * 0.7) is None
        assert ledger.hop_spent().max() == 0.0
        ledger.charge(0, 6.0)
        assert ledger.admits(0, 1.0, 3.5 * 0.7) is not None

    def test_charges_accumulate_along_the_path(self):
        topology, ledger = self.make()
        ledger.charge(0, 2.0)
        ledger.charge(0, 2.0)
        spent = ledger.hop_spent()
        transits = ledger.hop_transit_counts()
        for node in topology.path_of_element(0):
            assert spent[node] == 4.0
            assert transits[node] == 2
        assert spent[0] == 0.0       # the source owns no uplink
