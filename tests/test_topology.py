"""Tests for graph generators and connectivity utilities."""

import numpy as np
import pytest

from repro.topology import (
    complete_graph,
    connected_component,
    connected_components,
    empty_graph,
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    ring_lattice,
    union_adjacency,
)
from repro.topology.graphs import (
    erdos_renyi_edges,
    grid_edges,
    grid_positions,
    ring_lattice_edges,
)


def _is_symmetric(graph):
    return all(node in graph[neighbor] for node, nbrs in graph.items() for neighbor in nbrs)


def _edge_set(graph):
    return {(a, b) for a, nbrs in graph.items() for b in nbrs if a < b}


def _assert_canonical(u, v, n):
    """Edge arrays hold each undirected edge once, as ``(low, high)``, in range."""
    assert u.dtype == np.int64 and v.dtype == np.int64
    assert (u < v).all() and (u >= 0).all() and (v < n).all()
    assert len(set(zip(u.tolist(), v.tolist()))) == u.size


class TestGenerators:
    def test_empty_graph(self):
        graph = empty_graph(4)
        assert len(graph) == 4
        assert all(not neighbors for neighbors in graph.values())

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            empty_graph(-1)

    def test_complete_graph_degree(self):
        graph = complete_graph(6)
        assert all(len(neighbors) == 5 for neighbors in graph.values())
        assert _is_symmetric(graph)

    def test_complete_graph_no_self_loops(self):
        graph = complete_graph(5)
        assert all(node not in graph[node] for node in graph)

    def test_ring_lattice_degree(self):
        graph = ring_lattice(10, k=2)
        assert all(len(neighbors) == 4 for neighbors in graph.values())
        assert _is_symmetric(graph)

    def test_ring_lattice_k_validation(self):
        with pytest.raises(ValueError):
            ring_lattice(10, k=0)

    def test_grid_graph_structure(self):
        graph = grid_graph(3, 3)
        assert len(graph) == 9
        assert len(graph[4]) == 4  # centre has 4 neighbours
        assert len(graph[0]) == 2  # corner has 2
        assert _is_symmetric(graph)

    def test_grid_graph_diagonal(self):
        graph = grid_graph(3, 3, diagonal=True)
        assert len(graph[4]) == 8

    def test_grid_positions(self):
        positions = grid_positions(3, 2)
        assert positions[0] == (0, 0)
        assert positions[5] == (2, 1)

    def test_erdos_renyi_extremes(self):
        assert all(not nbrs for nbrs in erdos_renyi_graph(10, 0.0, seed=1).values())
        full = erdos_renyi_graph(10, 1.0, seed=1)
        assert all(len(nbrs) == 9 for nbrs in full.values())

    def test_erdos_renyi_probability_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5)

    def test_erdos_renyi_reproducible(self):
        a = erdos_renyi_graph(30, 0.2, seed=5)
        b = erdos_renyi_graph(30, 0.2, seed=5)
        assert a == b

    def test_random_geometric_graph_radius_behaviour(self):
        sparse, _ = random_geometric_graph(30, 0.01, seed=2)
        dense, _ = random_geometric_graph(30, 2.0, seed=2)
        assert sum(len(v) for v in sparse.values()) < sum(len(v) for v in dense.values())
        assert all(len(nbrs) == 29 for nbrs in dense.values())

    def test_random_geometric_graph_positions_returned(self):
        graph, positions = random_geometric_graph(10, 0.3, seed=2)
        assert set(graph) == set(positions)
        assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in positions.values())

    def test_complete_graph_small_sizes(self):
        assert complete_graph(0) == {}
        assert complete_graph(1) == {0: set()}

    def test_ring_lattice_wraps_around(self):
        graph = ring_lattice(6, k=1)
        assert graph[0] == {1, 5}
        assert graph[5] == {4, 0}

    def test_grid_rejects_negative_dimensions(self):
        with pytest.raises(ValueError):
            grid_positions(-1, 2)
        with pytest.raises(ValueError):
            grid_edges(2, -1)

    def test_random_geometric_graph_validation(self):
        with pytest.raises(ValueError):
            random_geometric_graph(3, -0.1, seed=1)
        with pytest.raises(ValueError):
            random_geometric_graph(3, 0.1, positions=[(0.0, 0.0)])

    def test_random_geometric_graph_explicit_positions(self):
        positions = [(0.0, 0.0), (0.05, 0.0), (0.9, 0.9)]
        graph, _ = random_geometric_graph(3, 0.1, positions=positions)
        assert 1 in graph[0]
        assert 2 not in graph[0]


class TestEdgeArrays:
    """The ``*_edges`` arrays the vectorised backend builds its CSR topology from."""

    @pytest.mark.parametrize("n, k", [(10, 1), (10, 2), (7, 3), (4, 5)])
    def test_ring_lattice_edges_match_adjacency(self, n, k):
        u, v = ring_lattice_edges(n, k)
        _assert_canonical(u, v, n)
        assert set(zip(u.tolist(), v.tolist())) == _edge_set(ring_lattice(n, k))

    def test_saturated_ring_lattice_is_complete(self):
        # k >= n/2 reaches every other node; the duplicate offsets collapse.
        assert ring_lattice(4, k=5) == complete_graph(4)

    @pytest.mark.parametrize(
        "width, height, diagonal", [(3, 3, False), (3, 3, True), (5, 1, False), (1, 5, True)]
    )
    def test_grid_edges_match_adjacency(self, width, height, diagonal):
        u, v = grid_edges(width, height, diagonal)
        _assert_canonical(u, v, width * height)
        assert set(zip(u.tolist(), v.tolist())) == _edge_set(grid_graph(width, height, diagonal))

    def test_erdos_renyi_edges_are_canonical_and_match_graph(self):
        u, v = erdos_renyi_edges(60, 0.1, seed=3)
        _assert_canonical(u, v, 60)
        assert set(zip(u.tolist(), v.tolist())) == _edge_set(erdos_renyi_graph(60, 0.1, seed=3))

    def test_erdos_renyi_edge_count_near_expectation(self):
        n, p = 400, 0.05
        u, _v = erdos_renyi_edges(n, p, seed=7)
        expected = p * n * (n - 1) / 2  # 3990, standard deviation ~62
        assert abs(u.size - expected) < 0.05 * expected

    def test_complete_erdos_renyi_edges_enumerate_every_pair(self):
        u, v = erdos_renyi_edges(5, 1.0)
        assert list(zip(u.tolist(), v.tolist())) == [
            (a, b) for a in range(5) for b in range(a + 1, 5)
        ]

    def test_edge_arrays_of_edgeless_graphs_are_empty(self):
        for u, v in (
            ring_lattice_edges(0, 2),
            grid_edges(0, 3),
            erdos_renyi_edges(1, 0.5, seed=1),
            erdos_renyi_edges(10, 0.0, seed=1),
        ):
            assert u.size == 0 and v.size == 0


class TestConnectivity:
    def setup_method(self):
        # Two triangles joined by nothing, plus an isolated node.
        self.graph = {
            0: {1, 2},
            1: {0, 2},
            2: {0, 1},
            3: {4, 5},
            4: {3, 5},
            5: {3, 4},
            6: set(),
        }

    def test_connected_component(self):
        assert connected_component(self.graph, 0) == {0, 1, 2}
        assert connected_component(self.graph, 6) == {6}

    def test_connected_component_respects_alive(self):
        assert connected_component(self.graph, 0, alive={0, 1}) == {0, 1}
        assert connected_component(self.graph, 0, alive={1, 2}) == set()

    def test_connected_components_partition(self):
        components = connected_components(self.graph)
        assert sorted(len(c) for c in components) == [1, 3, 3]
        assert set().union(*components) == set(self.graph)

    def test_connected_components_alive_subset(self):
        components = connected_components(self.graph, alive={0, 1, 3, 6})
        assert sorted(len(c) for c in components) == [1, 1, 2]

    def test_connected_component_of_node_missing_from_graph(self):
        assert connected_component(self.graph, 9) == {9}

    def test_connected_components_of_nobody_alive(self):
        assert connected_components(self.graph, alive=set()) == []

    def test_union_adjacency_symmetrises_one_sided_edges(self):
        union = union_adjacency([{0: {1}}, {2: {1}}])
        assert union == {0: {1}, 1: {0, 2}, 2: {1}}
        assert union_adjacency([]) == {}

    def test_union_adjacency(self):
        first = {0: {1}, 1: {0}}
        second = {1: {2}, 2: {1}}
        union = union_adjacency([first, second])
        assert union[1] == {0, 2}
        assert union[2] == {1}
