"""Adjacency-map graph generators.

All generators return ``dict[int, set[int]]`` mapping each node identifier
to the set of its neighbours.  Edges are undirected: ``b in graph[a]``
implies ``a in graph[b]``.  Node identifiers are ``0..n-1``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "empty_graph",
    "complete_graph",
    "ring_lattice",
    "ring_lattice_edges",
    "grid_graph",
    "grid_edges",
    "erdos_renyi_graph",
    "erdos_renyi_edges",
    "random_geometric_graph",
    "grid_positions",
]

Adjacency = Dict[int, Set[int]]


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"node count must be non-negative, got {n}")


def empty_graph(n: int) -> Adjacency:
    """``n`` isolated nodes and no edges."""
    _check_count(n)
    return {node: set() for node in range(n)}


def complete_graph(n: int) -> Adjacency:
    """Every pair of distinct nodes is connected (uniform-gossip topology)."""
    _check_count(n)
    nodes = set(range(n))
    return {node: nodes - {node} for node in range(n)}


def _edges_to_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> Adjacency:
    """An adjacency map from unique undirected edge arrays."""
    graph = empty_graph(n)
    for a, b in zip(u.tolist(), v.tolist()):
        graph[a].add(b)
        graph[b].add(a)
    return graph


def _dedupe_edges(n: int, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical (min, max) unique edges, self-loops dropped."""
    keep = u != v
    u, v = u[keep], v[keep]
    a, b = np.minimum(u, v), np.maximum(u, v)
    _unique, index = np.unique(a * n + b, return_index=True)
    return a[index], b[index]


def ring_lattice_edges(n: int, k: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """The unique undirected edges of :func:`ring_lattice`, as arrays.

    This closed-form enumeration is what lets the vectorised backend build
    a CSR topology for 10⁵-host rings without ever materialising the
    per-node adjacency sets.
    """
    _check_count(n)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty
    u = np.repeat(np.arange(n, dtype=np.int64), k)
    offsets = np.tile(np.arange(1, k + 1, dtype=np.int64), n)
    return _dedupe_edges(n, u, (u + offsets) % n)


def ring_lattice(n: int, k: int = 1) -> Adjacency:
    """A ring where each node connects to its ``k`` nearest neighbours per side."""
    return _edges_to_adjacency(n, *ring_lattice_edges(n, k))


def grid_positions(width: int, height: int) -> Dict[int, Tuple[int, int]]:
    """Positions of nodes laid out row-major on a ``width`` × ``height`` grid."""
    if width < 0 or height < 0:
        raise ValueError("grid dimensions must be non-negative")
    return {row * width + col: (col, row) for row in range(height) for col in range(width)}


def grid_edges(
    width: int, height: int, diagonal: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """The unique undirected edges of :func:`grid_graph`, as arrays."""
    if width < 0 or height < 0:
        raise ValueError("grid dimensions must be non-negative")
    n = width * height
    if n == 0:
        empty = np.array([], dtype=np.int64)
        return empty, empty
    nodes = np.arange(n, dtype=np.int64)
    col, row = nodes % width, nodes // width
    offsets = [(1, 0), (0, 1)]
    if diagonal:
        offsets += [(1, 1), (1, -1)]
    sources, targets = [], []
    for d_col, d_row in offsets:
        n_col, n_row = col + d_col, row + d_row
        keep = (n_col >= 0) & (n_col < width) & (n_row >= 0) & (n_row < height)
        sources.append(nodes[keep])
        targets.append((n_row * width + n_col)[keep])
    return _dedupe_edges(n, np.concatenate(sources), np.concatenate(targets))


def grid_graph(width: int, height: int, diagonal: bool = False) -> Adjacency:
    """A 2-D grid with 4-connectivity (8-connectivity when ``diagonal``).

    This is the "hosts distributed evenly in a D-dimensional grid, able to
    communicate only with adjacent nodes" setting of the paper's spatial
    gossip discussion (Section IV-A).
    """
    return _edges_to_adjacency(width * height, *grid_edges(width, height, diagonal))


def erdos_renyi_edges(
    n: int, p: float, seed: Optional[int] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The unique undirected edges of :func:`erdos_renyi_graph`, as arrays.

    Edges are drawn by geometric skip-sampling over the linearised upper
    triangle — O(edges) time and memory instead of materialising all
    n·(n−1)/2 candidate pairs, which is what makes 10⁴–10⁵-host G(n, p)
    scenarios buildable at all (the dense ``triu_indices`` form needs
    ~80 GB at n = 10⁵).
    """
    _check_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    empty = np.array([], dtype=np.int64)
    if n < 2 or p == 0.0:
        return empty, empty
    total = n * (n - 1) // 2
    if p == 1.0:
        positions = np.arange(total, dtype=np.int64)
    else:
        rng = np.random.default_rng(seed)
        chunks = []
        current = np.int64(-1)
        batch = max(1024, int(p * total * 1.1) + 16)
        while current < total - 1:
            gaps = rng.geometric(p, size=batch).astype(np.int64)
            steps = np.cumsum(gaps) + current
            chunks.append(steps[steps < total])
            current = steps[-1]
        positions = np.concatenate(chunks) if chunks else empty
    # Decode linear index L to (i, j): row i starts at i·(n−1) − i·(i−1)/2.
    row_index = np.arange(n, dtype=np.int64)
    starts = row_index * (n - 1) - (row_index * (row_index - 1)) // 2
    rows = np.searchsorted(starts, positions, side="right") - 1
    return rows, rows + 1 + (positions - starts[rows])


def erdos_renyi_graph(n: int, p: float, seed: Optional[int] = None) -> Adjacency:
    """G(n, p): each of the n·(n−1)/2 possible edges exists with probability ``p``."""
    return _edges_to_adjacency(n, *erdos_renyi_edges(n, p, seed))


def random_geometric_graph(
    n: int,
    radius: float,
    seed: Optional[int] = None,
    *,
    area: float = 1.0,
    positions: Optional[Sequence[Tuple[float, float]]] = None,
) -> Tuple[Adjacency, Dict[int, Tuple[float, float]]]:
    """Nodes placed uniformly in a square, connected when within ``radius``.

    This is the standard model of wireless range: two devices can exchange
    gossip when they are physically close.  Returns both the adjacency map
    and the node positions (used by mobility models and plotting).
    """
    _check_count(n)
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    side = math.sqrt(area)
    rng = np.random.default_rng(seed)
    if positions is None:
        coords = rng.random((n, 2)) * side
    else:
        coords = np.asarray(positions, dtype=float)
        if coords.shape != (n, 2):
            raise ValueError(f"expected {n} positions, got shape {coords.shape}")
    graph = empty_graph(n)
    if n >= 2:
        # Pairwise distances without building an n x n x 2 intermediate for
        # large n: chunk over rows.
        chunk = max(1, min(n, 4096))
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            block = coords[start:stop]
            distances = np.sqrt(
                (block[:, None, 0] - coords[None, :, 0]) ** 2
                + (block[:, None, 1] - coords[None, :, 1]) ** 2
            )
            close = distances <= radius
            for local_row in range(stop - start):
                a = start + local_row
                neighbors = np.nonzero(close[local_row])[0]
                for b in neighbors:
                    b = int(b)
                    if b != a:
                        graph[a].add(b)
                        graph[b].add(a)
    position_map = {node: (float(coords[node, 0]), float(coords[node, 1])) for node in range(n)}
    return graph, position_map
