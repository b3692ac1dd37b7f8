"""Simple undirected weighted graphs and the spectra used by the coupling bounds.

Eigenvalues come from numpy's symmetric solver.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# Absolute tolerance below which an eigenvalue counts as zero.
ZERO_EIGENVALUE_TOL = 1e-8


class TopologyError(ValueError):
    """Weight matrix violates the simple-undirected contract."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Weighted adjacency of a simple undirected graph.

    weights[i, j] > 0 is the interaction strength between neighbors i and j;
    the matrix is symmetric with a zero diagonal.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise TopologyError("weight matrix must be square")
        if w.shape[0] < 2:
            raise TopologyError(f"need at least 2 nodes, got {w.shape[0]}")
        if not np.all(np.isfinite(w)):
            raise TopologyError("weights must be finite")
        if np.any(w < 0.0):
            raise TopologyError("weights must be nonnegative")
        if not np.array_equal(w, w.T):
            raise TopologyError("weight matrix must be symmetric")
        if np.any(np.diag(w) != 0.0):
            raise TopologyError("diagonal must be zero (simple graph)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def neighbor_counts(self) -> np.ndarray:
        """Number of neighbors of each node (a count, not the weighted degree)."""
        return np.count_nonzero(self.weights > 0.0, axis=1)

    def is_connected(self) -> bool:
        """Breadth-first reachability of every node from node 0."""
        adj = self.weights > 0.0
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j in np.flatnonzero(adj[i]):
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
        return bool(seen.all())


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Real eigenvalues in ascending order; lambda2 is the second smallest."""

    eigenvalues: np.ndarray
    lambda2: float


def complete_graph(n: int, weight: float = 1.0) -> Topology:
    """All-to-all graph with a common edge weight."""
    if n < 2:
        raise TopologyError(f"complete graph needs n >= 2, got {n}")
    if weight <= 0.0:
        raise TopologyError("edge weight must be positive")
    w = np.full((n, n), float(weight))
    np.fill_diagonal(w, 0.0)
    return Topology(w)


def random_weighted_graph(
    n: int,
    edge_prob: float,
    weight_lo: float,
    weight_hi: float,
    seed: int,
    max_attempts: int = 1000,
) -> Topology:
    """Connected Erdos-Renyi-style graph with uniform random edge weights.

    Each unordered pair is independently an edge with probability edge_prob
    and weight drawn uniformly from [weight_lo, weight_hi).  Disconnected
    draws are discarded and regenerated from the same seeded stream, so one
    seed always yields one graph.

    Raises RuntimeError when no connected draw appears within
    max_attempts.
    """
    if n < 2:
        raise TopologyError(f"need n >= 2, got {n}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob}")
    if weight_lo < 0.0 or weight_hi <= 0.0 or weight_hi < weight_lo:
        raise ValueError("weights must satisfy 0 <= weight_lo <= weight_hi, weight_hi > 0")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    for _ in range(max_attempts):
        present = rng.random(iu.size) < edge_prob
        vals = rng.uniform(weight_lo, weight_hi, iu.size) * present
        w = np.zeros((n, n))
        w[iu, ju] = vals
        w += w.T
        top = Topology(w)
        if top.is_connected():
            return top
    raise RuntimeError(f"no connected graph in {max_attempts} attempts (n={n}, edge_prob={edge_prob})")


def laplacian(topology: Topology) -> np.ndarray:
    """Graph Laplacian: degree on the diagonal, minus the weights elsewhere.

    Rows sum to zero and the matrix is symmetric positive semidefinite.
    """
    w = topology.weights
    return np.diag(w.sum(axis=1)) - w


def spectrum(matrix: np.ndarray) -> SpectrumResult:
    """All eigenvalues of a real symmetric matrix (to within 1e-12 of its largest entry).

    Raises ValueError for a matrix that is not square, smaller than 2x2, or
    asymmetric.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if m.shape[0] < 2:
        raise ValueError("spectrum needs at least a 2x2 matrix")
    if np.abs(m - m.T).max() > 1e-12 * max(1.0, float(np.abs(m).max())):
        raise ValueError("matrix must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    return SpectrumResult(eigenvalues=eigs, lambda2=float(eigs[1]))


def neighbor_lambda2(topology: Topology) -> float:
    """lambda2 of D^-1 L, the neighbor-normalized Laplacian that both certificates use.

    D holds the neighbor counts, not the weighted degrees, so D^-1 L is
    asymmetric on an irregular graph.  It is similar to D^-1/2 L D^-1/2,
    which is exactly symmetric and has the same eigenvalues.  Raises
    ValueError when some node has no neighbors.
    """
    counts = topology.neighbor_counts
    if np.any(counts == 0):
        isolated = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"node {isolated + 1} has no neighbors")
    root = np.sqrt(counts)
    return spectrum(laplacian(topology) / np.outer(root, root)).lambda2
