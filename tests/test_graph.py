"""Unit tests for graph construction, Laplacians, and the spectral helpers.

A dense asymmetric eigensolve (numpy.linalg.eigvals) is the brute-force
oracle for the similarity-transform path of the spectrum.
"""

import numpy as np
import pytest

from hkbnet import graph
from hkbnet.bounds import quad_certificate
from hkbnet.presets import VALIDATION5_PARAMS, validation5_topology


def random_topology(rng, n, edge_prob=0.7):
    """Raw random weight matrix (possibly disconnected), for property tests."""
    w = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    present = rng.random(iu.size) < edge_prob
    w[iu, ju] = rng.uniform(0.1, 3.0, iu.size) * present
    w += w.T
    return graph.Topology(w)


class TestTopology:
    def test_rejects_asymmetric(self):
        with pytest.raises(graph.TopologyError):
            graph.Topology(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(graph.TopologyError):
            graph.Topology(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_rejects_negative_weight(self):
        with pytest.raises(graph.TopologyError):
            graph.Topology(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_single_node(self):
        with pytest.raises(graph.TopologyError):
            graph.Topology(np.zeros((1, 1)))

    def test_neighbor_counts_ignore_weights(self):
        w = np.array([[0.0, 2.5, 0.0], [2.5, 0.0, 0.1], [0.0, 0.1, 0.0]])
        assert list(graph.Topology(w).neighbor_counts) == [1, 2, 1]

    def test_weights_are_read_only(self):
        top = graph.complete_graph(3)
        with pytest.raises(ValueError):
            top.weights[0, 1] = 5.0


class TestCompleteGraph:
    def test_six_nodes_unit_weight(self):
        top = graph.complete_graph(6, 1.0)
        assert top.n == 6
        off = ~np.eye(6, dtype=bool)
        assert np.all(top.weights[off] == 1.0)
        assert np.all(np.diag(top.weights) == 0.0)

    def test_two_nodes_is_single_edge(self):
        top = graph.complete_graph(2, 1.0)
        assert top.weights[0, 1] == 1.0
        assert list(top.neighbor_counts) == [1, 1]

    def test_weighted_laplacian_diagonal(self):
        # n=4, weight 2: every degree is 3 * 2 = 6
        lap = graph.laplacian(graph.complete_graph(4, 2.0))
        assert np.all(np.diag(lap) == 6.0)
        assert np.all(lap[~np.eye(4, dtype=bool)] == -2.0)

    def test_too_small_raises(self):
        with pytest.raises(graph.TopologyError):
            graph.complete_graph(1)


class TestRandomWeightedGraph:
    def test_same_seed_bitwise_identical(self):
        a = graph.random_weighted_graph(5, 0.6, 0.0, 2.0, seed=7)
        b = graph.random_weighted_graph(5, 0.6, 0.0, 2.0, seed=7)
        assert np.array_equal(a.weights, b.weights)

    def test_different_seeds_differ(self):
        a = graph.random_weighted_graph(5, 0.6, 0.0, 2.0, seed=7)
        b = graph.random_weighted_graph(5, 0.6, 0.0, 2.0, seed=8)
        assert not np.array_equal(a.weights, b.weights)

    def test_edge_prob_one_forces_single_edge(self):
        top = graph.random_weighted_graph(2, 1.0, 1.0, 1.0, seed=0)
        assert top.weights[0, 1] == 1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_connected_and_within_bounds(self, seed):
        top = graph.random_weighted_graph(5, 0.6, 0.0, 2.0, seed=seed)
        assert top.is_connected()
        assert np.all(top.weights >= 0.0)
        assert np.all(top.weights <= 2.0)

    def test_generation_failure_reports_attempts(self):
        with pytest.raises(graph.GenerationError) as err:
            graph.random_weighted_graph(3, 0.0, 0.0, 2.0, seed=0, max_attempts=25)
        assert err.value.attempts == 25


class TestLaplacian:
    def test_triangle_exact(self):
        lap = graph.laplacian(graph.complete_graph(3, 1.0))
        expected = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert np.array_equal(lap, expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_row_sums_vanish(self, seed):
        rng = np.random.default_rng(seed)
        top = random_topology(rng, int(rng.integers(2, 9)))
        lap = graph.laplacian(top)
        assert np.abs(lap.sum(axis=1)).max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_positive_semidefinite(self, seed):
        rng = np.random.default_rng(100 + seed)
        top = random_topology(rng, int(rng.integers(2, 9)))
        eigs = graph.spectrum(graph.laplacian(top)).eigenvalues
        assert eigs[0] >= -1e-10

    def test_complete6_spectrum(self):
        eigs = graph.spectrum(graph.laplacian(graph.complete_graph(6, 1.0))).eigenvalues
        assert abs(eigs[0]) < 1e-10
        assert np.abs(eigs[1:] - 6.0).max() < 1e-10


class TestNormalizedNeighborLaplacian:
    def test_complete6_is_laplacian_over_five(self):
        top = graph.complete_graph(6, 1.0)
        ln = graph.normalized_neighbor_laplacian(top)
        assert np.allclose(ln, graph.laplacian(top) / 5.0, atol=1e-15)
        result = graph.spectrum(ln)
        assert abs(result.lambda2 - 1.2) < 1e-10

    def test_two_node_unit_graph(self):
        ln = graph.normalized_neighbor_laplacian(graph.complete_graph(2, 1.0))
        assert np.array_equal(ln, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert abs(graph.spectrum(ln).lambda2 - 2.0) < 1e-12

    def test_fixture_lambda2(self):
        top = validation5_topology()
        ln = graph.normalized_neighbor_laplacian(top)
        result = graph.spectrum(ln, symmetric_similarity_hint=top.neighbor_counts)
        assert abs(result.eigenvalues[0]) < 1e-10
        assert abs(result.lambda2 - 0.4112) < 1e-6

    def test_isolated_node_raises(self):
        top = graph.Topology(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(graph.DegenerateNodeError):
            graph.normalized_neighbor_laplacian(top)

    def test_normalizer_is_count_not_degree(self):
        # node 0 has one neighbor of weight 4: diagonal entry must be 4/1, not 1
        w = np.array([[0.0, 4.0, 0.0], [4.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        ln = graph.normalized_neighbor_laplacian(graph.Topology(w))
        assert ln[0, 0] == 4.0
        assert ln[1, 1] == 2.5


class TestSpectrum:
    def test_identity(self):
        result = graph.spectrum(np.eye(3))
        assert np.array_equal(result.eigenvalues, np.ones(3))

    def test_complete4_laplacian(self):
        result = graph.spectrum(graph.laplacian(graph.complete_graph(4, 1.0)))
        assert abs(result.eigenvalues[0]) < 1e-10
        assert np.abs(result.eigenvalues[1:] - 4.0).max() < 1e-10

    def test_asymmetric_without_hint_raises(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            graph.spectrum(m)

    def test_bad_hint_raises(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            graph.spectrum(m, symmetric_similarity_hint=[1.0, 1.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_similarity_hint_matches_brute_force(self, seed):
        # Eigenvalues of the asymmetric neighbor-normalized Laplacian via the
        # diagonal similarity must equal a direct dense eigensolve.
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(3, 7))
        top = random_topology(rng, n, edge_prob=0.9)
        if np.any(top.neighbor_counts == 0):
            pytest.skip("drew an isolated node")
        ln = graph.normalized_neighbor_laplacian(top)
        mine = graph.spectrum(ln, symmetric_similarity_hint=top.neighbor_counts).eigenvalues
        ref = np.sort(np.linalg.eigvals(ln).real)
        assert np.abs(mine - ref).max() < 1e-8


class TestConnectivity:
    @pytest.mark.parametrize("seed", range(20))
    def test_bfs_agrees_with_spectral_count(self, seed):
        # connected <=> exactly one Laplacian eigenvalue below tolerance
        rng = np.random.default_rng(300 + seed)
        top = random_topology(rng, int(rng.integers(3, 9)), edge_prob=0.35)
        eigs = graph.spectrum(graph.laplacian(top)).eigenvalues
        near_zero = int((np.abs(eigs) < 1e-8).sum())
        assert top.is_connected() == (near_zero == 1)


class TestKronLambda2:
    """The Kronecker gap lambda2 * min(p * shape) inside the Lyapunov certificate.

    c_bar = max(w) / (lambda2 * min(p * shape)), so max(w) / c_bar recovers the
    second-smallest eigenvalue of Ln kron diag(p * shape) once the kernel's
    copies count as one zero.
    """

    @staticmethod
    def gap(topology, p, shape):
        params = VALIDATION5_PARAMS[: topology.n]  # one shared gamma
        cert = quad_certificate(graph.neighbor_lambda2(topology), params, p=p, coupling_shape=shape)
        return max(cert.w) / cert.c_bar

    def test_fixture_with_shape_matrix(self):
        value = self.gap(validation5_topology(), (0.077, 0.077), (1.0, 1.0))
        assert abs(value - 0.4112 * 0.077) < 1e-9

    def test_two_node_kernel_copies_excluded(self):
        # neighbor-normalized K2 has eigenvalues {0, 2}: gap 2 * min(1, 2)
        value = self.gap(graph.complete_graph(2, 1.0), (1.0, 1.0), (1.0, 2.0))
        assert abs(value - 2.0) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_explicit_kronecker_product(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 6))
        top = random_topology(rng, n, edge_prob=0.95)
        if not top.is_connected():
            pytest.skip("drew a disconnected graph")
        ln = graph.normalized_neighbor_laplacian(top)
        p = rng.uniform(0.1, 3.0, size=2)
        shape = rng.uniform(0.1, 3.0, size=2)
        full = np.kron(ln, np.diag(p * shape))
        eigs = np.sort(np.linalg.eigvals(full).real)
        ref = eigs[np.abs(eigs) > graph.ZERO_EIGENVALUE_TOL][0]
        assert abs(self.gap(top, p, shape) - ref) < 1e-9
