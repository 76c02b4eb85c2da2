import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (builder_graph_pairs, is_symmetric, random_sparse_affinity,
                      reference_edge_pairs, to_dense)
from probmatch.affinity import AffinityConfig, assemble_affinity, objective
from probmatch.graphs import FEATURE_DIM, AttributedGraph, synthesize_pair
from probmatch.linalg import SparseAffinity, perm_matrix


def _naive_affinity(g1, g2, cfg):
    """Straight-loop reimplementation used as the oracle."""
    n1, n2 = g1.n, g2.n
    K = np.zeros((n1 * n2, n1 * n2))
    for i in range(n1):
        for a in range(n2):
            d = g1.features[i] - g2.features[a]
            K[i * n2 + a, i * n2 + a] = cfg.unary_weight * np.exp(-0.5 * d @ d)
    for i in range(n1):
        for j in range(n1):
            for a in range(n2):
                for b in range(n2):
                    p, q = i * n2 + a, j * n2 + b
                    if p == q or not (g1.adjacency[i, j] and g2.adjacency[a, b]):
                        continue
                    d1 = g1.points[j] - g1.points[i]
                    d2 = g2.points[b] - g2.points[a]
                    dlen = abs(np.linalg.norm(d1) - np.linalg.norm(d2))
                    a1 = np.mod(np.arctan2(d1[1], d1[0]), np.pi)
                    a2 = np.mod(np.arctan2(d2[1], d2[0]), np.pi)
                    dang = abs(a1 - a2)
                    dang = min(dang, np.pi - dang)
                    K[p, q] = (np.exp(-(dlen / cfg.sigma_len) ** 2)
                               * np.exp(-(dang / cfg.sigma_ang) ** 2))
    return K


def test_config_rejects_nonpositive_bandwidths():
    with pytest.raises(ValueError):
        AffinityConfig(sigma_len=0.0)
    with pytest.raises(ValueError):
        AffinityConfig(sigma_ang=-1.0)


def test_identical_graphs_matching_edges_score_one():
    pair = synthesize_pair(5, 0.0, seed=2, translation_max=0.0)
    K = assemble_affinity(pair.g1, pair.g1)
    dense = to_dense(K)
    n = 5
    for i in range(n):
        for j in range(n):
            if pair.g1.adjacency[i, j]:
                # the "correct" pairing (i,i) with (j,j) has zero deformation
                assert dense[i * n + i, j * n + j] == pytest.approx(1.0)


def test_edgeless_graph_gives_pure_diagonal():
    n = 4
    pts = np.random.default_rng(0).uniform(0, 1, size=(n, 2))
    g = AttributedGraph(pts, np.zeros((n, FEATURE_DIM)),
                        np.zeros((n, n), dtype=bool))
    pair = synthesize_pair(n, 0.0, seed=1)
    K = assemble_affinity(g, pair.g2)
    assert K.rows.size == 0
    assert np.all(K.unary > 0)


def test_assembly_matches_naive_loop_oracle():
    pair = synthesize_pair(3, 0.02, seed=5)
    cfg = AffinityConfig()
    K = assemble_affinity(pair.g1, pair.g2, cfg)
    assert np.allclose(to_dense(K), _naive_affinity(pair.g1, pair.g2, cfg),
                       atol=1e-12)


def test_assembled_triplets_are_bitwise_the_per_pair_oracle():
    # rows/cols from the repeat/tile pair enumeration; each value is the
    # kernel of its graph-1 edge and its graph-2 edge as listed, evaluated
    # pair by pair on the enumeration's index arrays
    cfg = AffinityConfig()
    for name, g1, g2 in builder_graph_pairs():
        K = assemble_affinity(g1, g2, cfg)
        e1, e2 = g1.edge_list(), g2.edge_list()
        i, j, a, b = reference_edge_pairs(e1, e2)
        p, q = (i * g2.n + a).astype(np.int32), (j * g2.n + b).astype(np.int32)
        k1 = np.repeat(np.arange(len(e1)), 2 * len(e2))
        k2 = np.tile(np.arange(len(e2)), 2 * len(e1))
        d1 = g1.points[e1[k1, 1]] - g1.points[e1[k1, 0]]
        d2 = g2.points[e2[k2, 1]] - g2.points[e2[k2, 0]]
        dlen = np.abs(np.linalg.norm(d1, axis=1) - np.linalg.norm(d2, axis=1))
        dang = np.abs(np.mod(np.arctan2(d1[:, 1], d1[:, 0]), np.pi)
                      - np.mod(np.arctan2(d2[:, 1], d2[:, 0]), np.pi))
        dang = np.minimum(dang, np.pi - dang)
        vals = np.exp(-(dlen / cfg.sigma_len) ** 2) * np.exp(-(dang / cfg.sigma_ang) ** 2)
        for got, want in ((K.rows, np.concatenate([p, q])), (K.cols, np.concatenate([q, p])),
                          (K.vals, np.concatenate([vals, vals]))):
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_values_in_unit_interval_and_symmetric():
    for seed in range(5):
        pair = synthesize_pair(6, 0.05, rotation_max=0.2, seed=seed)
        K = assemble_affinity(pair.g1, pair.g2)
        assert is_symmetric(K, tol=1e-12)
        assert np.all(K.unary >= 0) and np.all(K.unary <= 1)
        assert np.all(K.vals >= 0) and np.all(K.vals <= 1)


# ---------------------------------------------------------------------------
# objective

def test_objective_one_hot_on_identity_diagonal():
    K = SparseAffinity(2, 2, np.ones(4))
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert objective(K, x) == pytest.approx(1.0)


def test_objective_zero_vector():
    K = SparseAffinity(2, 2, np.ones(4))
    assert objective(K, np.zeros(4)) == 0.0


def test_objective_matches_dense_quadratic_form():
    rng = np.random.default_rng(8)
    K = random_sparse_affinity(rng, 3, 3, density=0.3)
    x = rng.uniform(0, 1, size=9)
    dense = to_dense(K)
    assert objective(K, x) == pytest.approx(x @ dense @ x, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 12))
def test_ground_truth_beats_random_permutations_at_zero_noise(seed, n):
    pair = synthesize_pair(n, 0.0, seed=seed, translation_max=0.0)
    K = assemble_affinity(pair.g1, pair.g2)
    gt_val = objective(K, perm_matrix(pair.ground_truth).ravel())
    rng = np.random.default_rng(seed + 1)
    for _ in range(100):
        perm = rng.permutation(n)
        if np.array_equal(perm, pair.ground_truth):
            continue
        assert gt_val > objective(K, perm_matrix(perm).ravel())
