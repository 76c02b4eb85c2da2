import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (int64_copy, is_symmetric, random_sparse_affinity, reference_sinkhorn,
                      reference_sinkhorn_vjp, reference_spmv, to_dense)
from probmatch import linalg as linalg_module
from probmatch.affinity import assemble_affinity
from probmatch.graphs import FEATURE_DIM, AttributedGraph, build_aa_graph, synthesize_pair
from probmatch.linalg import (
    FLOOR,
    SparseAffinity,
    binary_score,
    block_diagonal,
    hungarian,
    index_dtype,
    l21_norm,
    perm_matrix,
    sinkhorn,
    sinkhorn_vjp,
    spmv,
)
from probmatch.predictor import PredictorConfig, init_params, learned_affinity


# ---------------------------------------------------------------------------
# spmv

def test_spmv_identity_diagonal():
    K = SparseAffinity(1, 2, np.ones(2))
    assert np.allclose(spmv(K, [0.2, 0.8]), [0.2, 0.8])


def test_spmv_swap_pair():
    K = SparseAffinity.symmetric(2, 2, np.zeros(4), np.array([0]), np.array([3]),
                                 np.array([1.0]))
    assert np.allclose(spmv(K, [1, 0, 0, 1]), [1, 0, 0, 1])


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(0)
    K = random_sparse_affinity(rng, 2, 3, density=0.3)
    x = rng.uniform(0, 1, size=6)
    assert np.allclose(spmv(K, x), to_dense(K) @ x, atol=1e-12)


def test_spmv_dimension_mismatch():
    K = SparseAffinity(2, 2, np.ones(4))
    with pytest.raises(ValueError):
        spmv(K, np.ones(3))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_spmv_dense_agreement_property(seed):
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(1, 9))
    n2 = int(rng.integers(1, 9))
    K = random_sparse_affinity(rng, n1, n2, density=0.2)
    x = rng.uniform(0, 1, size=K.size)
    assert np.allclose(spmv(K, x), to_dense(K) @ x, atol=1e-12)


@pytest.mark.parametrize("n_pairs", [0, 1, 7])
def test_symmetric_stores_each_weight_at_p_q_then_at_q_p(n_pairs):
    rng = np.random.default_rng(n_pairs)
    p = rng.integers(0, 12, size=n_pairs)
    q = rng.integers(0, 12, size=n_pairs)
    w = rng.uniform(size=n_pairs)
    unary = rng.uniform(size=12)
    K = SparseAffinity.symmetric(3, 4, unary, p, q, w)
    assert K.rows.dtype == K.cols.dtype == np.int64 and K.vals.dtype == np.float64
    assert np.array_equal(K.unary, unary)
    assert np.array_equal(K.rows, np.concatenate([p, q]))
    assert np.array_equal(K.cols, np.concatenate([q, p]))
    assert np.array_equal(K.vals, np.concatenate([w, w]))
    assert is_symmetric(K)
    K_T = SparseAffinity.symmetric(3, 4, unary, q, p, w)
    assert np.array_equal(K_T.rows, K.cols) and np.array_equal(K_T.cols, K.rows)


def _bitwise_cases(K, rng):
    """Inputs whose products must match the triplet kernel bit for bit."""
    return (np.full(K.size, 1.0 / K.n2), rng.uniform(0, 1, K.size),
            rng.normal(size=K.size), np.zeros(K.size))


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13, 21, 34, 55, 100])
def test_spmv_is_bitwise_the_triplet_kernel_on_handcrafted_operators(n):
    rng = np.random.default_rng(n)
    pair = synthesize_pair(n, 0.02, seed=n)
    K = assemble_affinity(pair.g1, pair.g2)
    for x in _bitwise_cases(K, rng):
        assert np.array_equal(spmv(K, x), reference_spmv(K, x))
    # the same pattern with directed values that differ, so K is not symmetric
    K = SparseAffinity(n, n, K.unary, K.rows, K.cols, rng.normal(size=K.vals.size))
    for x in _bitwise_cases(K, rng):
        assert np.array_equal(spmv(K, x), reference_spmv(K, x))


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_spmv_is_bitwise_the_triplet_kernel_on_learned_operators(n):
    rng = np.random.default_rng(n)
    pcfg = PredictorConfig(d_V=4, d_E=4, T=1)
    pair = synthesize_pair(n, 0.03, seed=n)
    K, _ = learned_affinity(build_aa_graph(pair.g1, pair.g2), init_params(pcfg, seed=n), pcfg)
    for x in _bitwise_cases(K, rng):
        assert np.array_equal(spmv(K, x), reference_spmv(K, x))


def test_spmv_is_bitwise_the_triplet_kernel_on_random_operators():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n1, n2 = (int(v) for v in rng.integers(1, 7, size=2))
        K = random_sparse_affinity(rng, n1, n2, density=0.4)   # SparseAffinity.symmetric
        for x in _bitwise_cases(K, rng):
            assert np.array_equal(spmv(K, x), reference_spmv(K, x))
        order = rng.permutation(K.vals.size)     # rows out of order
        K = SparseAffinity(n1, n2, K.unary, K.rows[order], K.cols[order],
                           rng.normal(size=K.vals.size))
        for x in _bitwise_cases(K, rng):
            assert np.array_equal(spmv(K, x), reference_spmv(K, x))


def test_block_diagonal_products_are_each_block_alone():
    rng = np.random.default_rng(5)
    for B in (2, 7):
        Ks = [random_sparse_affinity(rng, 3, 4, density=0.4) for _ in range(B - 1)]
        Ks.append(SparseAffinity(3, 4, rng.uniform(size=12)))     # no off-diagonal entries
        stacked = block_diagonal(Ks)
        assert (stacked.n1, stacked.n2) == (3 * B, 4)
        assert is_symmetric(stacked)
        for _ in range(3):
            x = rng.normal(size=(B, 12))
            assert np.array_equal(spmv(stacked, x.ravel()),
                                  np.concatenate([spmv(K, x_b) for K, x_b in zip(Ks, x)]))
    K = random_sparse_affinity(rng, 3, 3)
    assert block_diagonal([K]) is K
    with pytest.raises(ValueError, match="same size"):
        block_diagonal([K, random_sparse_affinity(rng, 3, 4)])
    with pytest.raises(ValueError, match="same size"):
        block_diagonal([K, random_sparse_affinity(rng, 1, 9)])
    with pytest.raises(ValueError, match="at least one"):
        block_diagonal([])


def test_block_diagonal_rejects_an_index_outside_its_own_block():
    # in range for the stack, but instance 1 would read instance 0's x[3]
    ok = SparseAffinity(2, 2, np.ones(4), rows=[0, 1], cols=[1, 0], vals=[1.0, 1.0])
    bad = SparseAffinity(2, 2, np.ones(4), rows=[0], cols=[-1], vals=[5.0])
    with pytest.raises(ValueError, match="lie in"):
        spmv(bad, np.arange(4.0))
    for chunk in ([ok, bad], [bad, ok], [ok, ok, bad]):
        with pytest.raises(ValueError, match=r"lie in \[0, 4\)"):
            block_diagonal(chunk)
    past = SparseAffinity(2, 2, np.ones(4), rows=[4], cols=[0], vals=[5.0])
    with pytest.raises(ValueError, match=r"lie in \[0, 4\)"):
        block_diagonal([past, ok])
    assert block_diagonal([bad]) is bad


def test_spmv_is_bitwise_the_triplet_kernel_without_off_diagonal_entries():
    rng = np.random.default_rng(4)
    for n1, n2 in ((1, 1), (2, 3), (5, 5)):
        K = SparseAffinity(n1, n2, rng.uniform(0.0, 1.0, size=n1 * n2))   # unary only
        for x in _bitwise_cases(K, rng):
            assert np.array_equal(spmv(K, x), reference_spmv(K, x))
    # the learned operator of an AA graph with no edges: graph 1 has none
    pcfg = PredictorConfig(d_V=4, d_E=4, T=1)
    g2 = synthesize_pair(4, 0.03, seed=4).g2
    g1 = AttributedGraph(rng.uniform(size=(4, 2)), np.zeros((4, FEATURE_DIM)),
                         np.zeros((4, 4), dtype=bool))
    K, _ = learned_affinity(build_aa_graph(g1, g2), init_params(pcfg, seed=4), pcfg)
    assert K.rows.size == 0
    for x in _bitwise_cases(K, rng):
        assert np.array_equal(spmv(K, x), reference_spmv(K, x))


def test_spmv_sees_reassigned_triplets():
    rng = np.random.default_rng(1)
    pair = synthesize_pair(6, 0.02, seed=1)
    K = assemble_affinity(pair.g1, pair.g2)
    x = rng.uniform(0, 1, K.size)
    before = spmv(K, x)
    K.vals = K.vals * rng.uniform(0.5, 1.5, K.vals.size)
    after = spmv(K, x)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, reference_spmv(K, x))
    K.rows, K.cols = K.cols, K.rows              # the transpose
    assert np.array_equal(spmv(K, x), reference_spmv(K, x))
    assert not np.array_equal(spmv(K, x), after)


def test_spmv_of_a_copy_edited_before_its_first_product_sees_the_edit():
    pair = synthesize_pair(6, 0.02, seed=2)
    K = assemble_affinity(pair.g1, pair.g2)
    x = np.full(K.size, 1.0 / 6)
    before = spmv(K, x)
    edited = K.copy()
    edited.vals[0] = 0.0
    assert np.array_equal(spmv(edited, x), reference_spmv(edited, x))
    assert not np.array_equal(spmv(edited, x), before)
    assert np.array_equal(spmv(K, x), before)


def test_spmv_rejects_triplets_the_native_kernels_cannot_index():
    K = SparseAffinity(2, 2, np.ones(4), rows=[0, 3], cols=[3, 4], vals=[1.0, 1.0])
    with pytest.raises(ValueError, match="lie in"):
        spmv(K, np.ones(4))
    K.cols = np.array([3, -1])
    with pytest.raises(ValueError, match="lie in"):
        spmv(K, np.ones(4))
    K.cols = np.array([3, 0])
    K.vals = np.array([1.0])
    with pytest.raises(ValueError, match="one length"):
        spmv(K, np.ones(4))
    # an int64 index past 2**32 is rejected, not read as its low 32 bits (1)
    K = SparseAffinity(2, 2, np.ones(4), rows=np.array([0, 2**32 + 1]), cols=[1, 0],
                       vals=[1.0, 1.0])
    with pytest.raises(ValueError, match="lie in"):
        spmv(K, np.ones(4))
    ok = SparseAffinity(2, 2, np.ones(4), rows=np.array([0, 1], dtype=np.int32),
                        cols=np.array([1, 0], dtype=np.int32), vals=[1.0, 1.0])
    for chunk in ([K, ok], [ok, K]):
        with pytest.raises(ValueError, match="lie in"):
            spmv(block_diagonal(chunk), np.ones(8))


def test_index_width_is_int32_below_2_to_the_31():
    assert index_dtype(0) is index_dtype(2**31 - 1) is np.int32
    assert index_dtype(2**31) is index_dtype(2**40) is np.int64


def test_int32_triplets_are_kept_without_a_copy():
    rows, cols = np.array([0, 3], dtype=np.int32), np.array([3, 0], dtype=np.int32)
    K = SparseAffinity(2, 2, np.ones(4), rows, cols, [0.5, 0.5])
    assert K.rows is rows and K.cols is cols
    K = SparseAffinity(2, 2, np.ones(4), [0, 3], np.array([3, 0], dtype=np.uint32),
                       [0.5, 0.5])
    assert K.rows.dtype == K.cols.dtype == np.int64


@pytest.mark.parametrize("n", [3, 8, 21])
def test_int32_and_int64_triplets_give_bitwise_the_same_results(n):
    rng = np.random.default_rng(n)
    Ks = [assemble_affinity(p.g1, p.g2)
          for p in (synthesize_pair(n, 0.02, seed=n + b) for b in range(3))]
    assert all(K.rows.dtype == K.cols.dtype == np.int32 for K in Ks)
    wide = [int64_copy(K) for K in Ks]
    for K, K64 in zip(Ks, wide):
        assert np.array_equal(to_dense(K), to_dense(K64))
        for x in _bitwise_cases(K, rng):
            assert np.array_equal(spmv(K, x), spmv(K64, x))
    mixed = [Ks[0], wide[1], Ks[2]]
    for chunk, dtype in ((Ks, np.int32), (wide, np.int64), (mixed, np.int64)):
        stacked = block_diagonal(chunk)
        assert stacked.rows.dtype == stacked.cols.dtype == dtype
        assert np.array_equal(to_dense(stacked), to_dense(block_diagonal(wide)))
        x = rng.normal(size=stacked.size)
        assert np.array_equal(spmv(stacked, x), spmv(block_diagonal(wide), x))


def test_to_dense_sums_repeated_entries():
    K = SparseAffinity(1, 2, np.array([1.0, 2.0]), rows=[0, 0, 1], cols=[1, 1, 0],
                       vals=[0.25, 0.5, 3.0])
    assert np.array_equal(to_dense(K), [[1.0, 0.75], [3.0, 2.0]])


# ---------------------------------------------------------------------------
# sinkhorn

def test_sinkhorn_identity_fixed_point():
    out = sinkhorn(np.eye(3))
    assert np.allclose(out, np.eye(3), atol=1e-9)


def test_sinkhorn_all_ones():
    assert np.allclose(sinkhorn(np.ones((2, 2))), np.full((2, 2), 0.5))


def test_sinkhorn_long_run_fixed_point_oracle():
    X = np.array([[2.0, 1.0], [1.0, 2.0]])
    limit = sinkhorn(X, max_iters=500, tol=1e-15)
    assert np.allclose(sinkhorn(X), limit, atol=1e-8)


def test_sinkhorn_rejects_negative_tol_and_zero_tol_runs_every_pass():
    with pytest.raises(ValueError):
        sinkhorn(np.ones((2, 2)), tol=-1e-9)
    X = np.random.default_rng(3).uniform(0.0, 1.0, size=(4, 4))
    expected = np.maximum(X, 1e-12)
    for _ in range(50):
        expected = expected / expected.sum(axis=1, keepdims=True)
        expected = expected / expected.sum(axis=0, keepdims=True)
    assert np.array_equal(sinkhorn(X, max_iters=50, tol=0.0), expected)
    # the default tolerance stops this input earlier
    assert not np.array_equal(sinkhorn(X, max_iters=50), expected)


def test_sinkhorn_rejects_nonsquare():
    with pytest.raises(ValueError):
        sinkhorn(np.ones((2, 3)))
    with pytest.raises(ValueError):
        sinkhorn(np.ones((4, 2, 3)))
    with pytest.raises(ValueError):
        sinkhorn(np.ones((2, 2, 2, 2)))


@pytest.mark.parametrize("tol", [0.0, 1e-9])
@pytest.mark.parametrize("B", [1, 8, 33])
def test_sinkhorn_on_a_stack_is_each_matrix_alone(B, tol):
    # inputs from near doubly stochastic to far from it, with entries below
    # the floor: under a tolerance the matrices stop at different passes
    rng = np.random.default_rng(B)
    X = 1.0 + 10.0 ** rng.uniform(-9, 1, size=(B, 1, 1)) * rng.uniform(size=(B, 6, 6))
    X[::4] = rng.uniform(size=X[::4].shape) ** 30
    X[rng.uniform(size=X.shape) < 0.02] = 0.0
    out = sinkhorn(X, tol=tol)
    assert out.shape == X.shape
    passes = set()
    for X_b, out_b in zip(X, out):
        expected, ran = reference_sinkhorn(X_b, tol=tol)
        assert np.array_equal(out_b, expected)
        assert np.array_equal(sinkhorn(X_b, tol=tol), expected)
        passes.add(ran)
    if tol and B > 1:
        assert len(passes) > 2 and max(passes) == 20
    assert np.array_equal(sinkhorn(X, max_iters=0, tol=tol), np.maximum(X, FLOOR))


def _deviations(X, passes):
    """The largest row-sum and column-sum deviations from 1 after each of
    the first ``passes`` Sinkhorn passes on X."""
    Z, out = np.maximum(X, FLOOR), []
    for _ in range(passes):
        Z = Z / Z.sum(axis=1, keepdims=True)
        Z = Z / Z.sum(axis=0, keepdims=True)
        out.append((np.abs(Z.sum(axis=1) - 1.0).max(), np.abs(Z.sum(axis=0) - 1.0).max()))
    return out


def test_sinkhorn_goes_on_while_the_rows_pass_and_the_columns_do_not():
    # near doubly stochastic inputs whose rows sum to 1 within the tolerance
    # after some pass while a column does not; the tolerance is that
    # column's deviation, which no earlier pass came within, so the check
    # must take the columns of a matrix whose rows passed
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(40):
        X = rng.uniform(0.5, 1.5, size=(4, 4))
        devs = _deviations(X, 40)
        for k, (row, col) in enumerate(devs):
            if row < col and all(max(d) >= col for d in devs[:k]):
                cases.append((X, col, k + 1))
                break
    assert len(cases) >= 3
    stack = np.stack([X for X, _, _ in cases])
    for X, tol, passed in cases:
        expected, ran = reference_sinkhorn(X, max_iters=40, tol=tol)
        assert ran > passed
        assert np.array_equal(sinkhorn(X, 40, tol), expected)
        for X_b, out_b in zip(stack, sinkhorn(stack, 40, tol)):
            assert np.array_equal(out_b, reference_sinkhorn(X_b, max_iters=40, tol=tol)[0])


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (5, 5), elements=st.floats(1e-3, 10.0)),
       st.floats(1e-3, 1e3))
def test_sinkhorn_scale_invariance(X, c):
    # strictly positive entries: the positivity floor never binds, so the
    # first row normalization removes the scale exactly
    assert np.allclose(sinkhorn(c * X), sinkhorn(X), atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_sinkhorn_row_col_sums(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    out = sinkhorn(rng.uniform(0, 1, size=(n, n)), max_iters=200, tol=1e-9)
    assert np.all(out > 0)
    assert np.abs(out.sum(axis=0) - 1).max() < 1e-6
    assert np.abs(out.sum(axis=1) - 1).max() < 1e-6


def _sinkhorn_loss(Y, passes, G):
    return float((sinkhorn(Y, passes, tol=0.0) * G).sum())


def _sinkhorn_inputs(rng, shape):
    """Inputs from near doubly stochastic to far from it, with entries at and
    below the floor."""
    Y = rng.uniform(0.05, 2.0, size=shape) ** rng.choice([1, 8], size=shape[:-2] + (1, 1))
    Y[rng.uniform(size=shape) < 0.05] = rng.choice([0.0, FLOOR / 2, FLOOR])
    return Y


def _kept_passes(monkeypatch, Y, passes, G):
    """``sinkhorn_vjp(Y, passes, G)`` and the (r, A, c, Z) of every pass it
    ran through ``_sinkhorn_pass``."""
    kept, run = [], linalg_module._sinkhorn_pass

    def spy(Z, r):
        A, c, Z = run(Z, r)
        kept.append((r, A, c, Z))
        return A, c, Z

    with monkeypatch.context() as m:
        m.setattr(linalg_module, "_sinkhorn_pass", spy)
        return sinkhorn_vjp(Y, passes, G), kept


@pytest.mark.parametrize("passes", [1, 20])
@pytest.mark.parametrize("n", [3, 8, 21])
def test_kept_pass_sinkhorn_vjp_is_bitwise_the_replay(monkeypatch, n, passes):
    rng = np.random.default_rng(n + passes)
    for _ in range(3):
        Y, G = _sinkhorn_inputs(rng, (n, n)), rng.normal(size=(n, n))
        grad, kept = _kept_passes(monkeypatch, Y, passes, G)
        assert len(kept) == passes
        assert np.array_equal(kept[-1][3], sinkhorn(Y, passes, tol=0.0))
        assert np.array_equal(grad, reference_sinkhorn_vjp(Y, passes, G))


@pytest.mark.parametrize("B", [1, 5])
def test_kept_pass_sinkhorn_vjp_on_a_stack_is_each_matrix_alone(monkeypatch, B):
    rng = np.random.default_rng(40 + B)
    Y, G = _sinkhorn_inputs(rng, (B, 8, 8)), rng.normal(size=(B, 8, 8))
    grad, kept = _kept_passes(monkeypatch, Y, 20, G)
    assert len(kept) == 20
    assert all([a.shape for a in k] == [(B, 8, 1), (B, 8, 8), (B, 1, 8), (B, 8, 8)] for k in kept)
    assert np.array_equal(kept[-1][3], sinkhorn(Y, 20, tol=0.0))
    for b in range(B):
        assert np.array_equal(grad[b], reference_sinkhorn_vjp(Y[b], 20, G[b]))
        own_grad, own = _kept_passes(monkeypatch, Y[b], 20, G[b])
        assert np.array_equal(own_grad, grad[b])
        assert all(np.array_equal(a[b], a_own)
                   for k, k_own in zip(kept, own) for a, a_own in zip(k, k_own))


@pytest.mark.parametrize("passes", [1, 2, 20])
def test_sinkhorn_vjp_matches_central_differences(passes):
    rng = np.random.default_rng(passes)
    step = 1e-6
    for n in (2, 3, 5):
        for _ in range(3):
            Y = rng.uniform(0.05, 2.0, size=(n, n))
            G, D = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            g = float((sinkhorn_vjp(Y, passes, G) * D).sum())
            fd = (_sinkhorn_loss(Y + step * D, passes, G)
                  - _sinkhorn_loss(Y - step * D, passes, G)) / (2.0 * step)
            assert abs(g - fd) <= 1e-6 * max(abs(g), abs(fd)), (n, g, fd)


@pytest.mark.parametrize("passes", [1, 20])
def test_sinkhorn_vjp_is_zero_below_the_floor(passes):
    # entries the clamp raises to FLOOR do not move the output, so their
    # gradient is exactly 0; the others still match central differences
    rng = np.random.default_rng(7 + passes)
    step = 1e-6
    for n in (2, 4, 6):
        Y = rng.uniform(0.05, 2.0, size=(n, n))
        below = rng.uniform(size=(n, n)) < 0.3
        below[0, 0] = True
        Y[below] = rng.choice([0.0, FLOOR / 100, FLOOR / 2], size=below.sum())
        G = rng.normal(size=(n, n))
        grad = sinkhorn_vjp(Y, passes, G)
        assert np.all(grad[below] == 0.0)
        D = rng.normal(size=(n, n)) * ~below
        fd = (_sinkhorn_loss(Y + step * D, passes, G)
              - _sinkhorn_loss(Y - step * D, passes, G)) / (2.0 * step)
        g = float((grad * D).sum())
        # a near-permutation output can have a gradient near the rounding
        # error of the difference quotient, about n * 2.2e-16 / step
        assert abs(g - fd) <= 1e-6 * max(abs(g), abs(fd)) + n * 1e-9, (n, g, fd)
        nudge = np.where(below, FLOOR / 4, 0.0)     # stays below the floor
        assert _sinkhorn_loss(Y + nudge, passes, G) == _sinkhorn_loss(Y, passes, G)


# ---------------------------------------------------------------------------
# hungarian

def test_hungarian_identity():
    assert np.array_equal(hungarian(np.eye(3)), [0, 1, 2])


def test_hungarian_swap():
    assert np.array_equal(hungarian(np.array([[0.0, 1.0], [1.0, 0.0]])), [1, 0])


def test_hungarian_rejects_nonsquare():
    with pytest.raises(ValueError):
        hungarian(np.ones((2, 3)))


def test_hungarian_random_5x5_vs_enumeration():
    rng = np.random.default_rng(3)
    profit = rng.uniform(0, 1, size=(5, 5))
    perm = hungarian(profit)
    best = max(profit[np.arange(5), list(p)].sum()
               for p in itertools.permutations(range(5)))
    assert profit[np.arange(5), perm].sum() == pytest.approx(best)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_hungarian_matches_brute_force(seed, n):
    rng = np.random.default_rng(seed)
    profit = rng.uniform(-1, 1, size=(n, n))
    perm = hungarian(profit)
    best = max(profit[np.arange(n), list(p)].sum()
               for p in itertools.permutations(range(n)))
    assert profit[np.arange(n), perm].sum() == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------------------
# l21 norm and binary score

def test_l21_identity():
    assert l21_norm(np.eye(7)) == pytest.approx(7.0)


def test_l21_uniform():
    n = 9
    assert l21_norm(np.full((n, n), 1.0 / n)) == pytest.approx(np.sqrt(n))


def test_l21_single_entry():
    X = np.zeros((4, 4))
    X[1, 2] = -3.5
    assert l21_norm(X) == pytest.approx(3.5)


def test_binary_score_permutation_is_one():
    rng = np.random.default_rng(5)
    for n in (2, 4, 9):
        P = perm_matrix(rng.permutation(n))
        assert binary_score(P) == pytest.approx(1.0)


def test_binary_score_uniform_4x4():
    assert binary_score(np.full((4, 4), 0.25)) == pytest.approx(0.5)


def test_binary_score_sinkhorn_output_in_range():
    rng = np.random.default_rng(11)
    X = sinkhorn(rng.uniform(0, 1, size=(6, 6)))
    s = binary_score(X)
    assert 1.0 / np.sqrt(6) < s <= 1.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_binary_score_bounds_on_doubly_stochastic(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    X = sinkhorn(rng.uniform(0, 1, size=(n, n)), max_iters=300)
    s = binary_score(X)
    assert 1.0 / np.sqrt(n) - 1e-9 <= s <= 1.0 + 1e-9


def test_binary_score_below_one_for_perturbed_permutation():
    P = perm_matrix(np.array([2, 0, 1, 3]))
    Q = sinkhorn(P + 0.2)
    assert binary_score(Q) < 1.0 - 1e-6
