import sys
import tracemalloc
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (aa_graph_of_pairs, random_pairs, reference_solve_tape, reference_spmv,
                      reference_train, tape_matmul)

import probmatch.allocator as allocator
import probmatch.autodiff as ad
import probmatch.predictor as predictor_module
import probmatch.solvers as solvers_module
from probmatch.autodiff import ParamStore, Tensor
from probmatch.graphs import AA_EDGE_DIM, FEATURE_DIM, build_aa_graph, synthesize_pair
from probmatch.linalg import SparseAffinity, _csr_view, perm_matrix, stable_csr
from probmatch.predictor import (
    ABLATIONS,
    LossConfig,
    PredictorConfig,
    affinity_update,
    assignment_update,
    balanced_ce_loss,
    decode,
    dpgm_assignment,
    encode,
    evaluate,
    init_params,
    instance_loss,
    learned_affinity,
    mlp_forward,
    predictor_forward,
    solve_tape,
    train,
)
from probmatch.solvers import SolverConfig, probabilistic_solve

TINY = PredictorConfig(d_V=4, d_E=4, T=2)


def _rescaled(h):
    """h divided by its root-mean-square value, as both update layers end."""
    return h / np.sqrt((h * h).sum() / h.size + 1e-12)


def _tiny_instance(n=3, seed=0, noise=0.02):
    pair = synthesize_pair(n, noise, seed=seed)
    aa = build_aa_graph(pair.g1, pair.g2)
    gt_vec = perm_matrix(pair.ground_truth).ravel()
    return pair, aa, gt_vec


# ---------------------------------------------------------------------------
# MLP building block

def test_mlp_zero_params_zero_output():
    store = ParamStore()
    store.add("f.w0", np.zeros((3, 2)))
    store.add("f.b0", np.zeros(2))
    out = mlp_forward(store, "f", Tensor(np.ones((4, 3))))
    assert np.allclose(out.data, 0.0)


def test_mlp_identity_layer_passthrough():
    store = ParamStore()
    store.add("f.w0", np.eye(3))
    store.add("f.b0", np.zeros(3))
    x = np.random.default_rng(0).normal(size=(5, 3))
    out = mlp_forward(store, "f", Tensor(x.copy()))
    assert np.allclose(out.data, x)


def test_mlp_two_layer_matches_loop_oracle():
    rng = np.random.default_rng(1)
    store = ParamStore()
    w0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=4)
    w1 = rng.normal(size=(4, 2))
    b1 = rng.normal(size=2)
    for name, arr in (("f.w0", w0), ("f.b0", b0), ("f.w1", w1), ("f.b1", b1)):
        store.add(name, arr)
    x = rng.normal(size=(6, 3))
    out = mlp_forward(store, "f", Tensor(x.copy()))
    expected = np.maximum(x @ w0 + b0, 0.0) @ w1 + b1
    assert np.allclose(out.data, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# update layers

def test_affinity_update_ignores_nodes_when_gates_zero():
    _, aa, _ = _tiny_instance()
    store = init_params(TINY, seed=3)
    store["M1"].data[:] = 0.0
    store["M2"].data[:] = 0.0
    src, dst = aa.edges[:, 0], aa.edges[:, 1]
    V1, E = encode(aa, store)
    V2 = Tensor(V1.data + 17.0)
    out1 = affinity_update(V1, E, src, dst, store)
    out2 = affinity_update(V2, E, src, dst, store)
    assert np.allclose(out1.data, out2.data)


def test_affinity_update_single_edge_hand_oracle():
    store = init_params(TINY, seed=4)
    V = Tensor(np.random.default_rng(5).normal(size=(2, 4)))
    E = Tensor(np.random.default_rng(6).normal(size=(1, 4)))
    src = np.array([0])
    dst = np.array([1])
    out = affinity_update(V, E, src, dst, store)

    A = V.data @ store["M1"].data
    B = V.data @ store["M2"].data
    ebar = 0.5 * (A[0] * B[1] + A[1] * B[0])
    x = np.concatenate([E.data[0], ebar])[None, :]
    h = np.maximum(x @ store["tau.w0"].data + store["tau.b0"].data, 0.0)
    expected = _rescaled(h @ store["tau.w1"].data + store["tau.b1"].data)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_affinity_update_symmetric_under_edge_reversal():
    _, aa, _ = _tiny_instance()
    store = init_params(TINY, seed=7)
    src, dst = aa.edges[:, 0], aa.edges[:, 1]
    V, E = encode(aa, store)
    out = affinity_update(V, E, src, dst, store)
    rev = affinity_update(V, E, dst, src, store)
    assert np.allclose(out.data, rev.data, atol=1e-12)


def test_assignment_update_isolated_and_single_edge_aggregates():
    store = init_params(TINY, seed=8)
    rng = np.random.default_rng(9)
    V = Tensor(rng.normal(size=(3, 4)))
    E = Tensor(rng.normal(size=(1, 4)))
    src = np.array([0])
    dst = np.array([1])
    out = assignment_update(V, E, src, dst, store)

    def kappa(agg, v):
        x = np.concatenate([agg, v])[None, :]
        h = np.maximum(x @ store["kappa.w0"].data + store["kappa.b0"].data, 0.0)
        return h @ store["kappa.w1"].data + store["kappa.b1"].data

    expected = _rescaled(np.concatenate([kappa(E.data[0], V.data[0]),
                                         kappa(E.data[0], V.data[1]),
                                         kappa(np.zeros(4), V.data[2])]))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_assignment_update_matches_explicit_loop():
    _, aa, _ = _tiny_instance()
    store = init_params(TINY, seed=10)
    src, dst = aa.edges[:, 0], aa.edges[:, 1]
    V, E = encode(aa, store)
    out = assignment_update(V, E, src, dst, store)

    agg = np.zeros_like(V.data)
    for k in range(len(src)):
        agg[src[k]] += E.data[k]
        agg[dst[k]] += E.data[k]
    x = np.concatenate([agg, V.data], axis=1)
    h = np.maximum(x @ store["kappa.w0"].data + store["kappa.b0"].data, 0.0)
    expected = _rescaled(h @ store["kappa.w1"].data + store["kappa.b1"].data)
    assert np.allclose(out.data, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# decode and full forward

def test_decode_scores_strictly_inside_unit_interval():
    _, aa, _ = _tiny_instance(n=4, seed=11)
    store = init_params(TINY, seed=11)
    V, E = encode(aa, store)
    x, e = decode(V, E, store)
    assert np.all(x.data > 0) and np.all(x.data < 1)
    assert np.all(e.data > 0) and np.all(e.data < 1)


def test_learned_affinity_is_symmetric_with_assignment_diagonal():
    _, aa, _ = _tiny_instance(n=4, seed=12)
    store = init_params(TINY, seed=12)
    K, X_init = learned_affinity(aa, store, TINY)
    assert K.is_symmetric(tol=1e-12)
    assert np.allclose(np.diag(K.to_dense()).reshape(4, 4), X_init)


def test_predictor_forward_permutation_equivariant():
    from probmatch.graphs import AttributedGraph
    pair, aa, _ = _tiny_instance(n=4, seed=13)
    store = init_params(TINY, seed=13)
    x, _ = predictor_forward(aa, store, TINY)

    pi = np.array([2, 0, 3, 1])   # relabel graph-2 node a as pi[a]
    g2 = pair.g2
    inv = np.argsort(pi)
    g2p = AttributedGraph(g2.points[inv], g2.features[inv],
                          g2.adjacency[np.ix_(inv, inv)])
    aap = build_aa_graph(pair.g1, g2p)
    xp, _ = predictor_forward(aap, store, TINY)
    X = x.data.reshape(4, 4)
    Xp = xp.data.reshape(4, 4)
    assert np.abs(Xp[:, pi] - X).max() < 1e-9


# ---------------------------------------------------------------------------
# inference without a tape

CHECKPOINT = Path(__file__).resolve().parents[1] / "perfbench" / "predictor.ckpt"


def _assert_learned_affinity_is_the_tape_forward(aa, store, pcfg):
    K, X_init = learned_affinity(aa, store, pcfg)
    x, e = predictor_forward(aa, store, pcfg)
    assert x._parents                      # the reference forward is on the tape
    assert np.array_equal(K.unary, x.data)
    assert np.array_equal(K.vals, np.concatenate([e.data, e.data]))
    assert np.array_equal(X_init, x.data.reshape(aa.n1, aa.n2))
    src, dst = aa.edges[:, 0], aa.edges[:, 1]
    assert np.array_equal(K.rows, np.concatenate([src, dst]))
    assert np.array_equal(K.cols, np.concatenate([dst, src]))


def test_learned_affinity_is_bitwise_the_tape_forward_for_the_checkpoint():
    pcfg = PredictorConfig(d_V=32, d_E=32, T=5)
    store = init_params(pcfg)
    store.load(CHECKPOINT)
    for seed in range(50):
        _, aa, _ = _tiny_instance(n=8, seed=seed, noise=0.03)
        _assert_learned_affinity_is_the_tape_forward(aa, store, pcfg)


@pytest.mark.parametrize("n", range(3, 13))
def test_learned_affinity_is_bitwise_the_tape_forward_at_init(n):
    pcfg = PredictorConfig()
    _, aa, _ = _tiny_instance(n=n, seed=300 + n, noise=0.03)
    _assert_learned_affinity_is_the_tape_forward(aa, init_params(pcfg, seed=n), pcfg)


def test_learned_affinity_is_bitwise_the_tape_forward_without_edges():
    from probmatch.graphs import AttributedGraph
    rng = np.random.default_rng(22)

    def edgeless(n):
        return AttributedGraph(rng.uniform(size=(n, 2)), rng.uniform(size=(n, FEATURE_DIM)),
                               np.zeros((n, n), dtype=bool))

    aa = build_aa_graph(edgeless(4), edgeless(4))
    assert aa.edges.shape == (0, 2)
    _assert_learned_affinity_is_the_tape_forward(aa, init_params(TINY, seed=22), TINY)


def test_learned_affinity_builds_no_tape(monkeypatch):
    pcfg = PredictorConfig()
    store = init_params(pcfg, seed=21)
    _, aa, _ = _tiny_instance(n=6, seed=21, noise=0.03)
    made = []
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tensor, "__init__", recording_init)
    learned_affinity(aa, store, pcfg)
    # 2 encoders, 10 update layers (T = 5) and the decoders' 2 MLPs, 2
    # reshapes and 2 sigmoids
    assert len(made) == 18
    assert all(t._parents == () and t._backward is None for t in made)
    made.clear()
    predictor_forward(aa, store, pcfg)      # the recorder does see a tape
    assert sum(t._backward is not None for t in made) == 18


# ---------------------------------------------------------------------------
# the solver node on the tape

def test_solve_tape_forward_matches_numpy_solver():
    pair, aa, _ = _tiny_instance(n=4, seed=14)
    store = init_params(TINY, seed=14)
    K, X_init = learned_affinity(aa, store, TINY)
    scfg = SolverConfig(max_iters=4)
    X_np, _ = probabilistic_solve(K, X_init, scfg)

    x_scores, e_scores = predictor_forward(aa, store, TINY)
    X_tape, = solve_tape([x_scores], [e_scores], [aa], scfg)
    assert np.array_equal(X_tape.data, X_np.ravel())


@pytest.mark.parametrize("stop_eta", [1e-300, 1e-3])
def test_solve_tape_gradient_matches_finite_differences(stop_eta):
    # stop_eta=1e-300 runs every iteration; 1e-3 stops early on most inputs.
    # Each match pair has one random weight, stored at (p, q) and at (q, p),
    # so the gradient of a weight sums both directed entries.
    rng = np.random.default_rng(17)
    cfg = SolverConfig(stop_eta=stop_eta)
    stops, step = set(), 1e-6
    for n in range(3, 8):
        for _ in range(4):
            _, p, q, e = random_pairs(rng, n, n)
            aa = aa_graph_of_pairs(n, n, p, q)
            x = rng.uniform(0.05, 1.0, size=n * n)
            e = e * rng.uniform(0.5, 1.5, size=e.size)
            w = rng.normal(size=n * n)

            def loss(x_in, e_in):
                return ad.tsum(ad.mul(solve_tape([x_in], [e_in], [aa], cfg)[0], w))

            tx, te = Tensor(x.copy()), Tensor(e.copy())
            loss(tx, te).backward()
            dx, de = rng.normal(size=x.size), rng.normal(size=e.size)
            plus = loss(Tensor(x + step * dx), Tensor(e + step * de)).data
            minus = loss(Tensor(x - step * dx), Tensor(e - step * de)).data
            fd = (plus - minus) / (2.0 * step)
            g = tx.grad @ dx + te.grad @ de
            assert abs(g - fd) <= 1e-6 * max(abs(g), abs(fd)), (n, g, fd)
            _, trace = probabilistic_solve(SparseAffinity.symmetric(n, n, x, p, q, e),
                                           x.reshape(n, n), cfg)
            stops.add(trace.stop_reason)
    assert stops == ({"max_iters"} if stop_eta == 1e-300 else {"early_stop", "max_iters"})


def test_solve_tape_gradient_of_a_chunk_that_stops_at_different_iterations():
    # instances leave the chunk at different iterations, so the backward's
    # live set grows as t falls; every squared change the solve compares
    # with stop_eta lies at least 1.5 times from it, so the perturbed solves
    # stop where this one did
    rng = np.random.default_rng(25)
    n, B, step = 5, 4, 1e-6
    cfg = SolverConfig(stop_eta=1e-2)
    insts = []
    for _ in range(B):
        _, p, q, e = random_pairs(rng, n, n)
        x = rng.uniform(0.05, 1.0, size=n * n)
        insts.append((x, e * rng.uniform(0.5, 1.5, size=e.size), aa_graph_of_pairs(n, n, p, q)))
    xs, es, aas = (list(v) for v in zip(*insts))
    ws = rng.normal(size=(B, n * n))

    def loss(x_in, e_in):
        outs = solve_tape(x_in, e_in, aas, cfg)
        return reduce(ad.add, [ad.tsum(ad.mul(X_b, w)) for X_b, w in zip(outs, ws)])

    txs, tes = [Tensor(x.copy()) for x in xs], [Tensor(e.copy()) for e in es]
    loss(txs, tes).backward()
    dxs, des = [rng.normal(size=x.size) for x in xs], [rng.normal(size=e.size) for e in es]
    plus, minus = (loss([Tensor(x + sign * step * d) for x, d in zip(xs, dxs)],
                        [Tensor(e + sign * step * d) for e, d in zip(es, des)]).data
                   for sign in (1, -1))
    fd = (plus - minus) / (2.0 * step)
    g = sum(t.grad @ d for t, d in zip(txs + tes, dxs + des))
    assert abs(g - fd) <= 1e-6 * max(abs(g), abs(fd)), (g, fd)

    Ks = [SparseAffinity.symmetric(n, n, x, *aa.edges.T, e) for x, e, aa in zip(xs, es, aas)]
    _, traces = probabilistic_solve(Ks, np.stack(xs).reshape(B, n, n), cfg)
    assert len({trace.iterations for trace in traces}) >= 2
    for trace in traces:
        A = trace.assignments
        for d in (((A[t + 1] - A[t]) ** 2).sum() for t in range(trace.iterations)):
            assert not cfg.stop_eta / 1.5 < d < cfg.stop_eta * 1.5, d


def test_solve_tape_backward_products_are_bitwise_the_triplet_kernel(monkeypatch):
    # the backward multiplies by K and by its transpose, whose triplets are
    # K's with rows and cols swapped, through a view of its own
    spmv = solvers_module.spmv
    operators = []

    def checked(K, x):
        y = spmv(K, x)
        assert np.array_equal(y, reference_spmv(K, x))
        operators.append((K.rows, K.cols))
        return y

    monkeypatch.setattr(solvers_module, "spmv", checked)
    rng = np.random.default_rng(5)
    for n in (3, 6, 10):
        _, p, q, e = random_pairs(rng, n, n)
        x = Tensor(rng.uniform(0.05, 1.0, size=n * n))
        e = Tensor(e * rng.uniform(0.5, 1.5, size=e.size))
        X, = solve_tape([x], [e], [aa_graph_of_pairs(n, n, p, q)], SolverConfig())
        _, trace = probabilistic_solve(SparseAffinity.symmetric(n, n, x.data, p, q, e.data),
                                       x.data.reshape(n, n), SolverConfig())
        operators.clear()
        ad.tsum(ad.mul(X, rng.normal(size=n * n))).backward()
        # the backward reads K x_t from the record: its only products are
        # one per iteration with the transpose
        rows, cols = np.concatenate([p, q]), np.concatenate([q, p])
        assert trace.iterations >= 1 and len(operators) == trace.iterations
        assert all(np.array_equal(r, cols) and np.array_equal(c, rows)
                   for r, c in operators)


@pytest.mark.parametrize("B", [1, 3])
def test_solve_tape_builds_the_symmetric_operator_and_its_transpose(monkeypatch, B):
    # the node stacks only K, in symmetric's layout over the AA edges. The
    # forward multiplies by the stack of the live operators, and the backward
    # only by its transpose: those triplets with rows and cols swapped, one
    # operator per change of the live set, with the CSR view of a fresh
    # stable_csr of its triplets
    stacked, products = [], []
    block_diagonal, spmv = solvers_module.block_diagonal, solvers_module.spmv

    def stack_spy(Ks):
        Ks = list(Ks)
        stacked.extend(Ks)
        return block_diagonal(Ks)

    def product_spy(K, x):
        products.append(K)
        return spmv(K, x)

    monkeypatch.setattr(solvers_module, "block_diagonal", stack_spy)
    monkeypatch.setattr(solvers_module, "spmv", product_spy)
    cfg = SolverConfig(stop_eta=1e-2)
    pool = [instance for instance in _solve_tape_pool() if len(instance[2].edges)][:B]
    xs, es = [Tensor(x) for x, _, _ in pool], [Tensor(e) for _, e, _ in pool]
    Ks = [SparseAffinity.symmetric(6, 6, x.data, *aa.edges.T, e.data)
          for x, e, (*_, aa) in zip(xs, es, pool)]
    Xs = solve_tape(xs, es, [aa for *_, aa in pool], cfg)
    forward, products = products, []
    reduce(ad.add, [ad.tsum(X) for X in Xs]).backward()
    monkeypatch.undo()
    for M in stacked:
        K = Ks[next(b for b, x in enumerate(xs) if M.unary is x.data)]
        assert all(got.dtype == want.dtype and np.array_equal(got, want)
                   for got, want in zip((M.rows, M.cols, M.vals), (K.rows, K.cols, K.vals)))
    its = np.array([trace.iterations for trace in probabilistic_solve(
        Ks, np.stack([x.data for x in xs]).reshape(B, 6, 6), cfg)[1]])
    assert len(forward) == len(products) == its.max() and (B == 1 or len(set(its)) > 1)
    for t, F, M in zip(range(its.max()), forward, products[::-1]):
        live = np.flatnonzero(its > t)
        stack = block_diagonal([Ks[b] for b in live])
        assert np.array_equal(F.unary, stack.unary) and np.array_equal(M.unary, stack.unary)
        for got, want in zip((F.rows, F.cols, F.vals, M.rows, M.cols, M.vals,
                              *_csr_view(M)),
                             (stack.rows, stack.cols, stack.vals, stack.cols, stack.rows,
                              stack.vals, *stable_csr(stack.size, stack.size, stack.cols,
                                                      stack.rows, stack.vals))):
            assert got.dtype == want.dtype and np.array_equal(got, want), t
    assert len({id(M) for M in products}) == len(set(its))


def _solve_tape_pool(n=6, size=12):
    """``(x, e, aa)`` of solver instances at n whose solves stop after 4 to 10
    iterations under ``stop_eta=1e-2``."""
    rng = np.random.default_rng(23)
    pool = []
    for _ in range(size):
        _, p, q, e = random_pairs(rng, n, n, density=rng.choice([0.05, 0.3]))
        pool.append((rng.uniform(0.05, 1.0, size=n * n) ** rng.choice([1, 4, 16]),
                     e * rng.uniform(0.5, 1.5, size=e.size), aa_graph_of_pairs(n, n, p, q)))
    return pool


@pytest.mark.parametrize("B", [1, 3, 8])
def test_chunked_solve_tape_is_bitwise_each_instance_alone(B):
    # against each instance's single-pair node: the chunk's instances stop at
    # different iterations, and every leaf starts from a nonzero grad, which
    # the backward adds onto in order
    cfg = SolverConfig(stop_eta=1e-2)
    pool = _solve_tape_pool()
    rng = np.random.default_rng(B)
    order = rng.permutation(len(pool))[:B]
    weights = [rng.normal(size=36) for _ in order]
    starts = [(rng.normal(size=36), rng.normal(size=pool[i][1].size)) for i in order]

    def leaves(i, start):
        x, e = Tensor(pool[i][0].copy()), Tensor(pool[i][1].copy())
        x.grad, e.grad = start[0].copy(), start[1].copy()
        return x, e

    alone = []
    for i, w, start in zip(order, weights, starts):
        x, e = leaves(i, start)
        X = reference_solve_tape(x, e, pool[i][2], cfg)
        ad.tsum(ad.mul(X, w)).backward()
        _, trace = probabilistic_solve(SparseAffinity.symmetric(6, 6, x.data, *pool[i][2].edges.T,
                                                                e.data), x.data.reshape(6, 6), cfg)
        alone.append((X.data, x.grad, e.grad, trace.iterations))
    if B == 8:
        assert len({iterations for *_, iterations in alone}) > 2
    xs, es = zip(*(leaves(i, start) for i, start in zip(order, starts)))
    Xs = solve_tape(xs, es, [pool[i][2] for i in order], cfg)
    reduce(ad.add, [ad.tsum(ad.mul(X, w)) for X, w in zip(Xs, weights)]).backward()
    for X, x, e, (X_alone, g_x, g_e, _) in zip(Xs, xs, es, alone):
        assert np.array_equal(X.data, X_alone)
        assert np.array_equal(x.grad, g_x) and np.array_equal(e.grad, g_e)


def test_chunked_solve_tape_backward_rejects_a_zero_operator_instance():
    (x, e, aa), = _solve_tape_pool(size=1)
    empty = np.zeros(0, dtype=np.int64)
    Xs = solve_tape([Tensor(x), Tensor(np.zeros(36))], [Tensor(e), Tensor(np.zeros(0))],
                    [aa, aa_graph_of_pairs(6, 6, empty, empty)], SolverConfig())
    assert np.allclose(Xs[1].data, 1.0 / 6)
    with pytest.raises(RuntimeError, match="zero-operator"):
        ad.add(ad.tsum(Xs[0]), ad.tsum(Xs[1])).backward()


def test_solve_tape_backward_rejects_zero_operator_solve():
    x = Tensor(np.zeros(4))
    empty = np.zeros(0, dtype=np.int64)
    X, = solve_tape([x], [Tensor(np.zeros(0))], [aa_graph_of_pairs(2, 2, empty, empty)],
                    SolverConfig())
    assert np.allclose(X.data, 0.5)
    with pytest.raises(RuntimeError):
        ad.tsum(X).backward()


def test_training_pair_builds_at_most_300_tensors(monkeypatch):
    pcfg = PredictorConfig(d_V=32, d_E=32, T=5)
    store = init_params(pcfg, seed=0)
    _, aa, gt_vec = _tiny_instance(n=8, seed=10000, noise=0.03)
    count = [0]
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    instance_loss(aa, gt_vec, store, pcfg, SolverConfig(), LossConfig())
    assert count[0] <= 300


# ---------------------------------------------------------------------------
# loss

def test_loss_near_zero_at_clamped_ground_truth():
    gt = np.array([1.0, 0.0, 0.0, 1.0])
    loss = balanced_ce_loss(Tensor(gt.copy()), gt, LossConfig())
    assert abs(float(loss.data)) < 1e-5


def test_loss_single_positive_half():
    loss = balanced_ce_loss(Tensor(np.array([0.5])), np.array([1.0]),
                            LossConfig(w=5.0))
    assert float(loss.data) == pytest.approx(5 * np.log(2), abs=1e-12)


def test_loss_matches_scalar_loop_oracle():
    rng = np.random.default_rng(15)
    x = rng.uniform(0.01, 0.99, size=12)
    gt = (rng.uniform(size=12) < 0.3).astype(float)
    w = 5.0
    loss = balanced_ce_loss(Tensor(x.copy()), gt, LossConfig(w=w))
    expected = 0.0
    for xi, gi in zip(x, gt):
        expected -= w * gi * np.log(xi) + (1 - w) * (1 - gi) * np.log(1 - xi)
    assert float(loss.data) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# gradients

def test_linear_model_gradient_is_exact():
    rng = np.random.default_rng(16)
    store = ParamStore()
    w = store.add("w", rng.normal(size=(4, 3)))
    x = rng.normal(size=(2, 4))
    store.zero_grad()
    ad.tsum(tape_matmul(Tensor(x), w)).backward()
    g_ad = store.grad_vector()

    step = 1e-5
    theta = store.get_vector()
    g_fd = np.zeros_like(theta)
    for k in range(theta.size):
        for sign in (1.0, -1.0):
            pert = theta.copy()
            pert[k] += sign * step
            store.set_vector(pert)
            val = float((x @ store["w"].data).sum())
            if sign > 0:
                plus = val
            else:
                minus = val
        g_fd[k] = (plus - minus) / (2 * step)
    rel = np.abs(g_ad - g_fd) / np.maximum(1e-8, np.abs(g_ad) + np.abs(g_fd))
    assert rel.max() < 1e-9


def test_instance_loss_gradient_at_the_training_settings_matches_central_differences():
    # The composed checks elsewhere run at n = 3, d = 4, T = 2; this one runs
    # at the settings training uses (n = 8, d = 32, T = 5, the default solver),
    # where every update round and all ten solver iterations take part. Over
    # these eight pairs the relative error was at most 7.8e-8 at step 1e-6
    # (step 1e-5 reached 7.9e-7, from the clip and ReLU kinks).
    pcfg, step = PredictorConfig(d_V=32, d_E=32, T=5), 1e-6
    for seed in range(8):
        _, aa, gt_vec = _tiny_instance(n=8, seed=10000 + seed, noise=0.03)
        store = init_params(pcfg, seed=seed)
        args = (aa, gt_vec, store, pcfg, SolverConfig(), LossConfig())
        store.zero_grad()
        instance_loss(*args).backward()
        theta = store.get_vector()
        u = np.random.default_rng(seed).standard_normal(theta.size)
        u /= np.linalg.norm(u)
        g = float(store.grad_vector() @ u)
        store.set_vector(theta + step * u)
        plus = float(instance_loss(*args).data)
        store.set_vector(theta - step * u)
        minus = float(instance_loss(*args).data)
        fd = (plus - minus) / (2.0 * step)
        assert abs(g - fd) <= 1e-6 * max(abs(g), abs(fd)), (seed, g, fd)


def test_ablation_argument_validation_and_shapes():
    _, aa, _ = _tiny_instance(n=3, seed=17)
    store = init_params(TINY, seed=17)
    K, X_init = learned_affinity(aa, store, TINY)
    scfg = SolverConfig(max_iters=2)
    for ablation in ABLATIONS:
        X, iterations = dpgm_assignment([K], X_init[None], scfg, ablation)
        assert X.shape == (1, 3, 3)
        assert 0 <= iterations[0] <= scfg.max_iters
    # "full" solves from the predicted assignment, "tia" from the uniform one
    for ablation, start in (("full", X_init), ("tia", np.full((3, 3), 1.0 / 3))):
        X, iterations = dpgm_assignment([K], X_init[None], scfg, ablation)
        expected, trace = probabilistic_solve(K, start, scfg)
        assert np.array_equal(X[0], expected)
        assert iterations[0] == len(trace.assignments) - 1
    with pytest.raises(ValueError):
        dpgm_assignment([K], X_init[None], scfg, "nope")


def test_wps_ablation_returns_decoded_scores():
    _, aa, _ = _tiny_instance(n=3, seed=18)
    store = init_params(TINY, seed=18)
    K, X_init = learned_affinity(aa, store, TINY)
    X, iterations = dpgm_assignment([K], X_init[None], SolverConfig(), "wps")
    scores, _ = predictor_forward(aa, store, TINY)
    assert np.allclose(X.ravel(), scores.data)
    assert iterations[0] == 0


def test_init_params_widths_follow_latent_sizes():
    store = init_params(PredictorConfig(d_V=3, d_E=5, T=1), seed=0)
    assert store["rho_v.w0"].data.shape == (2 * FEATURE_DIM, 5)   # max(d_V, d_E)
    assert store["rho_e.w0"].data.shape == (AA_EDGE_DIM, 5)
    assert store["tau.w1"].data.shape == (5, 5)
    assert store["kappa.w1"].data.shape == (5, 3)
    assert "rho_v.w2" not in store


# ---------------------------------------------------------------------------
# training

def test_training_is_deterministic_and_loss_decreases():
    pairs = [synthesize_pair(5, 0.02, seed=s) for s in range(8)]
    pcfg = PredictorConfig(d_V=8, d_E=8, T=2)
    scfg = SolverConfig(max_iters=3)
    kwargs = dict(epochs=4, lr=1e-3, batch_size=4, seed=1)
    store_a, metrics_a = train(pairs, pcfg, scfg, LossConfig(), **kwargs)
    store_b, metrics_b = train(pairs, pcfg, scfg, LossConfig(), **kwargs)
    assert np.allclose(store_a.get_vector(), store_b.get_vector())
    assert metrics_a == metrics_b
    assert metrics_a[-1]["mean_loss"] < metrics_a[0]["mean_loss"]


def _training_digest():
    pairs = [synthesize_pair(5, 0.02, seed=s) for s in range(4)]
    store, metrics = train(pairs, PredictorConfig(d_V=4, d_E=4, T=1), SolverConfig(max_iters=3),
                           LossConfig(), epochs=2, batch_size=2)
    return [m["mean_loss"] for m in metrics], store.get_vector().tobytes()


def _chunk_sizes(monkeypatch):
    """The chunk sizes ``train`` passes to the solver node, as it calls it."""
    sizes = []

    def counted(xs, *args):
        sizes.append(len(xs))
        return solve_tape(xs, *args)

    monkeypatch.setattr(predictor_module, "solve_tape", counted)
    return sizes


@pytest.mark.parametrize("case", ["train-n8", "mixed-sizes", "short-last-batch"])
def test_training_in_chunks_is_bitwise_one_backward_per_pair(monkeypatch, case):
    # train-n8: the benchmark's pairs and settings, 8 pairs per chunk; mixed
    # sizes: one batch of n = 6, 6, 7, 6, 5, 7, 6, 6 in shuffled order, cut
    # into runs and, under 80 chunk entries, into chunks of at most 2; a
    # short last batch: 10 pairs in batches of 4, 4 and 2
    if case == "train-n8":
        pairs = [synthesize_pair(8, 0.03, seed=10000 + k) for k in range(64)]
        pcfg, epochs, batch_size = PredictorConfig(d_V=32, d_E=32, T=5), 3, 8
    elif case == "mixed-sizes":
        pairs = [synthesize_pair(n, 0.03, seed=400 + k)
                 for k, n in enumerate([6, 6, 7, 6, 5, 7, 6, 6])]
        pcfg, epochs, batch_size = PredictorConfig(d_V=8, d_E=8, T=2), 3, 8
        monkeypatch.setattr(solvers_module, "_CHUNK_ENTRIES", 80)
    else:
        pairs = [synthesize_pair(5, 0.03, seed=500 + k) for k in range(10)]
        pcfg, epochs, batch_size = PredictorConfig(d_V=8, d_E=8, T=2), 2, 4
    args = (pairs, pcfg, SolverConfig(), LossConfig())
    store_ref, metrics_ref = reference_train(*args, epochs=epochs, batch_size=batch_size)
    sizes = _chunk_sizes(monkeypatch)
    store, metrics = train(*args, epochs=epochs, batch_size=batch_size)
    assert metrics == metrics_ref
    assert store.get_vector().tobytes() == store_ref.get_vector().tobytes()
    assert sum(sizes) == len(pairs) * epochs
    if case == "train-n8":
        assert set(sizes) == {8}
    elif case == "mixed-sizes":
        assert set(sizes) == {1, 2}
    else:
        assert sizes == [4, 4, 2] * epochs


def test_training_keeps_at_most_32_bytes_per_aa_edge_for_each_pair(monkeypatch):
    # on the train-n8 pairs: train builds each AA graph's incidences before
    # the first step and keeps nothing else on the graph, and the incidences
    # hold 27-29 bytes per AA edge (tracemalloc). Kept CSR orders of K and
    # K^T took that to 78-82.
    pairs = [synthesize_pair(8, 0.03, seed=10000 + k) for k in range(64)]
    built = []

    def recorded(g1, g2):
        built.append(build_aa_graph(g1, g2))
        return built[-1]

    monkeypatch.setattr(predictor_module, "build_aa_graph", recorded)
    train(pairs, PredictorConfig(), SolverConfig(), LossConfig(), epochs=0)
    fields = {"n1", "n2", "node_attrs", "edges", "edge_attrs"}
    assert len(built) == len(pairs)
    assert all(vars(aa).keys() == fields | {"incidences"} for aa in built)
    for pair in pairs:
        aa = build_aa_graph(pair.g1, pair.g2)
        tracemalloc.start()
        try:
            aa.incidences
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept <= 32 * len(aa.edges), (pair.meta["seed"], kept / len(aa.edges))


@pytest.mark.skipif(sys.platform != "linux", reason="the policy is set on Linux only")
def test_training_sets_the_allocator_policy_once_per_process(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(allocator, "_libc", lambda: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(allocator, "_heap_kept", False)
    _training_digest()
    _training_digest()
    assert calls == [(allocator._M_TOP_PAD, allocator._TOP_PAD_BYTES)]


def _no_libc():
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [_no_libc, object], ids=["lookup fails", "no mallopt"])
def test_training_without_mallopt_gives_the_same_digest(monkeypatch, libc):
    expected = _training_digest()
    monkeypatch.setattr(allocator, "_libc", libc)
    monkeypatch.setattr(allocator, "_heap_kept", False)
    assert _training_digest() == expected
    assert allocator._heap_kept


def test_loss_decreases_for_most_seeds_over_20_epochs():
    # cut-down version of the stability claim: tiny model, few instances
    pairs = [synthesize_pair(4, 0.02, seed=100 + s) for s in range(6)]
    pcfg = PredictorConfig(d_V=4, d_E=4, T=1)
    scfg = SolverConfig(max_iters=2)
    wins = 0
    for seed in range(5):
        _, metrics = train(pairs, pcfg, scfg, LossConfig(), epochs=20,
                           lr=1e-3, batch_size=3, seed=seed)
        first = np.mean([m["mean_loss"] for m in metrics[:3]])
        last = np.mean([m["mean_loss"] for m in metrics[-3:]])
        wins += last < first
    assert wins >= 4


def test_evaluate_returns_fraction():
    pairs = [synthesize_pair(4, 0.02, seed=200 + s) for s in range(3)]
    store = init_params(TINY, seed=19)
    acc = evaluate(pairs, store, TINY, SolverConfig(max_iters=2))
    assert 0.0 <= acc <= 1.0


def test_empty_pair_list_raises_before_any_work(monkeypatch):
    calls = []
    monkeypatch.setattr(predictor_module, "init_params", lambda *args, **kwargs: calls.append(1))
    monkeypatch.setattr(predictor_module, "learned_affinity", lambda *args: calls.append(1))
    store = ParamStore()
    with pytest.raises(ValueError, match="^pairs must not be empty"):
        evaluate([], store, TINY, SolverConfig())
    with pytest.raises(ValueError, match="^pairs must not be empty"):
        train([], TINY, SolverConfig(), LossConfig(), epochs=1, target_accuracy=0.5)
    assert not calls


@pytest.mark.parametrize("kwargs, message", [
    ({"lr": float("nan")}, "lr must be positive"), ({"lr": -1.0}, "lr must be positive"),
    ({"lr": 0.0}, "lr must be positive"), ({"lr": float("inf")}, "lr must be finite"),
    ({"batch_size": 0}, "batch_size must be at least 1"),
], ids=["nan_lr", "negative_lr", "zero_lr", "infinite_lr", "zero_batch_size"])
def test_bad_training_arguments_are_rejected_before_any_work(monkeypatch, kwargs, message):
    # ExperimentConfig's messages, before the heap policy, the parameters or
    # any AA graph
    calls = []
    for name in ("keep_freed_heap", "init_params", "build_aa_graph"):
        monkeypatch.setattr(predictor_module, name, lambda *args, **kw: calls.append(1))
    pairs = [synthesize_pair(4, 0.02, seed=200)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(pairs, TINY, SolverConfig(), LossConfig(), epochs=1, **kwargs)
    assert not calls


def test_evaluate_rejects_an_unknown_ablation_before_any_work(monkeypatch):
    calls = []
    for name in ("build_aa_graph", "learned_affinity", "dpgm_assignment"):
        monkeypatch.setattr(predictor_module, name, lambda *args, **kw: calls.append(1))
    pairs = [synthesize_pair(4, 0.02, seed=200 + s) for s in range(3)]
    with pytest.raises(ValueError, match="^unknown ablation 'nope'$"):
        evaluate(pairs, init_params(TINY, seed=19), TINY, SolverConfig(), "nope")
    assert not calls


def _mixed_pairs():
    # runs of n = 4, 5, 4 and 3; under 48 chunk entries a chunk holds 3, 1, 3 and 5 pairs
    sizes = [4, 4, 4, 4, 4, 5, 5, 4, 4, 3, 3]
    return [synthesize_pair(n, 0.05, seed=300 + k) for k, n in enumerate(sizes)]


def test_evaluate_solves_each_chunk_in_one_call(monkeypatch):
    pairs = _mixed_pairs()
    store = init_params(TINY, seed=19)
    scfg = SolverConfig(max_iters=3)
    expected = evaluate(pairs, store, TINY, scfg)
    monkeypatch.setattr(solvers_module, "_CHUNK_ENTRIES", 48)
    calls = []

    def counted(Ks, X_init, *args):
        calls.append(len(Ks))
        return dpgm_assignment(Ks, X_init, *args)

    monkeypatch.setattr(predictor_module, "dpgm_assignment", counted)
    assert evaluate(pairs, store, TINY, scfg) == expected
    assert calls == [3, 2, 1, 1, 2, 2]


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_evaluate_of_mixed_sizes_is_the_mean_of_single_pairs(monkeypatch, ablation):
    pairs = _mixed_pairs()
    store = init_params(TINY, seed=7)
    scfg = SolverConfig(max_iters=3)
    single = [evaluate([pair], store, TINY, scfg, ablation) for pair in pairs]
    assert len(set(single)) > 1
    assert evaluate(pairs, store, TINY, scfg, ablation) == float(np.mean(single))
    monkeypatch.setattr(solvers_module, "_CHUNK_ENTRIES", 48)
    assert evaluate(pairs, store, TINY, scfg, ablation) == float(np.mean(single))
