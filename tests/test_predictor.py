from pathlib import Path

import numpy as np
import pytest

from conftest import random_pairs, reference_spmv

import probmatch.autodiff as ad
import probmatch.solvers as solvers_module
from probmatch.autodiff import ParamStore, Tensor
from probmatch.graphs import AA_EDGE_DIM, FEATURE_DIM, build_aa_graph, synthesize_pair
from probmatch.linalg import SparseAffinity, perm_matrix
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
    expected = h @ store["tau.w1"].data + store["tau.b1"].data
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

    assert np.allclose(out.data[2], kappa(np.zeros(4), V.data[2]), atol=1e-12)
    assert np.allclose(out.data[0], kappa(E.data[0], V.data[0]), atol=1e-12)
    assert np.allclose(out.data[1], kappa(E.data[0], V.data[1]), atol=1e-12)


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
    expected = h @ store["kappa.w1"].data + store["kappa.b1"].data
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
    assert len(made) > 100
    assert all(t._parents == () and t._backward is None for t in made)
    made.clear()
    predictor_forward(aa, store, pcfg)      # the recorder does see a tape
    assert sum(t._backward is not None for t in made) > 100


# ---------------------------------------------------------------------------
# the solver node on the tape

def test_solve_tape_forward_matches_numpy_solver():
    pair, aa, _ = _tiny_instance(n=4, seed=14)
    store = init_params(TINY, seed=14)
    K, X_init = learned_affinity(aa, store, TINY)
    scfg = SolverConfig(max_iters=4)
    X_np, _ = probabilistic_solve(K, X_init, scfg)

    x_scores, e_scores = predictor_forward(aa, store, TINY)
    X_tape = solve_tape(x_scores, e_scores, aa.edges.T, (4, 4), scfg)
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
            x = rng.uniform(0.05, 1.0, size=n * n)
            e = e * rng.uniform(0.5, 1.5, size=e.size)
            w = rng.normal(size=n * n)

            def loss(x_in, e_in):
                return ad.tsum(ad.mul(solve_tape(x_in, e_in, (p, q), (n, n), cfg), w))

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
        X = solve_tape(x, e, (p, q), (n, n), SolverConfig())
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


def test_solve_tape_backward_rejects_zero_operator_solve():
    x = Tensor(np.zeros(4))
    empty = np.zeros(0, dtype=np.int64)
    X = solve_tape(x, Tensor(np.zeros(0)), (empty, empty), (2, 2), SolverConfig())
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
    ad.tsum(ad.matmul(Tensor(x), w)).backward()
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
