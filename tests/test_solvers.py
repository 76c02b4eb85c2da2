import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_qap,
    int64_copy,
    random_pairs,
    random_sparse_affinity,
    reference_probabilistic_solve,
    reference_rrwm,
    reference_spectral_match,
)
from probmatch import autodiff as ad
from probmatch import solvers as solvers_module
from probmatch.affinity import assemble_affinity, objective
from probmatch.autodiff import Tensor
from probmatch.graphs import synthesize_pair
from probmatch.linalg import (FLOOR, SparseAffinity, binary_score, hungarian, perm_matrix,
                              sinkhorn, spmv)
from probmatch.predictor import dpgm_assignment
from probmatch.solvers import (
    SolverConfig,
    accuracy,
    discretize,
    ipfp,
    probabilistic_solve,
    rrwm,
    solve_tape,
    spectral_match,
)


# ---------------------------------------------------------------------------
# probabilistic_solve

def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(stop_eta=0.0)


def test_diagonal_profit_discretizes_to_identity():
    # diagonal encoding of profit [[2,1],[1,2]]: brute force prefers identity
    K = SparseAffinity(2, 2, np.array([2.0, 1.0, 1.0, 2.0]))
    X, _ = probabilistic_solve(K, np.full((2, 2), 0.5))
    assert np.array_equal(discretize(X), [0, 1])
    assert np.array_equal(brute_force_qap(K)[0], [0, 1])


def test_zero_noise_pair_recovers_ground_truth():
    pair = synthesize_pair(5, 0.0, seed=6, translation_max=0.0)
    K = assemble_affinity(pair.g1, pair.g2)
    gt_val = objective(K, perm_matrix(pair.ground_truth).ravel())
    assert brute_force_qap(K)[1] == pytest.approx(gt_val)
    X, trace = probabilistic_solve(K, np.full((5, 5), 0.2))
    assert np.array_equal(discretize(X), pair.ground_truth)


def test_permutation_init_is_near_fixed_point():
    # K strongly favoring the identity: unary 1 on diagonal matches, plus
    # consistent pair support among them.
    n = 3
    unary = np.zeros(9)
    for i in range(n):
        unary[i * n + i] = 1.0
    diag = np.arange(n) * (n + 1)               # flat indices of the matches (i, i)
    p, q = np.triu_indices(n, 1)
    K = SparseAffinity.symmetric(n, n, unary, diag[p], diag[q], np.ones(p.size))
    X0 = np.maximum(np.eye(n), 1e-12)
    X, trace = probabilistic_solve(K, X0)
    assert trace.stop_reason == "early_stop"
    assert len(trace.assignments) <= 3   # init + at most 2 iterations
    assert np.abs(X - np.eye(n)).max() < 0.05


def test_zero_affinity_returns_normalized_init():
    K = SparseAffinity(2, 2, np.zeros(4))
    X0 = np.array([[0.6, 0.4], [0.4, 0.6]])
    X, trace = probabilistic_solve(K, X0)
    assert trace.stop_reason == "early_stop"
    assert np.allclose(X, sinkhorn(X0))


@pytest.mark.parametrize("K", [
    SparseAffinity(3, 3, -np.ones(9)),
    SparseAffinity.symmetric(3, 3, -np.ones(9), np.array([0, 1]), np.array([4, 5]),
                             np.array([0.0, -1.0])),
], ids=["minus_identity", "minus_identity_with_pairs"])
def test_nonzero_operator_without_positive_entry_is_solved(K):
    # only an operator with no nonzero entry is the zero operator
    _, trace = probabilistic_solve(K, np.full((3, 3), 1 / 3))
    assert trace.iterations >= 1


@pytest.mark.parametrize("shape", [(9,), (1, 9), (9, 1)])
def test_start_of_the_wrong_shape_is_rejected_before_any_work(shape, monkeypatch):
    def no_work(*args):
        raise AssertionError("the solve did work on a start of the wrong shape")

    monkeypatch.setattr(solvers_module, "spmv", no_work)
    K = SparseAffinity(3, 3, np.ones(9))
    with pytest.raises(ValueError, match=r"X_init must have shape \(3, 3\)"):
        probabilistic_solve(K, np.full(shape, 1 / 3))


def test_early_stop_delta_below_threshold():
    pair = synthesize_pair(6, 0.01, seed=3)
    K = assemble_affinity(pair.g1, pair.g2)
    _, trace = probabilistic_solve(K, np.full((6, 6), 1 / 6))
    if trace.stop_reason == "early_stop":
        assert trace.last_delta_sq < SolverConfig().stop_eta
    assert len(trace.assignments) <= SolverConfig().max_iters + 1


def test_single_iteration_is_one_projected_power_step():
    pair = synthesize_pair(5, 0.05, seed=9)
    K = assemble_affinity(pair.g1, pair.g2)
    X0 = np.full((5, 5), 0.2)
    X, trace = probabilistic_solve(K, X0, SolverConfig(max_iters=1))
    assert len(trace.assignments) == 2
    assert np.array_equal(X, sinkhorn(spmv(K, X0.ravel()).reshape(5, 5), tol=0.0))


def test_trace_objectives_use_the_original_operator():
    pair = synthesize_pair(8, 0.03, seed=4)
    K = assemble_affinity(pair.g1, pair.g2)
    _, trace = probabilistic_solve(K, np.full((8, 8), 1 / 8),
                                   SolverConfig(stop_eta=1e-300))
    assert len(trace.objectives) == len(trace.assignments) == 11
    for f, X in zip(trace.objectives, trace.assignments):
        assert f == pytest.approx(objective(K, X.ravel()), rel=1e-12, abs=0.0)


def _recorded_solves():
    """Solves that run every iteration and solves that stop early, on
    handcrafted operators and on random ones from starts with entries below
    the floor."""
    rng = np.random.default_rng(8)
    for n, seed in ((5, 0), (8, 4), (12, 7)):
        pair = synthesize_pair(n, 0.03, seed=seed)
        yield assemble_affinity(pair.g1, pair.g2), np.full((n, n), 1 / n)
        X0 = rng.uniform(0.0, 1.0, size=(n, n))
        X0[rng.uniform(size=(n, n)) < 0.3] = 1e-13
        yield random_sparse_affinity(rng, n, n, density=min(0.3, 12.0 / (n * n))), X0


def test_trace_keeps_the_products_and_scales_the_solve_computed():
    stops = []
    for K, X0 in _recorded_solves():
        _, full = probabilistic_solve(K, X0, SolverConfig(stop_eta=1e-300))
        xs = [X.ravel() for X in full.assignments]
        delta_sq = [float(((b - a) ** 2).sum()) for a, b in zip(xs, xs[1:])]
        for cfg in (SolverConfig(stop_eta=1e-300), SolverConfig(stop_eta=delta_sq[2] * 1.5)):
            _, trace = probabilistic_solve(K, X0, cfg)
            stops.append(trace.stop_reason)
            xs = [X.ravel() for X in trace.assignments]
            assert trace.iterations == len(trace.scales) == len(xs) - 1 >= 1
            assert len(trace.products) == len(xs)
            for x_t, Kx in zip(xs, trace.products):
                assert np.array_equal(Kx, spmv(K, x_t))
            scale = np.ones(K.size)
            for x_t, x_next, s in zip(xs, xs[1:], trace.scales):
                assert np.array_equal(s, scale)
                scale = scale * (x_next / np.maximum(x_t, FLOOR))
    assert stops == ["max_iters", "early_stop"] * 6


def test_a_solve_computes_no_score_and_the_record_works_them_out_when_read(monkeypatch):
    def no_score(X):
        raise AssertionError("a solve computed a binary score")

    monkeypatch.setattr(solvers_module, "binary_score", no_score)
    rng = np.random.default_rng(3)
    K, X0 = next(_recorded_solves())
    probabilistic_solve(K, X0)
    dpgm_assignment([K], X0[None], SolverConfig(), "full")
    unary, p, q, w = random_pairs(rng, 6, 6)
    X = solve_tape(Tensor(unary), Tensor(w), (p, q), (6, 6), SolverConfig())
    ad.tsum(ad.mul(X, rng.normal(size=36))).backward()
    monkeypatch.undo()
    for K, X0 in _recorded_solves():
        _, trace = probabilistic_solve(K, X0)
        assert len(trace.binary_scores) == len(trace.objectives) == len(trace.assignments)
        for X_t, score, f in zip(trace.assignments, trace.binary_scores, trace.objectives):
            assert score == binary_score(X_t)
            assert f == objective(K, X_t.ravel())


def test_the_record_holds_the_solves_own_arrays():
    solves = [*_recorded_solves(), (SparseAffinity(2, 2, np.zeros(4)), np.full((2, 2), 0.5))]
    for K, X0 in solves:
        X, trace = probabilistic_solve(K, X0)
        assert trace.assignments[-1] is X


@st.composite
def _solver_case(draw):
    n = draw(st.integers(3, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    K = random_sparse_affinity(rng, n, n, density=min(0.3, 12.0 / (n * n)))
    X0 = rng.uniform(0.0, 1.0, size=(n, n))
    # Some entries below, at and just above the probability floor.
    tiny = rng.uniform(size=(n, n)) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    X0[tiny] = 10.0 ** rng.uniform(-13, -10, size=int(tiny.sum()))
    # Put stop_eta just above or just below the squared change of one
    # iteration, so the early stop fires there or one iteration later.
    _, deltas, _ = reference_probabilistic_solve(K, X0, stop_eta=1e-300)
    t = draw(st.integers(0, len(deltas) - 1))
    assume(deltas[t] > 1e-12)
    side = draw(st.sampled_from([1.0 + 1e-6, 1.0 - 1e-6]))
    return K, X0, SolverConfig(stop_eta=deltas[t] * side)


@settings(max_examples=60, deadline=None)
@given(_solver_case())
def test_fixed_operator_solvers_match_refined_operator_oracle(case):
    K, X0, cfg = case
    X_ref, deltas, stop_ref = reference_probabilistic_solve(
        K, X0, cfg.max_iters, cfg.stop_eta, cfg.sinkhorn_iters)

    X_np, trace = probabilistic_solve(K, X0, cfg)
    assert np.abs(X_np - X_ref).max() < 1e-10
    assert len(trace.assignments) - 1 == len(deltas)
    assert trace.stop_reason == stop_ref


def test_solver_deterministic():
    pair = synthesize_pair(7, 0.03, seed=13)
    K = assemble_affinity(pair.g1, pair.g2)
    X0 = np.full((7, 7), 1 / 7)
    Xa, ta = probabilistic_solve(K, X0)
    Xb, tb = probabilistic_solve(K, X0)
    assert np.array_equal(Xa, Xb)
    assert ta.binary_scores == tb.binary_scores


def test_trace_json_round_trips():
    import json
    pair = synthesize_pair(4, 0.02, seed=1)
    K = assemble_affinity(pair.g1, pair.g2)
    _, trace = probabilistic_solve(K, np.full((4, 4), 0.25))
    doc = json.loads(trace.to_json())
    assert doc["stop_reason"] in ("early_stop", "max_iters")
    assert len(doc["binary_scores"]) == len(trace.assignments)
    assert np.allclose(doc["assignments"][-1], trace.assignments[-1])


# ---------------------------------------------------------------------------
# spectral_match

def test_spectral_dominant_axis():
    K = SparseAffinity(1, 2, np.array([2.0, 1.0]))
    x = spectral_match([K], iters=200)[0][0].ravel()
    assert np.allclose(x, [1.0, 0.0], atol=1e-8)


def test_spectral_symmetric_2x2():
    K = SparseAffinity.symmetric(1, 2, np.array([2.0, 2.0]), np.array([0]),
                                 np.array([1]), np.array([1.0]))
    x = spectral_match([K])[0][0].ravel()
    assert np.allclose(x, [1 / np.sqrt(2)] * 2, atol=1e-9)


def test_spectral_rayleigh_stationarity():
    rng = np.random.default_rng(21)
    K = random_sparse_affinity(rng, 3, 3, density=0.4)
    x = spectral_match([K], iters=200)[0][0].ravel()
    y = spmv(K, x)
    x2 = y / np.linalg.norm(y)
    r1 = x @ spmv(K, x)
    r2 = x2 @ spmv(K, x2)
    assert abs(r2 - r1) < 1e-8


# ---------------------------------------------------------------------------
# ipfp

def test_ipfp_ground_truth_is_local_optimum():
    pair = synthesize_pair(5, 0.0, seed=17, translation_max=0.0)
    K = assemble_affinity(pair.g1, pair.g2)
    x0 = perm_matrix(pair.ground_truth).ravel()
    X, steps = ipfp([K], x0.reshape(1, 5, 5))
    assert np.allclose(X[0].ravel(), x0)
    assert steps[0] == 0
    # no 2-swap of the ground truth improves the objective
    base = objective(K, x0)
    for i in range(5):
        for j in range(i + 1, 5):
            perm = pair.ground_truth.copy()
            perm[[i, j]] = perm[[j, i]]
            assert objective(K, perm_matrix(perm).ravel()) <= base + 1e-12


def test_ipfp_diagonal_reduces_to_hungarian():
    rng = np.random.default_rng(31)
    profit = rng.uniform(0, 1, size=(4, 4))
    K = SparseAffinity(4, 4, profit.ravel())
    X, _ = ipfp([K], np.full((1, 4, 4), 1 / 4))
    assert np.array_equal(discretize(X[0]), hungarian(profit))


def test_ipfp_monotone_over_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        K = random_sparse_affinity(rng, 4, 4, density=0.15)
        x0 = rng.uniform(0, 1, size=16)
        assert objective(K, ipfp([K], x0.reshape(1, 4, 4))[0][0].ravel()) \
            >= objective(K, x0) - 1e-12


# ---------------------------------------------------------------------------
# rrwm

def test_rrwm_alpha_zero_matches_spectral_direction():
    rng = np.random.default_rng(41)
    K = random_sparse_affinity(rng, 3, 3, density=0.4)
    x = rrwm([K], alpha=0.0, max_iters=300)[0][0].ravel()
    y = spectral_match([K], iters=300)[0][0].ravel()
    cos = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
    assert np.arccos(np.clip(cos, -1, 1)) < 1e-6


def test_rrwm_uniform_operator_fixed_point():
    n = 3
    size = n * n
    p, q = np.triu_indices(size, 1)
    K = SparseAffinity.symmetric(n, n, np.ones(size), p, q, np.ones(p.size))
    x = rrwm([K])[0][0].ravel()
    assert np.allclose(x, np.full(size, 1 / size), atol=1e-9)


def test_rrwm_zero_noise_recovers_ground_truth():
    pair = synthesize_pair(5, 0.0, seed=23, translation_max=0.0)
    K = assemble_affinity(pair.g1, pair.g2)
    X, _ = rrwm([K])
    assert np.array_equal(discretize(X[0]), pair.ground_truth)
    assert np.array_equal(brute_force_qap(K)[0], pair.ground_truth)


def test_baselines_count_the_updates_they_apply():
    # On ordinary instances each count lies in 1..cap, and stopping the
    # solver at its own count reproduces its result while one update less
    # does not, so the count is the number of updates, not the loop bound.
    for seed in range(8):
        pair = synthesize_pair(6, 0.03, seed=seed)
        K = assemble_affinity(pair.g1, pair.g2)
        _, steps = spectral_match([K], iters=40)
        assert steps[0] == 40
        for solve, cap in ((lambda m: ipfp([K], np.full((1, 6, 6), 1 / 6), max_iters=m), 50),
                           (lambda m: rrwm([K], max_iters=m), 100)):
            x, (steps,) = solve(cap)
            assert 1 <= steps < cap
            assert np.array_equal(solve(steps)[0], x)
            assert not np.array_equal(solve(steps - 1)[0], x)


def test_baselines_report_zero_when_they_stop_before_any_update():
    zero = SparseAffinity(3, 3, np.zeros(9))
    x, (steps,) = spectral_match([zero])
    assert steps == 0 and np.allclose(x, 1 / 3)
    x, (steps,) = rrwm([zero])
    assert steps == 0 and np.allclose(x, 1 / 9)
    # a directed chain whose K x vanishes after one power step
    chain = SparseAffinity(1, 2, np.zeros(2), rows=[0], cols=[1], vals=[1.0])
    x, (steps,) = spectral_match([chain])
    assert steps == 1 and np.array_equal(x[0].ravel(), [1.0, 0.0])


def _mixed_chunk():
    """Same-size operators whose baselines stop after different counts:
    handcrafted and random operators, a zero one and a directed chain."""
    pairs = [synthesize_pair(4, noise, seed=seed)
             for seed, noise in enumerate((0.0, 0.03, 0.1, 0.3))]
    Ks = [assemble_affinity(pair.g1, pair.g2) for pair in pairs]
    rng = np.random.default_rng(8)
    Ks += [random_sparse_affinity(rng, 4, 4, density=d) for d in (0.05, 0.3, 0.8)]
    Ks.append(SparseAffinity(4, 4, np.zeros(16)))
    Ks.append(SparseAffinity(4, 4, np.zeros(16), rows=[0], cols=[1], vals=[1.0]))
    return Ks


@pytest.mark.parametrize("solve, reference, kwargs", [
    (spectral_match, reference_spectral_match, {}),
    (spectral_match, reference_spectral_match, {"iters": 7}),
    (rrwm, reference_rrwm, {}),
    (rrwm, reference_rrwm, {"alpha": 0.0, "max_iters": 300}),
    (rrwm, reference_rrwm, {"max_iters": 12}),
])
def test_batched_baselines_equal_each_instance_alone(solve, reference, kwargs):
    Ks = _mixed_chunk()
    expected = [reference(K, **kwargs) for K in Ks]
    counts = {steps for _, steps in expected}
    assert 0 in counts and len(counts) > 2
    for order in (range(len(Ks)), [8, 3, 7, 0, 6, 1, 5, 2, 4]):
        chunk = [Ks[i] for i in order]
        X, steps = solve(chunk, **kwargs)
        assert X.shape == (len(chunk), 4, 4) and steps.shape == (len(chunk),)
        for b, i in enumerate(order):
            assert np.array_equal(X[b].ravel(), expected[i][0])
            assert steps[b] == expected[i][1]
    for K, (x_ref, steps_ref) in zip(Ks, expected):
        X, steps = solve([K], **kwargs)        # a chunk of one
        assert X.shape == (1, 4, 4) and steps.shape == (1,)
        assert np.array_equal(X[0].ravel(), x_ref) and steps[0] == steps_ref


@pytest.mark.parametrize("solve", [spectral_match, rrwm])
def test_batched_baselines_reject_a_chunk_of_different_sizes(solve):
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="same size"):
        solve([random_sparse_affinity(rng, 3, 3), random_sparse_affinity(rng, 4, 4)])


def _dpgm_pool():
    """(K, X_init) at n = 8 whose solves stop after 0 to 10 iterations:
    handcrafted operators at noise 0.01 and 0.03, random operators from
    starts with entries below the floor, the zero operator and -I."""
    pool = []
    for noise in (0.01, 0.03):
        for seed in range(6):
            pair = synthesize_pair(8, noise, seed=seed)
            pool.append((assemble_affinity(pair.g1, pair.g2), np.full((8, 8), 1 / 8)))
    rng = np.random.default_rng(5)
    for density in (0.02, 0.05, 0.2):
        X0 = rng.uniform(size=(8, 8))
        X0[rng.uniform(size=(8, 8)) < 0.3] = 1e-13
        pool.append((random_sparse_affinity(rng, 8, 8, density=density), X0))
    pool.append((SparseAffinity(8, 8, np.zeros(64)), rng.uniform(size=(8, 8))))
    pool.append((SparseAffinity(8, 8, -np.ones(64)), np.full((8, 8), 1 / 8)))
    return pool


def _same_record(a, b):
    return (a.stop_reason == b.stop_reason and a.last_delta_sq == b.last_delta_sq
            and all(len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
                    for x, y in ((a.assignments, b.assignments), (a.products, b.products),
                                 (a.scales, b.scales))))


@pytest.mark.parametrize("B", [1, 8, 33])
def test_batched_probabilistic_solve_equals_each_instance_alone(B):
    pool = _dpgm_pool()
    alone = [probabilistic_solve(K, X0) for K, X0 in pool]
    counts = {trace.iterations for _, trace in alone}
    assert {0, 1, 10} <= counts and len(counts) > 4
    # the zero operator and -I first, then a shuffle that repeats the pool
    order = [len(pool) - 2, len(pool) - 1, *np.random.default_rng(B).permutation(33)
             % len(pool)][:B]
    X, traces = probabilistic_solve([pool[i][0] for i in order],
                                    np.stack([pool[i][1] for i in order]))
    assert X.shape == (B, 8, 8) and len(traces) == B
    for b, i in enumerate(order):
        X_alone, trace_alone = alone[i]
        assert np.array_equal(X[b], X_alone)
        assert _same_record(traces[b], trace_alone)
        if trace_alone.iterations:
            X_ref, deltas, stop_ref = reference_probabilistic_solve(*pool[i])
            assert np.abs(X[b] - X_ref).max() < 1e-10
            assert traces[b].iterations == len(deltas)
            assert traces[b].stop_reason == stop_ref


def test_batched_probabilistic_solve_stays_bitwise_at_n100():
    pairs = [synthesize_pair(100, 0.03, seed=seed) for seed in range(2)]
    Ks = [assemble_affinity(pair.g1, pair.g2) for pair in pairs]
    X0 = np.full((2, 100, 100), 0.01)
    cfg = SolverConfig(max_iters=3)
    X, traces = probabilistic_solve(Ks, X0, cfg)
    for K, X_b, trace in zip(Ks, X, traces):
        X_alone, trace_alone = probabilistic_solve(K, X0[0], cfg)
        assert np.array_equal(X_b, X_alone) and _same_record(trace, trace_alone)


@pytest.mark.parametrize("n, max_iters", [(8, 100), (100, 3)])
def test_probabilistic_solve_is_bitwise_the_same_on_int64_triplets(n, max_iters):
    pairs = [synthesize_pair(n, 0.03, seed=seed) for seed in range(2)]
    Ks = [assemble_affinity(pair.g1, pair.g2) for pair in pairs]
    assert all(K.rows.dtype == K.cols.dtype == np.int32 for K in Ks)
    wide = [int64_copy(K) for K in Ks]
    X0 = np.full((2, n, n), 1.0 / n)
    cfg = SolverConfig(max_iters=max_iters)
    for K, K64 in zip(Ks, wide):
        X, trace = probabilistic_solve(K, X0[0], cfg)
        X64, trace64 = probabilistic_solve(K64, X0[0], cfg)
        assert np.array_equal(X, X64) and _same_record(trace, trace64)
    X, traces = probabilistic_solve(Ks, X0, cfg)
    X64, traces64 = probabilistic_solve(wide, X0, cfg)
    assert np.array_equal(X, X64) and all(map(_same_record, traces, traces64))


def test_non_square_operator_is_rejected_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the solve did work on a non-square operator")

    monkeypatch.setattr(solvers_module, "spmv", no_work)
    monkeypatch.setattr(solvers_module, "sinkhorn", no_work)
    with pytest.raises(ValueError, match=r"\(n1, n2\) = \(2, 3\)"):
        probabilistic_solve(SparseAffinity(2, 3, np.ones(6)), np.full((2, 3), 0.5))
    with pytest.raises(ValueError, match=r"\(n1, n2\) = \(2, 3\)"):
        probabilistic_solve([SparseAffinity(2, 3, np.ones(6))] * 2, np.full((2, 2, 3), 0.5))


def test_chunk_of_different_sizes_is_rejected_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the solve did work on a chunk of different sizes")

    monkeypatch.setattr(solvers_module, "spmv", no_work)
    rng = np.random.default_rng(9)
    Ks = [random_sparse_affinity(rng, 3, 3), random_sparse_affinity(rng, 4, 4)]
    with pytest.raises(ValueError, match=r"same size, got \[\(3, 3\), \(4, 4\)\]"):
        probabilistic_solve(Ks, np.full((2, 3, 3), 1 / 3))


@pytest.mark.parametrize("shape", [(3, 3), (2, 9), (3, 3, 3), (2, 3, 3, 1)])
def test_chunk_start_of_the_wrong_shape_is_rejected_before_any_work(shape, monkeypatch):
    def no_work(*args):
        raise AssertionError("the solve did work on a start of the wrong shape")

    monkeypatch.setattr(solvers_module, "spmv", no_work)
    Ks = [SparseAffinity(3, 3, np.ones(9)), SparseAffinity(3, 3, np.zeros(9))]
    with pytest.raises(ValueError, match=r"X_init must have shape \(2, 3, 3\)"):
        probabilistic_solve(Ks, np.full(shape, 1 / 3))


# ---------------------------------------------------------------------------
# discretize / accuracy

def test_discretize_permutation_identity():
    P = perm_matrix(np.array([1, 2, 0]))
    assert np.array_equal(discretize(P), [1, 2, 0])


def test_discretize_uniform_deterministic():
    X = np.full((3, 3), 1 / 3)
    assert np.array_equal(discretize(X), discretize(X))


def test_discretize_strong_diagonal():
    X = sinkhorn(np.eye(4) + 0.01)
    assert np.array_equal(discretize(X), [0, 1, 2, 3])


def test_accuracy_values():
    assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0
    assert accuracy([1, 2, 0], [0, 1, 2]) == 0.0
    assert accuracy([0, 2, 1], [0, 1, 2]) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        accuracy([0, 1], [0, 1, 2])
