import itertools

import numpy as np

from probmatch.affinity import objective
from probmatch.linalg import SparseAffinity, perm_matrix, sinkhorn, spmv


def random_sparse_affinity(rng, n1, n2, density=0.3):
    """Random symmetric nonnegative operator with unary diagonal."""
    size = n1 * n2
    unary = rng.uniform(0.0, 1.0, size=size)
    pairs = []
    for p in range(size):
        for q in range(p + 1, size):
            if rng.uniform() < density:
                v = rng.uniform(0.0, 1.0)
                pairs.append((p, q, v))
                pairs.append((q, p, v))
    return SparseAffinity.from_pairs(n1, n2, unary, pairs)


def brute_force_qap(K):
    """Exhaustive QAP argmax over all permutations; returns (perm, objective)."""
    n = K.n1
    best_perm, best_val = None, -np.inf
    for perm in itertools.permutations(range(n)):
        perm = np.asarray(perm)
        val = objective(K, perm_matrix(perm).ravel())
        if val > best_val:
            best_perm, best_val = perm, val
    return best_perm, best_val


def qap_margin(K):
    """Relative gap between the best and second-best permutation objectives."""
    n = K.n1
    vals = sorted(
        (objective(K, perm_matrix(np.asarray(p)).ravel())
         for p in itertools.permutations(range(n))),
        reverse=True)
    if vals[0] <= 0:
        return 0.0
    return (vals[0] - vals[1]) / vals[0]


def reference_probabilistic_solve(K, X_init, max_iters=10, stop_eta=1e-5,
                                  sinkhorn_iters=20, sinkhorn_tol=0.0,
                                  floor=1e-12):
    """The probabilistic solver written with an explicitly refined operator.

    Every iteration rescales row p of a copy of K (diagonal included) by
    X_new[p] / max(x[p], floor). Returns (X, deltas, stop_reason), where
    deltas holds the squared change of every executed iteration.
    """
    n1, n2 = K.n1, K.n2
    X = np.maximum(np.asarray(X_init, dtype=np.float64), floor)
    K_cur = K.copy()
    deltas = []
    for _ in range(max_iters):
        x = X.ravel()
        X_new = sinkhorn(spmv(K_cur, x).reshape(n1, n2), sinkhorn_iters, sinkhorn_tol)
        deltas.append(float(((X_new.ravel() - x) ** 2).sum()))
        if deltas[-1] < stop_eta:
            return X_new, deltas, "early_stop"
        ratio = X_new.ravel() / np.maximum(x, floor)
        K_cur.vals = K_cur.vals * ratio[K_cur.rows]
        K_cur.unary = K_cur.unary * ratio
        X = X_new
    return X, deltas, "max_iters"
