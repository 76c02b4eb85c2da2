import itertools

import numpy as np

from probmatch.affinity import objective
from probmatch.graphs import _LOG_DIST_RANGE, _N_ANGLE_BINS, _N_DIST_BINS, FEATURE_DIM
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


def reference_spmv(K, x):
    """y = K x with the off-diagonal entries summed by ``np.bincount`` over
    the stored triplets, in their stored order."""
    x = np.asarray(x, dtype=np.float64)
    y = K.unary * x
    if K.rows.size:
        y += np.bincount(K.rows, weights=K.vals * x[K.cols], minlength=K.size)
    return y


def reference_geometric_features(points, adjacency):
    """The descriptor of ``graphs.geometric_features`` computed node by node
    with ``np.histogram`` and ``mean``."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    feats = np.zeros((n, FEATURE_DIM))
    lo, hi = _LOG_DIST_RANGE
    for i in range(n):
        nbrs = np.nonzero(adjacency[i])[0]
        if nbrs.size == 0:
            continue
        offsets = points[nbrs] - points[i]
        dists = np.linalg.norm(offsets, axis=1)
        dists = np.maximum(dists, 1e-9)
        logd = np.clip(np.log(dists), lo, hi - 1e-12)
        dhist, _ = np.histogram(logd, bins=_N_DIST_BINS, range=(lo, hi))
        angles = np.arctan2(offsets[:, 1], offsets[:, 0])
        mean_dir = np.arctan2(np.sin(angles).mean(), np.cos(angles).mean())
        rel = np.mod(angles - mean_dir + np.pi, 2 * np.pi) - np.pi
        ahist, _ = np.histogram(rel, bins=_N_ANGLE_BINS, range=(-np.pi, np.pi))
        feats[i, :_N_DIST_BINS] = dhist / nbrs.size
        feats[i, _N_DIST_BINS:] = ahist / nbrs.size
    return feats


def reference_scatter_add(values, index, size):
    """``autodiff.scatter_add``'s forward by ``np.add.at``: the rows of
    ``values`` summed into ``size`` bins, one at a time in index order."""
    out = np.zeros((size,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def reference_gather_backward(grad, index, g):
    """``autodiff.gather``'s backward by ``np.add.at``: the rows of ``g``
    added onto a copy of ``grad``, one at a time in index order."""
    out = grad.copy()
    np.add.at(out, index, g)
    return out
