import itertools

import numpy as np

import probmatch.autodiff as ad
from probmatch.affinity import objective
from probmatch.autodiff import Tensor
from probmatch.graphs import (
    _LOG_DIST_RANGE,
    _N_ANGLE_BINS,
    _N_DIST_BINS,
    AA_EDGE_DIM,
    FEATURE_DIM,
    AAGraph,
    AttributedGraph,
    build_aa_graph,
    graph_from_points,
    synthesize_pair,
)
from probmatch.linalg import (FLOOR, Incidence, SparseAffinity, perm_matrix, sinkhorn,
                              sinkhorn_vjp, spmv)
from probmatch.predictor import balanced_ce_loss, init_params, predictor_forward
from probmatch.solvers import probabilistic_solve, solve_tape


def random_pairs(rng, n1, n2, density=0.3):
    """Random unary diagonal and match pairs p < q with one weight each:
    (unary, p, q, weights), all in [0, 1)."""
    size = n1 * n2
    unary = rng.uniform(0.0, 1.0, size=size)
    p, q, w = [], [], []
    for r in range(size):
        for c in range(r + 1, size):
            if rng.uniform() < density:
                p.append(r)
                q.append(c)
                w.append(rng.uniform(0.0, 1.0))
    return (unary, np.array(p, dtype=np.int64), np.array(q, dtype=np.int64),
            np.array(w, dtype=np.float64))


def aa_graph_of_pairs(n1, n2, p, q):
    """An AA graph whose edges are the match pairs (p, q), with zero node and
    edge attributes: the operator pattern ``solvers.solve_tape`` reads."""
    return AAGraph(n1, n2, np.zeros((n1 * n2, 2 * FEATURE_DIM)), np.stack([p, q], axis=1),
                   np.zeros((len(p), AA_EDGE_DIM)))


def random_sparse_affinity(rng, n1, n2, density=0.3):
    """Random symmetric nonnegative operator with unary diagonal."""
    return SparseAffinity.symmetric(n1, n2, *random_pairs(rng, n1, n2, density))


def to_dense(K):
    """The dense matrix of a ``SparseAffinity``: its unary diagonal plus every
    off-diagonal triplet, repeated entries summed."""
    size = K.size
    # int64, since int32 would wrap from size**2 >= 2**31
    off = np.bincount(K.rows.astype(np.int64) * size + K.cols, weights=K.vals,
                      minlength=size * size)
    return np.diag(K.unary) + off.reshape(size, size)


def is_symmetric(K, tol=0.0):
    dense = to_dense(K)
    return bool(np.all(np.abs(dense - dense.T) <= tol))


def int64_copy(K):
    """K with its triplets copied to int64, for checks that the index width
    changes no result."""
    return SparseAffinity(K.n1, K.n2, K.unary, K.rows.astype(np.int64),
                          K.cols.astype(np.int64), K.vals)


def reference_edge_pairs(e1, e2):
    """Every pair of a graph-1 and a graph-2 edge by ``np.repeat`` and
    ``np.tile``: (i, j, a, b), one entry per graph-1 edge (i, j) crossed
    with each graph-2 edge (a, b) as listed, then each one reversed."""
    m1, m2 = len(e1), len(e2)
    i, j = np.repeat(e1.T, 2 * m2, axis=1)
    a, b = np.tile(np.concatenate([e2, e2[:, ::-1]]).T, m1)
    return i, j, a, b


def builder_graph_pairs():
    """(name, g1, g2) for the operator-layout oracle tests: synthetic pairs at
    n = 3 ... 60 and n = 100, a collinear graph whose Delaunay triangulation
    falls back to the complete graph, and an edgeless graph on either side."""
    for n in [*range(3, 61), 100]:
        pair = synthesize_pair(n, 0.03, seed=500 + n)
        yield f"n={n}", pair.g1, pair.g2
    line = graph_from_points(np.stack([np.linspace(0.0, 1.0, 5), np.zeros(5)], axis=1))
    assert line.delaunay_fallback
    pair = synthesize_pair(6, 0.03, seed=7)
    yield "fallback", line, pair.g2
    yield "fallback-g2", pair.g1, line
    edgeless = AttributedGraph(np.random.default_rng(3).uniform(size=(4, 2)),
                               np.zeros((4, FEATURE_DIM)), np.zeros((4, 4), dtype=bool))
    yield "edgeless", edgeless, pair.g2
    yield "edgeless-g2", pair.g1, edgeless
    yield "edgeless-both", edgeless, edgeless


def reference_edge_attrs(g1, g2):
    """AA-edge attributes [p_i; p_j; p_a; p_b] by fancy indexing, in
    ``reference_edge_pairs``' order."""
    i, j, a, b = reference_edge_pairs(g1.edge_list(), g2.edge_list())
    return np.concatenate([g1.points[i], g1.points[j], g2.points[a], g2.points[b]],
                          axis=1)


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


def reference_sinkhorn(X, max_iters=20, tol=1e-9, floor=1e-12):
    """Sinkhorn on one matrix, each pass and each tolerance check taking
    its own sums. Returns (X, passes run)."""
    X = np.maximum(np.asarray(X, dtype=np.float64), floor)
    for k in range(max_iters):
        X = X / X.sum(axis=1, keepdims=True)
        X = X / X.sum(axis=0, keepdims=True)
        if tol and max(np.abs(X.sum(axis=1) - 1.0).max(),
                       np.abs(X.sum(axis=0) - 1.0).max()) < tol:
            return X, k + 1
    return X, max_iters


def reference_spectral_match(K, iters=100):
    """Power iteration on one operator: (x, updates applied)."""
    x = np.full(K.size, 1.0 / np.sqrt(K.size))
    for it in range(iters):
        y = spmv(K, x)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return x, it
        x = y / norm
    return x, iters


def reference_rrwm(K, alpha=0.2, inflation=30.0, max_iters=100):
    """Reweighted random-walk matching on one operator: (x, updates applied)."""
    x = np.full(K.size, 1.0 / K.size)
    for it in range(max_iters):
        y = spmv(K, x)
        s = y.sum()
        if s == 0.0:
            return x, it
        y = y / s
        if alpha > 0.0:
            q = np.exp(inflation * y / y.max())
            q = reference_sinkhorn(q.reshape(K.n1, K.n2))[0].ravel()
            q = q / q.sum()
            x_new = (1.0 - alpha) * y + alpha * q
        else:
            x_new = y
        if np.linalg.norm(x_new - x) < 1e-8:
            return x_new, it + 1
        x = x_new
    return x, max_iters


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


def reference_backward(root):
    """``Tensor.backward`` as a sweep that frees nothing: every node on the
    tape gets a zero grad buffer first, then the closures run in reverse
    topological order, the order ``backward`` runs them in."""
    topo, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    for node in topo:
        if node.grad is None:
            node.grad = np.zeros_like(node.data)
    root.grad = root.grad + np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# Fine tape compositions of the fused autodiff nodes. Each op below is a tape
# node as the autodiff module once had it (``tape_matmul``, ``tape_gather``
# and ``tape_scatter_add`` among them); the fused node must be bitwise the
# chain of them.

def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _relu(a):
    def backward(g):
        a.grad += g * (a.data > 0.0)

    return Tensor(np.maximum(a.data, 0.0), (a,), backward)


def _concat(tensors, axis=-1):
    tensors = [_wrap(t) for t in tensors]

    def backward(g):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t.grad += piece

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def _div(a, b):
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        a.grad += ad._unbroadcast(g / b.data, a.data.shape)
        b.grad += ad._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)

    return Tensor(a.data / b.data, (a, b), backward)


def _sqrt(a):
    s = np.sqrt(a.data)

    def backward(g):
        a.grad += g * 0.5 / s

    return Tensor(s, (a,), backward)


def tape_matmul(a, b):
    x, y = ad._data(a), ad._data(b)

    def backward(g):
        if isinstance(a, Tensor):
            a.grad += g @ y.T
        if isinstance(b, Tensor):
            b.grad += x.T @ g

    return Tensor(x @ y, ad._tensors(a, b), backward)


def _integer_index(index):
    index = np.asarray(index)
    if not np.issubdtype(index.dtype, np.integer):
        raise TypeError(f"an index must be of an integer dtype, got {index.dtype}")
    return index


def tape_gather(a, index):
    """Rows (axis 0) of ``a`` by an integer index with entries in [0, len(a)),
    or by a ``linalg.Incidence`` into len(a) bins; the backward sums the
    rows of the grad through the incidence matrix."""
    incidence = index if isinstance(index, Incidence) else None
    rows = index.index if incidence is not None else _integer_index(index)

    def backward(g):
        (incidence or Incidence(rows, len(a.data))).add_rows(a.grad, g)

    return Tensor(a.data[rows], (a,), backward)


def tape_scatter_add(a, index, size):
    """Rows of ``a`` summed into ``size`` bins by an integer index (axis 0),
    or by a ``linalg.Incidence`` into ``size`` bins."""
    incidence = index if isinstance(index, Incidence) else Incidence(index, size)
    acc = np.zeros((size,) + a.data.shape[1:])
    incidence.add_rows(acc, a.data)

    def backward(g):
        a.grad += g[incidence.index]

    return Tensor(acc, (a,), backward)


def reference_mlp(inputs, layers):
    """``autodiff.mlp`` as its fine chain: a concatenation of the inputs
    (none for one), then ``matmul`` and ``add`` per layer with a ReLU node
    between each two."""
    x = _wrap(inputs[0]) if len(inputs) == 1 else _concat(inputs, axis=1)
    for k, (w, b) in enumerate(layers):
        x = ad.add(tape_matmul(x, w), b)
        if k < len(layers) - 1:
            x = _relu(x)
    return x


def reference_rms_rescale(t, eps):
    """The RMS rescale ``t / sqrt(sum(t * t) / t.size + eps)`` as its fine
    chain of mul, tsum, div, add and sqrt nodes; an empty t as it is."""
    if not t.data.size:
        return t
    ms = _div(ad.tsum(ad.mul(t, t)), t.data.size)
    return _div(t, _sqrt(ad.add(ms, eps)))


def reference_edge_update(E, V, M1, M2, layers, src, dst, eps):
    """``autodiff.edge_update`` as its fine chain: the gate's two matmuls,
    four gathers, three muls and an add, then the MLP and the rescale."""
    A, B = tape_matmul(V, M1), tape_matmul(V, M2)
    fwd = ad.mul(tape_gather(A, src), tape_gather(B, dst))
    rev = ad.mul(tape_gather(A, dst), tape_gather(B, src))
    ebar = ad.mul(ad.add(fwd, rev), 0.5)
    return reference_rms_rescale(reference_mlp([E, ebar], layers), eps)


def reference_node_update(E, V, layers, src, dst, eps):
    """``autodiff.node_update`` as its fine chain: two scatters and an add,
    then the MLP and the rescale."""
    n = V.data.shape[0]
    agg = ad.add(tape_scatter_add(E, src, n), tape_scatter_add(E, dst, n))
    return reference_rms_rescale(reference_mlp([agg, V], layers), eps)


def reference_sinkhorn_vjp(Y, passes, G):
    """Sinkhorn's adjoint on one matrix, running the passes into a list with
    ``ndarray.sum`` and reversing them."""
    steps, Z = [], np.maximum(Y, FLOOR)
    for _ in range(passes):
        r = Z.sum(axis=1, keepdims=True)
        A = Z / r
        c = A.sum(axis=0, keepdims=True)
        Z = A / c
        steps.append((r, A, c, Z))
    for r, A, c, Z in reversed(steps):
        G = (G - (G * Z).sum(axis=0, keepdims=True)) / c
        G = (G - (G * A).sum(axis=1, keepdims=True)) / r
    return G * (Y > FLOOR)


def reference_solve_tape(x, e, aa, cfg):
    """``solvers.solve_tape`` of one instance as the single-pair node it was
    before it took a chunk: its own solve, and a backward that adds into
    x.grad once per iteration."""
    shape, (p, q) = (aa.n1, aa.n2), aa.edges.T
    K = SparseAffinity.symmetric(aa.n1, aa.n2, x.data, p, q, e.data)
    K_T = SparseAffinity.symmetric(aa.n1, aa.n2, x.data, q, p, e.data)
    X, trace = probabilistic_solve(K, x.data.reshape(shape), cfg)

    def backward(g):
        xs = [X_t.ravel() for X_t in trace.assignments]
        g_s = np.zeros(K.size)
        g_vals = np.zeros(K.vals.size)
        for x_t, x_next, s, Kx in reversed(list(zip(xs, xs[1:], trace.scales, trace.products))):
            den = np.maximum(x_t, FLOOR)
            g = g + g_s * s / den
            g_prev = -g_s * s * x_next / (den * den) * (x_t > FLOOR)
            g_y = sinkhorn_vjp((s * Kx).reshape(shape), cfg.sinkhorn_iters,
                               g.reshape(shape)).ravel()
            g_s = g_s * (x_next / den) + g_y * Kx
            g_Kx = g_y * s
            x.grad += g_Kx * x_t
            g_vals += g_Kx[K.rows] * x_t[K.cols]
            g = g_prev + spmv(K_T, g_Kx)
        x.grad += g * (x.data > FLOOR)
        for half in np.split(g_vals, 2):
            e.grad += half

    return Tensor(X.ravel(), (x, e), backward)


def reference_train(pairs, pcfg, scfg, lcfg, epochs, lr=1e-3, batch_size=8, seed=0):
    """``predictor.train`` without a target accuracy, one pair at a time and
    built apart from ``predictor.chunk_losses``: a forward and a backward per
    pair, each pair's solve alone, the loop training ran before it solved a
    chunk in one node."""
    store = init_params(pcfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    prepared = [(build_aa_graph(pair.g1, pair.g2), perm_matrix(pair.ground_truth).ravel())
                for pair in pairs]
    metrics = []
    for epoch in range(epochs):
        order = rng.permutation(len(prepared))
        losses = []
        for start in range(0, len(order), batch_size):
            store.zero_grad()
            for idx in order[start:start + batch_size]:
                aa, gt_vec = prepared[idx]
                x, e = predictor_forward(aa, store, pcfg)
                loss = balanced_ce_loss(solve_tape([x], [e], [aa], scfg)[0], gt_vec, lcfg)
                loss.backward()
                losses.append(float(loss.data))
            store.adam_step(lr=lr)
        metrics.append({"epoch": epoch, "mean_loss": float(np.mean(losses))})
    return store, metrics
