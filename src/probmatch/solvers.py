"""QAP solvers: the iterative probabilistic solver and learning-free baselines.

The probabilistic solver alternates three steps: propagate assignment
probabilities through the affinity operator (x <- K x), project back toward
the doubly stochastic set with Sinkhorn, and refine the affinities by the
elementwise probability ratio between consecutive iterates, kept as a
row-scale vector over a fixed K. Early stop fires when the squared change of
the assignment vector drops below a threshold. ``solve_tape`` is the same
solve of a chunk as one autodiff tape node whose backward, the exact
adjoint, reads its records; training cuts its batches with ``chunks`` and
holds the B predictor tapes of a chunk at once, under that one node.

Every solver takes a chunk, a list of same-size operators, and returns X
(B, n1, n2) and per-instance counts; ``probabilistic_solve`` also takes one
bare operator. Except IPFP, which goes one instance at a time, a chunk is
solved in one pass over its block-diagonal stack, so numpy's per-call
overhead is paid once per chunk. Each instance keeps its own stopping rules
and leaves the chunk when it stops, and its result is bitwise what it would
be alone: norms are taken one instance at a time with ``np.dot``, and sums
and maxima within each instance's row. ``chunks`` is the one rule that cuts
instances into chunks, for the experiment runner, ``predictor.evaluate`` and
``predictor.train``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .affinity import objective
from .autodiff import Tensor, unstack
from .linalg import (FLOOR, SparseAffinity, binary_score, block_diagonal, hungarian,
                     perm_matrix, sinkhorn, sinkhorn_vjp, spmv)


@dataclass
class SolverConfig:
    max_iters: int = 10            # S
    stop_eta: float = 1e-5         # eta
    sinkhorn_iters: int = 20       # Sinkhorn passes per iteration; all of them run

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.sinkhorn_iters < 1:
            raise ValueError("sinkhorn_iters must be >= 1")
        if not self.stop_eta > 0:
            raise ValueError("stop_eta must be positive")


@dataclass
class SolveTrace:
    """Per-iteration record of a probabilistic solve, holding the solve's own arrays.

    ``assignments[t]`` is X_t, ``products[t]`` K x_t and ``scales[t]`` the scale s_t
    that multiplied it; the last iterate is not propagated, so ``iterations`` counts
    the products and scales, and ``assignments`` holds one more. The arrays are not
    copies (in a chunk's solve, views into the chunk's arrays): callers must not
    write into them. Binary scores and objectives x_t . K x_t, against the solve's
    ``operator``, are worked out when read."""

    operator: SparseAffinity | None = field(default=None, repr=False)
    assignments: list = field(default_factory=list)
    products: list = field(default_factory=list)
    scales: list = field(default_factory=list)
    stop_reason: str = "max_iters"
    last_delta_sq: float = float("nan")

    @property
    def iterations(self) -> int:
        return len(self.scales)

    @property
    def binary_scores(self) -> list:
        return [binary_score(X) for X in self.assignments]

    @property
    def objectives(self) -> list:
        return [objective(self.operator, X.ravel()) for X in self.assignments]

    def record(self, X: np.ndarray, Kx: np.ndarray, s: np.ndarray):
        self.assignments.append(X)
        self.products.append(Kx)
        self.scales.append(s)

    def to_json(self) -> str:
        doc = {
            "stop_reason": self.stop_reason,
            "iterations": self.iterations,
            "last_delta_sq": self.last_delta_sq,
            "binary_scores": self.binary_scores,
            "objectives": self.objectives,
            "assignments": [X.tolist() for X in self.assignments],
        }
        return json.dumps(doc, indent=1, sort_keys=True)


def probabilistic_solve(K, X_init: np.ndarray, cfg: SolverConfig | None = None):
    """Iterative probabilistic QAP solver.

    K is one square operator, with X_init of shape (n1, n2), or a chunk of B
    same-size square operators, with X_init of shape (B, n1, n2); each
    instance is solved on its own. Returns the final soft assignment and the
    full per-iteration trace: for a chunk, the assignments as a (B, n1, n2)
    array and one trace per instance. The input assignment is clamped below
    by ``FLOOR`` so Sinkhorn and the refinement ratios are well defined.
    Refining row p of K by ratio_p is (diag(r) K) x = r * (K x), so K stays
    fixed and ``scale``, the running product of the ratios, multiplies each
    propagation K x, one product per iteration; the final iterate is not
    propagated. An instance that stops early leaves the chunk, and the live
    instances' operators are stacked anew. Raises ValueError before any work
    on a non-square operator, a chunk of different sizes or a start of the
    wrong shape.
    """
    cfg = cfg or SolverConfig()
    one = isinstance(K, SparseAffinity)
    Ks = [K] if one else list(K)
    stacked, B, n1, n2 = _chunk(Ks)
    if n1 != n2:
        raise ValueError(f"the solver needs a square operator, got (n1, n2) = ({n1}, {n2})")
    shape = (n1, n2) if one else (B, n1, n2)
    if np.shape(X_init) != shape:
        raise ValueError(f"X_init must have shape {shape}, got {np.shape(X_init)}")
    N = n1 * n2
    X = np.maximum(np.asarray(X_init, dtype=np.float64), FLOOR).reshape(B, n1, n2)
    traces = [SolveTrace(K_b) for K_b in Ks]
    out = np.empty((B, n1, n2))     # each instance's final iterate
    live = np.array([b for b, K_b in enumerate(Ks) if K_b.unary.any() or K_b.stored[2].any()],
                    dtype=np.intp)
    if live.size < B:
        # Degenerate operators: propagation is identically zero. Their solve
        # is the normalized input.
        zero = np.setdiff1d(np.arange(B), live)
        out[zero] = sinkhorn(X[zero], cfg.sinkhorn_iters, tol=0.0)
        for b in zero:
            traces[b].stop_reason = "early_stop"
            traces[b].last_delta_sq = 0.0
        X = X[live]

    stack = stacked
    scale = np.ones((live.size, N))
    delta_sq = np.zeros(0)
    for _ in range(cfg.max_iters):
        if not live.size:
            break
        if stack.n1 != live.size * n1:      # instances have stopped: stack the live ones
            stack = block_diagonal([Ks[b] for b in live])
        x = X.reshape(live.size, N)
        Kx = spmv(stack, x.ravel()).reshape(live.size, N)
        for b, X_t, Kx_t, s_t in zip(live.tolist(), X, Kx, scale):
            traces[b].record(X_t, Kx_t, s_t)
        X_new = sinkhorn((scale * Kx).reshape(-1, n1, n2), cfg.sinkhorn_iters, tol=0.0)
        x_new = X_new.reshape(live.size, N)
        delta_sq = ((x_new - x) ** 2).sum(axis=1)    # bitwise the 1-D sum of each row
        scale = scale * (x_new / np.maximum(x, FLOOR))
        X = X_new
        stop = delta_sq < cfg.stop_eta
        if np.count_nonzero(stop):
            out[live[stop]] = X[stop]
            for b, d in zip(live[stop], delta_sq[stop]):
                traces[b].stop_reason = "early_stop"
                traces[b].last_delta_sq = float(d)
            going = ~stop
            live, X, scale, delta_sq = live[going], X[going], scale[going], delta_sq[going]
    out[live] = X
    for b, d in zip(live, delta_sq):
        traces[b].last_delta_sq = float(d)
    for trace, X_b in zip(traces, out):
        trace.assignments.append(X_b)
    if one:
        return traces[0].assignments[-1], traces[0]
    return out, traces


def solve_tape(xs, es, aas, cfg: SolverConfig) -> list:
    """``probabilistic_solve`` of a chunk as one autodiff tape node; returns
    each instance's flat final X as a row of that node (``autodiff.unstack``).

    For instance b, ``xs[b]`` (flat) is both the initial assignment and K's
    unary diagonal, and ``es[b][t]`` is K's entry at (p, q) and at (q, p) for
    the t-th edge (p, q) of the AA graph ``aas[b]``; the graphs must be of
    one size. K is ``SparseAffinity.symmetric`` over the edges. The backward
    is the exact adjoint of the iterations each instance ran, over the
    stacked iterates of the instances still live at each one, as the solve
    ran them: it reads x_t, K x_t and s_t from the records and runs each
    Sinkhorn's passes again. Its only products are K^T x, one per iteration
    (``spmv`` with ``transpose``), on the stack of the live operators, made
    anew when the live set changes: the forward's kernels on a view of the
    same pairs, in the other order. Each edge's grad is taken at (p, q) and
    at (q, p) apart and added to ``es[b].grad`` in that order. Every
    instance's grads are bitwise what its solve alone would give. An
    instance with a zero operator has no iteration to differentiate, and
    the backward raises.
    """
    B, n1, n2 = len(xs), aas[0].n1, aas[0].n2
    N = n1 * n2
    Ks = [SparseAffinity.symmetric(n1, n2, x.data, *aa.edges.T, e.data)
          for x, e, aa in zip(xs, es, aas)]
    X0 = np.stack([x.data for x in xs])
    X, traces = probabilistic_solve(Ks, X0.reshape(B, n1, n2), cfg)

    def backward(G):
        its = np.array([trace.iterations for trace in traces])
        if not its.all():
            raise RuntimeError("a zero-operator solve has no iteration to differentiate")
        xs_t, Kx_t, s_t = (np.zeros((its.max() + 1, B, N)) for _ in range(3))
        for b, trace in enumerate(traces):
            xs_t[:its[b] + 1, b] = np.reshape(trace.assignments, (-1, N))
            Kx_t[:its[b], b] = trace.products
            s_t[:its[b], b] = trace.scales
        ends = np.cumsum([0] + [e.data.size for e in es])
        g_x = np.stack([x.grad for x in xs])        # each x.grad, added to in its order
        g_pq, g_qp = np.zeros(ends[-1]), np.zeros(ends[-1])   # per edge, at (p, q) and at (q, p)
        g, g_s = G.copy(), np.zeros((B, N))
        live = np.zeros(0, dtype=np.intp)
        for t in range(its.max() - 1, -1, -1):
            if np.count_nonzero(its > t) != live.size:     # instances join as t falls
                live = np.flatnonzero(its > t)
                K = block_diagonal([Ks[b] for b in live])
                p, q, _ = K.stored
                entries = np.concatenate([np.arange(ends[b], ends[b + 1]) for b in live])
            x_t, x_next, s, Kx = xs_t[t, live], xs_t[t + 1, live], s_t[t, live], Kx_t[t, live]
            g_l, g_s_l = g[live], g_s[live]
            den = np.maximum(x_t, FLOOR)        # s_{t+1} = s * (x_next / den)
            g_l = g_l + g_s_l * s / den
            g_prev = -g_s_l * s * x_next / (den * den) * (x_t > FLOOR)
            g_y = sinkhorn_vjp((s * Kx).reshape(-1, n1, n2), cfg.sinkhorn_iters,
                               g_l.reshape(-1, n1, n2)).reshape(-1, N)   # x_next = sinkhorn(s * Kx)
            g_s[live] = g_s_l * (x_next / den) + g_y * Kx
            g_Kx = g_y * s
            g_x[live] += g_Kx * x_t              # x as K's unary diagonal
            g_flat, x_flat = g_Kx.ravel(), x_t.ravel()
            g_pq[entries] += g_flat[p] * x_flat[q]
            g_qp[entries] += g_flat[q] * x_flat[p]
            g[live] = g_prev + spmv(K, g_flat, transpose=True).reshape(-1, N)
        g_x += g * (X0 > FLOOR)                  # x as the initial assignment
        for x, e, g_x_b, start, stop in zip(xs, es, g_x, ends, ends[1:]):
            x.grad[...] = g_x_b
            e.grad += g_pq[start:stop]
            e.grad += g_qp[start:stop]

    return unstack(Tensor(X.reshape(B, N), [t for pair in zip(xs, es) for t in pair], backward))


# Largest chunk, in assignment entries B * n^2, that the batched solvers get.
# Spectral matching gains nothing from larger chunks and gets slower when
# batched at n >= 45 (measured at n = 8 to 64); from n = 46 every chunk
# holds one instance.
_CHUNK_ENTRIES = 2048


def chunks(items: list, n: int, workers: int = 1) -> list:
    """``items`` of size n cut into consecutive chunks: the fewest that keep
    each within ``_CHUNK_ENTRIES`` assignment entries (B * n^2, but at least
    one instance) and give each of ``workers`` one, cut as evenly as they
    can be. No items make no chunk."""
    if not items:
        return []
    most = max(1, min(_CHUNK_ENTRIES // n ** 2, -(-len(items) // workers)))
    count = -(-len(items) // most)
    size = -(-len(items) // count)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _chunk(Ks: list):
    """``(stacked K, B, n1, n2)`` of a chunk of same-size operators."""
    return block_diagonal(Ks), len(Ks), Ks[0].n1, Ks[0].n2


def spectral_match(Ks, iters: int = 100):
    """Power iteration approximating the principal eigenvector of each K.

    Each operator of the chunk is iterated on its own from the uniform
    vector; the iterate stays nonnegative with unit Euclidean norm. Returns
    the iterates X (B, n1, n2) and the number of updates applied to each,
    fewer than ``iters`` only when its K x vanishes.
    """
    stacked, B, n1, n2 = _chunk(Ks)
    N = n1 * n2
    X = np.full((B, N), 1.0 / np.sqrt(N))
    done = np.full(B, iters)
    live = np.arange(B)
    for it in range(iters):
        Y = spmv(stacked, X.ravel()).reshape(B, N)[live]
        norm = np.sqrt([np.dot(y, y) for y in Y])     # bitwise np.linalg.norm(y)
        if not norm.all():
            going = norm != 0.0
            done[live[~going]] = it
            live, Y, norm = live[going], Y[going], norm[going]
            if not live.size:
                break
        X[live] = Y / norm[:, None]
    return X.reshape(B, n1, n2), done


def ipfp(Ks, X0: np.ndarray, max_iters: int = 50):
    """Integer projected fixed point iteration.

    Each step discretizes the gradient K x with the Hungarian algorithm and
    line-searches the quadratic objective along the segment toward that
    permutation. The chunk is solved one instance at a time, each from its
    start in X0 (B, n1, n2), and never ends below its start's objective.
    Returns the points X (B, n1, n2) and the steps each took.
    """
    X = np.array(X0, dtype=np.float64, order="C")
    steps = np.full(len(X), max_iters)
    for b, K in enumerate(Ks):
        x = X[b].reshape(-1)      # a view: each step updates X in place
        for it in range(max_iters):
            g = spmv(K, x)
            d = perm_matrix(hungarian(g.reshape(K.n1, K.n2))).ravel() - x
            # f(x + t d) = f(x) + c1 t + c2 t^2 on the symmetric operator.
            c1 = 2.0 * float(np.dot(d, g))
            c2 = float(np.dot(d, spmv(K, d)))
            t = 1.0 if c2 >= 0 else min(1.0, -c1 / (2.0 * c2))
            if c1 <= 1e-12 or c1 * t + c2 * t * t <= 1e-12:
                steps[b] = it
                break
            x += t * d
    return X, steps


def rrwm(Ks, alpha: float = 0.2, inflation: float = 30.0, max_iters: int = 100):
    """Reweighted random-walk matching.

    The l1-normalized walk step y = Kx / |Kx|_1 is mixed, with weight
    ``alpha``, with a jump vector obtained by exponentiating y (exponent
    ``inflation``) and reprojecting with Sinkhorn. alpha = 0 reduces to plain
    l1-normalized power iteration. Each instance of the chunk walks until its
    own step is below 1e-8 or its K x sums to 0, and the rest of the chunk
    goes on without it. Returns the iterates X (B, n1, n2) and the number of
    updates applied to each.
    """
    stacked, B, n1, n2 = _chunk(Ks)
    N = n1 * n2
    X = np.full((B, N), 1.0 / N)
    done = np.full(B, max_iters)
    live = np.arange(B)
    for it in range(max_iters):
        Y = spmv(stacked, X.ravel()).reshape(B, N)[live]
        s = Y.sum(axis=1)
        if not s.all():
            going = s != 0.0
            done[live[~going]] = it
            live, Y, s = live[going], Y[going], s[going]
            if not live.size:
                break
        Y = Y / s[:, None]
        if alpha > 0.0:
            Q = np.exp(inflation * Y / Y.max(axis=1)[:, None])
            Q = sinkhorn(Q.reshape(-1, n1, n2)).reshape(-1, N)
            Q = Q / Q.sum(axis=1)[:, None]
            X_new = (1.0 - alpha) * Y + alpha * Q
        else:
            X_new = Y
        D = X_new - X[live]
        X[live] = X_new
        step = np.sqrt([np.dot(d, d) for d in D])    # bitwise np.linalg.norm(d)
        stop = step < 1e-8
        if stop.any():
            done[live[stop]] = it + 1
            live = live[~stop]
            if not live.size:
                break
    return X.reshape(B, n1, n2), done


def discretize(X: np.ndarray) -> np.ndarray:
    """Hard assignment: Hungarian on the soft matrix taken as profit."""
    return hungarian(X)


def accuracy(pred: np.ndarray, gt: np.ndarray) -> float:
    """Fraction of nodes assigned to their ground-truth match."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError("permutation length mismatch")
    return float(np.mean(pred == gt))
