"""Numeric substrate: affinity operator, Sinkhorn and its adjoint, Hungarian, binary score.

The affinity operator K is an N x N matrix (N = n1 * n2) with unary node
similarities on its diagonal and pairwise edge agreements off-diagonal. Only
entries gated by joint edge existence are stored. The match (i, a) is encoded
at flat index p = i * n2 + a throughout the package. ``graphs.edge_pairs``
lists the match pairs (p, q) of joint edges; ``SparseAffinity.symmetric``
keeps each pair's weight once, and K holds it at (p, q) and at (q, p).
``spmv`` reads both entries from one stable CSR view of the pairs: a row
pass adds each row's (p, q) entries in their given order, then a column
pass adds its (q, p) entries in increasing p, and K^T x runs the two passes
in the other order. For pairs in ``edge_pairs``' order every column already
lists its entries in increasing p, so each row is summed in the order of
the stable CSR of the directed triplets, which list every (p, q) entry,
then every (q, p) entry: the products are bitwise theirs. Those triplets,
``rows``, ``cols`` and ``vals``, are built only when read.

``FLOOR`` is the one probability floor of Sinkhorn, its adjoint and the
probabilistic solver, and ``_sinkhorn_pass`` the one Sinkhorn pass:
``sinkhorn`` runs it in one loop, and ``sinkhorn_vjp`` runs it again, keeps
every pass and reverses them. No solve keeps its passes: on a chunk's stack
the replay costs what keeping them saved, and holds less.

Batched solvers work on a chunk of B same-size instances at once.
``block_diagonal`` stacks their operators into one operator of size B * N,
and ``sinkhorn`` normalizes a stack (B, n, n) with every sum taken within
one instance, so each instance's result is bitwise what it would be alone.

Operator indices are 32-bit where they fit: ``index_dtype(size)`` is the one
rule, int32 for indices below 2**31 and int64 from there. ``edge_pairs``
forms K's pairs at that width, ``SparseAffinity`` keeps int32 indices as
given and widens any other integer input to int64, and ``stable_csr`` narrows
only after its range check, so an index too large for int32 is rejected
rather than wrapped.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import _sparsetools

FLOOR = 1e-12   # least probability: Sinkhorn's clamp and the solver's ratio denominators


def index_dtype(size: int) -> type:
    """Width of indices in [0, size) and of counts up to size: int32 below
    2**31, int64 from there."""
    return np.int32 if size < 2**31 else np.int64


def _index_array(a) -> np.ndarray:
    """int32 indices as given, without a copy; any other input as int64."""
    if isinstance(a, np.ndarray) and a.dtype == np.int32:
        return a
    return np.asarray(a, dtype=np.int64)


def _checked_entries(rows, cols, vals, names: str) -> tuple:
    """Off-diagonal entries as stored: int32 indices as given, without a copy,
    any other indices as int64, and float64 values. Raises ValueError unless
    the three have one shape."""
    rows, cols, vals = _index_array(rows), _index_array(cols), np.asarray(vals, dtype=np.float64)
    if not rows.shape == cols.shape == vals.shape:
        raise ValueError(f"{names} must have identical shapes")
    return rows, cols, vals


class SparseAffinity:
    """Sparse affinity operator: ``unary`` on the diagonal and sparse
    off-diagonal entries, in one of two forms.

    - ``SparseAffinity.symmetric(n1, n2, unary, p, q, weights)`` keeps each
      weight once, at its pair (p, q) in the order given, and K holds it at
      (p, q) and at (q, p).
    - ``SparseAffinity(n1, n2, unary, rows, cols, vals)`` keeps directed
      triplets: K holds ``vals[t]`` at (rows[t], cols[t]) alone.

    ``stored`` is the entries as kept: a symmetric operator's (p, q,
    weights) or a directed operator's (rows, cols, vals). int32 indices are
    kept as given, without a copy; any other integer input is stored as
    int64. ``rows``/``cols``/``vals`` read the entries as directed triplets in
    either form; a symmetric operator's list every (p, q) entry, then every
    (q, p) entry, and are built on their first read and kept. Assigning any
    of them makes K a directed operator with those triplets.

    ``spmv`` reads ``stored`` through a CSR view that it builds on the first
    product and rebuilds after an assignment. Editing the arrays in place
    after a product is unsupported.
    """

    def __init__(self, n1: int, n2: int, unary, rows=(), cols=(), vals=()):
        self.n1, self.n2 = n1, n2
        self.unary = np.asarray(unary, dtype=np.float64)
        if self.unary.shape != (self.size,):
            raise ValueError(
                f"unary must have length {self.size}, got {self.unary.shape}"
            )
        self._pairs = None
        self._triplets = _checked_entries(rows, cols, vals, "rows, cols and vals")
        self._csr = None

    @property
    def size(self) -> int:
        return self.n1 * self.n2

    @classmethod
    def symmetric(cls, n1, n2, unary, p, q, weights) -> "SparseAffinity":
        """K with ``weights[t]`` at (p[t], q[t]) and at (q[t], p[t]), kept once.

        ``spmv`` sums each row's (p, q) entries in their given order, then
        its (q, p) entries in increasing p. Pairs from ``graphs.edge_pairs``
        list each q's entries in increasing p already, so every product is
        bitwise that of the directed triplets ``rows``/``cols``/``vals``.
        """
        K = cls(n1, n2, unary)
        K._pairs, K._triplets = _checked_entries(p, q, weights, "p, q and weights"), None
        return K

    @property
    def mirrored(self) -> bool:
        """Whether each stored entry also stands at its mirror (``symmetric``)."""
        return self._pairs is not None

    @property
    def stored(self) -> tuple:
        return self._pairs if self.mirrored else self._triplets

    def _directed(self) -> tuple:
        if self._triplets is None:
            p, q, w = self._pairs
            self._triplets = (np.concatenate([p, q]), np.concatenate([q, p]),
                              np.concatenate([w, w]))
        return self._triplets

    def _assign(self, k: int, a):
        triplets = list(self._directed())
        triplets[k] = a
        self._pairs, self._triplets, self._csr = None, tuple(triplets), None

    rows = property(lambda self: self._directed()[0], lambda self, a: self._assign(0, a))
    cols = property(lambda self: self._directed()[1], lambda self, a: self._assign(1, a))
    vals = property(lambda self: self._directed()[2], lambda self, a: self._assign(2, a))

    def copy(self) -> "SparseAffinity":
        """A directed operator with copies of K's diagonal and triplets."""
        return SparseAffinity(self.n1, self.n2, self.unary.copy(),
                              self.rows.copy(), self.cols.copy(), self.vals.copy())


def stable_csr(n_row: int, n_col: int, rows, cols, vals) -> tuple:
    """(indptr, indices, data) of the triplets as an n_row x n_col CSR matrix.

    A stable counting sort by row (scipy's ``coo_tocsr`` kernel) keeps the
    entries of each row in their stored order, so a CSR product sums them in
    that order. Indices are ``index_dtype``'s width, for a smaller matrix and
    a faster product; int32 triplets are read without a copy, and wider ones
    are narrowed only after the range check. Raises ValueError unless the
    triplets are 1-D of one length with rows in [0, n_row) and cols in
    [0, n_col).
    """
    rows, cols, vals = np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=np.float64)
    nnz = rows.size
    # the native kernels index without bounds checks
    if not rows.shape == cols.shape == vals.shape == (nnz,):
        raise ValueError("rows, cols and vals must be 1-D of one length")
    if nnz and (min(rows.min(), cols.min()) < 0
                or rows.max() >= n_row or cols.max() >= n_col):
        raise ValueError(f"rows must lie in [0, {n_row}) and cols in [0, {n_col})")
    index = index_dtype(max(nnz, n_row, n_col))
    indptr = np.empty(n_row + 1, dtype=index)
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz)
    _sparsetools.coo_tocsr(n_row, n_col, nnz, rows.astype(index, copy=False),
                           cols.astype(index, copy=False), vals, indptr, indices, data)
    return indptr, indices, data


class Incidence:
    """An integer ``index`` into ``size`` bins with its 0/1 incidence matrix.

    The matrix is size x len(index), with a 1 at (index[k], k), kept in
    ``stable_csr`` form: row i lists the positions k with index[k] = i in
    increasing order. ``add_rows`` adds rows through it in the order k, as
    numpy's unbuffered ``add.at`` does, so the result is bitwise the same at
    a fraction of its cost. The matrix's data is all ones; given ``shares``,
    an incidence of as many entries, it keeps that one's data instead of its
    own, as the two ends of one edge list do. Raises TypeError unless
    ``index`` has an integer dtype, which numpy would otherwise truncate or
    read as a mask, and ValueError unless every entry lies in [0, size) and
    ``shares`` has as many entries.
    """

    __slots__ = ("index", "size", "csr")

    def __init__(self, index, size: int, shares: Incidence | None = None):
        index = np.asarray(index)
        if not np.issubdtype(index.dtype, np.integer):
            raise TypeError(f"an index must be of an integer dtype, got {index.dtype}")
        m = index.size
        if shares is not None and shares.index.size != m:
            raise ValueError(f"expected an incidence of {m} entries to share, "
                             f"got {shares.index.size}")
        ones = np.ones(m) if shares is None else shares.csr[2]
        self.index, self.size = index, size
        indptr, indices, _ = stable_csr(size, m, index, np.arange(m), ones)
        self.csr = (indptr, indices, ones)

    def add_rows(self, out: np.ndarray, rows: np.ndarray):
        """``out[index[k]] += rows[k]`` for k = 0, 1, ..., in place."""
        m = self.index.size
        # the native kernel reads rows and writes out without bounds checks
        if len(out) != self.size:
            raise ValueError(f"expected {self.size} bins, got {len(out)}")
        if rows.shape != (m,) + out.shape[1:]:
            raise ValueError(f"expected rows of shape {(m,) + out.shape[1:]}, got {rows.shape}")
        _sparsetools.csr_matvecs(self.size, m, math.prod(out.shape[1:]), *self.csr, rows, out)


def _csr_view(K: SparseAffinity) -> tuple:
    """``stable_csr`` of K's stored off-diagonal entries, cached on K."""
    if K._csr is None:
        K._csr = stable_csr(K.size, K.size, *K.stored)
    return K._csr


def spmv(K: SparseAffinity, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Sparse matrix-vector product y = K x, or K^T x with ``transpose``.

    Every off-diagonal product goes through the one CSR view of the stored
    entries: ``csr_matvec`` sums each row's entries in their stored order,
    and ``csc_matvec`` adds the view's transpose, column by column in
    increasing row. K x is the row pass, then, on a symmetric operator, the
    column pass; K^T x runs the column pass first. On a directed operator K x
    sums each row in stored order, as ``np.bincount`` over the triplets
    would, and K^T x each row of K^T in increasing column. On a symmetric
    operator from pairs in ``graphs.edge_pairs``' order, K x and K^T x are
    bitwise the products of the directed triplets and of those triplets with
    rows and cols swapped. Raises ValueError on a length mismatch.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (K.size,):
        raise ValueError(f"expected vector of length {K.size}, got {x.shape}")
    off = np.zeros(K.size)
    passes = (_sparsetools.csr_matvec, _sparsetools.csc_matvec)
    view = _csr_view(K)
    for kernel in (passes[::-1] if transpose else passes)[:1 + K.mirrored]:
        kernel(K.size, K.size, *view, x, off)
    return K.unary * x + off


def block_diagonal(Ks) -> SparseAffinity:
    """The operators of a chunk of same-size instances as one block-diagonal K.

    Instance b's match (i, a) sits at flat index b * N + i * n2 + a, so the
    stacked K has ``n1`` equal to B times each instance's n1. The stored
    entries are concatenated in block order, so a column of the stack lists
    its entries in the order of its block's column, and ``spmv`` on the stack
    is bitwise the product of each block alone. A chunk of symmetric
    operators stacks their pairs into a symmetric operator; any other chunk
    stacks the directed triplets. A chunk of one is that operator itself.
    The stacked indices take ``index_dtype`` of the stacked size, widened to
    int64 if any block's are, and the offsets are added at that width, so
    they cannot wrap. Raises ValueError on an empty chunk, on operators of
    different sizes, or on an index outside [0, N) of its own block, which
    would otherwise land silently in a neighbouring block.
    """
    Ks = list(Ks)
    if not Ks:
        raise ValueError("a chunk needs at least one operator")
    n1, n2 = Ks[0].n1, Ks[0].n2
    sizes = sorted({(K.n1, K.n2) for K in Ks})
    if len(sizes) > 1:
        raise ValueError(f"a chunk's operators must all have the same size, got {sizes}")
    if len(Ks) == 1:
        return Ks[0]
    N = n1 * n2
    mirrored = all(K.mirrored for K in Ks)
    blocks = [K.stored if mirrored else (K.rows, K.cols, K.vals) for K in Ks]
    index = np.result_type(index_dtype(len(Ks) * N),
                           *{a.dtype for block in blocks for a in block[:2]})
    offsets = np.repeat(np.arange(len(Ks), dtype=index) * N, [b[2].size for b in blocks])

    def stacked(k):
        flat = np.concatenate([b[k] for b in blocks]).astype(index, copy=False)
        if flat.size and not 0 <= flat.min() <= flat.max() < N:
            raise ValueError(f"each operator's rows and cols must lie in [0, {N})")
        return flat + offsets

    make = SparseAffinity.symmetric if mirrored else SparseAffinity
    return make(len(Ks) * n1, n2, np.concatenate([K.unary for K in Ks]),
                stacked(0), stacked(1), np.concatenate([b[2] for b in blocks]))


def _sinkhorn_pass(Z: np.ndarray, r: np.ndarray):
    """One pass on Z with row sums r: ``(A, c, Z')``, A = Z / r and Z' = A / c.

    Rows reduce over axis -1 and columns over axis -2, so Z is one matrix or
    a stack (B, n, n)."""
    A = Z / r
    c = np.add.reduce(A, axis=-2, keepdims=True)
    return A, c, A / c


def sinkhorn(X: np.ndarray, max_iters: int = 20, tol: float = 1e-9) -> np.ndarray:
    """Alternating row/column normalization toward the doubly stochastic set.

    X is one square matrix or a stack (B, n, n) of them, each normalized on
    its own. Entries are clamped below by ``FLOOR`` before the first pass, so
    the output is strictly positive and the iteration is well defined for
    inputs with zeros. A matrix stops when its largest row/column-sum
    deviation from 1 drops below ``tol``, or after ``max_iters`` passes; the
    rest of the stack goes on without it. Its column sums are taken only
    once its rows pass. ``tol=0`` skips the deviation check and runs exactly
    ``max_iters`` passes.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-1] != X.shape[-2]:
        raise ValueError("sinkhorn expects a square matrix or a stack (B, n, n) of them")
    Y = np.maximum(X, FLOOR)
    out = Y.reshape(-1, *Y.shape[-2:])      # a view: rows written to out land in Y
    live, Z = np.arange(len(out)), out
    for it in range(max_iters):
        r = np.add.reduce(Z, axis=-1, keepdims=True)
        if tol and it:                       # the check's row sums divide this pass
            done = np.abs(r - 1.0).max(axis=(1, 2)) < tol
            if done.any():                   # columns only where the rows passed
                done[done] = np.abs(np.add.reduce(Z[done], axis=1) - 1.0).max(axis=1) < tol
            if done.any():
                out[live[done]] = Z[done]
                going = ~done
                live, Z, r = live[going], Z[going], r[going]
                if not live.size:
                    break
        _, _, Z = _sinkhorn_pass(Z, r)
    out[live] = Z
    return Y


def sinkhorn_vjp(Y: np.ndarray, passes: int, G: np.ndarray) -> np.ndarray:
    """Gradient at Y of <G, sinkhorn(Y, passes, tol=0.0)>; 0 where Y <= FLOOR.

    Y is one matrix or a stack (B, n, n). The passes are run again, kept
    and reversed."""
    Z, kept = np.maximum(Y, FLOOR), []
    for _ in range(passes):
        r = np.add.reduce(Z, axis=-1, keepdims=True)
        A, c, Z = _sinkhorn_pass(Z, r)
        kept.append((r, A, c, Z))
    for r, A, c, Z in reversed(kept):
        G = (G - np.add.reduce(G * Z, axis=-2, keepdims=True)) / c
        G = (G - np.add.reduce(G * A, axis=-1, keepdims=True)) / r
    return G * (Y > FLOOR)


def hungarian(profit: np.ndarray) -> np.ndarray:
    """Permutation maximizing sum_i profit[i, perm[i]].

    Returns the assignment as an index array of length n.
    """
    profit = np.asarray(profit, dtype=np.float64)
    if profit.ndim != 2 or profit.shape[0] != profit.shape[1]:
        raise ValueError("hungarian expects a square profit matrix")
    if not np.all(np.isfinite(profit)):
        raise ValueError("profit matrix must be finite")
    _, cols = linear_sum_assignment(-profit)
    return cols.astype(np.int64)


def perm_matrix(perm: np.ndarray) -> np.ndarray:
    """Dense 0/1 matrix for a permutation given as an index array."""
    n = len(perm)
    P = np.zeros((n, n))
    P[np.arange(n), perm] = 1.0
    return P


def l21_norm(X: np.ndarray) -> float:
    """Sum over columns of the Euclidean norm of each column."""
    X = np.asarray(X, dtype=np.float64)
    return float(np.linalg.norm(X, axis=0).sum())


def binary_score(X: np.ndarray) -> float:
    """Discreteness score of a square soft assignment.

    s = (l21(X) + l21(X^T)) / (2n). Equals 1 exactly for permutation matrices;
    for doubly stochastic X the value lies in [1/sqrt(n), 1].
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise ValueError("binary_score expects a square matrix")
    n = X.shape[0]
    return (l21_norm(X) + l21_norm(X.T)) / (2.0 * n)
