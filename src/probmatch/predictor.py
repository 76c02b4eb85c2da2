"""Learned affinity-assignment prediction, trained through the solver.

The predictor encodes association-graph node and edge attributes into latent
spaces, alternates edge (affinity) and node (assignment) update layers T
times, and decodes sigmoid scores for every candidate match and every
affinity-bearing match pair. The decoded assignment seeds the probabilistic
solver, whose output is supervised with a balanced cross-entropy loss against
the ground-truth permutation. The learned operator is ``SparseAffinity.symmetric``
over the AA-edges, each edge score kept once as the weight of its pair, with
the assignment scores as its diagonal. Training builds each chunk's losses,
the chunks cut by ``solvers.chunks``, in one function (``chunk_losses``). On
two processes ``train`` cuts each chunk into parts: the caller backs the
first part, and a forked worker backs each other part and hands back every
grad term, which the caller adds in pair order, so the bits do not depend on
the process count. Inference runs the same predictor forward without a tape
(``learned_affinity``) and the solver through ``dpgm_assignment``, one call
per chunk, as the experiment runner does. Each update round is two tape
nodes, an edge and a node update, that keep only their inputs
(``autodiff.edge_update``, ``autodiff.node_update``).
"""

from __future__ import annotations

import contextlib
import mmap
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import groupby

import numpy as np

from . import allocator
from . import autodiff as ad
from .allocator import keep_freed_heap, one_blas_thread, pool_context, usable_cpus
from .autodiff import ParamStore, Tensor
from .graphs import AA_EDGE_DIM, FEATURE_DIM, AAGraph, GraphPair, build_aa_graph
from .linalg import SparseAffinity, perm_matrix
from .solvers import SolverConfig, accuracy, chunks, discretize, probabilistic_solve, solve_tape

ABLATIONS = ("full", "tia", "wps")


@dataclass
class PredictorConfig:
    d_V: int = 32   # assignment (node) latent width
    d_E: int = 32   # affinity (edge) latent width
    T: int = 5      # affinity/assignment update rounds

    def __post_init__(self):
        for name in ("d_V", "d_E"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.T < 0:
            raise ValueError("T must be >= 0")


@dataclass
class LossConfig:
    w: float = 5.0   # positive-label weight

    def __post_init__(self):
        if not np.isfinite(self.w):
            raise ValueError("w must be finite")


# ---------------------------------------------------------------------------
# Parameters and MLPs

_INIT_GAIN = 1.8   # keeps decoded scores spread out enough that the solver
                   # does not collapse to the uniform fixed point at init


def _init_mlp(store: ParamStore, name: str, widths, rng):
    """Affine layers with uniform fan-in scaled initialization."""
    for k, (din, dout) in enumerate(zip(widths[:-1], widths[1:])):
        bound = _INIT_GAIN / np.sqrt(din)
        store.add(f"{name}.w{k}", rng.uniform(-bound, bound, size=(din, dout)))
        store.add(f"{name}.b{k}", rng.uniform(-bound, bound, size=(dout,)))


def _layers(store: ParamStore, name: str) -> list:
    """The affine layers ``(name.w0, name.b0), (name.w1, name.b1), ...``."""
    layers = []
    while f"{name}.w{len(layers)}" in store:
        layers.append((store[f"{name}.w{len(layers)}"], store[f"{name}.b{len(layers)}"]))
    return layers


def mlp_forward(store: ParamStore, name: str, *inputs) -> Tensor:
    """Affine-ReLU stack of the layers ``name.w0, name.w1, ...`` in the store
    on the inputs concatenated along axis 1, as one tape node
    (``autodiff.mlp``); an ndarray input is a constant."""
    return ad.mlp(inputs, _layers(store, name))


def init_params(cfg: PredictorConfig, seed: int = 0) -> ParamStore:
    """Every MLP has one hidden layer of width max(d_V, d_E)."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    h, d_V, d_E = max(cfg.d_V, cfg.d_E), cfg.d_V, cfg.d_E
    specs = {
        "rho_v": [2 * FEATURE_DIM, h, d_V],
        "rho_e": [AA_EDGE_DIM, h, d_E],
        "tau": [d_E + d_V, h, d_E],
        "kappa": [d_E + d_V, h, d_V],
        "phi_n": [d_V, h, 1],
        "phi_e": [d_E, h, 1],
    }
    for name, widths in specs.items():
        _init_mlp(store, name, widths, rng)
    bound = _INIT_GAIN / np.sqrt(d_V)
    store.add("M1", rng.uniform(-bound, bound, size=(d_V, d_V)))
    store.add("M2", rng.uniform(-bound, bound, size=(d_V, d_V)))
    return store


# ---------------------------------------------------------------------------
# Forward passes

def encode(aa: AAGraph, store: ParamStore):
    """Map raw node/edge attributes into the latent spaces."""
    V = mlp_forward(store, "rho_v", aa.node_attrs)
    E = mlp_forward(store, "rho_e", aa.edge_attrs)
    return V, E


# Both update layers end by dividing by the global root-mean-square value.
# The multiplicative edge gate squares latent magnitudes at every update
# iteration; without rescaling the recurrence explodes within a few steps and
# the decoder sigmoids saturate. A single scalar scale keeps the update
# equations intact and is absorbed by the next affine layer.
_RMS_EPS = 1e-12


def affinity_update(V: Tensor, E: Tensor, src, dst, store: ParamStore) -> Tensor:
    """Edge update: gated product of endpoint embeddings, then an MLP, then the
    RMS rescale, as one tape node (``autodiff.edge_update``).

    The product is averaged over both edge directions so the stored value is
    independent of endpoint order even with distinct M1, M2.
    """
    return ad.edge_update(E, V, store["M1"], store["M2"], _layers(store, "tau"), src, dst,
                          _RMS_EPS)


def assignment_update(V: Tensor, E: Tensor, src, dst, store: ParamStore) -> Tensor:
    """Node update: aggregate incident edge embeddings, then an MLP, then the
    RMS rescale, as one tape node (``autodiff.node_update``).

    Nodes with no incident AA-edges aggregate a zero vector.
    """
    return ad.node_update(E, V, _layers(store, "kappa"), src, dst, _RMS_EPS)


def decode(V: Tensor, E: Tensor, store: ParamStore):
    """Sigmoid score per candidate match and per AA-edge; both in (0, 1)."""
    x = ad.sigmoid(ad.reshape(mlp_forward(store, "phi_n", V), (-1,)))
    e = ad.sigmoid(ad.reshape(mlp_forward(store, "phi_e", E), (-1,)))
    return x, e


def predictor_forward(aa: AAGraph, store: ParamStore, cfg: PredictorConfig):
    """Full prediction pass.

    Returns (x_scores, e_scores): the flat assignment scores and one affinity
    score per AA-edge of ``aa.edges``. They are the learned operator's
    diagonal and its weights at the AA-edges' match pairs.
    """
    src, dst = aa.incidences
    V, E = encode(aa, store)
    for _ in range(cfg.T):
        E = affinity_update(V, E, src, dst, store)
        V = assignment_update(V, E, src, dst, store)
    return decode(V, E, store)


def learned_affinity(aa: AAGraph, store: ParamStore, cfg: PredictorConfig):
    """Numpy view of the predictor output for the learning-free solvers.

    The forward runs under ``autodiff.no_grad`` and records no tape."""
    with ad.no_grad():
        x_scores, e_scores = predictor_forward(aa, store, cfg)
    K = SparseAffinity.symmetric(aa.n1, aa.n2, x_scores.data.copy(), *aa.edges.T,
                                 e_scores.data)
    X_init = x_scores.data.reshape(aa.n1, aa.n2).copy()
    return K, X_init


def dpgm_assignment(Ks, X_init: np.ndarray, scfg: SolverConfig, ablation: str):
    """Numpy inference: solve a chunk of same-size operators from their
    (B, n1, n2) starts in one batched call; returns X (B, n1, n2) and the
    length-B iteration counts. A chunk of one is solved like any other, as
    its block-diagonal stack, which is that operator. Ablations: "tia"
    solves from the uniform assignment instead, and "wps" returns X_init
    without solving."""
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}")
    if ablation == "wps":
        return X_init, np.zeros(len(Ks), dtype=int)
    if ablation == "tia":
        X_init = np.full(np.shape(X_init), 1.0 / np.shape(X_init)[-1])
    X, traces = probabilistic_solve(Ks, X_init, scfg)
    return X, np.array([trace.iterations for trace in traces])


def pipeline_forward(aa: AAGraph, store: ParamStore, pcfg: PredictorConfig,
                     scfg: SolverConfig) -> Tensor:
    """One pair's predictor, then the solver node from the decoded assignment;
    returns the flat final assignment vector on the tape. Training runs
    ``chunk_losses``, inference ``learned_affinity`` and ``dpgm_assignment``."""
    x_scores, e_scores = predictor_forward(aa, store, pcfg)
    return solve_tape([x_scores], [e_scores], [aa], scfg)[0]


def balanced_ce_loss(x: Tensor, x_gt: np.ndarray, cfg: LossConfig) -> Tensor:
    """Cross entropy with positive labels weighted by w and negatives by 1-w.

    Inputs are clamped to [1e-7, 1 - 1e-7] before the logarithms.
    """
    x_gt = np.asarray(x_gt, dtype=np.float64)
    xc = ad.clip(x, 1e-7, 1.0 - 1e-7)
    one_minus = ad.add(ad.mul(xc, -1.0), 1.0)
    pos = ad.mul(ad.log(xc), cfg.w * x_gt)
    neg = ad.mul(ad.log(one_minus), (1.0 - cfg.w) * (1.0 - x_gt))
    return ad.mul(ad.tsum(ad.add(pos, neg)), -1.0)


def chunk_losses(chunk, store: ParamStore, pcfg: PredictorConfig, scfg: SolverConfig,
                 lcfg: LossConfig) -> list[Tensor]:
    """The training loss of each ``(aa, gt_vec)`` pair of a chunk of one size.

    Runs the pairs' predictor forwards, one solver node for the chunk
    (``solvers.solve_tape``) and each pair's ``balanced_ce_loss``. A backward
    from the losses' sum finishes each pair's predictor before the next
    pair's, so every gradient is bitwise what a backward per pair would give,
    and the grad terms of consecutive parts of a chunk, added part after
    part, are the chunk's own: ``train`` cuts its chunks into such parts for
    its processes.
    """
    scores = [predictor_forward(aa, store, pcfg) for aa, _ in chunk]
    xs = solve_tape(*zip(*scores), [aa for aa, _ in chunk], scfg)
    return [balanced_ce_loss(x, gt_vec, lcfg) for x, (_, gt_vec) in zip(xs, chunk)]


def instance_loss(aa: AAGraph, gt_vec: np.ndarray, store: ParamStore,
                  pcfg: PredictorConfig, scfg: SolverConfig, lcfg: LossConfig) -> Tensor:
    """``chunk_losses`` of a chunk of one: the loss ``train`` descends."""
    return chunk_losses([(aa, gt_vec)], store, pcfg, scfg, lcfg)[0]


# ---------------------------------------------------------------------------
# Gradient checking and training

def grad_check(aa: AAGraph, gt_vec: np.ndarray, store: ParamStore,
               pcfg: PredictorConfig, scfg: SolverConfig, lcfg: LossConfig,
               step: float = 1e-5) -> float:
    """Max relative error between backward and central finite differences."""
    store.zero_grad()
    loss = instance_loss(aa, gt_vec, store, pcfg, scfg, lcfg)
    loss.backward()
    g_ad = store.grad_vector()

    theta = store.get_vector()

    def loss_at(k, delta):
        pert = theta.copy()
        pert[k] += delta
        store.set_vector(pert)
        return float(instance_loss(aa, gt_vec, store, pcfg, scfg, lcfg).data)

    g_fd = np.array([(loss_at(k, step) - loss_at(k, -step)) / (2.0 * step)
                     for k in range(theta.size)])
    store.set_vector(theta)
    rel = np.abs(g_ad - g_fd) / np.maximum(1e-8, np.abs(g_ad) + np.abs(g_fd))
    return float(rel.max())


def evaluate(pairs, store: ParamStore, pcfg: PredictorConfig,
             scfg: SolverConfig, ablation: str = "full") -> float:
    """Mean matching accuracy of the learned pipeline over ``pairs``, by the
    experiment runner's numpy inference: consecutive pairs of one size are cut
    by ``solvers.chunks``, and each chunk's ``learned_affinity`` operators are
    solved by one ``dpgm_assignment`` call under ``ablation``. Each pair's
    accuracy is bitwise what it would be alone. Raises ValueError before any
    work on an empty ``pairs`` or an unknown ``ablation``."""
    if not pairs:
        raise ValueError("pairs must not be empty")
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}")
    accs = []
    for (n, _), run in groupby(pairs, key=lambda pair: (pair.g1.n, pair.g2.n)):
        for chunk in chunks(list(run), n):
            Ks, X_init = zip(*(learned_affinity(build_aa_graph(pair.g1, pair.g2), store, pcfg)
                               for pair in chunk))
            X, _ = dpgm_assignment(Ks, np.stack(X_init), scfg, ablation)
            accs += [accuracy(discretize(X_b), pair.ground_truth) for X_b, pair in zip(X, chunk)]
    return float(np.mean(accs))


# The default training pool's least work per step: a full batch's assignment
# entries (batch_size * n1 * n2) times the parameters times max(T, 1), since
# a pair's cost grows with all three. Two processes against one on 2 cores,
# one BLAS thread in each (32 pairs, 2 epochs, medians of 7 to 11
# alternating runs): from 0.4 to 3.2 million 0.89-1.15x (n = 4 to 8, d = 8
# or 16, T = 2 or 3, batches of 4 and 8), from 5.6 million 1.08-1.50x
# (n = 5 to 10, d = 16 or 32, T = 3 or 5, batches of 2 to 8); train-n8's
# settings (34 million) 1.35-1.38x. Each step hands a worker its part and
# adds the part's grad terms back, about 1.5 ms on 2 cores, which a small
# step does not repay.
_TRAIN_POOL_WORK = 4_000_000


def _default_workers(prepared: list, batch_size: int, store: ParamStore,
                     pcfg: PredictorConfig) -> int:
    """The bound on training's processes when ``workers`` is None: two where
    ``allocator.forks_safely``, an OpenBLAS thread setter is found, and a
    full batch of the largest pairs holds ``_TRAIN_POOL_WORK``; one
    otherwise. Without the setter the worker would keep the BLAS threads it
    inherits and crowd the CPUs."""
    entries = min(batch_size, len(prepared)) * max(aa.n1 * aa.n2 for aa, _ in prepared)
    if entries * store.n_params() * max(pcfg.T, 1) < _TRAIN_POOL_WORK:
        return 1
    return 2 if allocator.forks_safely() and allocator.openblas_threads() else 1


class _GradTerms:
    """A parameter's grad in a backing worker. Each ``+=`` writes its term,
    at the parameter's shape, after the last one in the part's buffer and
    notes the parameter's index, so the caller can add the terms to the real
    grad one by one, in the order the backward made them. It supports
    nothing else: a read, ``grad[i] += term`` or ``grad = grad + term`` raises
    ``TypeError``, since a sum taken in the worker would not be the caller's."""

    __slots__ = ("index", "shape", "part")
    __array_ufunc__ = None   # numpy refuses it as an operand

    def __init__(self, index: int, shape: tuple, part: "_PartTerms"):
        self.index, self.shape, self.part = index, shape, part

    def __iadd__(self, term):
        self.part.write(self.index, self.shape, term)
        return self

    def __array__(self, *args, **kwargs):
        raise TypeError("a backing worker's grad supports += only")


class _PartTerms:
    """The grad terms of one part, written one after another into ``buffer``
    (a slice of the buffer shared with the caller), and the index of the
    parameter each belongs to, in order."""

    def __init__(self, buffer: np.ndarray):
        self.buffer, self.used, self.order = buffer, 0, []

    def write(self, index: int, shape: tuple, term):
        size = int(np.prod(shape))
        if self.used + size > self.buffer.size:
            raise RuntimeError("a part's grad terms overflow its shared buffer")
        self.buffer[self.used:self.used + size].reshape(shape)[...] = term
        self.used += size
        self.order.append(index)


def _add_terms(store: ParamStore, buffer: np.ndarray, order: list):
    """Add a part's terms, as ``_PartTerms`` wrote them, into the store's
    grads with ``+=``, one by one in their order."""
    params = [store[name] for name in store.names()]
    used = 0
    for index in order:
        p = params[index]
        p.grad += buffer[used:used + p.data.size].reshape(p.data.shape)
        used += p.data.size


_backing = None   # a backing worker's (prepared, store, configs, shared buffers)


def _start_backing(state):
    global _backing
    _backing = state


def _back_part(slot: int, indices: list):
    """In a backing worker: the losses of the prepared pairs at ``indices``,
    from the parameters in the shared buffer, and the parameter index of each
    grad term the part's backward wrote into its slot of the shared buffer."""
    prepared, store, pcfg, scfg, lcfg, params, slots = _backing
    store.set_vector(params)
    terms = _PartTerms(slots[slot])
    for index, name in enumerate(store.names()):
        store[name].grad = _GradTerms(index, store[name].data.shape, terms)
    losses = chunk_losses([prepared[i] for i in indices], store, pcfg, scfg, lcfg)
    reduce(ad.add, losses).backward()
    return [float(loss.data) for loss in losses], terms.order


class _Backers:
    """The workers that back every part of a chunk but the first. ``start``
    hands them their parts and the store's parameters, and ``finish`` waits,
    adds their grad terms into the store's grads, part by part in pair
    order, and returns their losses in the same order. Without a pool (one
    process) no chunk has another part, and both do nothing."""

    def __init__(self, store: ParamStore, pool=None, params=None, slots=()):
        self.store, self.pool, self.params, self.slots = store, pool, params, slots
        self.pending = []

    def start(self, parts: list):
        if parts:
            self.params[:] = self.store.get_vector()
            self.pending = [self.pool.submit(_back_part, slot, part)
                            for slot, part in enumerate(parts)]

    def finish(self) -> list:
        losses = []
        for slot, future in enumerate(self.pending):
            part_losses, order = future.result()
            _add_terms(self.store, self.slots[slot], order)
            losses += part_losses
        self.pending = []
        return losses


@contextlib.contextmanager
def _backers(procs: int, prepared: list, store: ParamStore, pcfg: PredictorConfig,
             scfg: SolverConfig, lcfg: LossConfig, batch_size: int):
    """``_Backers`` for ``procs`` processes: with two or more, a pool of
    ``procs - 1`` workers, forked (``allocator.pool_context``) so that they
    inherit the prepared pairs, and shut down on exit, also when a part
    raises.

    Parameters and grad terms pass through one anonymous shared mapping made
    before the fork, so no step pickles an array: the parameter vector, then
    one slot per worker part. A pair's backward adds at most max(T, 1) terms
    of each parameter's size, one per use in ``predictor_forward``, and a
    part holds at most ceil(batch / procs) pairs (``solvers.chunks``); a
    slot holds that many. Each step reuses the slots, and a slot's pages are
    touched only as far as its terms reach."""
    if procs == 1:
        yield _Backers(store)
        return
    size = store.n_params()
    part_pairs = -(-min(batch_size, len(prepared)) // procs)
    slot = part_pairs * max(pcfg.T, 1) * size
    shared = np.frombuffer(mmap.mmap(-1, 8 * (size + (procs - 1) * slot)), dtype=np.float64)
    params = shared[:size]
    slots = [shared[size + k * slot:size + (k + 1) * slot] for k in range(procs - 1)]
    state = (prepared, store, pcfg, scfg, lcfg, params, slots)
    with ProcessPoolExecutor(max_workers=procs - 1, mp_context=pool_context(),
                             initializer=_start_backing, initargs=(state,)) as pool:
        yield _Backers(store, pool, params, slots)


def train(pairs: list[GraphPair], pcfg: PredictorConfig, scfg: SolverConfig,
          lcfg: LossConfig, epochs: int = 50, lr: float = 1e-3,
          batch_size: int = 8, seed: int = 0, target_accuracy: float | None = None,
          workers: int | None = None):
    """Mini-batch Adam training of the predictor through the solver.

    Returns the trained ParamStore and a per-epoch metrics list. If
    ``target_accuracy`` is given, training stops once the monitor set (the
    first 32 training pairs) reaches it. Deterministic given ``seed``, and
    bitwise the same for every ``workers``.

    Each batch's consecutive pairs of one size are cut by ``solvers.chunks``,
    as ``evaluate`` cuts them, and each chunk again by ``solvers.chunks``
    into one part per process. ``workers`` bounds the processes, as
    ``ExperimentConfig.workers`` does: None is ``_default_workers``, and 1
    trains in the calling process alone; usable CPUs and the pairs of a
    batch bound it too, and where workers do not fork (off Linux) training
    runs in one process. The caller runs one backward from the sum of its
    part's ``chunk_losses``, whose tapes are held at once, straight into the
    store's grads. Forked workers (``_backers``, one pool per call) back the
    other parts and return each grad term on its own; the caller adds them
    with ``+=``, part by part in pair order. A grad is summed term by term,
    and each pair's backward finishes before the next pair's, so every grad
    is bitwise what one backward per pair would give, however the chunk was
    cut. The whole call runs at one BLAS thread
    (``allocator.one_blas_thread``), pooled or not: OpenBLAS's threaded
    matrix products round otherwise than its one-thread ones, so the bits
    would follow the thread count. The caller's counts come back on return,
    also when a step raises.

    Each pair's AA graph and its incidences (``AAGraph.incidences``) are
    built for the whole set before the first step: built on first use, they
    land among a step's freed tapes, and train-n8's peak resident size rose
    by up to 5 MB. The learned operators are built in each step
    (``solve_tape``).

    Like the experiment runner, it first sets the process's heap policy
    (``allocator.keep_freed_heap``; glibc only, once per process): from then
    on the whole process keeps the memory it frees instead of returning it
    to the kernel, and later steps reuse it instead of faulting it in again.
    Raises ValueError before any work on an empty ``pairs``, a ``batch_size``
    or ``workers`` below 1 or an ``lr`` that is not finite and positive.
    """
    if not pairs:
        raise ValueError("pairs must not be empty")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if workers is not None and workers < 1:
        raise ValueError("workers must be at least 1")
    if not lr > 0:
        raise ValueError("lr must be positive")
    if not lr < np.inf:
        raise ValueError("lr must be finite")
    keep_freed_heap()
    store = init_params(pcfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    prepared = []
    for pair in pairs:
        aa = build_aa_graph(pair.g1, pair.g2)
        aa.incidences       # built before the first step (see above)
        gt_vec = perm_matrix(pair.ground_truth).ravel()
        prepared.append((aa, gt_vec))
    procs = min(workers or _default_workers(prepared, batch_size, store, pcfg), usable_cpus(),
                batch_size, len(prepared))   # no more processes than pairs in a batch
    if pool_context() is None:   # a spawned worker would get a copy of the shared buffer
        procs = 1

    metrics = []
    with one_blas_thread(), _backers(procs, prepared, store, pcfg, scfg, lcfg,
                                     batch_size) as backers:
        for epoch in range(epochs):
            order = rng.permutation(len(prepared))
            losses = []
            for start in range(0, len(order), batch_size):
                batch = order[start:start + batch_size].tolist()
                store.zero_grad()
                for (n, _), run in groupby(batch, key=lambda i: (prepared[i][0].n1,
                                                                 prepared[i][0].n2)):
                    for chunk in chunks(list(run), n):
                        part, *others = chunks(chunk, n, procs)
                        backers.start(others)
                        pair_losses = chunk_losses([prepared[i] for i in part], store, pcfg,
                                                   scfg, lcfg)
                        reduce(ad.add, pair_losses).backward()
                        losses += [float(loss.data) for loss in pair_losses]
                        losses += backers.finish()
                store.adam_step(lr=lr)
            entry = {"epoch": epoch, "mean_loss": float(np.mean(losses))}
            if target_accuracy is not None:
                entry["monitor_accuracy"] = evaluate(pairs[:32], store, pcfg, scfg)
            metrics.append(entry)
            if target_accuracy is not None and entry["monitor_accuracy"] >= target_accuracy:
                break
    return store, metrics
