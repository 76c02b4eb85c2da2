"""Learned affinity-assignment prediction, trained through the solver.

The predictor encodes association-graph node and edge attributes into latent
spaces, alternates edge (affinity) and node (assignment) update layers T
times, and decodes sigmoid scores for every candidate match and every
affinity-bearing match pair. The decoded assignment seeds the probabilistic
solver, whose output is supervised with a balanced cross-entropy loss against
the ground-truth permutation. The learned operator is ``SparseAffinity.symmetric``
over the AA-edges, weighted by the edge scores, with the assignment scores as
its diagonal. Training runs the numpy solver as one tape node
(``solvers.solve_tape``); inference runs the same predictor forward without a
tape (``learned_affinity``) and the solver through ``dpgm_assignment``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .graphs import AA_EDGE_DIM, FEATURE_DIM, AAGraph, GraphPair, build_aa_graph
from .linalg import SparseAffinity, perm_matrix
from .solvers import SolverConfig, accuracy, discretize, probabilistic_solve, solve_tape

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


def mlp_forward(store: ParamStore, name: str, x: Tensor) -> Tensor:
    """Affine-ReLU stack of the layers ``name.w0, name.w1, ...`` in the store."""
    n_layers = 0
    while f"{name}.w{n_layers}" in store:
        n_layers += 1
    for k in range(n_layers):
        x = ad.add(ad.matmul(x, store[f"{name}.w{k}"]), store[f"{name}.b{k}"])
        if k < n_layers - 1:
            x = ad.relu(x)
    return x


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
    V = mlp_forward(store, "rho_v", Tensor(aa.node_attrs))
    E = mlp_forward(store, "rho_e", Tensor(aa.edge_attrs))
    return V, E


def affinity_update(V: Tensor, E: Tensor, src, dst, store: ParamStore) -> Tensor:
    """Edge update: gated product of endpoint embeddings, then an MLP.

    The product is averaged over both edge directions so the stored value is
    independent of endpoint order even with distinct M1, M2.
    """
    A = ad.matmul(V, store["M1"])
    B = ad.matmul(V, store["M2"])
    fwd = ad.mul(ad.gather(A, src), ad.gather(B, dst))
    rev = ad.mul(ad.gather(A, dst), ad.gather(B, src))
    ebar = ad.mul(ad.add(fwd, rev), 0.5)
    return mlp_forward(store, "tau", ad.concat([E, ebar], axis=1))


def assignment_update(V: Tensor, E: Tensor, src, dst, store: ParamStore) -> Tensor:
    """Node update: aggregate incident edge embeddings, then an MLP.

    Nodes with no incident AA-edges aggregate a zero vector.
    """
    n = V.data.shape[0]
    agg = ad.add(ad.scatter_add(E, src, n), ad.scatter_add(E, dst, n))
    return mlp_forward(store, "kappa", ad.concat([agg, V], axis=1))


def decode(V: Tensor, E: Tensor, store: ParamStore):
    """Sigmoid score per candidate match and per AA-edge; both in (0, 1)."""
    x = ad.sigmoid(ad.reshape(mlp_forward(store, "phi_n", V), (-1,)))
    e = ad.sigmoid(ad.reshape(mlp_forward(store, "phi_e", E), (-1,)))
    return x, e


def _rms_rescale(t: Tensor, eps: float = 1e-12) -> Tensor:
    """Divide by the global root-mean-square value.

    The multiplicative edge gate squares latent magnitudes at every update
    iteration; without rescaling the recurrence explodes within a few steps
    and the decoder sigmoids saturate. A single scalar scale keeps the update
    equations intact and is absorbed by the next affine layer.
    """
    if t.data.size == 0:
        return t
    ms = ad.div(ad.tsum(ad.mul(t, t)), t.data.size)
    return ad.div(t, ad.sqrt(ad.add(ms, eps)))


def predictor_forward(aa: AAGraph, store: ParamStore, cfg: PredictorConfig):
    """Full prediction pass.

    Returns (x_scores, e_scores): the flat assignment scores and one affinity
    score per AA-edge of ``aa.edges``. They are the learned operator's
    diagonal and its weights at the AA-edges' match pairs.
    """
    src = aa.edges[:, 0]
    dst = aa.edges[:, 1]
    V, E = encode(aa, store)
    for _ in range(cfg.T):
        E = _rms_rescale(affinity_update(V, E, src, dst, store))
        V = _rms_rescale(assignment_update(V, E, src, dst, store))
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
    length-B iteration counts. A chunk of one is solved as that operator
    itself, so its solve records one ``SolveTrace``. Ablations: "tia"
    solves from the uniform assignment instead, and "wps" returns X_init
    without solving."""
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}")
    if ablation == "wps":
        return X_init, np.zeros(len(Ks), dtype=int)
    if ablation == "tia":
        X_init = np.full(np.shape(X_init), 1.0 / np.shape(X_init)[-1])
    if len(Ks) == 1:
        X, trace = probabilistic_solve(Ks[0], np.squeeze(X_init, 0), scfg)
        return X[None], np.array([trace.iterations])
    X, traces = probabilistic_solve(Ks, X_init, scfg)
    return X, np.array([trace.iterations for trace in traces])


def pipeline_forward(aa: AAGraph, store: ParamStore, pcfg: PredictorConfig,
                     scfg: SolverConfig) -> Tensor:
    """Training forward: the predictor, then the solver node from the decoded
    assignment; returns the flat final assignment vector on the tape.
    Inference runs ``learned_affinity`` and ``dpgm_assignment`` instead."""
    x_scores, e_scores = predictor_forward(aa, store, pcfg)
    return solve_tape(x_scores, e_scores, aa.edges.T, (aa.n1, aa.n2), scfg)


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


def instance_loss(aa: AAGraph, gt_vec: np.ndarray, store: ParamStore,
                  pcfg: PredictorConfig, scfg: SolverConfig, lcfg: LossConfig) -> Tensor:
    x = pipeline_forward(aa, store, pcfg, scfg)
    return balanced_ce_loss(x, gt_vec, lcfg)


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
    """Mean matching accuracy of the learned pipeline over instances, by the
    experiment runner's numpy inference: ``learned_affinity``, then
    ``dpgm_assignment`` under ``ablation``."""
    accs = []
    for pair in pairs:
        K, X_init = learned_affinity(build_aa_graph(pair.g1, pair.g2), store, pcfg)
        X, _ = dpgm_assignment([K], X_init[None], scfg, ablation)
        accs.append(accuracy(discretize(X[0]), pair.ground_truth))
    return float(np.mean(accs))


def train(pairs: list[GraphPair], pcfg: PredictorConfig, scfg: SolverConfig,
          lcfg: LossConfig, epochs: int = 50, lr: float = 1e-3,
          batch_size: int = 8, seed: int = 0, target_accuracy: float | None = None):
    """Mini-batch Adam training of the predictor through the solver.

    Returns the trained ParamStore and a per-epoch metrics list. If
    ``target_accuracy`` is given, training stops once the monitor set (the
    first 32 training pairs) reaches it. Deterministic given ``seed``.
    """
    store = init_params(pcfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    prepared = []
    for pair in pairs:
        aa = build_aa_graph(pair.g1, pair.g2)
        gt_vec = perm_matrix(pair.ground_truth).ravel()
        prepared.append((aa, gt_vec))

    metrics = []
    for epoch in range(epochs):
        order = rng.permutation(len(prepared))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            store.zero_grad()
            for idx in batch:
                aa, gt_vec = prepared[idx]
                loss = instance_loss(aa, gt_vec, store, pcfg, scfg, lcfg)
                loss.backward()
                losses.append(float(loss.data))
            store.adam_step(lr=lr)
        entry = {"epoch": epoch, "mean_loss": float(np.mean(losses))}
        if target_accuracy is not None:
            entry["monitor_accuracy"] = evaluate(pairs[:32], store, pcfg, scfg)
        metrics.append(entry)
        if target_accuracy is not None and entry["monitor_accuracy"] >= target_accuracy:
            break
    return store, metrics
