"""Experiment runner: dataset generation, solver selection, metric emission.

Every rule of an experiment lives here: ``ExperimentConfig`` is checked when
built, ``load_store`` reads the checkpoint before any work, and every command
takes its test instances from ``test_split`` and its pairs from ``make_pair``.

Reports are written as comma-separated per-instance rows plus a JSON summary,
with fixed float formatting so identical configurations produce byte-identical
output. Train and test splits use disjoint seed ranges, and the config
rejects sizes that would make them overlap, so regenerating a dataset can
never leak test instances into training.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .affinity import AffinityConfig, assemble_affinity, objective
from .allocator import keep_freed_heap
from .graphs import build_aa_graph, synthesize_pair
from .linalg import binary_score, perm_matrix
from .predictor import (
    ABLATIONS,
    LossConfig,
    PredictorConfig,
    dpgm_assignment,
    init_params,
    learned_affinity,
    train,
)
from .solvers import SolverConfig, accuracy, chunks, discretize, ipfp, rrwm, spectral_match

SOLVERS = ("dpgm", "spectral", "ipfp", "rrwm")
AFFINITY_SOURCES = ("handcrafted", "learned")

_TRAIN_SEED_BASE = 10_000
_TEST_SEED_BASE = 20_000
_NOISE_SEED_STRIDE = 1_000_000


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # dataset
    n: int = 8
    noise_levels: tuple = (0.03,)
    instances: int = 50
    seed: int = 0
    rotation_max: float = 0.0
    translation_max: float = 0.05
    # pipeline
    solver: str = "dpgm"
    affinity_source: str = "handcrafted"
    ablation: str = "full"
    checkpoint: str | None = None
    # training
    train_instances: int = 500
    epochs: int = 50
    lr: float = 1e-3
    batch_size: int = 8
    target_accuracy: float | None = None
    # sub-configs
    solver_cfg: SolverConfig = field(default_factory=SolverConfig)
    affinity_cfg: AffinityConfig = field(default_factory=AffinityConfig)
    predictor_cfg: PredictorConfig = field(default_factory=PredictorConfig)
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    # execution
    out_dir: str = "runs"
    workers: int = 1

    def __post_init__(self):
        self.noise_levels = tuple(self.noise_levels)
        for name, least in (("n", 3), ("instances", 1), ("workers", 1), ("batch_size", 1),
                            ("train_instances", 1), ("epochs", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}")
        # seed ranges: training pairs, then each noise level's test instances
        for name, most in (("train_instances", _TEST_SEED_BASE - _TRAIN_SEED_BASE),
                           ("instances", _NOISE_SEED_STRIDE)):
            if getattr(self, name) > most:
                raise ConfigError(f"{name} must be at most {most}, so seed ranges stay disjoint")
        if not self.lr > 0:
            raise ConfigError("lr must be positive")
        if not self.lr < np.inf:
            raise ConfigError("lr must be finite")
        if self.target_accuracy is not None and not 0 <= self.target_accuracy <= 1:
            raise ConfigError("target_accuracy must lie in [0, 1]")
        if not self.noise_levels or len(set(self.noise_levels)) < len(self.noise_levels):
            raise ConfigError("noise_levels must be non-empty and distinct")
        for name, values in (("noise_levels", self.noise_levels),
                             ("rotation_max", [self.rotation_max]),
                             ("translation_max", [self.translation_max])):
            if not all(0 <= v < np.inf for v in values):
                raise ConfigError(f"{name} must be finite and nonnegative")
        labels = [_noise_label(x) for x in self.noise_levels]
        if len(set(labels)) < len(labels):
            raise ConfigError("noise_levels must have distinct labels at 6 significant "
                              f"digits, got {', '.join(labels)}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.affinity_source not in AFFINITY_SOURCES:
            raise ConfigError(f"unknown affinity source {self.affinity_source!r}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        if self.ablation != "full" and (self.affinity_source, self.solver) != ("learned", "dpgm"):
            raise ConfigError("ablations require the learned affinity source and the dpgm solver")


@dataclass
class RunReport:
    rows: list
    aggregates: dict
    config: dict
    version: str = __version__

    def rows_csv(self) -> str:
        buf = io.StringIO()
        # wall_ms is kept in the row dicts and aggregates but left out of the
        # emitted rows, which are contractually byte-identical across reruns
        fields = ["index", "noise", "accuracy", "objective", "binary_score",
                  "iterations"]
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in self.rows:
            writer.writerow([_fmt(row[f]) for f in fields])
        return buf.getvalue()

    def summary_json(self) -> str:
        return json.dumps({"aggregates": self.aggregates, "config": self.config,
                           "version": self.version},
                          indent=1, sort_keys=True, default=_jsonable)

    def write(self, out_dir, stem: str = "report"):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{stem}_rows.csv").write_text(self.rows_csv())
        (out / f"{stem}_summary.json").write_text(self.summary_json() + "\n")


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return v


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


def instance_seed(seed: int, k: int, level: int = 0) -> int:
    """Seed of test instance k at noise level index ``level``."""
    return seed + _TEST_SEED_BASE + k + _NOISE_SEED_STRIDE * level


def test_split(cfg: ExperimentConfig) -> list:
    """``(index, noise, seed)`` of every test instance, in row order."""
    return [(li * cfg.instances + k, noise, instance_seed(cfg.seed, k, li))
            for li, noise in enumerate(cfg.noise_levels) for k in range(cfg.instances)]


def train_seeds(cfg: ExperimentConfig) -> list:
    """Seeds of the ``train_instances`` training pairs."""
    return [cfg.seed + _TRAIN_SEED_BASE + k for k in range(cfg.train_instances)]


def make_pair(cfg: ExperimentConfig, noise: float, seed: int):
    """The pair of size ``cfg.n`` with the config's rotation and translation."""
    return synthesize_pair(cfg.n, noise, rotation_max=cfg.rotation_max, seed=seed,
                           translation_max=cfg.translation_max)


def load_store(cfg: ExperimentConfig):
    """The checkpointed predictor for the learned source; None otherwise.
    A missing or unreadable checkpoint raises ``ConfigError``."""
    if cfg.affinity_source != "learned":
        return None
    if not cfg.checkpoint:
        raise ConfigError("learned affinity source requires a checkpoint path")
    store = init_params(cfg.predictor_cfg, seed=cfg.seed)
    try:
        store.load(cfg.checkpoint)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{cfg.checkpoint}: {exc}") from exc
    return store


def instance_operator(cfg: ExperimentConfig, pair, store):
    """K and X_init for ``pair``: handcrafted from uniform, or the predictor's."""
    if cfg.affinity_source == "handcrafted":
        return (assemble_affinity(pair.g1, pair.g2, cfg.affinity_cfg),
                np.full((cfg.n, cfg.n), 1.0 / cfg.n))
    return learned_affinity(build_aa_graph(pair.g1, pair.g2), store, cfg.predictor_cfg)


def _run_instance(cfg: ExperimentConfig, noise: float, index: int, inst_seed: int, store):
    """Generate test instance ``index`` and build its operator: ``(pair, K,
    X_init, seconds spent building K and X_init)``."""
    pair = make_pair(cfg, noise, inst_seed)
    t0 = time.perf_counter()
    K, X_init = instance_operator(cfg, pair, store)
    return pair, K, X_init, time.perf_counter() - t0


def _run_chunk(cfg: ExperimentConfig, chunk: list, store, solvers: tuple) -> dict:
    """Each solver's rows on the instances of ``chunk`` (``test_split``
    entries), every solver seeing the same pairs, Ks and X_init and solving
    the whole chunk in one call."""
    built = [_run_instance(cfg, noise, index, seed, store) for index, noise, seed in chunk]
    Ks = [K for _, K, _, _ in built]
    X_init = np.stack([X_init for _, _, X_init, _ in built])
    solve = {"dpgm": lambda: dpgm_assignment(Ks, X_init, cfg.solver_cfg, cfg.ablation),
             "spectral": lambda: spectral_match(Ks),
             "ipfp": lambda: ipfp(Ks, np.full(X_init.shape, 1.0 / cfg.n)),
             "rrwm": lambda: rrwm(Ks)}
    out = {}
    for solver in solvers:
        t0 = time.perf_counter()
        X, iterations = solve[solver]()
        preds = [discretize(X_b) for X_b in X]
        share_s = (time.perf_counter() - t0) / len(chunk)
        out[solver] = [{
            "index": index,
            "noise": noise,
            "accuracy": accuracy(pred, pair.ground_truth),
            "objective": objective(K, perm_matrix(pred).ravel()),
            "binary_score": binary_score(X_b),
            "iterations": int(steps),
            "wall_ms": (build_s + share_s) * 1e3,
        } for (index, noise, _), (pair, K, _, build_s), X_b, steps, pred
            in zip(chunk, built, X, iterations, preds)]
    return out


def _noise_label(noise: float) -> str:
    """A noise level's key in the aggregates and column in ``compare``."""
    return f"noise={noise:g}"


def _aggregate(rows: list, noise_levels) -> dict:
    agg = {"overall": _stats(rows)}
    for noise in noise_levels:
        agg[_noise_label(noise)] = _stats([r for r in rows if r["noise"] == noise])
    return agg


def _stats(rows: list) -> dict:
    accs = np.array([r["accuracy"] for r in rows])
    return {
        "count": len(rows),
        "accuracy_mean": float(accs.mean()),
        "accuracy_std": float(accs.std()),
        "objective_mean": float(np.mean([r["objective"] for r in rows])),
        "binary_score_mean": float(np.mean([r["binary_score"] for r in rows])),
        "wall_ms_mean": float(np.mean([r["wall_ms"] for r in rows])),
    }


def _run(cfg: ExperimentConfig, solvers: tuple) -> dict:
    """Load the checkpoint, then generate and build each test instance once and
    solve it with every solver in ``solvers``. Returns each solver's rows,
    ordered by instance index regardless of worker completion order.

    The split is cut by ``solvers.chunks`` into chunks of consecutive instances
    for min(``cfg.workers``, usable CPUs) processes, each chunk one task; a pool
    starts only for two or more of both. A row's ``wall_ms`` is the time spent
    building its own K and X_init, plus an equal share of the time its solver
    took to solve and discretise the whole chunk.

    First it keeps the memory it frees for the next instance (glibc only;
    ``allocator.keep_freed_heap``): later instances take no page faults, and
    the resident size stays at its peak between instances."""
    keep_freed_heap()
    store = load_store(cfg)
    split = test_split(cfg)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    procs = min(cfg.workers, cpus or 1)
    tasks = [(cfg, chunk, store, solvers) for chunk in chunks(split, cfg.n, procs)]
    if procs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(procs, len(tasks))) as pool:
            per_chunk = list(pool.map(_run_chunk, *zip(*tasks)))
    else:
        per_chunk = [_run_chunk(*t) for t in tasks]
    return {s: [row for rows in per_chunk for row in rows[s]] for s in solvers}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Evaluate the configured pipeline over the generated test split.

    Identical configuration and seed produce identical per-instance rows.
    """
    rows = _run(cfg, (cfg.solver,))[cfg.solver]
    return RunReport(rows, _aggregate(rows, cfg.noise_levels), asdict(cfg))


def compare_solvers(cfg: ExperimentConfig) -> str:
    """Accuracy table of every solver on the configured affinity source.

    One pass over the test split solves each instance's operator with all
    solvers. Returns delimited text: one row per solver, one accuracy column
    per noise level plus the overall mean. Only the ``full`` ablation is
    accepted, since the baselines have no ablations.
    """
    if cfg.ablation != "full":
        raise ConfigError("compare runs every solver with the full ablation only")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (["solver", "source"] + [f"acc@{_noise_label(x)}" for x in cfg.noise_levels]
              + ["acc_mean"])
    writer.writerow(header)
    for solver, rows in _run(cfg, SOLVERS).items():
        agg = _aggregate(rows, cfg.noise_levels)
        writer.writerow([solver, cfg.affinity_source]
                        + [_fmt(agg[_noise_label(x)]["accuracy_mean"]) for x in cfg.noise_levels]
                        + [_fmt(agg["overall"]["accuracy_mean"])])
    return buf.getvalue()


def train_and_eval(cfg: ExperimentConfig):
    """Train on the train-seed split, evaluate on the disjoint test split.

    Returns (report, checkpoint_path, metrics). The checkpoint and learning
    curve are written under ``cfg.out_dir``.
    """
    eval_cfg = replace(cfg, affinity_source="learned", solver="dpgm")
    train_pairs = [make_pair(cfg, cfg.noise_levels[0], s) for s in train_seeds(cfg)]
    store, metrics = train(train_pairs, cfg.predictor_cfg, cfg.solver_cfg,
                           cfg.loss_cfg, epochs=cfg.epochs, lr=cfg.lr,
                           batch_size=cfg.batch_size, seed=cfg.seed,
                           target_accuracy=cfg.target_accuracy)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "predictor.ckpt"
    store.save(ckpt)
    with open(out / "learning_curve.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=sorted({k for m in metrics for k in m}))
        writer.writeheader()
        writer.writerows(metrics)
    report = run_experiment(replace(eval_cfg, checkpoint=str(ckpt)))
    return report, str(ckpt), metrics
