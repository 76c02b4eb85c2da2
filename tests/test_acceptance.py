"""Acceptance suite: one check per headline requirement.

Each test prints a single PASS/FAIL line with the measured values, then
asserts. The end-to-end learning checks share one trained model via a
module-scoped fixture, so the suite trains exactly once.
"""

import json
import time

import numpy as np
import pytest

from conftest import brute_force_qap, qap_margin
from probmatch import bench
from probmatch.affinity import assemble_affinity
from probmatch.bench import ExperimentConfig, compare_solvers, train_seeds
from probmatch.cli import main
from probmatch.graphs import build_aa_graph, graph_from_points, synthesize_pair
from probmatch.linalg import perm_matrix, sinkhorn
from probmatch.predictor import (
    LossConfig,
    PredictorConfig,
    evaluate,
    grad_check,
    init_params,
    train,
)
from probmatch.solvers import (
    SolverConfig,
    accuracy,
    discretize,
    ipfp,
    probabilistic_solve,
    rrwm,
    spectral_match,
)


def _report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Sinkhorn doubly-stochastic invariant

def test_sinkhorn_doubly_stochastic_1000_matrices():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        out = sinkhorn(rng.uniform(0.0, 1.0, size=(8, 8)), max_iters=300)
        worst = max(worst,
                    np.abs(out.sum(axis=0) - 1).max(),
                    np.abs(out.sum(axis=1) - 1).max())
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 1.0
    _report("doubly-stochastic invariant", ok,
            f"max row/col-sum deviation {worst:.2e} (limit 1e-6), "
            f"{dt:.2f}s (limit 1s)")


# ---------------------------------------------------------------------------
# 2. Brute-force QAP oracle

def test_solvers_against_brute_force_oracle():
    t0 = time.perf_counter()
    hits = {"dpgm": 0, "spectral": 0, "ipfp": 0, "rrwm": 0}
    count = 0
    seed = 0
    while count < 200:
        n = 3 + (seed % 2)
        pair = synthesize_pair(n, 0.08, seed=seed)
        seed += 1
        K = assemble_affinity(pair.g1, pair.g2)
        if qap_margin(K) < 0.05:
            continue
        count += 1
        best, _ = brute_force_qap(K)
        uniform = np.full((n, n), 1.0 / n)
        X, _ = probabilistic_solve(K, uniform)
        hits["dpgm"] += np.array_equal(discretize(X), best)
        hits["spectral"] += np.array_equal(
            discretize(spectral_match(K)[0].reshape(n, n)), best)
        hits["ipfp"] += np.array_equal(
            discretize(ipfp(K, uniform.ravel())[0].reshape(n, n)), best)
        hits["rrwm"] += np.array_equal(
            discretize(rrwm(K)[0].reshape(n, n)), best)
    dt = time.perf_counter() - t0
    rates = {k: v / 200 for k, v in hits.items()}
    ok = (rates["dpgm"] >= 0.95
          and all(rates[k] >= 0.80 for k in ("spectral", "ipfp", "rrwm"))
          and dt < 10.0)
    _report("brute-force QAP oracle", ok,
            f"agreement dpgm {rates['dpgm']:.3f} (>=0.95), "
            f"spectral {rates['spectral']:.3f}, ipfp {rates['ipfp']:.3f}, "
            f"rrwm {rates['rrwm']:.3f} (each >=0.80), {dt:.1f}s (limit 10s)")


# ---------------------------------------------------------------------------
# 3. Binary-score convergence

def test_binary_score_convergence():
    t0 = time.perf_counter()
    cfg = SolverConfig(max_iters=10, stop_eta=1e-5)
    final_ok = 0
    mono_steps = 0
    total_steps = 0
    for seed in range(50):
        pair = synthesize_pair(10, 0.02, seed=seed)
        K = assemble_affinity(pair.g1, pair.g2)
        _, trace = probabilistic_solve(K, np.full((10, 10), 0.1), cfg)
        scores = trace.binary_scores
        final_ok += scores[-1] >= 0.95
        diffs = np.diff(scores)
        mono_steps += int((diffs >= -1e-12).sum())
        total_steps += len(diffs)
    dt = time.perf_counter() - t0
    final_frac = final_ok / 50
    mono_frac = mono_steps / total_steps
    ok = final_frac >= 0.90 and mono_frac >= 0.90 and dt < 5.0
    _report("binary-score convergence", ok,
            f"final score >=0.95 on {final_frac:.2f} of instances (>=0.90), "
            f"non-decreasing on {mono_frac:.2f} of steps (>=0.90), "
            f"{dt:.2f}s (limit 5s)")


# ---------------------------------------------------------------------------
# 4. Gradient fidelity

def test_gradient_fidelity_canonical_instance():
    t0 = time.perf_counter()
    pair = synthesize_pair(3, 0.02, seed=0)
    aa = build_aa_graph(pair.g1, pair.g2)
    gt_vec = perm_matrix(pair.ground_truth).ravel()
    pcfg = PredictorConfig(d_V=4, d_E=4, T=2)
    scfg = SolverConfig(max_iters=3)
    store = init_params(pcfg, seed=0)
    err = grad_check(aa, gt_vec, store, pcfg, scfg, LossConfig(w=5.0),
                     step=1e-5)
    dt = time.perf_counter() - t0
    ok = err < 1e-4 and dt < 30.0
    _report("gradient fidelity", ok,
            f"max relative error {err:.2e} (limit 1e-4), "
            f"{dt:.1f}s (limit 30s)")


# ---------------------------------------------------------------------------
# 5-7. End-to-end learning, ablations, solver combinations

_EVAL_CFG = ExperimentConfig(
    n=8, noise_levels=(0.03,), instances=100, seed=0,
    affinity_source="learned",
    predictor_cfg=PredictorConfig(d_V=32, d_E=32, T=5),
)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    train_pairs = [synthesize_pair(8, 0.03, seed=s)
                   for s in train_seeds(_EVAL_CFG)[:500]]
    test_pairs = [synthesize_pair(8, 0.03, seed=s)
                  for _, _, s in bench.test_split(_EVAL_CFG)]
    scfg = SolverConfig()
    t0 = time.perf_counter()
    store, metrics = train(train_pairs, _EVAL_CFG.predictor_cfg, scfg,
                           LossConfig(w=5.0), epochs=50, lr=1e-3, batch_size=8,
                           seed=0, target_accuracy=0.95)
    train_time = time.perf_counter() - t0
    ckpt = tmp_path_factory.mktemp("model") / "predictor.ckpt"
    store.save(ckpt)
    return store, scfg, test_pairs, str(ckpt), train_time, len(metrics)


def test_end_to_end_learning(trained_model):
    store, scfg, test_pairs, _, train_time, epochs = trained_model
    pcfg = _EVAL_CFG.predictor_cfg
    untrained = evaluate(test_pairs, init_params(pcfg, seed=99), pcfg, scfg)
    acc = evaluate(test_pairs, store, pcfg, scfg)
    ok = acc >= 0.90 and train_time < 900.0
    _report("end-to-end learning", ok,
            f"test accuracy {acc:.3f} (>=0.90) vs untrained {untrained:.3f} "
            f"(chance 0.125), {epochs} epochs (<=50), "
            f"{train_time:.0f}s (limit 900s)")


def test_ablation_ordering(trained_model):
    store, scfg, test_pairs, _, _, _ = trained_model
    pcfg = _EVAL_CFG.predictor_cfg
    acc = {abl: evaluate(test_pairs, store, pcfg, scfg, ablation=abl)
           for abl in ("full", "tia", "wps")}
    ok = acc["full"] >= acc["tia"] and acc["full"] >= acc["wps"]
    _report("ablation ordering", ok,
            f"accuracy full {acc['full']:.3f} >= tia {acc['tia']:.3f} "
            f"and >= wps {acc['wps']:.3f}")


def test_learned_affinity_solver_combinations(trained_model):
    import dataclasses
    _, _, _, ckpt, _, _ = trained_model
    cfg = dataclasses.replace(_EVAL_CFG, checkpoint=ckpt)
    table = compare_solvers(cfg)
    acc = {}
    for line in table.strip().splitlines()[1:]:
        parts = line.split(",")
        acc[parts[0]] = float(parts[-1])
    ok = all(acc["dpgm"] >= acc[s] for s in ("spectral", "ipfp", "rrwm"))
    _report("solver-combination table", ok,
            f"learned-affinity accuracy dpgm {acc['dpgm']:.3f} >= "
            f"spectral {acc['spectral']:.3f}, ipfp {acc['ipfp']:.3f}, "
            f"rrwm {acc['rrwm']:.3f}")


# ---------------------------------------------------------------------------
# 8. CLI determinism

def test_cli_determinism(tmp_path, capsys):
    train_cfg = tmp_path / "train_cfg.json"
    train_cfg.write_text(json.dumps({
        "n": 4, "noise_levels": [0.02], "train_instances": 4,
        "test_instances": 2, "epochs": 1,
        "predictor_cfg": {"d_V": 4, "d_E": 4, "T": 1},
        "solver_cfg": {"max_iters": 2},
    }))
    commands = {
        "gen": ["gen", "--n", "5", "--noise", "0.02", "--instances", "2",
                "--seed", "3"],
        "solve": ["solve", "--n", "5", "--noise", "0.02", "--seed", "3"],
        "bench": ["bench", "--n", "5", "--noise", "0.02", "--instances", "4",
                  "--seed", "3"],
        "train": ["train", "--config", str(train_cfg)],
        "compare": ["compare", "--n", "5", "--noise", "0.02", "--instances",
                    "2", "--affinity-source", "handcrafted"],
        "gradcheck": ["gradcheck", "--n", "3", "--noise", "0.02", "--seed",
                      "0", "--d", "3", "--T", "1"],
    }
    mismatched = []
    for name, argv in commands.items():
        outputs = []
        for run in (0, 1):
            out_dir = tmp_path / f"{name}_{run}"
            code = main(argv + ["--out-dir", str(out_dir)])
            text = capsys.readouterr().out
            if name == "gen":
                # stdout names the (per-run) output directory; the row
                # contract for gen is the emitted dataset files themselves
                text = "".join(p.read_text()
                               for p in sorted(out_dir.glob("pair_*.json")))
            assert code == 0
            outputs.append(text)
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    ok = not mismatched
    _report("CLI determinism", ok,
            "all 6 subcommands byte-identical across reruns" if ok
            else f"non-deterministic output from: {mismatched}")


# ---------------------------------------------------------------------------
# 9. Scale smoke test

def test_scale_smoke_n50():
    rng = np.random.default_rng(7)
    pair = synthesize_pair(50, 0.02, seed=7)
    K = assemble_affinity(pair.g1, pair.g2)
    X0 = np.full((50, 50), 0.02)
    t0 = time.perf_counter()
    X, trace = probabilistic_solve(K, X0)
    dt = time.perf_counter() - t0
    acc = accuracy(discretize(X), pair.ground_truth)
    ok = dt < 1.0
    _report("scale smoke test", ok,
            f"n=50 solve in {dt:.3f}s (limit 1s), "
            f"{len(trace.assignments) - 1} iterations, accuracy {acc:.2f}")
