"""Tests for the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_perfbench.py

Each check is fed a correct input, which it must accept, and a deliberately
wrong one, which it must reject.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workload  # noqa: E402
from checks import (  # noqa: E402
    check_accuracy_floor,
    check_directional_gradient,
    check_objective,
    check_permutation,
    check_rows,
    check_soft_agree,
    check_training,
)
from tracer import Tracer, layer_metrics, self_times  # noqa: E402

workload.import_probmatch()

from probmatch import affinity, graphs, linalg, predictor, solvers  # noqa: E402

SPEC = json.loads((Path(workload.HERE).parent / "BENCHMARK.json").read_text())


def _solved(n=6, seed=3):
    pair = graphs.synthesize_pair(n, 0.02, seed=seed)
    K = affinity.assemble_affinity(pair.g1, pair.g2)
    X, _ = solvers.probabilistic_solve(K, np.full((n, n), 1.0 / n))
    return K, solvers.discretize(X)


def test_objective_check_rejects_objective_off_by_one_entry():
    K, perm = _solved()
    p = linalg.perm_matrix(perm).ravel()
    assert check_objective(K, perm, affinity.objective(K, p)) == []
    on_support = np.nonzero(p[K.rows] * p[K.cols])[0]
    assert on_support.size
    short = K.copy()
    short.vals[on_support[0]] = 0.0
    assert check_objective(K, perm, affinity.objective(short, p))


def test_gradient_check_rejects_flipped_sign():
    pair = graphs.synthesize_pair(4, 0.02, seed=0)
    aa = graphs.build_aa_graph(pair.g1, pair.g2)
    gt = linalg.perm_matrix(pair.ground_truth).ravel()
    pcfg = predictor.PredictorConfig(d_V=4, d_E=4, T=1)
    scfg, lcfg = solvers.SolverConfig(max_iters=3), predictor.LossConfig()
    store = predictor.init_params(pcfg, seed=0)

    def loss():
        return predictor.instance_loss(aa, gt, store, pcfg, scfg, lcfg)

    store.zero_grad()
    loss().backward()
    g = store.grad_vector()
    theta = store.get_vector()
    u = np.random.default_rng(0).standard_normal(theta.size)
    u /= np.linalg.norm(u)
    store.set_vector(theta + 1e-5 * u)
    plus = float(loss().data)
    store.set_vector(theta - 1e-5 * u)
    minus = float(loss().data)
    fd = (plus - minus) / 2e-5
    assert check_directional_gradient(float(g @ u), fd) == []
    assert check_directional_gradient(-float(g @ u), fd)


def test_permutation_check_rejects_repeated_target():
    assert check_permutation(np.array([2, 0, 1]), 3) == []
    assert check_permutation(np.array([0, 1, 1]), 3)
    assert check_permutation(np.array([0, 1]), 3)


def test_accuracy_floor_rejects_lower_accuracy():
    assert check_accuracy_floor("x", 0.95, 0.90) == []
    assert check_accuracy_floor("x", 0.89, 0.90)
    assert check_accuracy_floor("x", float("nan"), 0.90)


def test_soft_agreement_rejects_differing_paths():
    pair = graphs.synthesize_pair(5, 0.03, seed=1)
    aa = graphs.build_aa_graph(pair.g1, pair.g2)
    pcfg = predictor.PredictorConfig(d_V=8, d_E=8, T=2)
    scfg = solvers.SolverConfig()
    store = predictor.init_params(pcfg, seed=0)
    K, X0 = predictor.learned_affinity(aa, store, pcfg)
    X, _ = solvers.probabilistic_solve(K, X0, scfg)
    x_tape = predictor.pipeline_forward(aa, store, pcfg, scfg).data
    assert check_soft_agree(X, x_tape) == []
    off = x_tape.copy()
    off[0] += 1e-6
    assert check_soft_agree(X, off)


def test_row_and_training_checks_reject_bad_values():
    good = {"index": 0, "accuracy": 1.0, "objective": 3.0, "binary_score": 0.9,
            "iterations": 4}
    assert check_rows([good], 4, 10, True) == []
    for field, bad in (("iterations", 0), ("iterations", 11), ("binary_score", 0.4),
                       ("objective", float("nan")), ("objective", 0.0)):
        assert check_rows([dict(good, **{field: bad})], 4, 10, True), field
    assert check_training([5.0, 3.0], np.ones(3)) == []
    assert check_training([3.0, 3.0], np.ones(3))
    assert check_training([5.0, 3.0], np.array([1.0, np.inf]))


@pytest.mark.parametrize("make", [
    lambda: workload.DpgmN100(0, n=12, instances=2),
    lambda: workload.TrainN8(0, pairs=4, epochs=2, n=5),
])
def test_traced_self_times_add_up_to_traced_wall_time(make):
    wl = make()
    wl.setup()
    tracer = Tracer()
    times = workload.timed_rounds(workload.Rounds(wl), 0.0, tracer)
    wall = sum(traced for _, traced in times)
    total_self = sum(self_times(tracer.spans))
    assert len(tracer.spans) > len(times)
    assert min(self_times(tracer.spans)) >= -1e-9
    assert abs(total_self - wall) <= max(1e-3, 0.01 * wall)


def test_tracer_restores_every_original():
    import probmatch
    from probmatch import autodiff, bench
    before = (solvers.spmv, affinity.spmv, probmatch.spmv, bench.synthesize_pair,
              autodiff.Tensor.__init__, autodiff.Tensor.backward)
    tracer = Tracer()
    tracer.install()
    assert solvers.spmv is not before[0] and affinity.spmv is not before[1]
    tracer.uninstall()
    after = (solvers.spmv, affinity.spmv, probmatch.spmv, bench.synthesize_pair,
             autodiff.Tensor.__init__, autodiff.Tensor.backward)
    assert all(a is b for a, b in zip(before, after))
    assert tracer.missing == []


def test_failing_hook_is_listed_and_spmv_calls_still_counted(monkeypatch):
    import tracer as tracer_module

    def broken(args, result):
        raise AttributeError("operator has no vals")

    monkeypatch.setattr(tracer_module, "FUNCTIONS", [
        (m, f, broken if f == "spmv" else info, op)
        for m, f, info, op in tracer_module.FUNCTIONS])
    wl = workload.DpgmN100(0, n=6, noise_levels=(0.01,), instances=1)
    wl.setup()
    tracer = Tracer()
    workload.Rounds(wl).run(tracer)
    layers = layer_metrics(tracer.spans, 1, tracer.tensors)
    assert tracer.missing == ["linalg.spmv broken (AttributeError)"]
    assert layers["linalg.spmv.mbyte"] == 0.0
    assert layers["solvers.probabilistic_solve.spmv_calls"] > 0


def test_raising_round_counts_as_failed_and_is_not_timed():
    class Flaky:
        ops_per_round = instances_per_round = 3
        calls = 0

        def run_round(self):
            Flaky.calls += 1
            if Flaky.calls == 2:
                raise ValueError("no convergence")
            return [1.0]

        def digest(self, result):
            return result

    rounds = workload.Rounds(Flaky())
    assert rounds.run() is not None
    assert rounds.run() is None
    assert rounds.run() is not None
    assert (rounds.count, rounds.failed_ops, rounds.first) == (3, 3, [1.0])
    assert rounds.errors == ["round 2: ValueError: no convergence"]


def test_metric_names_match_the_benchmark_spec():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(layer_metrics([], 1, 0)) | {"trace.overhead_pct"} == per_layer
    assert {w["name"] for w in SPEC["workloads"]} == set(workload.WORKLOADS)
