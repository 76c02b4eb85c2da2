import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from probmatch import allocator, bench
from probmatch import predictor as predictor_module
from probmatch import solvers as solvers_module
from probmatch.autodiff import ParamStore
from probmatch.bench import (
    AFFINITY_SOURCES,
    SOLVERS,
    ConfigError,
    ExperimentConfig,
    compare_solvers,
    run_experiment,
    train_and_eval,
    train_seeds,
)
from probmatch.affinity import objective
from probmatch.graphs import synthesize_pair
from probmatch.linalg import SparseAffinity, binary_score, perm_matrix
from probmatch.predictor import (ABLATIONS, PredictorConfig, dpgm_assignment, evaluate,
                                 init_params)
from probmatch.solvers import (SolverConfig, accuracy, chunks, discretize, ipfp,
                               probabilistic_solve, rrwm, spectral_match)

TINY_PRED = PredictorConfig(d_V=4, d_E=4, T=1)


def _tiny_cfg(**overrides):
    base = dict(n=5, noise_levels=(0.0,), instances=6, seed=0,
                solver_cfg=SolverConfig(max_iters=4), predictor_cfg=TINY_PRED)
    base.update(overrides)
    return ExperimentConfig(**base)


def _untrained_checkpoint(tmp_path, seed=0):
    path = tmp_path / "untrained.ckpt"
    init_params(TINY_PRED, seed=seed).save(path)
    return str(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        _tiny_cfg(solver="gradient_descent")
    with pytest.raises(ConfigError):
        _tiny_cfg(affinity_source="psd")
    with pytest.raises(ConfigError):
        _tiny_cfg(ablation="none")
    with pytest.raises(ConfigError):
        _tiny_cfg(ablation="wps")   # ablations need learned source
    with pytest.raises(ConfigError, match="dpgm"):
        _tiny_cfg(affinity_source="learned", solver="spectral",
                  ablation="tia")


@pytest.mark.parametrize("overrides", [
    dict(n=2),
    dict(instances=0),
    dict(noise_levels=()),
    dict(noise_levels=(0.01, 0.01)),
    dict(workers=0),
    dict(batch_size=0),
])
def test_bad_sizes_rejected(overrides):
    with pytest.raises(ConfigError):
        _tiny_cfg(**overrides)


@pytest.mark.parametrize("overrides, message", [
    (dict(n=2), "n must be at least 3"),
    (dict(instances=0), "instances must be at least 1"),
    (dict(workers=0), "workers must be at least 1"),
    (dict(batch_size=0), "batch_size must be at least 1"),
    (dict(train_instances=0), "train_instances must be at least 1"),
    (dict(noise_levels=(float("nan"),)), "noise_levels must be finite and nonnegative"),
    (dict(epochs=0), "epochs must be at least 1"),
    (dict(seed=-1), "seed must be at least 0"),
    (dict(lr=0.0), "lr must be positive"),
    (dict(lr=float("nan")), "lr must be positive"),
    (dict(noise_levels=()), "noise_levels must be non-empty and distinct"),
    (dict(noise_levels=(0.01, 0.01)), "noise_levels must be non-empty and distinct"),
    (dict(noise_levels=(0.01, -0.5)), "noise_levels must be finite and nonnegative"),
    (dict(rotation_max=float("nan")), "rotation_max must be finite and nonnegative"),
    (dict(translation_max=float("inf")), "translation_max must be finite and nonnegative"),
    (dict(solver="gradient_descent"), "unknown solver"),
    (dict(affinity_source="psd"), "unknown affinity source"),
    (dict(ablation="none"), "unknown ablation"),
    (dict(ablation="wps"), "ablations require the learned affinity source"),
    (dict(affinity_source="learned", solver="spectral", ablation="tia"),
     "ablations require the learned affinity source"),
    (dict(lr=float("inf")), "lr must be finite"),
    (dict(train_instances=10_001), "train_instances must be at most 10000, so seed ranges"),
    (dict(instances=1_000_001), "instances must be at most 1000000, so seed ranges"),
    (dict(rotation_max=-0.1), "rotation_max must be finite and nonnegative"),
    (dict(target_accuracy=float("nan")), r"target_accuracy must lie in \[0, 1\]"),
    (dict(target_accuracy=1.5), r"target_accuracy must lie in \[0, 1\]"),
    (dict(target_accuracy=-0.2), r"target_accuracy must lie in \[0, 1\]"),
    (dict(noise_levels=(0.3, 0.30000001)),
     "noise_levels must have distinct labels at 6 significant digits, got noise=0.3, noise=0.3"),
    (dict(noise_levels=(0.01, 2e-7, 2.0000001e-7)),
     "noise_levels must have distinct labels at 6 significant digits, "
     "got noise=0.01, noise=2e-07, noise=2e-07"),
])
def test_config_rules_run_at_construction_and_on_replace(overrides, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        _tiny_cfg(**overrides)
    with pytest.raises(ConfigError, match=f"^{message}"):
        dataclasses.replace(_tiny_cfg(), **overrides)


def test_config_stores_noise_levels_as_a_tuple():
    assert _tiny_cfg(noise_levels=[0.01, 0.02]).noise_levels == (0.01, 0.02)
    assert dataclasses.replace(_tiny_cfg(), noise_levels=[0.0]).noise_levels == (0.0,)


def test_learned_config_without_checkpoint_constructs():
    cfg = _tiny_cfg(affinity_source="learned", ablation="tia")
    assert cfg.checkpoint is None


def test_test_split_is_the_row_order(tmp_path):
    cfg = _tiny_cfg(noise_levels=(0.02, 0.0), instances=3)
    split = bench.test_split(cfg)
    rows = run_experiment(cfg).rows
    assert [i for i, _, _ in split] == [r["index"] for r in rows] == list(range(6))
    assert [noise for _, noise, _ in split] == [r["noise"] for r in rows]
    assert [seed for _, _, seed in split] == [bench.instance_seed(0, k, li)
                                               for li in range(2) for k in range(3)]


def test_learned_source_without_checkpoint_fails_before_work():
    cfg = _tiny_cfg(affinity_source="learned")
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_zero_noise_handcrafted_dpgm_is_exact():
    report = run_experiment(_tiny_cfg(instances=10))
    assert report.aggregates["overall"]["accuracy_mean"] == 1.0
    assert len(report.rows) == 10


def test_wps_untrained_near_chance(tmp_path):
    cfg = _tiny_cfg(n=6, noise_levels=(0.03,), instances=40,
                    affinity_source="learned", ablation="wps",
                    checkpoint=_untrained_checkpoint(tmp_path))
    acc = run_experiment(cfg).aggregates["overall"]["accuracy_mean"]
    # chance level is 1/6; allow generous binomial noise around it
    assert acc < 0.45


@pytest.mark.parametrize("ablation", ABLATIONS)
def test_learned_runner_matches_evaluate(tmp_path, ablation):
    cfg = _tiny_cfg(n=6, noise_levels=(0.03,), instances=8,
                    affinity_source="learned", ablation=ablation,
                    checkpoint=_untrained_checkpoint(tmp_path, seed=3))
    report = run_experiment(cfg)
    store = init_params(TINY_PRED)
    store.load(cfg.checkpoint)
    for row, (_, _, seed) in zip(report.rows, bench.test_split(cfg)):
        pair = synthesize_pair(cfg.n, 0.03, rotation_max=cfg.rotation_max, seed=seed,
                               translation_max=cfg.translation_max)
        assert evaluate([pair], store, TINY_PRED, cfg.solver_cfg, ablation) == row["accuracy"]
    pairs = [bench.make_pair(cfg, noise, seed) for _, noise, seed in bench.test_split(cfg)]
    assert (evaluate(pairs, store, TINY_PRED, cfg.solver_cfg, ablation)
            == report.aggregates["overall"]["accuracy_mean"])


def test_rows_byte_identical_across_reruns():
    cfg = _tiny_cfg(noise_levels=(0.02, 0.05))
    a = run_experiment(cfg).rows_csv()
    b = run_experiment(dataclasses.replace(cfg)).rows_csv()
    assert a == b


def test_aggregates_recomputable_from_rows():
    report = run_experiment(_tiny_cfg(noise_levels=(0.02, 0.05), instances=5))
    for key, stats in report.aggregates.items():
        if key == "overall":
            rows = report.rows
        else:
            noise = float(key.split("=")[1])
            rows = [r for r in report.rows if r["noise"] == noise]
        assert stats["count"] == len(rows)
        accs = [r["accuracy"] for r in rows]
        assert stats["accuracy_mean"] == pytest.approx(np.mean(accs))
        assert stats["accuracy_std"] == pytest.approx(np.std(accs))
        assert stats["objective_mean"] == pytest.approx(
            np.mean([r["objective"] for r in rows]))


def test_rows_ordered_by_index_with_workers():
    cfg = _tiny_cfg(noise_levels=(0.02,), instances=8, workers=4)
    parallel = run_experiment(cfg)
    serial = run_experiment(dataclasses.replace(cfg, workers=1))
    assert [r["index"] for r in parallel.rows] == list(range(8))
    assert parallel.rows_csv() == serial.rows_csv()


def _rows_without_wall_time(rows_by_solver):
    return {s: [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
            for s, rows in rows_by_solver.items()}


def test_chunked_rows_equal_per_instance_solves(tmp_path, monkeypatch):
    # 75 entries: chunks of 3 instances at n = 5, so the split of 8 is cut
    # into chunks of 3, 3 and 2 that straddle the two noise levels
    monkeypatch.setattr(solvers_module, "_CHUNK_ENTRIES", 75)
    for source in AFFINITY_SOURCES:
        cfg = _tiny_cfg(noise_levels=(0.02, 0.1), instances=4, affinity_source=source,
                        checkpoint=_untrained_checkpoint(tmp_path))
        assert [len(c) for c in chunks(list(range(8)), cfg.n, cfg.workers)] == [3, 3, 2]
        store = bench.load_store(cfg)
        expected = {s: [] for s in SOLVERS}
        for index, noise, seed in bench.test_split(cfg):
            pair = bench.make_pair(cfg, noise, seed)
            K, X_init = bench.instance_operator(cfg, pair, store)
            for s, (X, iterations) in (
                    ("dpgm", dpgm_assignment([K], X_init[None], cfg.solver_cfg, cfg.ablation)),
                    ("spectral", spectral_match([K])),
                    ("ipfp", ipfp([K], np.full((1, cfg.n, cfg.n), 1.0 / cfg.n))),
                    ("rrwm", rrwm([K]))):
                pred = discretize(X[0])
                expected[s].append({
                    "index": index, "noise": noise,
                    "accuracy": accuracy(pred, pair.ground_truth),
                    "objective": objective(K, perm_matrix(pred).ravel()),
                    "binary_score": binary_score(X[0]),
                    "iterations": iterations[0]})
        assert _rows_without_wall_time(bench._run(cfg, SOLVERS)) == expected


def _counting_solve(monkeypatch):
    """Wrap the solve that ``dpgm_assignment`` calls; returns the list of
    the instance counts it was called with, None for a single operator."""
    calls = []

    def counted(K, X_init, cfg=None):
        calls.append(None if isinstance(K, SparseAffinity) else len(K))
        return probabilistic_solve(K, X_init, cfg)

    monkeypatch.setattr(predictor_module, "probabilistic_solve", counted)
    return calls


def test_chunked_dpgm_rows_equal_per_instance_solves(tmp_path, monkeypatch):
    # chunks of 3, 3 and 2 instances that straddle the two noise levels
    monkeypatch.setattr(solvers_module, "_CHUNK_ENTRIES", 75)
    checkpoint = _untrained_checkpoint(tmp_path)
    calls = _counting_solve(monkeypatch)
    for source, ablation in (("handcrafted", "full"), ("learned", "full"),
                             ("learned", "tia"), ("learned", "wps")):
        cfg = _tiny_cfg(noise_levels=(0.01, 0.1), instances=4, affinity_source=source,
                        ablation=ablation, checkpoint=checkpoint, solver_cfg=SolverConfig())
        store = bench.load_store(cfg)
        expected = []
        for index, noise, seed in bench.test_split(cfg):
            pair = bench.make_pair(cfg, noise, seed)
            K, X_init = bench.instance_operator(cfg, pair, store)
            X, iterations = dpgm_assignment([K], X_init[None], cfg.solver_cfg, ablation)
            pred = discretize(X[0])
            expected.append({"index": index, "noise": noise,
                             "accuracy": accuracy(pred, pair.ground_truth),
                             "objective": objective(K, perm_matrix(pred).ravel()),
                             "binary_score": binary_score(X[0]), "iterations": iterations[0]})
        if ablation != "wps":
            assert len({row["iterations"] for row in expected}) > 1
        calls.clear()
        assert _rows_without_wall_time(bench._run(cfg, ("dpgm",))) == {"dpgm": expected}
        assert calls == ([] if ablation == "wps" else [3, 3, 2])
        parallel = bench._run(dataclasses.replace(cfg, workers=2), ("dpgm",))
        assert _rows_without_wall_time(parallel) == {"dpgm": expected}


def test_runner_solves_each_dpgm_chunk_in_one_call(monkeypatch):
    calls = _counting_solve(monkeypatch)
    cfg = _tiny_cfg(noise_levels=(0.02, 0.05), instances=6)
    run_experiment(cfg)
    assert calls == [12]
    calls.clear()
    compare_solvers(cfg)
    assert calls == [12]
    # a chunk of one goes in as a chunk, like any other
    calls.clear()
    monkeypatch.setattr(solvers_module, "_CHUNK_ENTRIES", 25)
    run_experiment(cfg)
    assert calls == [1] * 12


def test_workers_equal_serial_across_a_chunk_boundary():
    # two workers get chunks of 4 and 3 instances; one worker gets all 7
    cfg = _tiny_cfg(noise_levels=(0.02,), instances=7, workers=2)
    assert [len(chunks(list(range(7)), cfg.n, w)[0]) for w in (1, 2)] == [7, 4]
    parallel = bench._run(cfg, SOLVERS)
    serial = bench._run(dataclasses.replace(cfg, workers=1), SOLVERS)
    assert _rows_without_wall_time(parallel) == _rows_without_wall_time(serial)
    for rows in parallel.values():
        assert [r["index"] for r in rows] == list(range(7))
        assert all(r["wall_ms"] > 0 for r in rows)


def _serial_pool(monkeypatch, cpus):
    """Stand in for the process pool and the usable CPU count; returns the
    list of pool sizes asked for. The stand-in maps in this process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    return sizes


@pytest.mark.parametrize("workers, instances, cpus, pools", [
    (10 ** 6, 2, 4, [2]),   # two chunks, however many workers are allowed
    (3, 8, 2, [2]),         # no more processes than CPUs
    (4, 1, 4, []),          # one chunk runs in this process
])
def test_pool_is_sized_by_the_cpus_and_the_chunks(monkeypatch, workers, instances, cpus,
                                                  pools):
    cfg = _tiny_cfg(noise_levels=(0.02,), instances=instances, workers=workers)
    serial = bench._run(dataclasses.replace(cfg, workers=1), SOLVERS)
    sizes = _serial_pool(monkeypatch, cpus)
    rows = bench._run(cfg, SOLVERS)
    assert sizes == pools
    assert _rows_without_wall_time(rows) == _rows_without_wall_time(serial)


_SECOND_RUN_FAULTS = """
import resource
from probmatch.bench import ExperimentConfig, run_experiment
cfg = ExperimentConfig(n=60, instances=4, seed=0)
run_experiment(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the runner's allocator policy is glibc's")
def test_runner_keeps_freed_memory_for_the_next_instance():
    # a fresh interpreter, so no earlier test's allocator state hides the
    # faults; without the policy a second run takes about 900 per instance
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _SECOND_RUN_FAULTS], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert int(out) < 50 * 4


@pytest.mark.skipif(sys.platform != "linux", reason="the policy is set on Linux only")
def test_allocator_policy_is_set_once_per_process(monkeypatch):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(allocator, "_libc", lambda: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(allocator, "_heap_kept", False)
    cfg = _tiny_cfg(instances=2)
    bench._run(cfg, ("dpgm",))
    bench._run(cfg, ("dpgm",))
    assert calls == [(allocator._M_TOP_PAD, allocator._TOP_PAD_BYTES)]


def _no_libc():
    raise OSError("no C library")


@pytest.mark.parametrize("libc", [_no_libc, object], ids=["lookup fails", "no mallopt"])
def test_runner_without_mallopt_gives_the_same_rows(monkeypatch, libc):
    cfg = _tiny_cfg(noise_levels=(0.02, 0.05))
    expected = run_experiment(cfg).rows_csv()
    monkeypatch.setattr(allocator, "_libc", libc)
    monkeypatch.setattr(allocator, "_heap_kept", False)
    assert run_experiment(cfg).rows_csv() == expected
    assert allocator._heap_kept


@pytest.mark.parametrize("n, instances, workers, size", [
    (8, 100, 1, 25), (8, 100, 2, 25), (8, 32, 1, 32), (8, 33, 1, 17), (16, 100, 1, 8),
    (45, 100, 1, 1), (46, 100, 1, 1), (100, 20, 1, 1), (5, 6, 4, 2), (8, 1, 4, 1),
    (8, 0, 1, 0),
])
def test_chunk_size_follows_n_and_workers(n, instances, workers, size):
    items = list(range(instances))
    cut = chunks(items, n, workers)
    assert (len(cut[0]) if cut else 0) == size and all(cut)
    assert [i for chunk in cut for i in chunk] == items


def test_learned_source_with_workers_matches_serial(tmp_path):
    cfg = _tiny_cfg(noise_levels=(0.02,), instances=8, workers=4,
                    affinity_source="learned",
                    checkpoint=_untrained_checkpoint(tmp_path, seed=3))
    parallel = run_experiment(cfg)
    serial = run_experiment(dataclasses.replace(cfg, workers=1))
    assert [r["index"] for r in parallel.rows] == list(range(8))
    assert parallel.rows_csv() == serial.rows_csv()


def test_train_and_eval_with_workers_matches_serial(tmp_path):
    cfg = _tiny_cfg(workers=2, train_instances=2, instances=3, epochs=1,
                    out_dir=str(tmp_path / "parallel"))
    parallel, _, _ = train_and_eval(cfg)
    serial, _, _ = train_and_eval(dataclasses.replace(cfg, workers=1,
                                                      out_dir=str(tmp_path / "serial")))
    assert len(parallel.rows) == 3
    assert parallel.rows_csv() == serial.rows_csv()


def test_report_files_and_summary(tmp_path):
    report = run_experiment(_tiny_cfg(out_dir=str(tmp_path)))
    report.write(tmp_path)
    assert (tmp_path / "report_rows.csv").exists()
    doc = json.loads((tmp_path / "report_summary.json").read_text())
    assert doc["config"]["n"] == 5
    assert "overall" in doc["aggregates"]
    assert doc["version"]


def test_all_solvers_run_on_every_source(tmp_path):
    ckpt = _untrained_checkpoint(tmp_path)
    for solver in ("dpgm", "spectral", "ipfp", "rrwm"):
        for source in ("handcrafted", "learned"):
            cfg = _tiny_cfg(instances=2, solver=solver, affinity_source=source,
                            checkpoint=ckpt)
            report = run_experiment(cfg)
            assert len(report.rows) == 2


def test_compare_solvers_table_shape(tmp_path):
    # one pass over the instances gives the table of four separate runs
    ckpt = _untrained_checkpoint(tmp_path, seed=3)
    for source in AFFINITY_SOURCES:
        cfg = _tiny_cfg(instances=3, noise_levels=(0.0, 0.03), affinity_source=source,
                        checkpoint=ckpt)
        lines = ["solver,source,acc@noise=0,acc@noise=0.03,acc_mean"]
        for solver in SOLVERS:
            agg = run_experiment(dataclasses.replace(cfg, solver=solver)).aggregates
            accs = [agg[key]["accuracy_mean"] for key in ("noise=0", "noise=0.03", "overall")]
            lines.append(",".join([solver, source] + [f"{a:.12g}" for a in accs]))
        assert compare_solvers(cfg) == "\n".join(lines) + "\n"


def test_compare_solvers_builds_each_instance_once(tmp_path, monkeypatch):
    calls = {"synthesize_pair": 0, "learned_affinity": 0, "load": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bench, "synthesize_pair",
                        counting("synthesize_pair", bench.synthesize_pair))
    monkeypatch.setattr(bench, "learned_affinity",
                        counting("learned_affinity", bench.learned_affinity))
    monkeypatch.setattr(ParamStore, "load", counting("load", ParamStore.load))
    cfg = _tiny_cfg(instances=3, noise_levels=(0.0, 0.03), affinity_source="learned",
                    checkpoint=_untrained_checkpoint(tmp_path))
    table = compare_solvers(cfg)
    assert len(table.strip().splitlines()) == 1 + len(SOLVERS)
    assert calls == {"synthesize_pair": 6, "learned_affinity": 6, "load": 1}


@pytest.mark.parametrize("ablation", [a for a in ABLATIONS if a != "full"])
def test_compare_solvers_rejects_other_ablations_before_work(tmp_path, monkeypatch, ablation):
    def no_work(*args, **kwargs):
        raise AssertionError("compare started work")

    monkeypatch.setattr(bench, "synthesize_pair", no_work)
    monkeypatch.setattr(ParamStore, "load", no_work)
    cfg = _tiny_cfg(ablation=ablation, affinity_source="learned",
                    checkpoint=_untrained_checkpoint(tmp_path))
    with pytest.raises(ConfigError, match="full ablation only"):
        compare_solvers(cfg)


def test_train_and_eval_splits_are_disjoint(tmp_path):
    cfg = _tiny_cfg(train_instances=6, instances=4, epochs=1,
                    noise_levels=(0.02,), out_dir=str(tmp_path))
    assert not set(train_seeds(cfg)) & {seed for _, _, seed in bench.test_split(cfg)}
    report, ckpt, metrics = train_and_eval(cfg)
    assert len(report.rows) == 4
    assert (tmp_path / "learning_curve.csv").exists()
    assert len(metrics) == 1
    # the checkpoint loads back into a fresh model
    store = init_params(TINY_PRED, seed=cfg.seed)
    store.load(ckpt)
