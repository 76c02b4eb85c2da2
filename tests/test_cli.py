import io
import json
import re
import zipfile

import numpy as np
import pytest

from probmatch import bench, cli
from probmatch.cli import main
from probmatch.graphs import build_aa_graph, load_pair, synthesize_pair
from probmatch.predictor import PredictorConfig, init_params, learned_affinity
from probmatch.solvers import SolverConfig, probabilistic_solve


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_writes_loadable_pairs(tmp_path, capsys):
    code, _ = _run(capsys, ["gen", "--n", "5", "--noise", "0.02",
                            "--instances", "3", "--seed", "1",
                            "--out-dir", str(tmp_path)])
    assert code == 0
    files = sorted(tmp_path.glob("pair_*.json"))
    assert len(files) == 3
    pair = load_pair(files[0])
    assert pair.g1.n == 5


def test_solve_dumps_trace(tmp_path, capsys):
    code, out = _run(capsys, ["solve", "--n", "4", "--noise", "0.01",
                              "--seed", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["stop_reason"] in ("early_stop", "max_iters")
    assert np.asarray(doc["assignments"][-1]).shape == (4, 4)

    trace_path = tmp_path / "trace.json"
    code, _ = _run(capsys, ["solve", "--n", "4", "--noise", "0.01",
                            "--seed", "2", "--trace-out", str(trace_path)])
    assert code == 0
    assert json.loads(trace_path.read_text())["assignments"] == doc["assignments"]


def test_solve_traces_the_configured_learned_operator(tmp_path, capsys):
    pcfg = PredictorConfig(d_V=4, d_E=4, T=1)
    store = init_params(pcfg, seed=5)
    store.save(tmp_path / "tiny.ckpt")
    cfg_path = tmp_path / "learned.json"
    cfg_path.write_text(json.dumps({"affinity_source": "learned",
                                    "checkpoint": str(tmp_path / "tiny.ckpt"),
                                    "predictor_cfg": {"d_V": 4, "d_E": 4, "T": 1}}))
    argv = ["solve", "--n", "5", "--noise", "0.03", "--seed", "2"]
    _, plain = _run(capsys, argv)
    code, out = _run(capsys, argv + ["--config", str(cfg_path)])
    assert code == 0
    pair = synthesize_pair(5, 0.03, seed=bench.instance_seed(2, 0))
    K, X0 = learned_affinity(build_aa_graph(pair.g1, pair.g2), store, pcfg)
    _, trace = probabilistic_solve(K, X0, SolverConfig())
    assert out == trace.to_json() + "\n"
    assert out != plain


@pytest.mark.parametrize("values, message", [
    ({"affinity_source": "learned"}, "requires a checkpoint"),
    ({"solver": "rrwm"}, "dpgm"),
    ({"solver": "spectral", "affinity_source": "learned", "checkpoint": "x.ckpt"}, "dpgm"),
    ({"ablation": "tia", "affinity_source": "learned", "checkpoint": "x.ckpt"}, "full"),
])
def test_solve_rejects_what_it_cannot_trace(tmp_path, capsys, monkeypatch, values, message):
    def no_work(*args, **kwargs):
        raise AssertionError("solve started work")

    monkeypatch.setattr(bench, "synthesize_pair", no_work)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    with pytest.raises(SystemExit, match=rf"^probmatch: .*{message}") as exc:
        main(["solve", "--config", str(cfg_path), "--n", "5"])
    assert "\n" not in str(exc.value)


def test_compare_rejects_an_ablation_with_one_line(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("compare started work")

    monkeypatch.setattr(bench, "synthesize_pair", no_work)
    store = init_params(PredictorConfig(d_V=4, d_E=4, T=1), seed=0)
    store.save(tmp_path / "tiny.ckpt")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ablation": "tia", "affinity_source": "learned",
                                    "checkpoint": str(tmp_path / "tiny.ckpt"),
                                    "predictor_cfg": {"d_V": 4, "d_E": 4, "T": 1}}))
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--config", str(cfg_path), "--n", "5", "--instances", "2"])
    assert str(exc.value) == ("probmatch: compare runs every solver with the "
                              "full ablation only")
    assert capsys.readouterr().out == ""


def test_bench_emits_rows(tmp_path, capsys):
    code, out = _run(capsys, ["bench", "--n", "5", "--noise", "0.0",
                              "--instances", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("index,noise,accuracy")
    assert len(lines) == 4
    assert (tmp_path / "report_rows.csv").read_text() == out


def test_compare_runs(capsys):
    code, out = _run(capsys, ["compare", "--n", "5", "--noise", "0.0",
                              "--instances", "2",
                              "--affinity-source", "handcrafted"])
    assert code == 0
    assert out.splitlines()[0] == "solver,source,acc@noise=0,acc_mean"
    assert len(out.strip().splitlines()) == 5


def test_gradcheck_passes(capsys):
    code, out = _run(capsys, ["gradcheck", "--n", "3", "--noise", "0.02",
                              "--seed", "0", "--d", "3", "--T", "1"])
    assert code == 0
    assert "max relative gradient error" in out


def test_gradcheck_passes_with_its_defaults(capsys):
    # at step 1e-5 the difference quotient's rounding on a near-zero
    # component alone exceeds the 1e-4 bound
    assert _run(capsys, ["gradcheck"]) == (0, "max relative gradient error: 1.650e-05\n")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 5, "noise_levels": [0.0], "instances": 2,
        "solver_cfg": {"max_iters": 4},
    }))
    code, out = _run(capsys, ["bench", "--config", str(cfg_path),
                              "--instances", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    assert len(out.strip().splitlines()) == 4   # header + 3 (flag overrode file)


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid_size": 9}))
    with pytest.raises(SystemExit):
        main(["bench", "--config", str(cfg_path)])


def test_unknown_nested_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for nested, key in (({"solver_cfg": {"max_iters": 4, "ratio_floor": 1e-12}},
                         r"solver_cfg\.ratio_floor"),
                        ({"predictor_cfg": {"d_V": 4, "mlp_hidden": [8]}},
                         r"predictor_cfg\.mlp_hidden")):
        cfg_path.write_text(json.dumps(nested))
        with pytest.raises(SystemExit, match=rf"unknown config keys.*{key}") as exc:
            main(["bench", "--config", str(cfg_path)])
        assert str(exc.value).startswith("probmatch: ")


@pytest.mark.parametrize("nested", [{"solver_cfg": {"max_iters": 0}},
                                    {"affinity_cfg": {"sigma_len": 0}}])
def test_bad_nested_config_value_exits_with_one_line(tmp_path, capsys, nested):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(nested))
    out_dir = tmp_path / "out"
    name = next(iter(nested))
    with pytest.raises(SystemExit, match=rf"^probmatch: {name}: ") as exc:
        main(["bench", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert "\n" not in str(exc.value)
    assert not out_dir.exists()


@pytest.mark.parametrize("values, key", [({"solver_cfg": 5}, "solver_cfg"),
                                         ({"noise_levels": 0.03}, "noise_levels"),
                                         ({"n": "8"}, "n"),
                                         ({"solver_cfg": {"max_iters": "3"}},
                                          r"solver_cfg\.max_iters")])
def test_wrong_json_type_exits_with_one_line(tmp_path, capsys, values, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit, match=rf"^probmatch: {key}: expected ") as exc:
        main(["bench", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert "\n" not in str(exc.value)
    assert not out_dir.exists()


@pytest.mark.parametrize("text", ["[1, 2]", '{"n": 8,', None])
def test_unreadable_config_file_exits_with_one_line(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    with pytest.raises(SystemExit, match=rf"^probmatch: {re.escape(str(cfg_path))}: ") as exc:
        main(["bench", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
    assert "\n" not in str(exc.value)


def test_invalid_config_exits_before_work(tmp_path, capsys):
    with pytest.raises(SystemExit, match="instances"):
        main(["gen", "--n", "5", "--instances", "0", "--out-dir", str(tmp_path)])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value, message", [
    ("--train-instances", "0", "train_instances must be at least 1"),
    ("--epochs", "0", "epochs must be at least 1"),
    ("--lr", "-1", "lr must be positive"),
    ("--lr", "0", "lr must be positive"),
    ("--lr", "nan", "lr must be positive"),
    ("--lr", "inf", "lr must be finite"),
    ("--train-instances", "10001",
     "train_instances must be at most 10000, so seed ranges stay disjoint"),
    ("--target-accuracy", "nan", "target_accuracy must lie in [0, 1]"),
    ("--target-accuracy", "1.5", "target_accuracy must lie in [0, 1]"),
    ("--target-accuracy", "-0.2", "target_accuracy must lie in [0, 1]"),
])
def test_bad_training_config_exits_with_one_line_before_work(tmp_path, capsys, monkeypatch,
                                                            flag, value, message):
    calls = []
    monkeypatch.setattr(cli, "train_and_eval", lambda *args: calls.append(args))
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--n", "4", flag, value, "--out-dir", str(out_dir)])
    assert str(exc.value) == f"probmatch: {message}"
    assert not calls and not out_dir.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, values, message", [
    (command, {"solver_cfg": {"sinkhorn_iters": 0}}, "solver_cfg: sinkhorn_iters must be >= 1")
    for command in ("bench", "train", "solve", "gradcheck")
] + [
    ("bench", {"solver_cfg": {"stop_eta": float("nan")}}, "solver_cfg: stop_eta must be positive"),
    ("bench", {"solver_cfg": {"stop_eta": 0.0}}, "solver_cfg: stop_eta must be positive"),
    ("train", {"predictor_cfg": {"d_V": 0}}, "predictor_cfg: d_V must be >= 1"),
    ("train", {"predictor_cfg": {"d_E": 0}}, "predictor_cfg: d_E must be >= 1"),
    ("train", {"predictor_cfg": {"T": -1}}, "predictor_cfg: T must be >= 0"),
    ("bench", {"noise_levels": [0.01, -0.5]}, "noise_levels must be finite and nonnegative"),
    ("gen", {"noise_levels": [float("inf")]}, "noise_levels must be finite and nonnegative"),
    ("bench", {"noise_levels": [float("nan")]}, "noise_levels must be finite and nonnegative"),
    ("bench", {"rotation_max": -0.1}, "rotation_max must be finite and nonnegative"),
    ("compare", {"rotation_max": float("nan")}, "rotation_max must be finite and nonnegative"),
    ("bench", {"translation_max": -0.05}, "translation_max must be finite and nonnegative"),
    ("train", {"translation_max": float("inf")}, "translation_max must be finite and nonnegative"),
    ("train", {"lr": float("inf")}, "lr must be finite"),
    ("bench", {"affinity_cfg": {"sigma_len": float("nan")}},
     "affinity_cfg: kernel bandwidths must be positive"),
    ("bench", {"affinity_cfg": {"sigma_ang": float("nan")}},
     "affinity_cfg: kernel bandwidths must be positive"),
    ("bench", {"affinity_cfg": {"unary_weight": float("nan")}},
     "affinity_cfg: unary_weight must be finite"),
    ("compare", {"affinity_cfg": {"unary_weight": float("inf")}},
     "affinity_cfg: unary_weight must be finite"),
    ("train", {"loss_cfg": {"w": float("nan")}}, "loss_cfg: w must be finite"),
    ("gradcheck", {"loss_cfg": {"w": float("-inf")}}, "loss_cfg: w must be finite"),
    ("bench", {"instances": 1_000_001},
     "instances must be at most 1000000, so seed ranges stay disjoint"),
    ("gen", {"instances": 1_000_001},
     "instances must be at most 1000000, so seed ranges stay disjoint"),
    ("train", {"train_instances": 10_001},
     "train_instances must be at most 10000, so seed ranges stay disjoint"),
    ("compare", {"noise_levels": [0.3, 0.30000001]},
     "noise_levels must have distinct labels at 6 significant digits, got noise=0.3, noise=0.3"),
])
def test_bad_config_value_exits_with_one_line_before_work(tmp_path, capsys, monkeypatch,
                                                         command, values, message):
    calls = []
    for name in ("run_experiment", "train_and_eval", "compare_solvers", "grad_check",
                 "probabilistic_solve"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(bench, "synthesize_pair", lambda *args, **kwargs: calls.append(args))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(values))
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--n", "4", "--out-dir", str(out_dir)])
    assert str(exc.value) == f"probmatch: {message}"
    assert not calls and not out_dir.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--d", "0", "d_V must be >= 1"),
    ("--T", "-1", "T must be >= 0"),
    ("--step", "0", "step must be finite and positive"),
    ("--step", "-0.5", "step must be finite and positive"),
    ("--step", "nan", "step must be finite and positive"),
    ("--step", "inf", "step must be finite and positive"),
])
def test_bad_gradcheck_size_exits_with_one_line_before_work(capsys, monkeypatch,
                                                            flag, value, message):
    calls = []
    monkeypatch.setattr(cli, "grad_check", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", flag, value])
    where = "--step" if flag == "--step" else "--d/--T"
    assert str(exc.value) == f"probmatch: {where}: {message}"
    assert not calls and capsys.readouterr().out == ""


def test_gen_writes_the_pairs_bench_evaluates(tmp_path, capsys, monkeypatch):
    argv = ["--n", "5", "--noise", "0.01", "0.04", "--instances", "3",
            "--seed", "7", "--out-dir", str(tmp_path)]
    assert main(["gen"] + argv) == 0
    written = [load_pair(f) for f in sorted(tmp_path.glob("pair_*.json"))]

    evaluated = []

    def recording_synthesize_pair(*args, **kwargs):
        pair = synthesize_pair(*args, **kwargs)
        evaluated.append(pair)
        return pair

    monkeypatch.setattr(bench, "synthesize_pair", recording_synthesize_pair)
    assert main(["bench"] + argv) == 0
    assert len(evaluated) == len(written) == 6
    for got, want in zip(evaluated, written):
        assert np.array_equal(got.g1.points, want.g1.points)
        assert np.array_equal(got.g2.points, want.g2.points)
        assert np.array_equal(got.ground_truth, want.ground_truth)


def test_train_subcommand_tiny(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 4, "noise_levels": [0.02], "train_instances": 4,
        "instances": 2, "epochs": 1,
        "predictor_cfg": {"d_V": 4, "d_E": 4, "T": 1},
        "solver_cfg": {"max_iters": 2},
    }))
    code, out = _run(capsys, ["train", "--config", str(cfg_path),
                              "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "predictor.ckpt").exists()
    assert (tmp_path / "eval_rows.csv").exists()
    assert out.startswith("index,noise,accuracy")


def test_train_evaluates_the_instances_option(tmp_path, capsys):
    code, out = _run(capsys, ["train", "--n", "4", "--train-instances", "4", "--epochs", "1",
                              "--instances", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "eval_rows.csv").read_text()
    assert rows == out
    assert [line.split(",")[0] for line in rows.splitlines()[1:]] == ["0", "1", "2"]


def _no_pairs(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a pair was generated")

    monkeypatch.setattr(bench, "synthesize_pair", no_work)


def _write(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return path


@pytest.mark.parametrize("command", ["bench", "compare"])
def test_learned_source_without_checkpoint_exits_before_work(tmp_path, capsys, monkeypatch,
                                                             command):
    _no_pairs(monkeypatch)
    cfg_path = _write(tmp_path, {"affinity_source": "learned"})
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--n", "5", "--out-dir", str(out_dir)])
    assert str(exc.value) == "probmatch: learned affinity source requires a checkpoint path"
    assert not out_dir.exists() and capsys.readouterr().out == ""


def _bad_checkpoint(tmp_path, kind):
    path = tmp_path / "bad.ckpt"
    if kind == "not a zip":
        path.write_text("not a checkpoint\n")
    elif kind == "other predictor_cfg":
        init_params(PredictorConfig(d_V=4, d_E=4, T=1), seed=0).save(path)
    elif kind == "zip without manifest":
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("notes.txt", "")
    elif kind == "non-finite value":
        store = init_params(PredictorConfig(), seed=0)
        store["M1"].data[0, 0] = np.nan
        store.save(path)
    elif kind == "M1 stored as (7,)":
        init_params(PredictorConfig(), seed=0).save(path)
        with zipfile.ZipFile(path) as zf:
            files = {name: zf.read(name) for name in zf.namelist()}
        buf = io.BytesIO()
        np.save(buf, np.zeros(7))
        files["arrays/M1.npy"] = buf.getvalue()
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in files.items():
                zf.writestr(name, data)
    return path


@pytest.mark.parametrize("command, kind, reason", [
    ("bench", "missing", "No such file or directory"),
    ("compare", "not a zip", "File is not a zip file"),
    ("bench", "other predictor_cfg", "shape mismatch for parameter 'M1'"),
    ("solve", "missing", "No such file or directory"),
    ("compare", "zip without manifest", "manifest.json"),
    ("bench", "non-finite value", "non-finite value in parameter 'M1'"),
    ("solve", "non-finite value", "non-finite value in parameter 'M1'"),
    ("bench", "M1 stored as (7,)", "shape mismatch for parameter 'M1'"),
    ("solve", "M1 stored as (7,)", "shape mismatch for parameter 'M1'"),
])
def test_unreadable_checkpoint_exits_with_one_line_before_work(tmp_path, capsys, monkeypatch,
                                                               command, kind, reason):
    _no_pairs(monkeypatch)
    ckpt = _bad_checkpoint(tmp_path, kind)
    cfg_path = _write(tmp_path, {"affinity_source": "learned", "checkpoint": str(ckpt)})
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--n", "5", "--out-dir", str(out_dir)])
    message = str(exc.value)
    assert message.startswith(f"probmatch: {ckpt}: ") and reason in message
    assert "\n" not in message
    assert not out_dir.exists() and capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["gen", "--seed", "-30000"],
    ["gradcheck", "--seed", "-1"],
    ["train", "--seed", "-1"],
    ["bench", "--seed", "-1"],
    ["bench", "--seed", "-1", "--affinity-source", "learned", "--checkpoint", "x.ckpt"],
    ["compare", "--seed", "-20000"],
    ["solve", "--seed", "-1"],
])
def test_negative_seed_exits_with_one_line_before_work(tmp_path, capsys, monkeypatch, argv):
    _no_pairs(monkeypatch)
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n", "4", "--out-dir", str(out_dir)])
    assert str(exc.value) == "probmatch: seed must be at least 0"
    assert not out_dir.exists() and capsys.readouterr().out == ""


def test_gradcheck_builds_its_pair_from_the_config(tmp_path, capsys, monkeypatch):
    made = []

    def recording_synthesize_pair(*args, **kwargs):
        made.append((args, kwargs))
        return synthesize_pair(*args, **kwargs)

    monkeypatch.setattr(bench, "synthesize_pair", recording_synthesize_pair)
    monkeypatch.setattr(cli, "grad_check", lambda *args, **kwargs: 0.0)
    cfg_path = _write(tmp_path, {"translation_max": 0.2})
    for argv in (["--n", "8"], ["--n", "4", "--rotation-max", "1.0", "--config", str(cfg_path)]):
        assert main(["gradcheck", "--noise", "0.02", "--seed", "5"] + argv) == 0
    assert made == [((3, 0.02), dict(rotation_max=0.0, seed=5, translation_max=0.05)),
                    ((4, 0.02), dict(rotation_max=1.0, seed=5, translation_max=0.2))]


def test_gen_files_follow_the_test_split(tmp_path, capsys):
    assert main(["gen", "--n", "5", "--noise", "0.01", "0.04", "--instances", "2",
                 "--out-dir", str(tmp_path)]) == 0
    cfg = bench.ExperimentConfig(n=5, noise_levels=(0.01, 0.04), instances=2)
    assert sorted(f.name for f in tmp_path.glob("pair_*.json")) == [
        f"pair_{index:04d}.json" for index, _, _ in bench.test_split(cfg)]
