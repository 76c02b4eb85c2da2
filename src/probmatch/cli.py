"""Command-line entry point.

Subcommands: gen, solve, bench, train, compare, gradcheck. Every subcommand
accepts --config pointing at a JSON file of option values; explicit flags
override values from the file. All runs are deterministic given the seed, so
repeating a command reproduces its output byte for byte.

This module only parses arguments, loads the config and prints; the rules of
an experiment live in ``probmatch.bench``. A bad value exits with one
``probmatch:`` line before any work.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (
    AFFINITY_SOURCES,
    SOLVERS,
    ConfigError,
    ExperimentConfig,
    compare_solvers,
    instance_operator,
    load_store,
    make_pair,
    run_experiment,
    test_split,
    train_and_eval,
)
from .graphs import build_aa_graph, save_pair
from .linalg import perm_matrix
from .predictor import ABLATIONS, PredictorConfig, grad_check, init_params
from .solvers import probabilistic_solve

# the nested configs: each field of ExperimentConfig built by a default factory
_SUB_FIELDS = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)
               if f.default_factory is not dataclasses.MISSING}
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file of option values")
    p.add_argument("--n", type=int)
    p.add_argument("--noise", type=float, nargs="+", dest="noise_levels")
    p.add_argument("--instances", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--rotation-max", type=float, dest="rotation_max")
    p.add_argument("--out-dir", dest="out_dir")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probmatch",
        description="Graph matching: probabilistic solver, classical baselines, "
                    "and a learned affinity predictor.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic keypoint pairs as JSON files")
    _add_common(p)

    p = sub.add_parser("solve", help="solve one instance and dump the trace as JSON")
    _add_common(p)
    p.add_argument("--trace-out", help="write trace JSON here instead of stdout")

    p = sub.add_parser("bench", help="run a benchmark experiment")
    _add_common(p)
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--affinity-source", dest="affinity_source", choices=AFFINITY_SOURCES)
    p.add_argument("--ablation", choices=ABLATIONS)
    p.add_argument("--checkpoint")
    p.add_argument("--workers", type=int,
                   help="most processes to solve in (default: 1, or 2 for a handcrafted "
                        "run of at least 100,000 assignment entries on Linux)")

    p = sub.add_parser("train", help="train the predictor and evaluate it")
    _add_common(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--train-instances", type=int, dest="train_instances")
    p.add_argument("--target-accuracy", type=float, dest="target_accuracy")

    p = sub.add_parser("compare", help="accuracy table over all solvers")
    _add_common(p)
    p.add_argument("--affinity-source", dest="affinity_source", choices=AFFINITY_SOURCES)
    p.add_argument("--checkpoint")

    p = sub.add_parser("gradcheck", help="verify solver gradients against "
                                         "finite differences")
    _add_common(p)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--d", type=int, default=4, help="latent width")
    p.add_argument("--T", type=int, default=2, help="predictor iterations")

    return parser


def _check_types(cls, values: dict, prefix: str = ""):
    """Exit with one line naming the first value of the wrong JSON type for
    its field of ``cls``; nested configs are checked field by field."""
    for f in dataclasses.fields(cls):
        if f.name not in values:
            continue
        key, val = prefix + f.name, values[f.name]
        kind = f.type.removesuffix(" | None")
        if f.name in _SUB_FIELDS:
            ok, want = isinstance(val, dict), "a JSON object"
        elif kind == "tuple":
            ok, want = isinstance(val, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in val
            ), "a list of numbers"
        else:
            ok = ((val is None and kind != f.type)
                  or (isinstance(val, _JSON_TYPES[kind]) and not isinstance(val, bool)))
            want = kind + (" or null" if kind != f.type else "")
        if not ok:
            raise SystemExit(f"probmatch: {key}: expected {want}, got {json.dumps(val)}")
        if f.name in _SUB_FIELDS:
            _check_types(_SUB_FIELDS[f.name], val, key + ".")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"probmatch: {args.config}: {exc}")
        if not isinstance(loaded, dict):
            raise SystemExit(f"probmatch: {args.config}: expected a JSON object")
        values.update(loaded)
    field_names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key, val in vars(args).items():
        if key in field_names and val is not None:
            values[key] = val
    _check_types(ExperimentConfig, values)
    unknown = set(values) - field_names
    for name, cls in _SUB_FIELDS.items():
        known = {f.name for f in dataclasses.fields(cls)}
        unknown |= {f"{name}.{key}" for key in values.get(name, {}) if key not in known}
    if unknown:
        raise SystemExit(f"probmatch: unknown config keys: {sorted(unknown)}")
    sub = {}
    for name, cls in _SUB_FIELDS.items():
        try:
            sub[name] = cls(**values.pop(name, {}))
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"probmatch: {name}: {exc}")
    return ExperimentConfig(**values, **sub)


def _cmd_gen(cfg: ExperimentConfig, args) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    split = test_split(cfg)
    for index, noise, seed in split:
        save_pair(make_pair(cfg, noise, seed), out / f"pair_{index:04d}.json")
    print(f"wrote {len(split)} pairs to {out}")
    return 0


def _cmd_solve(cfg: ExperimentConfig, args) -> int:
    if (cfg.solver, cfg.ablation) != ("dpgm", "full"):
        raise ConfigError("solve traces the dpgm solver with the full ablation only")
    store = load_store(cfg)
    _, noise, seed = test_split(cfg)[0]
    K, X0 = instance_operator(cfg, make_pair(cfg, noise, seed), store)
    _, trace = probabilistic_solve(K, X0, cfg.solver_cfg)
    text = trace.to_json()
    if args.trace_out:
        Path(args.trace_out).write_text(text + "\n")
        print(f"trace written to {args.trace_out}")
    else:
        print(text)
    return 0


def _cmd_bench(cfg: ExperimentConfig, args) -> int:
    report = run_experiment(cfg)
    report.write(cfg.out_dir)
    agg = report.aggregates["overall"]
    print(report.rows_csv(), end="")
    print(f"# overall accuracy {agg['accuracy_mean']:.4f} "
          f"over {agg['count']} instances", file=sys.stderr)
    return 0


def _cmd_train(cfg: ExperimentConfig, args) -> int:
    report, ckpt, metrics = train_and_eval(cfg)
    report.write(cfg.out_dir, stem="eval")
    print(report.rows_csv(), end="")
    print(f"# checkpoint {ckpt}; test accuracy "
          f"{report.aggregates['overall']['accuracy_mean']:.4f} "
          f"after {len(metrics)} epochs", file=sys.stderr)
    return 0


def _cmd_compare(cfg: ExperimentConfig, args) -> int:
    print(compare_solvers(cfg), end="")
    return 0


def _cmd_gradcheck(cfg: ExperimentConfig, args) -> int:
    if not 0 < args.step < float("inf"):
        raise ConfigError("--step: step must be finite and positive")
    try:
        pcfg = PredictorConfig(d_V=args.d, d_E=args.d, T=args.T)
    except ValueError as exc:
        raise ConfigError(f"--d/--T: {exc}")
    scfg = dataclasses.replace(cfg.solver_cfg, max_iters=3)
    pair = make_pair(dataclasses.replace(cfg, n=cfg.n if cfg.n <= 4 else 3),
                     cfg.noise_levels[0], cfg.seed)
    aa = build_aa_graph(pair.g1, pair.g2)
    gt_vec = perm_matrix(pair.ground_truth).ravel()
    store = init_params(pcfg, seed=cfg.seed)
    err = grad_check(aa, gt_vec, store, pcfg, scfg, cfg.loss_cfg, step=args.step)
    print(f"max relative gradient error: {err:.3e}")
    return 0 if err < 1e-4 else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "bench": _cmd_bench,
    "train": _cmd_train,
    "compare": _cmd_compare,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_load_config(args), args)
    except ConfigError as exc:
        raise SystemExit(f"probmatch: {exc}")


if __name__ == "__main__":
    sys.exit(main())
