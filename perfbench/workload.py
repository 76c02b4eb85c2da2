"""One benchmark workload in one process: set up, run timed rounds, check.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this script in a fresh process for every sample, with BLAS
held at one thread. It imports ``probmatch`` from ``src/`` of the checkout it
sits in, and refuses to run on any other copy. A round is a fixed set of
operations made from the seed, so every round of a run does the same work;
rounds repeat until the next one would end more than half a round past
``--seconds``. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHECKPOINT = HERE / "predictor.ckpt"
OUT_DIR = HERE / "out"

# Median time of ``reference_loop`` on the host recorded in README.md.
REFERENCE_LOOP_S = 0.042

# Instance seeds, as the runner derives them: test instance k at noise level
# li has seed ``seed + 20_000 + k + 1_000_000 * li``; training pair k has
# seed ``seed + 10_000 + k``.
TEST_SEED_BASE = 20_000
TRAIN_SEED_BASE = 10_000
NOISE_SEED_STRIDE = 1_000_000


def import_probmatch():
    """Import probmatch from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import probmatch
    except ImportError as exc:
        raise SystemExit(f"cannot import probmatch from {SRC}: {exc}")
    where = Path(probmatch.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"probmatch was imported from {where}, not from {SRC}")
    # The tracer wraps what is loaded; the package itself leaves these out.
    from probmatch import autodiff, bench, predictor  # noqa: F401


def reference_loop() -> float:
    """Seconds a fixed loop of the workloads' kinds of work takes now.

    The loop does interpreter work, small numpy calls and a 300k-entry
    gather and bincount, which is what the workloads spend their time on.
    This host's effective CPU speed drifts by up to 25% over tens of
    seconds. Divided by ``REFERENCE_LOOP_S`` it gives the host's slowdown,
    taken next to every measurement, which scales a measured time or rate
    back to the reference speed.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.random(128)
    idx = rng.integers(0, 40_000, 300_000)
    w = rng.random(300_000)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(3000):
        acc += float(np.dot(x[:64], x[64:]))
    counts = {}
    for i in range(60_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    for _ in range(20):
        np.bincount(idx, weights=w[idx], minlength=40_000)
    return time.perf_counter() - t0


class DpgmN100:
    """Handcrafted affinity and the dpgm solver through the runner."""

    accuracy_floor = 0.95   # 0.963 to 0.977 over twenty seeds

    def __init__(self, seed: int, n: int = 100, noise_levels=(0.005, 0.01),
                 instances: int = 10):
        self.seed, self.n, self.noise_levels = seed, n, tuple(noise_levels)
        self.instances = instances
        self.ops_per_round = self.instances_per_round = len(noise_levels) * instances

    def setup(self):
        from probmatch import bench
        self.cfg = bench.ExperimentConfig(
            n=self.n, noise_levels=self.noise_levels, instances=self.instances,
            seed=self.seed, solver="dpgm", affinity_source="handcrafted")

    def run_round(self):
        from probmatch import bench
        return bench.run_experiment(self.cfg).rows

    def digest(self, rows):
        return _rows_digest(rows)

    def accuracy(self, rows) -> float:
        return statistics.fmean(r["accuracy"] for r in rows)

    def check(self, rows, accuracy: float) -> list:
        import numpy as np
        from probmatch import affinity, graphs, solvers
        from checks import (check_accuracy_floor, check_objective,
                            check_permutation, check_rows)
        failures = check_rows(rows, self.n, self.cfg.solver_cfg.max_iters, True)
        failures += check_accuracy_floor("dpgm-n100", accuracy, self.accuracy_floor)
        # Re-solve the first instance of each noise level outside the timed
        # loop and recompute its objective with scipy.sparse.
        for li, noise in enumerate(self.noise_levels):
            row = rows[li * self.instances]
            pair = graphs.synthesize_pair(
                self.n, noise, rotation_max=self.cfg.rotation_max,
                seed=self.seed + TEST_SEED_BASE + NOISE_SEED_STRIDE * li,
                translation_max=self.cfg.translation_max)
            K = affinity.assemble_affinity(pair.g1, pair.g2, self.cfg.affinity_cfg)
            uniform = np.full((self.n, self.n), 1.0 / self.n)
            X, _ = solvers.probabilistic_solve(K, uniform, self.cfg.solver_cfg)
            perm = solvers.discretize(X)
            failures += check_permutation(perm, self.n)
            failures += check_objective(K, perm, row["objective"])
            if solvers.accuracy(perm, pair.ground_truth) != row["accuracy"]:
                failures.append(f"row {row['index']}: re-solved accuracy differs")
        return failures


class LearnedCompareN8:
    """The learned-source solver-comparison table: every solver on the
    predictor's operator, from the committed checkpoint."""

    instances, n, noise = 100, 8, 0.03
    solver_names = ("dpgm", "spectral", "ipfp", "rrwm")
    accuracy_floor = 0.90   # the acceptance suite's threshold for dpgm
    instances_per_round = instances
    ops_per_round = len(solver_names) * instances

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from probmatch import bench, predictor
        pcfg = predictor.PredictorConfig(d_V=32, d_E=32, T=5)
        self.cfg = bench.ExperimentConfig(
            n=self.n, noise_levels=(self.noise,), instances=self.instances,
            seed=self.seed, affinity_source="learned",
            checkpoint=str(CHECKPOINT), predictor_cfg=pcfg)
        self.store = predictor.init_params(pcfg, seed=self.seed)
        self.store.load(CHECKPOINT)

    def run_round(self):
        from probmatch import bench
        return {s: bench.run_experiment(replace(self.cfg, solver=s)).rows
                for s in self.solver_names}

    def digest(self, tables):
        return {s: _rows_digest(rows) for s, rows in tables.items()}

    def accuracy(self, tables) -> float:
        return statistics.fmean(r["accuracy"] for rows in tables.values()
                                for r in rows)

    def check(self, tables, accuracy: float) -> list:
        from probmatch import graphs, predictor, solvers
        from checks import (check_accuracy_floor, check_permutation,
                            check_rows, check_soft_agree)
        failures = []
        for s, rows in tables.items():
            dpgm = s == "dpgm"
            failures += check_rows(rows, self.n,
                                   self.cfg.solver_cfg.max_iters if dpgm else None, dpgm)
        dpgm_rows = tables["dpgm"]
        failures += check_accuracy_floor(
            "learned dpgm", statistics.fmean(r["accuracy"] for r in dpgm_rows),
            self.accuracy_floor)
        # Numpy inference and the tape pipeline must agree on every instance,
        # and the tape's hard assignment must score as the runner's row did.
        pcfg, scfg = self.cfg.predictor_cfg, self.cfg.solver_cfg
        for k, row in enumerate(dpgm_rows):
            pair = graphs.synthesize_pair(
                self.n, self.noise, rotation_max=self.cfg.rotation_max,
                seed=self.seed + TEST_SEED_BASE + k,
                translation_max=self.cfg.translation_max)
            aa = graphs.build_aa_graph(pair.g1, pair.g2)
            K, X0 = predictor.learned_affinity(aa, self.store, pcfg)
            X, _ = solvers.probabilistic_solve(K, X0, scfg)
            x_tape = predictor.pipeline_forward(aa, self.store, pcfg, scfg).data
            failures += check_soft_agree(X, x_tape)
            perm = solvers.discretize(x_tape.reshape(self.n, self.n))
            failures += check_permutation(perm, self.n)
            if solvers.accuracy(perm, pair.ground_truth) != row["accuracy"]:
                failures.append(f"instance {k}: tape accuracy differs from the runner's")
        return failures


class TrainN8:
    """``predictor.train`` on fixed training pairs for a fixed number of epochs.

    The inputs do not depend on the seed: the pairs are the first ones of the
    runner's training split for seed 0, and training starts from the
    parameters and batch order of seed 0. After three epochs the held-out
    accuracy still swings between 0.50 and 0.74 from one training set to the
    next, which would drown any real change; with fixed inputs it is a
    single value. The cost of a step hardly depends on which n = 8 pairs are
    used.
    """

    seed, noise, eval_instances = 0, 0.03, 64
    accuracy_floor = 0.5    # 0.621 today; chance is 1/8

    def __init__(self, seed: int, pairs: int = 64, epochs: int = 3, n: int = 8):
        self.n_pairs, self.epochs, self.n = pairs, epochs, n
        self.ops_per_round = self.instances_per_round = pairs * epochs

    def setup(self):
        from probmatch import graphs, predictor, solvers
        self.pcfg = predictor.PredictorConfig(d_V=32, d_E=32, T=5)
        self.scfg = solvers.SolverConfig()
        self.lcfg = predictor.LossConfig(w=5.0)
        self.pairs = [graphs.synthesize_pair(self.n, self.noise,
                                             seed=self.seed + TRAIN_SEED_BASE + k)
                      for k in range(self.n_pairs)]

    def run_round(self):
        from probmatch import predictor
        store, metrics = predictor.train(
            self.pairs, self.pcfg, self.scfg, self.lcfg, epochs=self.epochs,
            lr=1e-3, batch_size=8, seed=self.seed)
        return [m["mean_loss"] for m in metrics], store

    def digest(self, result):
        return result[0]

    def accuracy(self, result) -> float:
        """Held-out accuracy of the trained model, through numpy inference."""
        from probmatch import graphs, predictor, solvers
        store = result[1]
        accs = []
        for k in range(self.eval_instances):
            pair = graphs.synthesize_pair(self.n, self.noise,
                                          seed=self.seed + TEST_SEED_BASE + k)
            aa = graphs.build_aa_graph(pair.g1, pair.g2)
            K, X0 = predictor.learned_affinity(aa, store, self.pcfg)
            X, _ = solvers.probabilistic_solve(K, X0, self.scfg)
            accs.append(solvers.accuracy(solvers.discretize(X), pair.ground_truth))
        return statistics.fmean(accs)

    def check(self, result, accuracy: float) -> list:
        import numpy as np
        from probmatch import graphs, linalg, predictor
        from checks import (check_accuracy_floor, check_directional_gradient,
                            check_training)
        losses, store = result
        failures = check_training(losses, store.get_vector())
        failures += check_accuracy_floor("train-n8 held-out", accuracy,
                                         self.accuracy_floor)
        # Gradient at the initial parameters along a random unit direction
        # against a central finite difference.
        pair = self.pairs[0]
        aa = graphs.build_aa_graph(pair.g1, pair.g2)
        gt = linalg.perm_matrix(pair.ground_truth).ravel()
        init = predictor.init_params(self.pcfg, seed=self.seed)

        def loss():
            return predictor.instance_loss(aa, gt, init, self.pcfg, self.scfg, self.lcfg)

        init.zero_grad()
        loss().backward()
        theta = init.get_vector()
        u = np.random.default_rng(self.seed).standard_normal(theta.size)
        u /= np.linalg.norm(u)
        step = 1e-5
        init.set_vector(theta + step * u)
        plus = float(loss().data)
        init.set_vector(theta - step * u)
        minus = float(loss().data)
        failures += check_directional_gradient(float(init.grad_vector() @ u),
                                               (plus - minus) / (2 * step))
        return failures


WORKLOADS = {
    "dpgm-n100": DpgmN100,
    "learned-compare-n8": LearnedCompareN8,
    "train-n8": TrainN8,
}


def _rows_digest(rows):
    """Runner rows without their wall times, which differ between rounds."""
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


class Rounds:
    """Runs and times rounds of one workload.

    A round fails if it raises, or if its result differs from that of the
    first round that did not raise, from the same inputs. The first such
    result is kept for the checks; later results are dropped once compared,
    so memory does not grow with the number of rounds.
    """

    def __init__(self, workload):
        self.workload, self.first = workload, None
        self.count = self.traced_rounds = self.raised = self.differing = 0
        self.errors = []

    @property
    def failed_ops(self) -> int:
        return (self.raised + self.differing) * self.workload.ops_per_round

    def run(self, tracer=None):
        """Seconds the round took, or None if it raised."""
        wl = self.workload
        self.count += 1
        if tracer is not None:
            tracer.op_base = self.traced_rounds * wl.instances_per_round
            self.traced_rounds += 1
            tracer.install()
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = wl.run_round()
            else:
                with tracer.span("perfbench.round"):
                    result = wl.run_round()
            seconds = time.perf_counter() - t0
        except Exception as exc:
            self.raised += 1
            if len(self.errors) < 3:
                self.errors.append(f"round {self.count}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.first is None:
            self.first = result
        elif wl.digest(result) != wl.digest(self.first):
            self.differing += 1
        return seconds


def timed_rounds(rounds: Rounds, seconds: float, tracer=None) -> list:
    """Whole rounds until the next would end more than half a round past
    ``seconds``.

    Without a tracer, the reference loop runs before the first round and
    after every round; the result is a list of (round seconds, host
    slowdown), the slowdown being the mean of the two loops around the round
    over ``REFERENCE_LOOP_S``. With a tracer, untraced and traced rounds
    alternate, so a drift in the host's speed does not pass for tracing
    overhead; the result is a list of (untraced, traced) round seconds.
    Rounds that raised are left out of the result.
    """
    times, taken = [], []
    start = time.perf_counter()
    loop = reference_loop() if tracer is None else None
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            seconds_taken = rounds.run()
            after = reference_loop()
            if seconds_taken is not None:
                times.append((seconds_taken, (loop + after) / 2 / REFERENCE_LOOP_S))
            loop = after
        else:
            pair = (rounds.run(), rounds.run(tracer))
            if None not in pair:
                times.append(pair)
        taken.append(time.perf_counter() - t0)
        if time.perf_counter() - start + 0.5 * statistics.median(taken) > seconds:
            return times


def _blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def host_record() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": _blas_threads()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    import_probmatch()
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_end = time.monotonic()
    out = {"setup_end": setup_end, "setup_slowdown": reference_loop() / REFERENCE_LOOP_S}
    if args.setup_only:
        print(json.dumps(out))
        return

    host = host_record()
    rounds = Rounds(workload)
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
    times = timed_rounds(rounds, (1 + args.trace) * args.seconds, tracer)
    for error in rounds.errors:
        print(error, file=sys.stderr)
    if not times:
        raise SystemExit(f"{args.workload}: no round ran without raising")
    if not args.trace:
        out["rounds"] = times
    else:
        layers = layer_metrics(tracer.spans, workload.instances_per_round
                               * rounds.traced_rounds, tracer.tensors)
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(t / u for u, t in times) - 1.0)
        out["layers"] = layers
        out["missing"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "host": host, "layers": layers})
        out["spans_file"] = str(spans_path.relative_to(HERE.parent))

    if rounds.differing:
        print(f"{rounds.differing} rounds gave other results than the first "
              "from the same inputs", file=sys.stderr)
    out["match_accuracy"] = workload.accuracy(rounds.first)
    out["failures"] = workload.check(rounds.first, out["match_accuracy"])
    out["attempted"] = rounds.count * workload.ops_per_round
    out["failed"] = rounds.failed_ops
    out["ops_per_round"] = workload.ops_per_round
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["host"] = host
    print(json.dumps(out))


if __name__ == "__main__":
    main()
