"""Benchmark entry point: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload dpgm-n100 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. Each sample is a new ``workload.py`` process
with BLAS held at one thread, so ``setup_s`` includes the interpreter start
and ``import probmatch``, and ``peak_rss_mb`` is that workload's own. With
``--trace 0`` the set-up is repeated in extra processes that stop after
set-up, and the median of all set-up times is reported. Times and rates are
scaled to the reference host speed by the slowdown that
``workload.reference_loop`` measures next to each of them. With
``--trace 1`` the workload process alternates untraced and traced rounds,
and reports the per-layer figures and the tracing overhead; no end-to-end
figure comes from a traced run.

Prints the figures as measured before scaling and a host line, then as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Exits non-zero without that line if a workload
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("dpgm-n100", "learned-compare-n8", "train-n8")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class WorkloadFailed(Exception):
    pass


def spawn(args, deadline: float) -> dict:
    """Run one workload process; return its result with ``setup_s`` added."""
    env = dict(os.environ, **SINGLE_THREAD)
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                              env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkloadFailed("workload process did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadFailed(f"workload process exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    # CLOCK_MONOTONIC is shared by all processes on the host.
    out["setup_s"] = out["setup_end"] - start
    return out


def scaled_median(samples) -> float:
    """Median of measured values, each multiplied by its scale."""
    return statistics.median(value * scale for value, scale in samples)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads(SPEC.read_text())

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(spawn(base + ["--seconds", "0", "--setup-only"], deadline))
        out = spawn(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    deadline)
    except WorkloadFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(out)

    if args.trace:
        values, section = out["layers"], "per_layer"
        if out["missing"]:
            print("not measured, the figures they feed read 0 (absent from the "
                  f"program, or a hook raised): {out['missing']}", file=sys.stderr)
        print(f"spans written to {out['spans_file']}")
    else:
        # Back at reference speed a time is shorter by the host's slowdown
        # and a rate higher by it.
        setup = [(s["setup_s"], 1.0 / s["setup_slowdown"]) for s in setups]
        rates = [(out["ops_per_round"] / t, slowdown) for t, slowdown in out["rounds"]]
        values, section = {
            "setup_s": scaled_median(setup),
            "instances_per_s": scaled_median(rates),
            "match_accuracy": out["match_accuracy"],
            "peak_rss_mb": out["peak_rss_mb"],
        }, "end_to_end"
        print("as measured, before scaling to the reference speed: "
              f"setup_s {statistics.median(s for s, _ in setup):.4f}, "
              f"instances_per_s {statistics.median(r for r, _ in rates):.4f}; "
              f"median host slowdown {statistics.median(f for _, f in out['rounds']):.3f}")
    for failure in out["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print("host: " + json.dumps(out["host"], sort_keys=True))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    print(json.dumps({"correct": not out["failures"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
