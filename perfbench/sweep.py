"""Traced size sweep of handcrafted dpgm, for sizing gains at other n.

    python3 perfbench/sweep.py

For each n in ``SIZES`` it runs the runner on handcrafted dpgm (noise 0.01)
under the tracer and builds the association graph of the same pairs, then
prints one markdown row: mean ms per instance, over ``INSTANCES`` instances
of seed ``SEED``, for the whole solve, generation, affinity assembly and
AA-graph build, and the share of the solve spent in spmv.
Run it with BLAS held at one thread (``OPENBLAS_NUM_THREADS=1``), as the
benchmark does.
"""

from __future__ import annotations

import time

import workload
from tracer import Tracer

SIZES = (8, 50, 100, 200)
INSTANCES = 5
SEED = 0


def _inclusive_ms(spans, name, count):
    return sum(s[2] - s[1] for s in spans if s[0] == name) * 1e3 / count


def _inside(spans, span, name) -> bool:
    while span[3] >= 0:
        span = spans[span[3]]
        if span[0] == name:
            return True
    return False


def sweep_row(n: int, instances: int, seed: int) -> str:
    from probmatch import graphs
    wl = workload.DpgmN100(seed, n=n, noise_levels=(0.01,), instances=instances)
    wl.setup()
    tracer = Tracer()
    workload.Rounds(wl).run(tracer)
    spans = tracer.spans
    solve = _inclusive_ms(spans, "solvers.probabilistic_solve", instances)
    spmv_in_solve = sum(s[2] - s[1] for s in spans if s[0] == "linalg.spmv"
                        and _inside(spans, s, "solvers.probabilistic_solve"))
    pairs = [graphs.synthesize_pair(n, 0.01, seed=seed + workload.TEST_SEED_BASE + k)
             for k in range(instances)]
    t0 = time.perf_counter()
    for pair in pairs:
        graphs.build_aa_graph(pair.g1, pair.g2)
    aa_ms = (time.perf_counter() - t0) * 1e3 / instances
    return (f"| {n} | {solve:.1f} | {_inclusive_ms(spans, 'graphs.synthesize_pair', instances):.1f}"
            f" | {_inclusive_ms(spans, 'affinity.assemble_affinity', instances):.1f}"
            f" | {aa_ms:.1f} | {100 * spmv_in_solve * 1e3 / instances / solve:.0f}% |")


def main():
    workload.import_probmatch()
    print("| n | solve ms | generation ms | assemble ms | AA-graph build ms | spmv share of solve |")
    print("|---|---|---|---|---|---|")
    for n in SIZES:
        print(sweep_row(n, INSTANCES, SEED), flush=True)


if __name__ == "__main__":
    main()
