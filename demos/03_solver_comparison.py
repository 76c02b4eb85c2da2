"""Four solvers on the same handcrafted-affinity benchmark.

The probabilistic solver is compared against spectral matching, the integer
projected fixed point method, and reweighted random walks across increasing
coordinate noise. All solvers see identical affinity operators; accuracy is
the fraction of nodes matched to their ground-truth counterpart.
"""

import numpy as np

from probmatch import (
    accuracy,
    assemble_affinity,
    discretize,
    ipfp,
    probabilistic_solve,
    rrwm,
    spectral_match,
    synthesize_pair,
)

n = 8
instances = 30
noise_levels = (0.0, 0.02, 0.05, 0.1)

print(f"{instances} instances per noise level, n = {n}\n")
print("  noise     dpgm   spectral   ipfp    rrwm")
for noise in noise_levels:
    scores = {"dpgm": [], "spectral": [], "ipfp": [], "rrwm": []}
    for seed in range(instances):
        pair = synthesize_pair(n, noise, seed=seed)
        K = assemble_affinity(pair.g1, pair.g2)
        gt = pair.ground_truth
        uniform = np.full((n, n), 1.0 / n)

        X, _ = probabilistic_solve(K, uniform)
        scores["dpgm"].append(accuracy(discretize(X), gt))
        scores["spectral"].append(
            accuracy(discretize(spectral_match(K)[0].reshape(n, n)), gt))
        scores["ipfp"].append(
            accuracy(discretize(ipfp(K, uniform.ravel())[0].reshape(n, n)), gt))
        scores["rrwm"].append(
            accuracy(discretize(rrwm(K)[0].reshape(n, n)), gt))
    print(f"  {noise:5.2f}    "
          + "   ".join(f"{np.mean(scores[k]):.3f}"
                       for k in ("dpgm", "spectral", "ipfp", "rrwm")))
