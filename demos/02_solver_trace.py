"""The probabilistic solver on one synthetic instance, step by step.

Each iteration propagates assignment probabilities through the affinity
operator, projects back toward the doubly stochastic set, and refines the
affinities by the probability ratio between consecutive iterates. The
refinement is a row-scale vector over a fixed K, and the trace's objective
x . K x is taken against that original K. The trace shows the binary score
climbing toward 1 and the objective improving until the early stop fires.
"""

import numpy as np

from probmatch import (
    accuracy,
    assemble_affinity,
    discretize,
    probabilistic_solve,
    synthesize_pair,
)

pair = synthesize_pair(n=10, noise_sigma=0.02, seed=42)
K = assemble_affinity(pair.g1, pair.g2)
print(f"instance: n = 10, sigma = 0.02, affinity with "
      f"{len(K.vals) // 2} undirected support entries\n")

X, trace = probabilistic_solve(K, np.full((10, 10), 0.1))

print(" iter   binary score    objective")
for t, (s, f) in enumerate(zip(trace.binary_scores, trace.objectives)):
    print(f"  {t:3d}      {s:.4f}       {f:9.3f}")
print(f"\nstopped: {trace.stop_reason} "
      f"(last squared change {trace.last_delta_sq:.1e})")

pred = discretize(X)
print(f"accuracy after Hungarian discretization: "
      f"{accuracy(pred, pair.ground_truth):.2f}")
