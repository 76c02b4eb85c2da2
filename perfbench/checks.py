"""Correctness checks on the program's outputs.

Each check returns a list of failure messages, empty when the output is
correct. The checks use computations made apart from the code under test or
properties the method must have, never stored copies of earlier output.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp


def check_rows(rows, n: int, max_iters: int | None, soft_is_doubly_stochastic: bool):
    """Per-row properties of runner output.

    ``max_iters`` given: ``iterations`` lies in 1..max_iters. Doubly
    stochastic soft assignments have a binary score in [1/sqrt(n), 1].
    Every objective is finite and positive (all affinities are positive).
    """
    failures = []
    lo = 1.0 / math.sqrt(n) - 1e-9
    for row in rows:
        tag = f"row {row['index']}"
        if max_iters is not None and not 1 <= row["iterations"] <= max_iters:
            failures.append(f"{tag}: iterations {row['iterations']} outside 1..{max_iters}")
        if soft_is_doubly_stochastic and not lo <= row["binary_score"] <= 1.0 + 1e-9:
            failures.append(f"{tag}: binary score {row['binary_score']} outside [1/sqrt(n), 1]")
        if not (math.isfinite(row["objective"]) and row["objective"] > 0.0):
            failures.append(f"{tag}: objective {row['objective']} is not finite and positive")
        if not 0.0 <= row["accuracy"] <= 1.0:
            failures.append(f"{tag}: accuracy {row['accuracy']} outside [0, 1]")
    return failures


def check_permutation(perm, n: int):
    perm = np.asarray(perm)
    if perm.shape != (n,) or sorted(perm.tolist()) != list(range(n)):
        return [f"assignment {perm.tolist()} is not a permutation of 0..{n - 1}"]
    return []


def check_objective(K, perm, reported: float, rtol: float = 1e-12):
    """``reported`` equals p^T K p, with K rebuilt as a scipy.sparse matrix
    from the operator's triplets and diagonal, so the product is made apart
    from ``linalg.spmv``."""
    size = K.n1 * K.n2
    M = (sp.coo_matrix((K.vals, (K.rows, K.cols)), shape=(size, size)).tocsr()
         + sp.diags(K.unary))
    p = np.zeros((K.n1, K.n2))
    p[np.arange(K.n1), np.asarray(perm)] = 1.0
    p = p.ravel()
    expected = float(p @ (M @ p))
    if not abs(reported - expected) <= rtol * max(abs(expected), 1e-300):
        return [f"objective {reported!r} differs from scipy p^T K p {expected!r}"]
    return []


def check_accuracy_floor(name: str, accuracy: float, floor: float):
    if not accuracy >= floor:
        return [f"{name} accuracy {accuracy:.4f} is below its floor {floor}"]
    return []


def check_soft_agree(numpy_X, tape_x, atol: float = 1e-8):
    """The numpy solver and the tape solver give the same soft assignment."""
    diff = float(np.max(np.abs(np.ravel(numpy_X) - np.ravel(tape_x))))
    if not diff <= atol:
        return [f"numpy and tape soft assignments differ by {diff:.3e} (limit {atol})"]
    return []


def check_directional_gradient(g_dot_u: float, fd: float, rtol: float = 1e-5):
    """Backward's derivative along a direction matches a central difference."""
    scale = max(abs(g_dot_u), abs(fd), 1e-12)
    if not abs(g_dot_u - fd) <= rtol * scale:
        return [f"gradient along direction {g_dot_u:.6e} differs from finite "
                f"difference {fd:.6e} (relative limit {rtol})"]
    return []


def check_training(losses, params):
    failures = []
    if not losses[-1] < losses[0]:
        failures.append(f"last epoch loss {losses[-1]:.4f} is not below the first {losses[0]:.4f}")
    if not np.all(np.isfinite(params)):
        failures.append("a parameter is not finite after training")
    return failures
