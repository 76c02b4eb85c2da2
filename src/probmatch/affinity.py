"""Handcrafted affinity assembly and the quadratic matching objective."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import AttributedGraph, edge_pairs
from .linalg import SparseAffinity, spmv


@dataclass
class AffinityConfig:
    """Bandwidths of the geometric-consistency kernel.

    Defaults are chosen so that zero-noise self-matching instances are solved
    by every solver in the package.
    """

    sigma_len: float = 0.1
    sigma_ang: float = 0.5
    unary_weight: float = 0.5

    def __post_init__(self):
        if not (self.sigma_len > 0 and self.sigma_ang > 0):
            raise ValueError("kernel bandwidths must be positive")
        if not np.isfinite(self.unary_weight):
            raise ValueError("unary_weight must be finite")


def _edge_geometry(points: np.ndarray, edges: np.ndarray):
    d = points[edges[:, 1]] - points[edges[:, 0]]
    lengths = np.linalg.norm(d, axis=1)
    angles = np.mod(np.arctan2(d[:, 1], d[:, 0]), np.pi)
    return lengths, angles


def assemble_affinity(g1: AttributedGraph, g2: AttributedGraph,
                      cfg: AffinityConfig | None = None) -> SparseAffinity:
    """Affinity operator with Gaussian kernels on edge length and orientation.

    Diagonal: c_ia = unary_weight * exp(-||f_i - f_a||^2 / 2).
    Off-diagonal, on joint edges only:
    d = exp(-dlen^2 / sigma_len^2) * exp(-dang^2 / sigma_ang^2), where dlen is
    the absolute edge-length difference and dang the orientation difference
    mod pi. All values lie in [0, 1].
    """
    if g1.n == 0 or g2.n == 0:
        raise ValueError("graphs must be non-empty")
    cfg = cfg or AffinityConfig()
    n1, n2 = g1.n, g2.n

    diff = g1.features[:, None, :] - g2.features[None, :, :]
    unary = cfg.unary_weight * np.exp(-0.5 * (diff ** 2).sum(axis=2)).ravel()

    e1 = g1.edge_list()
    e2 = g2.edge_list()
    len1, ang1 = _edge_geometry(g1.points, e1)
    len2, ang2 = _edge_geometry(g2.points, e2)
    # The kernel depends on the edges only, not on their orientation: take it
    # once per (graph-1 edge, graph-2 edge) and repeat it for both
    # orientations, in edge_pairs' order.
    dlen = np.abs(len1[:, None] - len2[None, :])
    dang_raw = np.abs(ang1[:, None] - ang2[None, :])
    dang = np.minimum(dang_raw, np.pi - dang_raw)
    grid = np.exp(-(dlen / cfg.sigma_len) ** 2) * np.exp(-(dang / cfg.sigma_ang) ** 2)
    p, q = edge_pairs(e1, e2, n2)
    return SparseAffinity.symmetric(n1, n2, unary, p, q,
                                    np.concatenate([grid, grid], axis=1).ravel())


def objective(K: SparseAffinity, x: np.ndarray) -> float:
    """Quadratic matching objective x^T K x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (K.size,):
        raise ValueError("length mismatch between K and x")
    return float(np.dot(x, spmv(K, x)))
