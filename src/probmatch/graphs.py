"""Attributed graphs, synthetic benchmark pairs, and the association graph.

Synthetic instances are planar keypoint sets connected by Delaunay
triangulation, with per-node geometric descriptors standing in for image
features. The association graph ("AA-graph") has one node per candidate match
(i, a) and one edge per pair of candidate matches whose underlying graph edges
both exist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .linalg import Incidence, index_dtype

_N_DIST_BINS = 4
_N_ANGLE_BINS = 4
FEATURE_DIM = _N_DIST_BINS + _N_ANGLE_BINS
AA_EDGE_DIM = 8     # AA-edge attribute [p_i; p_j; p_a; p_b] of planar points
_LOG_DIST_RANGE = (np.log(5e-3), np.log(1.5))

PAIR_SCHEMA_VERSION = 1


def _planar_points(points) -> np.ndarray:
    """``points`` as a float array, checked to be finite and of shape (n, 2)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2 or not np.isfinite(points).all():
        raise ValueError(f"points {points.shape} must be finite, of shape (n, 2)")
    return points


@dataclass
class AttributedGraph:
    points: np.ndarray      # (n, 2) coordinates, unit-square scale
    features: np.ndarray    # (n, d_F) per-node descriptors
    adjacency: np.ndarray   # (n, n) symmetric bool, zero diagonal
    delaunay_fallback: bool = False

    def __post_init__(self):
        self.points = _planar_points(self.points)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.adjacency = np.asarray(self.adjacency, dtype=bool)
        n = self.n
        if self.features.ndim != 2 or len(self.features) != n:
            raise ValueError(f"features {self.features.shape} need one row per point ({n})")
        if self.adjacency.shape != (n, n):
            raise ValueError("adjacency shape mismatch")
        if np.any(self.adjacency != self.adjacency.T) or np.any(np.diag(self.adjacency)):
            raise ValueError("adjacency must be symmetric with zero diagonal")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def edge_list(self) -> np.ndarray:
        """Undirected edges as an (m, 2) array with i < j."""
        i, j = np.nonzero(np.triu(self.adjacency, 1))
        return np.stack([i, j], axis=1)


@dataclass
class GraphPair:
    g1: AttributedGraph
    g2: AttributedGraph
    ground_truth: np.ndarray    # ground_truth[i] = matched node of g2
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ground_truth = np.asarray(self.ground_truth, dtype=np.int64)
        if sorted(self.ground_truth.tolist()) != list(range(self.g2.n)):
            raise ValueError("ground_truth is not a valid permutation")


@dataclass
class AAGraph:
    """Association graph over candidate matches.

    ``edges`` lists undirected AA-edges as (p, q) with p < q, where the flat
    match index is p = i * n2 + a. An AA-edge exists iff both underlying graph
    edges exist.

    The incidences of the edges' ends (``incidences``), which every predictor
    forward and backward reads, are built on first use and kept; ``edges``
    must not change after that. The learned operator over the edges is built
    by ``SparseAffinity.symmetric`` and sorts its own CSR view.
    """

    n1: int
    n2: int
    node_attrs: np.ndarray   # (n1*n2, 2 * FEATURE_DIM)
    edges: np.ndarray        # (m, 2) flat match indices, ``linalg.index_dtype`` wide
    edge_attrs: np.ndarray   # (m, AA_EDGE_DIM) coordinate concatenations

    @cached_property
    def incidences(self) -> tuple:
        """``(src, dst)``: the ``linalg.Incidence`` of the edges' first and
        second ends into the n1 * n2 matches, sharing one all-ones data array."""
        src = Incidence(self.edges[:, 0], self.n1 * self.n2)
        return src, Incidence(self.edges[:, 1], self.n1 * self.n2, shares=src)


def delaunay_adjacency(points: np.ndarray) -> tuple[np.ndarray, bool]:
    """Adjacency of the Delaunay triangulation of 2-D points.

    Degenerate inputs (< 3 points or all collinear) fall back to the complete
    graph; the second return value flags when that happened.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    adj = np.zeros((n, n), dtype=bool)
    if n < 3:
        fallback = True
    else:
        try:
            s = Delaunay(points).simplices
            adj[s[:, [0, 0, 1]], s[:, [1, 2, 2]]] = True
            adj |= adj.T
            fallback = False
        except QhullError:
            fallback = True
    if fallback:
        adj = ~np.eye(n, dtype=bool)
    return adj, fallback


def _histogram_counts(values: np.ndarray, owner: np.ndarray, n: int,
                      lo: float, hi: float, bins: int) -> np.ndarray:
    """(n, bins) counts of ``values`` per owner in ``bins`` uniform bins on
    [lo, hi], by ``np.histogram``'s rule: bin k holds the values in
    [edges[k], edges[k + 1]), and the last bin holds hi too; values outside
    are dropped."""
    keep = (values >= lo) & (values <= hi)
    values, owner = values[keep], owner[keep]
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.minimum(np.searchsorted(edges, values, side="right") - 1, bins - 1)
    return np.bincount(owner * bins + idx, minlength=n * bins).reshape(n, bins)


def geometric_features(points: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Shape-context style descriptor per node, dimension 8.

    Histograms of log-distances and of relative angles to the node's graph
    neighbors; angles are taken relative to the mean neighbor direction, which
    makes the descriptor invariant to global rotation.

    One pass over all (node, neighbor) entries gives the values that
    ``np.histogram`` and ``mean`` give node by node: the bins follow
    ``np.histogram``'s index rule, and the mean directions are taken over
    (nodes, degree) blocks of equal-degree nodes, so each node's sum is
    numpy's pairwise sum over its neighbors in ascending order.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    src, dst = np.nonzero(adjacency)     # by node, neighbors ascending
    deg = np.bincount(src, minlength=n)
    start = np.cumsum(deg) - deg
    lo, hi = _LOG_DIST_RANGE

    offsets = points[dst] - points[src]
    dists = np.maximum(np.linalg.norm(offsets, axis=1), 1e-9)
    logd = np.clip(np.log(dists), lo, hi - 1e-12)
    angles = np.arctan2(offsets[:, 1], offsets[:, 0])
    sines, cosines = np.sin(angles), np.cos(angles)
    sin_mean, cos_mean = np.zeros(n), np.zeros(n)
    for d in set(deg[deg > 0].tolist()):
        nodes = np.nonzero(deg == d)[0]
        block = start[nodes, None] + np.arange(d)
        sin_mean[nodes] = sines[block].mean(axis=1)
        cos_mean[nodes] = cosines[block].mean(axis=1)
    rel = np.mod(angles - np.arctan2(sin_mean, cos_mean)[src] + np.pi, 2 * np.pi) - np.pi

    counts = np.concatenate(
        [_histogram_counts(logd, src, n, lo, hi, _N_DIST_BINS),
         _histogram_counts(rel, src, n, -np.pi, np.pi, _N_ANGLE_BINS)], axis=1)
    return counts / np.maximum(deg, 1)[:, None]


def graph_from_points(points: np.ndarray) -> AttributedGraph:
    """Delaunay-connected attributed graph with geometric descriptors."""
    adj, fallback = delaunay_adjacency(points)
    feats = geometric_features(points, adj)
    return AttributedGraph(points, feats, adj, delaunay_fallback=fallback)


def synthesize_pair(n: int, noise_sigma: float, rotation_max: float = 0.0,
                    seed: int = 0, translation_max: float = 0.05) -> GraphPair:
    """Random matching instance: rigid motion of a point cloud plus noise.

    Graph 1 points are uniform in the unit square; graph 2 applies a random
    rotation bounded by ``rotation_max`` and a random translation bounded by
    ``translation_max``, adds Gaussian noise with standard deviation
    ``noise_sigma``, and shuffles node order. The shuffle is recorded as the
    ground truth. Fully deterministic given ``seed``.
    """
    if n < 3:
        raise ValueError("need at least 3 points")
    rng = np.random.default_rng(seed)
    p1 = rng.uniform(0.0, 1.0, size=(n, 2))
    theta = rng.uniform(-rotation_max, rotation_max) if rotation_max > 0 else 0.0
    shift = (rng.uniform(-translation_max, translation_max, size=2)
             if translation_max > 0 else np.zeros(2))
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    center = p1.mean(axis=0)
    p2 = (p1 - center) @ rot.T + center + shift
    if noise_sigma > 0:
        p2 = p2 + rng.normal(0.0, noise_sigma, size=p2.shape)
    gt = rng.permutation(n)
    p2_shuffled = np.empty_like(p2)
    p2_shuffled[gt] = p2        # g2 node gt[i] is the image of g1 node i
    g1 = graph_from_points(p1)
    g2 = graph_from_points(p2_shuffled)
    meta = {"n": n, "noise_sigma": noise_sigma, "rotation_max": rotation_max,
            "translation_max": translation_max, "seed": seed}
    return GraphPair(g1, g2, gt, meta)


def _oriented(e2: np.ndarray) -> np.ndarray:
    """Graph-2 edges as listed, then every one reversed: (2 m2, 2)."""
    return np.concatenate([e2, e2[:, ::-1]])


def edge_pairs(e1: np.ndarray, e2: np.ndarray, n2: int):
    """Flat match indices of every pair of a graph-1 and a graph-2 edge.

    Returns (p, q), flattened from the m1 x 2 m2 grid of each graph-1 edge
    (i, j) crossed with each graph-2 edge (a, b), first as listed, then
    reversed: p = i * n2 + a and q = j * n2 + b. This is the only place the
    package forms a flat match index from its node indices. The indices lie
    below (max i + 1) * n2 and have ``linalg.index_dtype``'s width for that
    size: the edge lists are cast before the grid is formed. When every
    graph-1 edge has i < j, as ``edge_list`` gives them, p < q.
    """
    index = index_dtype((int(e1.max(initial=-1)) + 1) * n2)
    e1, o2 = e1.astype(index), _oriented(e2).astype(index)
    p = (e1[:, :1] * n2 + o2[:, 0]).ravel()
    q = (e1[:, 1:] * n2 + o2[:, 1]).ravel()
    return p, q


def build_aa_graph(g1: AttributedGraph, g2: AttributedGraph) -> AAGraph:
    """Association graph of a pair of attributed graphs.

    Node attribute for match (i, a) is [f_i; f_a]; edge attribute for the
    AA-edge between (i, a) and (j, b) is [p_i; p_j; p_a; p_b]. Each pair of an
    undirected edge (i, j) in graph 1 and (a, b) in graph 2 contributes the two
    AA-edges ((i,a),(j,b)) and ((i,b),(j,a)), in ``edge_pairs``' order.
    """
    if g1.features.shape[1] != g2.features.shape[1]:
        raise ValueError("feature dimensions differ between graphs")
    n1, n2 = g1.n, g2.n
    node_attrs = np.concatenate(
        [np.repeat(g1.features, n2, axis=0), np.tile(g2.features, (n1, 1))], axis=1)

    e1, e2 = g1.edge_list(), g2.edge_list()
    p, q = edge_pairs(e1, e2, n2)
    edges = np.stack([p, q], axis=1)
    edge_attrs = np.empty((len(e1), 2 * len(e2), AA_EDGE_DIM))
    edge_attrs[..., :4] = g1.points[e1].reshape(-1, 1, 4)
    edge_attrs[..., 4:] = g2.points[_oriented(e2)].reshape(1, -1, 4)
    return AAGraph(n1, n2, node_attrs, edges, edge_attrs.reshape(-1, AA_EDGE_DIM))


def save_pair(pair: GraphPair, path) -> None:
    """Persist a GraphPair as a versioned JSON document."""
    def graph_doc(g: AttributedGraph) -> dict:
        return {
            "points": g.points.tolist(),
            "features": g.features.tolist(),
            "edges": g.edge_list().tolist(),
            "delaunay_fallback": g.delaunay_fallback,
        }

    doc = {
        "schema_version": PAIR_SCHEMA_VERSION,
        "g1": graph_doc(pair.g1),
        "g2": graph_doc(pair.g2),
        "ground_truth": pair.ground_truth.tolist(),
        "meta": pair.meta,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_pair(path) -> GraphPair:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") != PAIR_SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {doc.get('schema_version')}")

    def graph_from_doc(d: dict) -> AttributedGraph:
        points = _planar_points(d["points"])
        n = points.shape[0]
        adj = np.zeros((n, n), dtype=bool)
        for i, j in d["edges"]:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge [{i}, {j}] names a node outside [0, {n})")
            adj[i, j] = adj[j, i] = True
        return AttributedGraph(points, np.asarray(d["features"]), adj,
                               delaunay_fallback=d["delaunay_fallback"])

    return GraphPair(graph_from_doc(doc["g1"]), graph_from_doc(doc["g2"]),
                     np.asarray(doc["ground_truth"], dtype=np.int64), doc["meta"])
