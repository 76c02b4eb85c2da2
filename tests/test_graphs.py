import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    builder_graph_pairs,
    reference_edge_attrs,
    reference_edge_pairs,
    reference_geometric_features,
)

import probmatch.graphs as graphs
from probmatch.graphs import (
    _LOG_DIST_RANGE,
    FEATURE_DIM,
    AttributedGraph,
    _histogram_counts,
    build_aa_graph,
    delaunay_adjacency,
    edge_pairs,
    geometric_features,
    graph_from_points,
    load_pair,
    save_pair,
    synthesize_pair,
)
from probmatch.linalg import Incidence, stable_csr


def _complete_graph(points):
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    adj = ~np.eye(n, dtype=bool)
    return AttributedGraph(points, np.zeros((n, FEATURE_DIM)), adj)


def _edgeless_graph(points):
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    return AttributedGraph(points, np.zeros((n, FEATURE_DIM)),
                           np.zeros((n, n), dtype=bool))


# ---------------------------------------------------------------------------
# geometric_features

# (1.07, 2.29) has edges that need both of np.histogram's one-bin corrections
@pytest.mark.parametrize("lo, hi", [_LOG_DIST_RANGE, (-np.pi, np.pi), (1.07, 2.29)])
def test_histogram_counts_follow_numpy_histogram_at_bin_edges(lo, hi):
    rng = np.random.default_rng(0)
    edges = np.linspace(lo, hi, 5)
    values = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                             rng.uniform(lo - 0.1, hi + 0.1, size=200)])
    owner = rng.integers(0, 3, size=values.size)
    counts = _histogram_counts(values, owner, 3, lo, hi, 4)
    for k in range(3):
        assert np.array_equal(counts[k], np.histogram(values[owner == k], bins=4,
                                                      range=(lo, hi))[0])


def test_geometric_features_are_bitwise_the_per_node_loop():
    for n in range(3, 201):
        points = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 2))
        adj, _ = delaunay_adjacency(points)
        assert np.array_equal(geometric_features(points, adj),
                              reference_geometric_features(points, adj)), n


@pytest.mark.parametrize("n", [3, 5, 9, 10, 17, 40, 129])
def test_geometric_features_on_collinear_points_are_bitwise_the_per_node_loop(n):
    # the complete-graph fallback: every node has degree n - 1, 8 and more
    # from n = 9, where numpy's mean switches to its unrolled pairwise sum
    t = np.sort(np.random.default_rng(n).uniform(0.0, 1.0, size=n))
    points = np.stack([t, 0.3 * t + 0.2], axis=1)
    adj, fallback = delaunay_adjacency(points)
    assert fallback
    assert np.array_equal(geometric_features(points, adj),
                          reference_geometric_features(points, adj))


def test_geometric_features_on_arbitrary_graphs_are_bitwise_the_per_node_loop():
    # isolated nodes, coincident points and mixed degrees up to n - 1
    rng = np.random.default_rng(7)
    for n in (1, 2, 6, 30, 80):
        points = rng.uniform(0.0, 1.0, size=(n, 2))
        points[n // 2] = points[0]
        adj = np.triu(rng.uniform(size=(n, n)) < rng.uniform(0.0, 1.0), 1)
        adj |= adj.T
        adj[-1] = adj[:, -1] = False
        feats = geometric_features(points, adj)
        assert np.array_equal(feats, reference_geometric_features(points, adj))
        assert not feats[-1].any()


# ---------------------------------------------------------------------------
# delaunay_adjacency

def test_delaunay_triangle_complete():
    adj, fallback = delaunay_adjacency([[0, 0], [1, 0], [0, 1]])
    assert not fallback
    assert np.array_equal(adj, ~np.eye(3, dtype=bool))


def test_delaunay_unit_square_five_edges():
    adj, fallback = delaunay_adjacency([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert not fallback
    assert np.triu(adj).sum() == 5   # 4 hull edges + exactly one diagonal


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 40))
def test_delaunay_adjacency_matches_simplex_loop_oracle(seed, n):
    from scipy.spatial import Delaunay
    points = np.random.default_rng(seed).uniform(size=(n, 2))
    expected = np.zeros((n, n), dtype=bool)
    for simplex in Delaunay(points).simplices:
        for a in range(3):
            for b in range(a + 1, 3):
                expected[simplex[a], simplex[b]] = True
                expected[simplex[b], simplex[a]] = True
    adj, fallback = delaunay_adjacency(points)
    assert not fallback
    assert np.array_equal(adj, expected)


def test_delaunay_collinear_fallback():
    adj, fallback = delaunay_adjacency([[0, 0], [0.5, 0.5], [1, 1]])
    assert fallback
    assert np.array_equal(adj, ~np.eye(3, dtype=bool))


def test_delaunay_connected():
    rng = np.random.default_rng(2)
    points = rng.uniform(0, 1, size=(12, 2))
    adj, _ = delaunay_adjacency(points)
    # breadth-first reachability from node 0
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.nonzero(adj[i])[0]:
                if j not in seen:
                    seen.add(int(j))
                    nxt.append(int(j))
        frontier = nxt
    assert len(seen) == 12


# ---------------------------------------------------------------------------
# synthesize_pair

def test_synthesize_zero_noise_points_match_under_ground_truth():
    pair = synthesize_pair(6, 0.0, seed=4, translation_max=0.0)
    assert np.allclose(pair.g2.points[pair.ground_truth], pair.g1.points)


def test_synthesize_deterministic():
    a = synthesize_pair(7, 0.02, rotation_max=0.3, seed=9)
    b = synthesize_pair(7, 0.02, rotation_max=0.3, seed=9)
    assert np.array_equal(a.g1.points, b.g1.points)
    assert np.array_equal(a.g2.points, b.g2.points)
    assert np.array_equal(a.g1.features, b.g1.features)
    assert np.array_equal(a.ground_truth, b.ground_truth)


def test_synthesize_ground_truth_valid_permutation():
    pair = synthesize_pair(10, 0.02, seed=1)
    assert sorted(pair.ground_truth.tolist()) == list(range(10))


def test_synthesize_rejects_tiny_and_outliers():
    with pytest.raises(ValueError):
        synthesize_pair(2, 0.0)


def test_zero_noise_nearest_neighbor_recovers_ground_truth():
    # recover the rigid transform by Procrustes on the correspondence, then
    # check nearest-neighbor matching of the transformed points is exact
    pair = synthesize_pair(9, 0.0, rotation_max=0.5, seed=12)
    p1 = pair.g1.points
    p2 = pair.g2.points[pair.ground_truth]
    c1, c2 = p1.mean(axis=0), p2.mean(axis=0)
    u, _, vt = np.linalg.svd((p1 - c1).T @ (p2 - c2))
    rot = u @ vt
    moved = (p1 - c1) @ rot + c2
    assert np.abs(moved - p2).max() < 1e-9   # sigma = 0 means exact rigidity
    d = np.linalg.norm(moved[:, None] - pair.g2.points[None], axis=2)
    assert np.array_equal(np.argmin(d, axis=1), pair.ground_truth)


# ---------------------------------------------------------------------------
# build_aa_graph

def test_aa_graph_k3_vs_k3_counts():
    g = _complete_graph([[0, 0], [1, 0], [0, 1]])
    aa = build_aa_graph(g, g)
    assert aa.node_attrs.shape == (9, 2 * FEATURE_DIM)
    assert len(aa.edges) == 18   # 3 x 3 joint edge combinations x 2 pairings


def test_aa_graph_edgeless_has_no_edges():
    g1 = _edgeless_graph([[0, 0], [1, 0], [0, 1]])
    g2 = _complete_graph([[0, 0], [1, 0], [0, 1]])
    aa = build_aa_graph(g1, g2)
    assert len(aa.edges) == 0


def test_aa_graph_single_edge_hand_enumeration():
    adj = np.array([[0, 1], [1, 0]], dtype=bool)
    pts1 = np.array([[0.0, 0.0], [1.0, 0.0]])
    pts2 = np.array([[0.0, 1.0], [1.0, 1.0]])
    g1 = AttributedGraph(pts1, np.zeros((2, FEATURE_DIM)), adj)
    g2 = AttributedGraph(pts2, np.zeros((2, FEATURE_DIM)), adj)
    aa = build_aa_graph(g1, g2)
    # matches: (0,a)=0, (0,b)=1, (1,a)=2, (1,b)=3; expected AA-edges
    # {(0a,1b)} = (0,3) and {(0b,1a)} = (1,2)
    got = {tuple(e) for e in aa.edges.tolist()}
    assert got == {(0, 3), (1, 2)}
    attrs = {tuple(e): a for e, a in zip(aa.edges.tolist(), aa.edge_attrs)}
    assert np.allclose(attrs[(0, 3)], [0, 0, 1, 0, 0, 1, 1, 1])


def test_aa_graph_node_attrs_are_feature_concatenations():
    pair = synthesize_pair(4, 0.01, seed=3)
    aa = build_aa_graph(pair.g1, pair.g2)
    for i in range(4):
        for a in range(4):
            p = i * 4 + a
            expected = np.concatenate([pair.g1.features[i], pair.g2.features[a]])
            assert np.allclose(aa.node_attrs[p], expected)


def test_aa_graph_feature_dim_mismatch():
    g1 = _complete_graph([[0, 0], [1, 0], [0, 1]])
    g2 = AttributedGraph(g1.points, np.zeros((3, FEATURE_DIM + 1)), g1.adjacency)
    with pytest.raises(ValueError):
        build_aa_graph(g1, g2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 8))
def test_aa_graph_edges_match_double_loop_oracle(seed, n):
    pair = synthesize_pair(n, 0.03, seed=seed)
    aa = build_aa_graph(pair.g1, pair.g2)
    n2 = pair.g2.n
    expected = set()
    for i in range(n):
        for j in range(n):
            for a in range(n2):
                for b in range(n2):
                    if pair.g1.adjacency[i, j] and pair.g2.adjacency[a, b]:
                        p, q = i * n2 + a, j * n2 + b
                        if p < q:
                            expected.add((p, q))
    assert {tuple(e) for e in aa.edges.tolist()} == expected
    m1 = len(pair.g1.edge_list())
    m2 = len(pair.g2.edge_list())
    assert len(aa.edges) == 2 * m1 * m2


def _assert_bitwise(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert np.array_equal(got, want), what


def test_edge_pairs_are_bitwise_the_repeat_tile_oracle():
    for name, g1, g2 in builder_graph_pairs():
        i, j, a, b = reference_edge_pairs(g1.edge_list(), g2.edge_list())
        p, q = edge_pairs(g1.edge_list(), g2.edge_list(), g2.n)
        _assert_bitwise(p, (i * g2.n + a).astype(np.int32), name)
        _assert_bitwise(q, (j * g2.n + b).astype(np.int32), name)


def test_edge_pairs_widen_to_int64_from_2_to_the_31_matches():
    # (max i + 1) * n2 = 2 * n2 matches; no grid that large is formed
    e = np.array([[0, 1]])
    for n2, dtype in ((2**30 - 1, np.int32), (2**30, np.int64)):
        p, q = edge_pairs(e, e, n2)
        assert p.dtype == q.dtype == dtype
        assert p.tolist() == [0, 1] and q.tolist() == [n2 + 1, n2]


def test_aa_graph_is_bitwise_the_fancy_index_oracle():
    for name, g1, g2 in builder_graph_pairs():
        aa = build_aa_graph(g1, g2)
        i, j, a, b = reference_edge_pairs(g1.edge_list(), g2.edge_list())
        p, q = i * g2.n + a, j * g2.n + b
        _assert_bitwise(aa.edges, np.stack([np.minimum(p, q), np.maximum(p, q)],
                                           axis=1).astype(np.int32), name)
        _assert_bitwise(aa.edge_attrs, reference_edge_attrs(g1, g2), name)
        assert aa.edge_attrs.flags.c_contiguous, name


def test_aa_graph_keeps_the_incidences_of_a_fresh_sort():
    # the kept incidences against a fresh stable_csr of each index
    for name, g1, g2 in builder_graph_pairs():
        aa = build_aa_graph(g1, g2)
        N, m = g1.n * g2.n, len(aa.edges)
        src, dst = aa.incidences
        for inc, column in ((src, aa.edges[:, 0]), (dst, aa.edges[:, 1])):
            assert inc.size == N and np.array_equal(inc.index, column), name
            for a, b in zip(inc.csr, stable_csr(N, m, column, np.arange(m), np.ones(m))):
                _assert_bitwise(a, b, name)


def test_aa_graph_builds_its_incidences_once(monkeypatch):
    built = []

    def counted(index, size):
        built.append(size)
        return Incidence(index, size)

    monkeypatch.setattr(graphs, "Incidence", counted)
    pair = synthesize_pair(6, 0.03, seed=4)
    aa = build_aa_graph(pair.g1, pair.g2)
    kept = aa.incidences
    assert aa.incidences is kept and built == [36, 36]


# ---------------------------------------------------------------------------
# serialization

def test_pair_round_trip(tmp_path):
    pair = synthesize_pair(6, 0.02, rotation_max=0.2, seed=7)
    path = tmp_path / "pair.json"
    save_pair(pair, path)
    loaded = load_pair(path)
    assert np.allclose(loaded.g1.points, pair.g1.points)
    assert np.allclose(loaded.g2.features, pair.g2.features)
    assert np.array_equal(loaded.g1.adjacency, pair.g1.adjacency)
    assert np.array_equal(loaded.ground_truth, pair.ground_truth)
    assert loaded.meta == pair.meta


def test_pair_load_reads_files_with_the_retired_outliers_key(tmp_path):
    pair = synthesize_pair(5, 0.02, seed=4)
    assert "outliers" not in pair.meta
    path = tmp_path / "old.json"
    save_pair(pair, path)
    doc = json.loads(path.read_text())
    doc["meta"]["outliers"] = 0
    path.write_text(json.dumps(doc))
    loaded = load_pair(path)
    assert loaded.meta == dict(pair.meta, outliers=0)
    assert np.array_equal(loaded.g2.features, pair.g2.features)


def test_pair_load_rejects_unknown_version(tmp_path):
    pair = synthesize_pair(4, 0.0, seed=0)
    path = tmp_path / "pair.json"
    save_pair(pair, path)
    text = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
    path.write_text(text)
    with pytest.raises(ValueError):
        load_pair(path)


@pytest.mark.parametrize("edge", [[-1, 0], [0, 5], [5, 5]])
def test_pair_load_rejects_edges_outside_the_graph(tmp_path, edge):
    pair = synthesize_pair(5, 0.0, seed=0)
    path = tmp_path / "pair.json"
    save_pair(pair, path)
    doc = json.loads(path.read_text())
    doc["g2"]["edges"].append(edge)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"edge \[{edge[0]}, {edge[1]}\] .*\[0, 5\)"):
        load_pair(path)


def test_graph_needs_one_feature_row_per_point(tmp_path):
    points = [[0, 0], [1, 0], [0, 1]]
    with pytest.raises(ValueError, match="one row per point"):
        AttributedGraph(points, np.zeros((2, FEATURE_DIM)), np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError, match="one row per point"):
        AttributedGraph(points, np.zeros(3), np.zeros((3, 3), dtype=bool))
    pair = synthesize_pair(5, 0.0, seed=0)
    path = tmp_path / "pair.json"
    save_pair(pair, path)
    doc = json.loads(path.read_text())
    doc["g1"]["features"] = doc["g1"]["features"][:4]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"features \(4, \d+\) need one row per point \(5\)"):
        load_pair(path)


@pytest.mark.parametrize("points, shape", [
    (np.zeros((4, 3)), "(4, 3)"),
    (np.zeros(4), "(4,)"),
    ([[0, 0], [1, np.nan], [0, 1], [1, 1]], "(4, 2)"),
    ([[0, 0], [1, np.inf], [0, 1], [1, 1]], "(4, 2)"),
    (3.0, "()"),
])
def test_graph_needs_planar_finite_points(tmp_path, points, shape):
    message = re.escape(f"points {shape} must be finite, of shape (n, 2)")
    with pytest.raises(ValueError, match=message):
        AttributedGraph(points, np.zeros((4, FEATURE_DIM)), np.zeros((4, 4), dtype=bool))
    pair = synthesize_pair(4, 0.0, seed=0)
    path = tmp_path / "pair.json"
    save_pair(pair, path)
    doc = json.loads(path.read_text())
    doc["g2"]["points"] = np.asarray(points, dtype=float).tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_pair(path)
