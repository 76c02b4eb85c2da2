import io
import json
import tracemalloc
import zipfile
from functools import reduce

import numpy as np
import pytest

from conftest import (reference_backward, reference_edge_update, reference_gather_backward,
                      reference_mlp, reference_node_update, reference_scatter_add, tape_gather,
                      tape_matmul, tape_scatter_add)

import probmatch.autodiff as ad
from probmatch.autodiff import ParamStore, Tensor
from probmatch.graphs import build_aa_graph, synthesize_pair
from probmatch.linalg import perm_matrix
from probmatch.predictor import (LossConfig, PredictorConfig, balanced_ce_loss, init_params,
                                  instance_loss, predictor_forward)
from probmatch.solvers import SolverConfig, solve_tape


def _fd_grad(f, x, step=1e-6):
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2 * step)
    return g


def _check_op(build, x, step=1e-6, atol=1e-5):
    """Compare backward gradients of sum(build(Tensor)) against FD."""
    t = Tensor(x.copy())
    loss = ad.tsum(build(t))
    loss.backward()
    fd = _fd_grad(lambda v: float(np.sum(build(Tensor(v.copy())).data)), x, step)
    assert np.allclose(t.grad, fd, atol=atol), (t.grad, fd)


def test_add_mul_broadcast_grads():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.uniform(0.5, 2.0, size=(4,))
    ta, tb = Tensor(a.copy()), Tensor(b.copy())
    loss = ad.tsum(ad.mul(ad.add(ta, tb), ta))
    loss.backward()
    fd_a = _fd_grad(lambda v: float(((v + b) * v).sum()), a)
    fd_b = _fd_grad(lambda v: float(((a + v) * a).sum()), b)
    assert np.allclose(ta.grad, fd_a, atol=1e-5)
    assert np.allclose(tb.grad, fd_b, atol=1e-5)


def test_matmul_grad():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    ta, tb = Tensor(a.copy()), Tensor(b.copy())
    loss = ad.tsum(tape_matmul(ta, tb))
    loss.backward()
    assert np.allclose(ta.grad, np.ones((3, 2)) @ b.T, atol=1e-12)
    assert np.allclose(tb.grad, a.T @ np.ones((3, 2)), atol=1e-12)


def test_elementwise_op_grads_vs_fd():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.2, 2.0, size=(3, 3))
    _check_op(ad.sigmoid, rng.normal(size=(3, 3)))
    _check_op(ad.log, x)


def test_sigmoid_is_stable_at_extremes():
    t = Tensor(np.array([-1e4, 0.0, 1e4]))
    out = ad.sigmoid(t)
    assert np.allclose(out.data, [0.0, 0.5, 1.0])
    assert np.all(np.isfinite(out.data))


def test_reshape_sum_grads():
    a = np.random.default_rng(3).normal(size=(2, 3))
    ta = Tensor(a.copy())
    loss = ad.tsum(ad.mul(ad.reshape(ta, (6,)), 2.0))
    loss.backward()
    assert np.allclose(ta.grad, 2.0)


# The gather and scatter nodes below are the fine chain's (conftest), which sum
# rows through ``linalg.Incidence`` as the update-layer nodes do.

def test_gather_scatter_grads():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    idx = np.array([0, 2, 2, 1])
    g = tape_gather(x, idx)
    assert np.array_equal(g.data, [1, 3, 3, 2])
    loss = ad.tsum(ad.mul(g, np.array([1.0, 10.0, 100.0, 1000.0])))
    loss.backward()
    assert np.array_equal(x.grad, [1.0, 1000.0, 110.0])

    y = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    s = tape_scatter_add(y, np.array([1, 0, 1, 2]), 3)
    assert np.array_equal(s.data, [2.0, 4.0, 4.0])
    loss = ad.tsum(ad.mul(s, np.array([1.0, 10.0, 100.0])))
    loss.backward()
    assert np.array_equal(y.grad, [10.0, 1.0, 10.0, 100.0])


# Row sums whose order shows in the last bits: many repeats, unsorted
# indices, mixed magnitudes, bins that receive nothing, an empty index.
_INDEX_CASES = {
    "repeated_unsorted": (np.array([4, 1, 4, 0, 1, 4, 4, 0, 1, 4] * 5), 6),
    "empty_bins": (np.array([5, 5, 2, 5, 2]), 9),
    "empty_index": (np.zeros(0, dtype=np.int64), 4),
    # a strided int32 column, as predictor_forward passes an AA graph's edges
    "int32_column": (np.array([[4, 0], [1, 5], [4, 2], [0, 1]] * 5, dtype=np.int32)[:, 0], 6),
}


def _rows(rng, m, tail):
    return rng.normal(size=(m,) + tail) * 10.0 ** rng.integers(-6, 7, size=(m,) + tail)


@pytest.mark.parametrize("tail", [(), (3,)], ids=["1d", "2d"])
@pytest.mark.parametrize("case", sorted(_INDEX_CASES))
def test_scatter_add_forward_is_bitwise_add_at(case, tail):
    index, size = _INDEX_CASES[case]
    values = _rows(np.random.default_rng(5), index.size, tail)
    out = tape_scatter_add(Tensor(values), index, size).data
    assert out.shape == (size,) + tail
    assert np.array_equal(out, reference_scatter_add(values, index, size))


@pytest.mark.parametrize("tail", [(), (3,)], ids=["1d", "2d"])
@pytest.mark.parametrize("case", sorted(_INDEX_CASES))
def test_gather_backward_accumulates_bitwise_as_add_at(case, tail):
    index, size = _INDEX_CASES[case]
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(size,) + tail))
    start = _rows(rng, size, tail)          # a non-zero grad to accumulate onto
    a.grad = start.copy()
    weights = _rows(rng, index.size, tail)
    ad.tsum(ad.mul(tape_gather(a, index), weights)).backward()
    assert np.array_equal(a.grad, reference_gather_backward(start, index, weights))


def test_gather_and_scatter_reject_indices_out_of_range():
    a = Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError, match="lie in"):
        tape_scatter_add(a, np.array([0, 3, 1]), 3)
    with pytest.raises(ValueError, match="lie in"):
        tape_scatter_add(a, np.array([0, -1, 1]), 3)
    with pytest.raises(ValueError, match="rows of shape"):
        tape_scatter_add(a, np.array([0, 1]), 3)
    loss = ad.tsum(tape_gather(a, np.array([0, -1])))
    with pytest.raises(ValueError, match="lie in"):
        loss.backward()


def test_gather_and_scatter_reject_a_non_integer_index():
    # numpy would truncate a float index to rows 0 and 2, and read a bool one as a mask
    a = Tensor(np.ones((3, 2)))
    for index in (np.array([0.7, 2.9]), [0.0, 1.0], np.array([True, False, True])):
        with pytest.raises(TypeError, match="integer"):
            tape_gather(a, index)
        with pytest.raises(TypeError, match="integer"):
            tape_scatter_add(a, index, 3)
        with pytest.raises(TypeError, match="integer"):
            ad.node_update(a, Tensor(np.ones((3, 1))), [], index, index, 1e-12)


# ---------------------------------------------------------------------------
# fused nodes against their fine chains

def _fused_and_fine(run):
    """``run(fused)`` twice on leaves of the same values, once with the fused
    nodes and once with their fine chains; each run returns its output and
    the leaves whose grads it checks."""
    fused, fine = run(True), run(False)
    assert np.array_equal(fused[0].data, fine[0].data)
    assert len(fused[1]) == len(fine[1])
    for a, b in zip(fused[1], fine[1]):
        assert np.array_equal(a.grad, b.grad)


@pytest.mark.parametrize("constant", [False, True], ids=["tensor-inputs", "array-input"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_mlp_node_is_bitwise_its_fine_chain(depth, constant):
    # x1 has two consumers besides the MLP, so its grad takes three
    # contributions, in the sweep's order; every leaf starts from a nonzero
    # grad, as a parameter does over a batch
    def run(fused):
        rng = np.random.default_rng(depth)
        x1, x2 = Tensor(rng.normal(size=(6, 3))), Tensor(rng.normal(size=(6, 2)))
        widths = [5, 4, 3, 2][:depth + 1]
        layers = [(Tensor(rng.normal(size=(din, dout))), Tensor(rng.normal(size=dout)))
                  for din, dout in zip(widths, widths[1:])]
        leaves = [x1, x2] + [t for layer in layers for t in layer]
        for t in leaves:
            t.grad = rng.normal(size=t.data.shape)
        inputs = [rng.normal(size=(6, 5))] if constant else [x1, x2]
        y = (ad.mlp if fused else reference_mlp)(inputs, layers)
        loss = ad.add(ad.add(ad.tsum(ad.mul(y, rng.normal(size=y.data.shape))),
                             ad.tsum(ad.mul(x1, rng.normal(size=(6, 3))))),
                      ad.tsum(ad.mul(x1, x1)))
        loss.backward()
        return y, leaves

    _fused_and_fine(run)


@pytest.mark.parametrize("m", [0, 1, 40], ids=["no-edges", "one-edge", "many-edges"])
@pytest.mark.parametrize("update", ["edge", "node"])
def test_update_node_is_bitwise_its_fine_chain(update, m):
    # m edges between 9 nodes, their ends repeated and unsorted; V and E have
    # a consumer besides the update, and every leaf starts from a nonzero
    # grad, as V and E do in a training tape's sweep
    def run(fused):
        rng = np.random.default_rng(m)
        n, d_V, d_E = 9, 4, 3
        V = Tensor(rng.normal(size=(n, d_V)) * 10.0 ** rng.integers(-2, 3, size=(n, d_V)))
        E = Tensor(rng.normal(size=(m, d_E)))
        src, dst = rng.integers(0, n, size=m), rng.integers(0, n, size=m)
        M1, M2 = Tensor(rng.normal(size=(d_V, d_V))), Tensor(rng.normal(size=(d_V, d_V)))
        widths = [d_E + d_V, 5, d_E if update == "edge" else d_V]
        layers = [(Tensor(rng.normal(size=(din, dout))), Tensor(rng.normal(size=dout)))
                  for din, dout in zip(widths, widths[1:])]
        leaves = [V, E, M1, M2] + [t for layer in layers for t in layer]
        for t in leaves:
            t.grad = rng.normal(size=t.data.shape)
        if update == "edge":
            node = ad.edge_update if fused else reference_edge_update
            y = node(E, V, M1, M2, layers, src, dst, 1e-12)
        else:
            node = ad.node_update if fused else reference_node_update
            y = node(E, V, layers, src, dst, 1e-12)
        loss = ad.add(ad.add(ad.tsum(ad.mul(y, rng.normal(size=y.data.shape))),
                             ad.tsum(ad.mul(V, rng.normal(size=(n, d_V))))),
                      ad.tsum(ad.mul(E, E)))
        loss.backward()
        return y, leaves

    _fused_and_fine(run)


# ---------------------------------------------------------------------------
# no_grad

def _every_op(t: Tensor, u: Tensor) -> list:
    """One result of each operation, on positive 2x2 inputs."""
    idx = np.array([1, 0, 1])
    w, b = Tensor(np.concatenate([t.data, u.data])), Tensor(u.data[0])
    layers = [(w, b), (u, b)]
    return [ad.add(t, u), ad.mul(t, u), ad.mlp([t, u], layers),
            ad.edge_update(ad.reshape(t, (2, 2)), u, t, u, layers, idx[:2], idx[1:], 1e-12),
            ad.node_update(u, t, layers, idx[:2], idx[1:], 1e-12), ad.sigmoid(t), ad.log(t),
            ad.reshape(t, (4,)), *ad.unstack(t), ad.tsum(t), ad.clip(t, 0.5, 1.5)]


def test_no_grad_ops_record_no_tape_and_compute_the_same_values():
    rng = np.random.default_rng(7)
    t, u = Tensor(rng.uniform(0.2, 2.0, (2, 2))), Tensor(rng.uniform(0.2, 2.0, (2, 2)))
    taped = _every_op(t, u)
    with ad.no_grad():
        plain = _every_op(t, u)
    assert all(r._parents and r._backward is not None for r in taped)
    assert all(r._parents == () and r._backward is None for r in plain)
    for r, p in zip(taped, plain):
        assert np.array_equal(r.data, p.data)


def test_no_grad_restores_the_mode_on_exit_and_after_an_exception():
    t = Tensor(np.ones(2))
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert ad.add(t, t)._parents == ()     # the inner exit keeps no-grad
    assert ad.add(t, t)._parents
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("raised inside no_grad")
    out = ad.add(t, t)
    assert out._parents and out._backward is not None
    ad.tsum(out).backward()
    assert np.array_equal(t.grad, [2.0, 2.0])


def test_clip_grad_mask():
    y = Tensor(np.array([-1.0, 0.5, 2.0]))
    loss = ad.tsum(ad.clip(y, 0.0, 1.0))
    loss.backward()
    assert np.allclose(y.grad, [0.0, 1.0, 0.0])


def test_diamond_graph_accumulates_once_per_path():
    x = Tensor(np.array([3.0]))
    y = ad.mul(x, x)          # d/dx = 2x = 6
    z = ad.add(y, ad.mul(x, 2.0))
    z.backward()
    assert np.allclose(x.grad, [8.0])


def test_backward_leaves_param_grads_accumulating():
    store = ParamStore()
    p = store.add("p", np.array([1.0, 2.0]))
    for _ in range(3):
        ad.tsum(ad.mul(p, p)).backward()
    assert np.allclose(p.grad, 3 * 2 * p.data)
    store.zero_grad()
    assert np.allclose(p.grad, 0.0)


def test_unused_parameter_grad_slot_stays_zero():
    store = ParamStore()
    used = store.add("used", np.array([2.0]))
    store.add("frozen", np.array([5.0]))
    store.zero_grad()
    ad.tsum(ad.mul(used, 3.0)).backward()
    assert np.allclose(store["frozen"].grad, 0.0)
    assert np.allclose(store["used"].grad, 3.0)


# ---------------------------------------------------------------------------
# one backward per tape: the sweep frees what it has passed

def _tape(root: Tensor) -> list:
    """Every node reachable from ``root``."""
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def _training_pair(n=8, pcfg=PredictorConfig(d_V=32, d_E=32, T=5)):
    """``instance_loss``'s arguments for one training pair at size n."""
    pair = synthesize_pair(n, 0.03, seed=10000)
    return (build_aa_graph(pair.g1, pair.g2), perm_matrix(pair.ground_truth).ravel(),
            init_params(pcfg, seed=0), pcfg, SolverConfig(), LossConfig())


def test_a_training_pair_records_at_most_120_tape_nodes():
    # Nodes other than the parameters on one n = 8, T = 5 pair's tape. It held
    # 252 before the fused nodes: 32 constants and 220 operations, among them
    # five per MLP (14 MLPs), six per RMS rescale (10) and a concatenation
    # per update layer (10); then 104, with one node per MLP and per RMS
    # rescale. It holds 30 operations now and no constant: 4 MLPs, 10 update
    # layers (an edge and a node update per round), 2 reshapes and 2
    # sigmoids, the solver node and its row, and the loss's 10. Each gets
    # one grad buffer in the sweep.
    aa, gt, store, pcfg, scfg, lcfg = _training_pair()
    params = {id(store[name]) for name in store.names()}
    nodes = [t for t in _tape(instance_loss(aa, gt, store, pcfg, scfg, lcfg))
             if id(t) not in params]
    assert len(nodes) == 30, len(nodes)
    assert all(t._backward is not None for t in nodes)    # no constant is a node


def test_backward_frees_every_intermediate_node_and_leaves_keep_their_grads():
    aa, gt, store, pcfg, scfg, lcfg = _training_pair(n=4, pcfg=PredictorConfig(d_V=4, d_E=4, T=1))
    store.zero_grad()
    reference_backward(instance_loss(aa, gt, store, pcfg, scfg, lcfg))
    kept = store.grad_vector()
    store.zero_grad()
    loss = instance_loss(aa, gt, store, pcfg, scfg, lcfg)
    nodes = _tape(loss)
    inner = [t for t in nodes if t._backward is not None]
    leaves = [t for t in nodes if t._backward is None]
    params = [store[n] for n in store.names()]
    assert len(inner) == 22 and set(map(id, params)) <= set(map(id, leaves))
    loss.backward()
    assert np.array_equal(store.grad_vector(), kept)
    for t in inner:
        assert t.grad is None and t._parents == ()
        with pytest.raises(RuntimeError, match="already swept"):
            t._backward(np.zeros_like(t.data))
    assert all(t.grad is not None and t.grad.shape == t.data.shape for t in leaves)


def test_a_second_backward_raises_and_leaves_the_grads_unchanged():
    # a second sweep would add its contributions onto the intermediates'
    # stale grads, a wrong gradient; it is refused before any leaf changes
    store = ParamStore()
    p = store.add("p", np.array([1.0, 2.0]))
    x = Tensor(np.array([3.0, -1.0]))
    loss = ad.tsum(ad.mul(ad.mul(ad.mul(p, 3.0), p), x))
    loss.backward()
    assert np.array_equal(p.grad, [18.0, -12.0]) and np.array_equal(x.grad, [3.0, 12.0])
    for again in (loss, ad.add(loss, 1.0)):     # the same tape, or a new node on it
        with pytest.raises(RuntimeError, match="already swept"):
            again.backward()
        assert np.array_equal(p.grad, [18.0, -12.0]) and np.array_equal(x.grad, [3.0, 12.0])


def test_a_training_pair_holds_no_tape_after_backward():
    # Before the update layers kept only their inputs, the tape was 11.3 MB,
    # 3.5 KB stayed after backward and the backward peaked at 11.5 MB (bounds
    # 0.01x and 1.5x the tape). Now the tape is 1.08 MB, 2.6 KB stays, and
    # the peak, 3.0 MB, is mostly one update node's intermediates, computed
    # again in its backward.
    args = _training_pair()
    instance_loss(*args).backward()          # warm any lazily built state
    store = args[2]
    store.zero_grad()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = instance_loss(*args)
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        held, peak = (v - base for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert 5e5 < tape < 1.5e6, tape
    assert held < 2e4, held
    assert peak < 4e6, peak


def test_a_chunk_of_eight_training_pairs_holds_less_than_11_mb_of_tape():
    # the eight tapes a training chunk holds at n = 8 under one solver node,
    # against 11.3 MB for one pair's tape before the update layers kept only
    # their inputs (7.7 MB now, peaking at 9.2 MB in the backward)
    pcfg, scfg, lcfg = PredictorConfig(d_V=32, d_E=32, T=5), SolverConfig(), LossConfig()
    store = init_params(pcfg, seed=0)
    pairs = [synthesize_pair(8, 0.03, seed=10000 + k) for k in range(8)]
    aas = [build_aa_graph(pair.g1, pair.g2) for pair in pairs]
    gts = [perm_matrix(pair.ground_truth).ravel() for pair in pairs]

    def chunk_loss():
        xs = solve_tape(*zip(*(predictor_forward(aa, store, pcfg) for aa in aas)), aas, scfg)
        return reduce(ad.add, [balanced_ce_loss(x, gt, lcfg) for x, gt in zip(xs, gts)])

    chunk_loss().backward()                  # warm any lazily built state
    store.zero_grad()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = chunk_loss()
        tape = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        loss.backward()
        held, peak = (v - base for v in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert 4e6 < tape < 11e6, tape
    assert held < 2e4, held
    assert peak < 11.5e6, peak


# ---------------------------------------------------------------------------
# ParamStore

def test_store_vector_round_trip_and_ordering():
    store = ParamStore()
    store.add("b", np.ones((2, 2)))
    store.add("a", np.zeros(3))
    assert store.names() == ["a", "b"]
    assert store.n_params() == 7
    vec = np.arange(7.0)
    store.set_vector(vec)
    assert np.allclose(store.get_vector(), vec)
    for wrong in (np.zeros(6), np.zeros(10), np.zeros(4)):
        with pytest.raises(ValueError, match=f"expected a vector of 7 values, got {wrong.size}"):
            store.set_vector(wrong)
        assert np.array_equal(store.get_vector(), vec)    # nothing was written
    with pytest.raises(ValueError):
        store.add("a", np.zeros(1))


def test_adam_step_decreases_simple_quadratic():
    store = ParamStore()
    p = store.add("p", np.array([5.0]))
    for _ in range(200):
        store.zero_grad()
        ad.tsum(ad.mul(p, p)).backward()
        store.adam_step(lr=0.1)
    assert abs(p.data[0]) < 0.5


def test_adam_step_builds_its_moments_once(monkeypatch):
    # two moments per parameter on the first step, none on a later one
    store = init_params(PredictorConfig(), seed=0)
    zeros_like, calls = np.zeros_like, []

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return zeros_like(a, *args, **kwargs)

    monkeypatch.setattr(np, "zeros_like", counted)
    store.adam_step()
    assert len(calls) == 2 * len(store.names())
    calls.clear()
    store.adam_step()
    assert calls == []


def test_checkpoint_round_trip(tmp_path):
    store = ParamStore()
    rng = np.random.default_rng(4)
    store.add("w", rng.normal(size=(3, 2)))
    store.add("b", rng.normal(size=(2,)))
    path = tmp_path / "params.ckpt"
    store.save(path)

    other = ParamStore()
    other.add("w", np.zeros((3, 2)))
    other.add("b", np.zeros(2))
    other.load(path)
    assert np.allclose(other["w"].data, store["w"].data)
    assert np.allclose(other["b"].data, store["b"].data)


def test_checkpoint_rejects_shape_and_name_mismatch(tmp_path):
    store = ParamStore()
    store.add("w", np.zeros((3, 2)))
    path = tmp_path / "params.ckpt"
    store.save(path)

    wrong_shape = ParamStore()
    wrong_shape.add("w", np.zeros((2, 3)))
    with pytest.raises(ValueError):
        wrong_shape.load(path)

    wrong_names = ParamStore()
    wrong_names.add("v", np.zeros((3, 2)))
    with pytest.raises(ValueError):
        wrong_names.load(path)

    store["w"].data[1, 0] = np.nan
    store.save(path)
    same_slots = ParamStore()
    same_slots.add("w", np.zeros((3, 2)))
    with pytest.raises(ValueError, match="non-finite value in parameter 'w'"):
        same_slots.load(path)

    # the manifest says (3, 2), but the stored array is (7,)
    manifest = {"version": ad.CHECKPOINT_VERSION, "params": {"w": [3, 2]}}
    buf = io.BytesIO()
    np.save(buf, np.zeros(7))
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps(manifest))
        zf.writestr("arrays/w.npy", buf.getvalue())
    with pytest.raises(ValueError, match="shape mismatch for parameter 'w'"):
        same_slots.load(path)
    assert same_slots["w"].data.shape == (3, 2)

    # the whole checkpoint is checked before any slot changes: a bad second
    # parameter leaves the first one as it was
    two = ParamStore()
    two.add("a", np.ones(2))
    two.add("b", np.ones(3))
    two.save(path)
    target = ParamStore()
    target.add("a", np.full(2, 7.0))
    target.add("b", np.full(3, 7.0))
    for bad in (np.array([1.0, np.nan, 1.0]), np.ones(4)):
        manifest = {"version": ad.CHECKPOINT_VERSION, "params": {"a": [2], "b": [3]}}
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("manifest.json", json.dumps(manifest))
            for name, value in (("a", np.ones(2)), ("b", bad)):
                buf = io.BytesIO()
                np.save(buf, value)
                zf.writestr(f"arrays/{name}.npy", buf.getvalue())
        with pytest.raises(ValueError, match="parameter 'b'"):
            target.load(path)
        assert np.array_equal(target["a"].data, np.full(2, 7.0))
        assert np.array_equal(target["b"].data, np.full(3, 7.0))
