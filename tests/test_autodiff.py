import numpy as np
import pytest

from conftest import reference_gather_backward, reference_scatter_add

import probmatch.autodiff as ad
from probmatch.autodiff import ParamStore, Tensor


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


def test_add_mul_div_broadcast_grads():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.uniform(0.5, 2.0, size=(4,))
    ta, tb = Tensor(a.copy()), Tensor(b.copy())
    loss = ad.tsum(ad.div(ad.mul(ad.add(ta, tb), ta), tb))
    loss.backward()
    fd_a = _fd_grad(lambda v: float((((v + b) * v) / b).sum()), a)
    fd_b = _fd_grad(lambda v: float((((a + v) * a) / v).sum()), b)
    assert np.allclose(ta.grad, fd_a, atol=1e-5)
    assert np.allclose(tb.grad, fd_b, atol=1e-5)


def test_matmul_grad():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    ta, tb = Tensor(a.copy()), Tensor(b.copy())
    loss = ad.tsum(ad.matmul(ta, tb))
    loss.backward()
    assert np.allclose(ta.grad, np.ones((3, 2)) @ b.T, atol=1e-12)
    assert np.allclose(tb.grad, a.T @ np.ones((3, 2)), atol=1e-12)


def test_elementwise_op_grads_vs_fd():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.2, 2.0, size=(3, 3))
    _check_op(ad.sigmoid, rng.normal(size=(3, 3)))
    _check_op(ad.log, x)
    _check_op(ad.sqrt, x)
    _check_op(lambda t: ad.relu(t), rng.normal(size=(3, 3)) + 0.1)


def test_sigmoid_is_stable_at_extremes():
    t = Tensor(np.array([-1e4, 0.0, 1e4]))
    out = ad.sigmoid(t)
    assert np.allclose(out.data, [0.0, 0.5, 1.0])
    assert np.all(np.isfinite(out.data))


def test_concat_reshape_sum_grads():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 2))
    ta, tb = Tensor(a.copy()), Tensor(b.copy())
    cat = ad.concat([ta, tb], axis=1)
    loss = ad.tsum(ad.mul(ad.reshape(cat, (10,)), 2.0))
    loss.backward()
    assert np.allclose(ta.grad, 2.0)
    assert np.allclose(tb.grad, 2.0)


def test_gather_scatter_grads():
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    idx = np.array([0, 2, 2, 1])
    g = ad.gather(x, idx)
    assert np.array_equal(g.data, [1, 3, 3, 2])
    loss = ad.tsum(ad.mul(g, np.array([1.0, 10.0, 100.0, 1000.0])))
    loss.backward()
    assert np.array_equal(x.grad, [1.0, 1000.0, 110.0])

    y = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    s = ad.scatter_add(y, np.array([1, 0, 1, 2]), 3)
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
    out = ad.scatter_add(Tensor(values), index, size).data
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
    ad.tsum(ad.mul(ad.gather(a, index), weights)).backward()
    assert np.array_equal(a.grad, reference_gather_backward(start, index, weights))


def test_gather_and_scatter_reject_indices_out_of_range():
    a = Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError, match="lie in"):
        ad.scatter_add(a, np.array([0, 3, 1]), 3)
    with pytest.raises(ValueError, match="lie in"):
        ad.scatter_add(a, np.array([0, -1, 1]), 3)
    with pytest.raises(ValueError, match="rows of shape"):
        ad.scatter_add(a, np.array([0, 1]), 3)
    loss = ad.tsum(ad.gather(a, np.array([0, -1])))
    with pytest.raises(ValueError, match="lie in"):
        loss.backward()


def test_gather_and_scatter_reject_a_non_integer_index():
    # numpy would truncate a float index to rows 0 and 2, and read a bool one as a mask
    a = Tensor(np.ones((3, 2)))
    for index in (np.array([0.7, 2.9]), [0.0, 1.0], np.array([True, False, True])):
        with pytest.raises(TypeError, match="integer"):
            ad.gather(a, index)
        with pytest.raises(TypeError, match="integer"):
            ad.scatter_add(a, index, 3)


# ---------------------------------------------------------------------------
# no_grad

def _every_op(t: Tensor, u: Tensor) -> list:
    """One result of each operation, on positive 2x2 inputs."""
    idx = np.array([1, 0, 1])
    return [ad.add(t, u), ad.mul(t, u), ad.div(t, u), ad.matmul(t, u), ad.relu(t),
            ad.sigmoid(t), ad.log(t), ad.sqrt(t), ad.concat([t, u], axis=1),
            ad.reshape(t, (4,)), ad.tsum(t), ad.gather(t, idx),
            ad.scatter_add(ad.gather(t, idx), idx, 2), ad.clip(t, 0.5, 1.5)]


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
    with pytest.raises(ValueError):
        store.set_vector(np.zeros(6))
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
