"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar result sweeps the tape in reverse topological order
and accumulates gradients into every reachable leaf. Only the operations the
predictor needs are provided (the solver is one node, ``solvers.solve_tape``);
anything else does not exist on the tape, so an unsupported construction
fails at graph-building time.

Inside a ``no_grad()`` block the same operations record no tape: every result
is a ``Tensor`` without parents or backward closure, so an intermediate is
freed as soon as the forward drops it. Inference runs the predictor this way.

``scatter_add`` and the backward of ``gather`` sum rows through a CSR
incidence matrix of their index, in index order, so they are bitwise equal to
numpy's unbuffered ``add.at`` at a fraction of its cost.
"""

from __future__ import annotations

import json
import math
import threading
import zipfile
from contextlib import contextmanager
from io import BytesIO

import numpy as np
from scipy.sparse import _sparsetools

from .linalg import stable_csr


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Record no tape inside the block; the previous mode is restored on exit,
    also when the block raises."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        if _grad_mode.enabled:
            self._parents = tuple(parents)
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        for node in topo:
            # Leaves owned by a ParamStore keep their grad buffer so batch
            # gradients accumulate across multiple backward calls.
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
        self.grad = self.grad + np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


def _const(x) -> Tensor:
    return Tensor(np.asarray(x, dtype=np.float64))


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else _const(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        a.grad += _unbroadcast(g, a.data.shape)
        b.grad += _unbroadcast(g, b.data.shape)

    return Tensor(a.data + b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        a.grad += _unbroadcast(g * b.data, a.data.shape)
        b.grad += _unbroadcast(g * a.data, b.data.shape)

    return Tensor(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        a.grad += _unbroadcast(g / b.data, a.data.shape)
        b.grad += _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)

    return Tensor(a.data / b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)

    def backward(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return Tensor(a.data @ b.data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    def backward(g):
        a.grad += g * (a.data > 0.0)

    return Tensor(np.maximum(a.data, 0.0), (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        a.grad += g * s * (1.0 - s)

    return Tensor(s, (a,), backward)


def log(a: Tensor) -> Tensor:
    def backward(g):
        a.grad += g / a.data

    return Tensor(np.log(a.data), (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    s = np.sqrt(a.data)

    def backward(g):
        a.grad += g * 0.5 / s

    return Tensor(s, (a,), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]

    def backward(g):
        splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t.grad += piece

    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        a.grad += g.reshape(a.data.shape)

    return Tensor(a.data.reshape(shape), (a,), backward)


def tsum(a: Tensor) -> Tensor:
    def backward(g):
        a.grad += g

    return Tensor(a.data.sum(), (a,), backward)


def _add_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray):
    """``out[index[k]] += rows[k]`` for k = 0, 1, ..., in place.

    The product with the 0/1 incidence matrix of ``index`` adds each row into
    ``out`` in the order k, as numpy's ``add.at(out, index, rows)`` does, so the
    result is bitwise the same. Every index must lie in [0, len(out)).
    """
    m = index.size
    # the native kernel reads rows without bounds checks
    if rows.shape != (m,) + out.shape[1:]:
        raise ValueError(f"expected rows of shape {(m,) + out.shape[1:]}, got {rows.shape}")
    indptr, indices, data = stable_csr(out.shape[0], m, index, np.arange(m), np.ones(m))
    _sparsetools.csr_matvecs(out.shape[0], m, math.prod(out.shape[1:]),
                             indptr, indices, data, rows, out)


def _integer_index(index) -> np.ndarray:
    """``index`` as an array of its own integer dtype, without a copy.

    Raises TypeError on any other dtype, which numpy would truncate or read as
    a mask."""
    index = np.asarray(index)
    if not np.issubdtype(index.dtype, np.integer):
        raise TypeError(f"an index must be of an integer dtype, got {index.dtype}")
    return index


def gather(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows (axis 0) of ``a`` by an integer index array with entries in
    [0, len(a))."""
    index = _integer_index(index)

    def backward(g):
        _add_rows(a.grad, index, g)

    return Tensor(a.data[index], (a,), backward)


def scatter_add(a: Tensor, index: np.ndarray, size: int) -> Tensor:
    """Sum rows of ``a`` into ``size`` bins given by an integer ``index`` (axis 0)."""
    index = _integer_index(index)
    acc = np.zeros((size,) + a.data.shape[1:])
    _add_rows(acc, index, a.data)

    def backward(g):
        a.grad += g[index]

    return Tensor(acc, (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    def backward(g):
        a.grad += g * ((a.data > lo) & (a.data < hi))

    return Tensor(np.clip(a.data, lo, hi), (a,), backward)


CHECKPOINT_VERSION = 1


class ParamStore:
    """Flat, name-addressable store of learnable parameters.

    Parameters iterate in sorted-name order so that flattened views (used by
    the finite-difference gradient check and the optimizer) are deterministic.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}
        self._adam_t = 0

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(value, dtype=np.float64))
        t.grad = np.zeros_like(t.data)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def n_params(self) -> int:
        return sum(self._params[n].data.size for n in self.names())

    def zero_grad(self):
        for t in self._params.values():
            t.grad = np.zeros_like(t.data)

    def get_vector(self) -> np.ndarray:
        return np.concatenate([self._params[n].data.ravel() for n in self.names()])

    def set_vector(self, vec: np.ndarray):
        offset = 0
        for n in self.names():
            t = self._params[n]
            t.data = vec[offset:offset + t.data.size].reshape(t.data.shape).copy()
            offset += t.data.size
        if offset != vec.size:
            raise ValueError("vector length mismatch")

    def grad_vector(self) -> np.ndarray:
        return np.concatenate([self._params[n].grad.ravel() for n in self.names()])

    def adam_step(self, lr: float = 1e-3, beta1: float = 0.9,
                  beta2: float = 0.999, eps: float = 1e-8):
        self._adam_t += 1
        t = self._adam_t
        for name in self.names():
            p = self._params[name]
            m = self._adam_m.setdefault(name, np.zeros_like(p.data))
            v = self._adam_v.setdefault(name, np.zeros_like(p.data))
            m += (1 - beta1) * (p.grad - m)
            v += (1 - beta2) * (p.grad ** 2 - v)
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)

    def save(self, path):
        """Versioned checkpoint: a zip of raw arrays plus a JSON manifest."""
        manifest = {
            "version": CHECKPOINT_VERSION,
            "params": {n: list(self._params[n].data.shape) for n in self.names()},
        }
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("manifest.json", json.dumps(manifest, indent=1, sort_keys=True))
            for n in self.names():
                buf = BytesIO()
                np.save(buf, self._params[n].data)
                zf.writestr(f"arrays/{n}.npy", buf.getvalue())

    def load(self, path):
        """Load values into existing slots; bad shapes and non-finite values are rejected."""
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if manifest.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {manifest.get('version')}")
            if set(manifest["params"]) != set(self._params):
                raise ValueError("checkpoint parameter names do not match the model")
            for n, shape in manifest["params"].items():
                if tuple(shape) != self._params[n].data.shape:
                    raise ValueError(f"shape mismatch for parameter {n!r}")
                arr = np.load(BytesIO(zf.read(f"arrays/{n}.npy")))
                if not np.isfinite(arr).all():
                    raise ValueError(f"non-finite value in parameter {n!r}")
                self._params[n].data = arr.astype(np.float64)
        self.zero_grad()
