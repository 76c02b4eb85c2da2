"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar result sweeps the tape in reverse topological order
and accumulates gradients into every reachable leaf. Only the operations the
predictor needs are provided (the solver is one node, ``predictor.solve_tape``);
anything else does not exist on the tape, so an unsupported construction
fails at graph-building time.
"""

from __future__ import annotations

import json
import zipfile
from io import BytesIO

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __sub__(self, other):
        return add(self, mul(other, _const(-1.0)))

    def __matmul__(self, other):
        return matmul(self, other)

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
    out = Tensor(a.data + b.data, (a, b))

    def backward(g):
        a.grad += _unbroadcast(g, a.data.shape)
        b.grad += _unbroadcast(g, b.data.shape)

    out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data * b.data, (a, b))

    def backward(g):
        a.grad += _unbroadcast(g * b.data, a.data.shape)
        b.grad += _unbroadcast(g * a.data, b.data.shape)

    out._backward = backward
    return out


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data / b.data, (a, b))

    def backward(g):
        a.grad += _unbroadcast(g / b.data, a.data.shape)
        b.grad += _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)

    out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(a.data @ b.data, (a, b))

    def backward(g):
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    out._backward = backward
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), (a,))
    mask = a.data > 0.0

    def backward(g):
        a.grad += g * mask

    out._backward = backward
    return out


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                 np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    out = Tensor(s, (a,))

    def backward(g):
        a.grad += g * s * (1.0 - s)

    out._backward = backward
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data), (a,))

    def backward(g):
        a.grad += g / a.data

    out._backward = backward
    return out


def sqrt(a: Tensor) -> Tensor:
    s = np.sqrt(a.data)
    out = Tensor(s, (a,))

    def backward(g):
        a.grad += g * 0.5 / s

    out._backward = backward
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [_wrap(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t.grad += piece

    out._backward = backward
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), (a,))

    def backward(g):
        a.grad += g.reshape(a.data.shape)

    out._backward = backward
    return out


def tsum(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), (a,))

    def backward(g):
        a.grad += g

    out._backward = backward
    return out


def gather(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows (axis 0) of ``a`` by an integer index array."""
    index = np.asarray(index, dtype=np.int64)
    out = Tensor(a.data[index], (a,))

    def backward(g):
        np.add.at(a.grad, index, g)

    out._backward = backward
    return out


def scatter_add(a: Tensor, index: np.ndarray, size: int) -> Tensor:
    """Sum rows of ``a`` into ``size`` bins given by ``index`` (axis 0)."""
    index = np.asarray(index, dtype=np.int64)
    shape = (size,) + a.data.shape[1:]
    acc = np.zeros(shape)
    np.add.at(acc, index, a.data)
    out = Tensor(acc, (a,))

    def backward(g):
        a.grad += g[index]

    out._backward = backward
    return out


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    out = Tensor(np.clip(a.data, lo, hi), (a,))
    mask = (a.data > lo) & (a.data < hi)

    def backward(g):
        a.grad += g * mask

    out._backward = backward
    return out


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
        """Load values into existing slots; shape mismatches are rejected."""
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
                self._params[n].data = arr.astype(np.float64)
        self.zero_grad()
