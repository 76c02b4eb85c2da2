"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar result sweeps the tape in reverse topological order
and accumulates gradients into every reachable leaf. Only the operations the
predictor needs are provided; anything else does not exist on the tape, so an
unsupported construction fails at graph-building time. A number or an
ndarray given to an operation is a constant: it is no node and gets no grad.

Some nodes stand for a whole chain of finer operations, with a hand-written
adjoint: an affine-ReLU MLP (``mlp``), the RMS rescale (``rms_rescale``) and
the solver (``solvers.solve_tape``). Each adds into every grad what its chain
would add, in the chain's order, so values and grads are bitwise the chain's
while the tape holds one node where it held up to six.

One backward per tape. Leaves (parameters and input Tensors) keep their
grads; every intermediate node drops its grad, its parent links and its
closure as soon as the sweep has passed it, so the tape is freed while the
sweep runs rather than when the loss is dropped. A second ``backward``
through a swept node raises ``RuntimeError``.

Inside a ``no_grad()`` block the same operations record no tape: every result
is a ``Tensor`` without parents or backward closure, so an intermediate is
freed as soon as the forward drops it. Inference runs the predictor this way.

``scatter_add`` and the backward of ``gather`` sum rows through the
incidence matrix of their index (``linalg.Incidence``), in index order, so
they are bitwise equal to numpy's unbuffered ``add.at`` at a fraction of its
cost. Given an ``Incidence``, as the predictor passes an AA graph's, they
read its matrix instead of building one.
"""

from __future__ import annotations

import json
import threading
import zipfile
from contextlib import contextmanager
from io import BytesIO

import numpy as np

from .linalg import Incidence


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
        if _grad_mode.enabled and parents:
            self._parents = tuple(parents)
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into every leaf's ``grad``; ``self`` must be
        a scalar.

        One backward per tape. The sweep frees the tape as it passes it: a
        node's parents get their zero grad buffers just before its closure
        runs, and once it has run the node drops its grad, its parent links
        and its closure, so only the leaves (parameters, inputs and
        constants) keep their grads. A second backward through a swept node
        raises ``RuntimeError``.
        """
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
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad = self.grad + np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                # a leaf keeps its grad, so a ParamStore's batch gradients
                # accumulate across backward calls
                continue
            for parent in node._parents:
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
            node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _swept


def _swept(g):
    raise RuntimeError("backward already swept this tape; build it again to differentiate again")


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _tensors(*operands) -> list:
    """The operands on the tape: a number or an ndarray is a constant, which
    is no node and gets no grad."""
    return [x for x in operands if isinstance(x, Tensor)]


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    x, y = _data(a), _data(b)

    def backward(g):
        if isinstance(a, Tensor):
            a.grad += _unbroadcast(g, x.shape)
        if isinstance(b, Tensor):
            b.grad += _unbroadcast(g, y.shape)

    return Tensor(x + y, _tensors(a, b), backward)


def mul(a, b) -> Tensor:
    x, y = _data(a), _data(b)

    def backward(g):
        if isinstance(a, Tensor):
            a.grad += _unbroadcast(g * y, x.shape)
        if isinstance(b, Tensor):
            b.grad += _unbroadcast(g * x, y.shape)

    return Tensor(x * y, _tensors(a, b), backward)


def matmul(a, b) -> Tensor:
    x, y = _data(a), _data(b)

    def backward(g):
        if isinstance(a, Tensor):
            a.grad += g @ y.T
        if isinstance(b, Tensor):
            b.grad += x.T @ g

    return Tensor(x @ y, _tensors(a, b), backward)


def mlp(inputs, layers) -> Tensor:
    """An affine-ReLU stack as one tape node: ``relu(x @ w0 + b0) @ w1 + b1``
    and so on for ``layers = [(w0, b0), (w1, b1), ...]``, with a ReLU
    between each two layers and none after the last, where x is the list
    ``inputs`` concatenated along axis 1. An ndarray input is a constant and
    gets no grad.

    The forward computes what a concatenation and the chain of ``matmul`` and
    ``add`` nodes with a ReLU between them compute. The adjoint adds into
    each grad what those nodes would add, computed as they compute it, and a
    backward sweep reaches this node where it would reach them, so every
    value and grad is bitwise theirs.
    """
    data, tensors = [_data(t) for t in inputs], _tensors(*inputs)
    h = data[0] if len(data) == 1 else np.concatenate(data, axis=1)
    acts = []                        # each layer's input: x, then the ReLU outputs
    for k, (w, b) in enumerate(layers):
        acts.append(h)
        h = h @ w.data + b.data
        if k < len(layers) - 1:
            h = np.maximum(h, 0.0)

    def backward(g):
        for k in range(len(layers) - 1, -1, -1):
            w, b = layers[k]
            b.grad += np.add.reduce(g, axis=0)
            w.grad += acts[k].T @ g
            if k:
                g = (g @ w.data.T) * (acts[k] > 0.0)
            elif tensors:
                g = g @ w.data.T
        start = 0
        for t, x in zip(inputs, data):
            if isinstance(t, Tensor):
                t.grad += g[:, start:start + x.shape[1]]
            start += x.shape[1]

    return Tensor(h, tensors + [t for layer in layers for t in layer], backward)


def rms_rescale(a: Tensor, eps: float) -> Tensor:
    """``a / sqrt(sum(a * a) / a.size + eps)``, ``a`` divided by its global
    root-mean-square value, as one tape node. The forward and the adjoint
    compute what the chain of ``mul``, ``tsum``, division, ``add`` and
    square-root nodes computes, in its order, so every value and grad is
    bitwise that chain's."""
    size = a.data.size
    r = np.sqrt(np.add.reduce(a.data * a.data, axis=None) / size + eps)

    def backward(g):
        g_r = -g * a.data / (r * r)
        while g_r.ndim:
            g_r = np.add.reduce(g_r, axis=0)
        g_aa = (g_r * 0.5 / r / size) * a.data
        a.grad += g / r
        a.grad += g_aa           # the square a * a takes a on both sides
        a.grad += g_aa

    return Tensor(a.data / r, (a,), backward)


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


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        a.grad += g.reshape(a.data.shape)

    return Tensor(a.data.reshape(shape), (a,), backward)


def tsum(a: Tensor) -> Tensor:
    def backward(g):
        a.grad += g

    return Tensor(a.data.sum(), (a,), backward)


def _integer_index(index) -> np.ndarray:
    """``index`` as an array of its own integer dtype, without a copy.

    Raises TypeError on any other dtype, which numpy would truncate or read as
    a mask."""
    index = np.asarray(index)
    if not np.issubdtype(index.dtype, np.integer):
        raise TypeError(f"an index must be of an integer dtype, got {index.dtype}")
    return index


def gather(a: Tensor, index) -> Tensor:
    """Select rows (axis 0) of ``a`` by an integer index array with entries in
    [0, len(a)), or by a ``linalg.Incidence`` into len(a) bins, whose
    pattern the backward then reads instead of building it."""
    incidence = index if isinstance(index, Incidence) else None
    rows = index.index if incidence is not None else _integer_index(index)

    def backward(g):
        (incidence or Incidence(rows, len(a.data))).add_rows(a.grad, g)

    return Tensor(a.data[rows], (a,), backward)


def scatter_add(a: Tensor, index, size: int) -> Tensor:
    """Sum rows of ``a`` into ``size`` bins given by an integer ``index`` (axis
    0), or by a ``linalg.Incidence`` into ``size`` bins."""
    incidence = index if isinstance(index, Incidence) else Incidence(_integer_index(index), size)
    acc = np.zeros((size,) + a.data.shape[1:])
    incidence.add_rows(acc, a.data)

    def backward(g):
        a.grad += g[incidence.index]

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
        """Assign the flat ``vec`` in ``names()`` order; a vector of the wrong
        length is rejected before any parameter changes."""
        if vec.size != self.n_params():
            raise ValueError(f"expected a vector of {self.n_params()} values, got {vec.size}")
        offset = 0
        for n in self.names():
            t = self._params[n]
            t.data = vec[offset:offset + t.data.size].reshape(t.data.shape).copy()
            offset += t.data.size

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
        """Load values into existing slots. Every array is read and checked
        first, so a bad shape or a non-finite value anywhere in the checkpoint
        is rejected with the store unchanged."""
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if manifest.get("version") != CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {manifest.get('version')}")
            if set(manifest["params"]) != set(self._params):
                raise ValueError("checkpoint parameter names do not match the model")
            loaded = {}
            for n, shape in manifest["params"].items():
                arr = np.load(BytesIO(zf.read(f"arrays/{n}.npy")))
                if not tuple(shape) == arr.shape == self._params[n].data.shape:
                    raise ValueError(f"shape mismatch for parameter {n!r}")
                if not np.isfinite(arr).all():
                    raise ValueError(f"non-finite value in parameter {n!r}")
                loaded[n] = arr.astype(np.float64)
        for n, arr in loaded.items():
            self._params[n].data = arr
        self.zero_grad()
