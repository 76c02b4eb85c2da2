"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar result sweeps the tape in reverse topological order
and accumulates gradients into every reachable leaf. Only the operations the
predictor needs are provided; anything else does not exist on the tape, so an
unsupported construction fails at graph-building time. A number or an
ndarray given to an operation is a constant: it is no node and gets no grad.

Some nodes stand for a whole chain of finer operations, with a hand-written
adjoint: an affine-ReLU MLP (``mlp``), the predictor's two update layers
(``edge_update`` and ``node_update``: a gate or an aggregate of the edges,
an MLP and the RMS rescale) and the solver (``solvers.solve_tape``). Each
adds into every grad what its chain would add, in the chain's order, so
values and grads are bitwise the chain's while the tape holds one node
where the chain held up to 22. The MLP and update nodes keep only their
inputs: none of the chain's intermediates (the concatenated input, the
hidden activations, the gathered endpoint embeddings, the output before
the rescale) outlives the forward. The backward computes them again from
the inputs, the same way, then runs the adjoint. So a node holds its
output and nothing else.

One backward per tape. Leaves (parameters and input Tensors) keep their
grads; every intermediate node drops its grad, its parent links and its
closure as soon as the sweep has passed it, so the tape is freed while the
sweep runs rather than when the loss is dropped. A second ``backward``
through a swept node raises ``RuntimeError``.

Inside a ``no_grad()`` block the same operations record no tape: every result
is a ``Tensor`` without parents or backward closure, so an intermediate is
freed as soon as the forward drops it. Inference runs the predictor this way.

The update nodes gather and scatter rows through the incidence matrices of
the AA graph's edge ends (``linalg.Incidence``), in index order, so their
sums are bitwise those of numpy's unbuffered ``add.at``.
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


# ---------------------------------------------------------------------------
# Coarse nodes. Each runs its forward twice, once for its value and once more
# in its backward, so that it keeps nothing but its inputs.

def _mlp(x: np.ndarray, layers) -> tuple:
    """``(acts, out)`` of the affine-ReLU stack on x: the input of each layer
    (x, then each hidden ReLU output) and the last layer's output."""
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w.data + b.data, 0.0))
    w, b = layers[-1]
    return acts, acts[-1] @ w.data + b.data


def _mlp_vjp(g: np.ndarray, acts: list, layers, input_grad: bool = True):
    """Add each layer's grads into its weight and bias, from the last layer
    back, as the chain of ``matmul``, ``add`` and ReLU nodes adds them; the
    grad at the stack's input if ``input_grad``."""
    for k in range(len(layers) - 1, -1, -1):
        w, b = layers[k]
        b.grad += np.add.reduce(g, axis=0)
        w.grad += acts[k].T @ g
        if k:
            g = (g @ w.data.T) * (acts[k] > 0.0)
        elif input_grad:
            return g @ w.data.T
    return None


def _mlp_node(parents: list, layers, inputs, inputs_vjp=None, eps=None) -> Tensor:
    """The MLP ``layers`` on the array ``inputs()`` computes from the parents'
    data, as one node on the parents and the layers that keeps only them;
    with ``eps``, its output h is rescaled to ``h / sqrt(sum(h * h) / h.size
    + eps)`` (an empty h stays as it is). ``inputs()`` also returns what its
    adjoint needs, and ``inputs_vjp(g, that)`` adds the grad g at the MLP's
    input into the parents' grads; without it, no input gets a grad."""

    def forward():
        x, saved = inputs()
        acts, h = _mlp(x, layers)
        r = None
        if eps is not None and h.size:
            r = np.sqrt(np.add.reduce(h * h, axis=None) / h.size + eps)
        return saved, acts, h, r

    def backward(g):
        saved, acts, h, r = forward()
        if r is not None:        # as the chain of mul, tsum, div, add and sqrt nodes
            g_r = -g * h / (r * r)
            while g_r.ndim:
                g_r = np.add.reduce(g_r, axis=0)
            g_hh = (g_r * 0.5 / r / h.size) * h
            g = g / r + g_hh + g_hh        # the square h * h takes h on both sides
        g = _mlp_vjp(g, acts, layers, inputs_vjp is not None)
        if inputs_vjp is not None:
            inputs_vjp(g, saved)

    _, _, h, r = forward()
    return Tensor(h if r is None else h / r, parents + [t for layer in layers for t in layer],
                  backward)


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

    def concat():
        return (data[0] if len(data) == 1 else np.concatenate(data, axis=1)), None

    def split(g, _):
        start = 0
        for t, x in zip(inputs, data):
            if isinstance(t, Tensor):
                t.grad += g[:, start:start + x.shape[1]]
            start += x.shape[1]

    return _mlp_node(tensors, layers, concat, split if tensors else None)


def edge_update(E: Tensor, V: Tensor, M1: Tensor, M2: Tensor, layers, src, dst,
                eps: float) -> Tensor:
    """The predictor's edge update as one node: the rescaled (``eps``) MLP
    ``layers`` on ``[E, (A[src] * B[dst] + A[dst] * B[src]) * 0.5]`` with
    A = V @ M1 and B = V @ M2, for edges from ``src`` to ``dst`` (integer
    indices into V's rows, or their ``linalg.Incidence``). It adds into
    every grad what the chain of two ``matmul``, four gathers, three ``mul``
    and an ``add``, the MLP and the rescale's nodes adds, in their order."""
    n = len(V.data)
    src, dst = (i if isinstance(i, Incidence) else Incidence(i, n) for i in (src, dst))

    def inputs():
        A, B = V.data @ M1.data, V.data @ M2.data
        ends = A[src.index], B[dst.index], A[dst.index], B[src.index]
        return np.concatenate([E.data, (ends[0] * ends[1] + ends[2] * ends[3]) * 0.5], axis=1), ends

    def inputs_vjp(g, ends):
        a_src, b_dst, a_dst, b_src = ends
        d = E.data.shape[1]
        E.grad += g[:, :d]
        g = g[:, d:] * 0.5
        g_A, g_B = np.zeros((n, M1.data.shape[1])), np.zeros((n, M2.data.shape[1]))
        # in the order the fine chain's sweep adds them: both gathers of A and
        # the first of B, A's product, then B's second gather and B's product
        src.add_rows(g_A, g * b_dst)
        dst.add_rows(g_B, g * a_src)
        dst.add_rows(g_A, g * b_src)
        V.grad += g_A @ M1.data.T
        M1.grad += V.data.T @ g_A
        src.add_rows(g_B, g * a_dst)
        V.grad += g_B @ M2.data.T
        M2.grad += V.data.T @ g_B

    return _mlp_node([E, V, M1, M2], layers, inputs, inputs_vjp, eps)


def node_update(E: Tensor, V: Tensor, layers, src, dst, eps: float) -> Tensor:
    """The predictor's node update as one node: the rescaled (``eps``) MLP
    ``layers`` on ``[agg, V]``, where row i of agg adds the sum of the rows
    of E whose edge starts at i (``src``) to the sum of those whose edge ends
    at i (``dst``). It adds into every grad what the chain of two scatters
    and an ``add``, the MLP and the rescale's nodes adds, in their order."""
    n = len(V.data)
    src, dst = (i if isinstance(i, Incidence) else Incidence(i, n) for i in (src, dst))

    def inputs():
        sums = np.zeros((2, n, E.data.shape[1]))
        src.add_rows(sums[0], E.data)
        dst.add_rows(sums[1], E.data)
        return np.concatenate([sums[0] + sums[1], V.data], axis=1), None

    def inputs_vjp(g, _):
        d = E.data.shape[1]
        V.grad += g[:, d:]
        E.grad += g[:, :d][src.index]
        E.grad += g[:, :d][dst.index]

    return _mlp_node([E, V], layers, inputs, inputs_vjp, eps)


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


def unstack(a: Tensor) -> list:
    """The rows of ``a`` (axis 0), each a node of its own."""
    def row(b):
        def backward(g):
            a.grad[b] += g

        return Tensor(a.data[b], (a,), backward)

    return [row(b) for b in range(len(a.data))]


def tsum(a: Tensor) -> Tensor:
    def backward(g):
        a.grad += g

    return Tensor(a.data.sum(), (a,), backward)


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
            if name not in self._adam_m:
                self._adam_m[name] = np.zeros_like(p.data)
                self._adam_v[name] = np.zeros_like(p.data)
            m, v = self._adam_m[name], self._adam_v[name]
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
