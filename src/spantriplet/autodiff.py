"""Reverse-mode automatic differentiation on numpy arrays.

Everything is float64. Each operation returns a new Tensor holding the
result plus a closure that routes the output gradient to the inputs;
``Tensor.backward()`` replays the closures in reverse topological order.
The graph is rebuilt on every forward pass, which fits per-sentence
updates (batch size 1) and keeps no state between examples. Each LSTM
direction is one op (``lstm``): its input projection is hoisted into one
GEMM over the sentence and its BPTT backward is written by hand.

Gradients only flow into tensors with ``requires_grad``; a detached input
never gets a grad buffer allocated.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CheckpointError, DimensionError, TrainingStateError


class Tensor:
    """Dense n-dimensional value node of the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this node.

        ``seed`` defaults to 1 for scalars; non-scalar outputs need an
        explicit seed gradient of the same shape. A pass over a graph with
        no grad-requiring inputs writes no gradient buffers at all.
        """
        if not self.requires_grad:
            return
        if seed is None:
            if self.data.ndim != 0 and self.data.size != 1:
                raise DimensionError(
                    f"backward() without a seed needs a scalar output, got shape {self.shape}"
                )
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=np.float64)
            if seed.shape != self.data.shape:
                raise DimensionError(
                    f"seed gradient shape {seed.shape} does not match output shape {self.shape}"
                )
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(seed)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar; scalars and arrays are lifted to constants.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with a unique name and an optimizer group."""

    __slots__ = ("name", "group")

    def __init__(self, data, name: str, group: str = "other"):
        if isinstance(data, Tensor):
            data = data.data
        super().__init__(data, requires_grad=True)
        self.name = name
        self.group = group

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape}, group={self.group!r})"


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data - b.data
    except ValueError:
        raise DimensionError(f"sub: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(-g)

    return _make(-a.data, (a,), backward)


# ---------------------------------------------------------------------------
# Linear algebra and structure
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 1-D/2-D operands with numpy semantics."""
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise DimensionError(f"matmul: only 1-D/2-D operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.ndim == 2 and b.ndim == 2:
            ga, gb = g @ b.data.T, a.data.T @ g
        elif a.ndim == 2 and b.ndim == 1:
            ga, gb = np.outer(g, b.data), a.data.T @ g
        elif a.ndim == 1 and b.ndim == 2:
            ga, gb = b.data @ g, np.outer(a.data, g)
        else:
            ga, gb = g * b.data, g * a.data
        if a.requires_grad:
            a._accumulate(ga)
        if b.requires_grad:
            b._accumulate(gb)

    return _make(data, (a, b), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradients slice back to the inputs."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("concat: need at least one tensor")
    ndim = tensors[0].ndim
    if not 0 <= axis < ndim:
        raise DimensionError(f"concat: axis {axis} out of range for rank {ndim}")
    for t in tensors[1:]:
        if t.ndim != ndim:
            raise DimensionError(
                f"concat: ranks differ, {[t.shape for t in tensors]}"
            )
        for ax in range(ndim):
            if ax != axis and t.shape[ax] != tensors[0].shape[ax]:
                raise DimensionError(
                    f"concat: shapes incompatible off axis {axis}: {[t.shape for t in tensors]}"
                )
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * ndim
                index[axis] = slice(start, stop)
                t._accumulate(g[tuple(index)])

    return _make(data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("stack: need at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise DimensionError(f"stack: shapes differ, {[t.shape for t in tensors]}")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return _make(data, tuple(tensors), backward)


def row(x: Tensor, index: int) -> Tensor:
    """Single row of a 2-D tensor as a vector."""
    n = x.shape[0]
    if not 0 <= index < n:
        raise IndexError(f"row index {index} out of range for {n} rows")

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[index] = g
            x._accumulate(buf)

    return _make(x.data[index].copy(), (x,), backward)


def rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a 2-D tensor; repeated indices accumulate gradient."""
    idx = np.asarray(list(indices), dtype=np.intp)
    n = x.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"row indices out of range for {n} rows: {idx.tolist()}")

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            np.add.at(buf, idx, g)
            x._accumulate(buf)

    return _make(x.data[idx].copy(), (x,), backward)


def narrow(x: Tensor, start: int, stop: int, axis: int = 0) -> Tensor:
    """Contiguous slice [start:stop) along ``axis``."""
    if not 0 <= start <= stop <= x.shape[axis]:
        raise IndexError(f"narrow [{start}:{stop}) out of range for axis {axis} of {x.shape}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[index] = g
            x._accumulate(buf)

    return _make(x.data[index].copy(), (x,), backward)


# ---------------------------------------------------------------------------
# Nonlinearities and reductions
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * (x.data > 0.0))

    return _make(np.maximum(x.data, 0.0), (x,), backward)


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function split by sign so neither branch overflows."""
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    s[~pos] = ez / (1.0 + ez)
    return s


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * s * (1.0 - s))

    return _make(s, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * (1.0 - t * t))

    return _make(t, (x,), backward)


def lstm(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor,
         reverse: bool = False) -> Tensor:
    """One LSTM direction over an (n, E) sequence as a single graph node.

    Gate order along the 4H axis is i, f, g, o, and the states start at
    zero. With ``reverse`` the recurrence reads the rows from last to first;
    either way row t of the (n, H) result is the state after reading row t.
    The input projection ``x @ w_ih + bias`` is one GEMM for the whole
    sequence (Appleyard et al. 2016). Backward is hand-written BPTT: it fills
    the (n, 4H) gradient of the gate pre-activations, then forms each weight
    gradient and the input gradient as one GEMM over it.
    """
    if x.ndim != 2 or w_hh.ndim != 2:
        raise DimensionError(f"lstm: expected 2-D input and w_hh, got {x.shape} and {w_hh.shape}")
    n, in_dim = x.shape
    hidden = w_hh.shape[0]
    if (w_ih.shape != (in_dim, 4 * hidden) or w_hh.shape != (hidden, 4 * hidden)
            or bias.shape != (4 * hidden,)):
        raise DimensionError(
            f"lstm: input {x.shape} with hidden size {hidden} needs w_ih "
            f"{(in_dim, 4 * hidden)}, w_hh {(hidden, 4 * hidden)} and bias "
            f"{(4 * hidden,)}, got {w_ih.shape}, {w_hh.shape} and {bias.shape}")
    # Everything below runs in reading order; only the ends are flipped.
    xs = x.data[::-1] if reverse else x.data
    pre = xs @ w_ih.data + bias.data
    gates = np.empty_like(pre)  # activated i, f, g, o
    cells = np.empty((n, hidden))
    tanh_cells = np.empty((n, hidden))
    states = np.empty((n, hidden))
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    for t in range(n):
        a = pre[t] + h @ w_hh.data
        act = gates[t]
        act[:] = _sigmoid(a)
        act[g_] = np.tanh(a[g_])
        c = cells[t] = act[f_] * c + act[i_] * act[g_]
        tanh_cells[t] = np.tanh(c)
        h = states[t] = act[o_] * tanh_cells[t]

    def backward(g: np.ndarray) -> None:
        g = g[::-1] if reverse else g
        i, f, gg, o = gates[:, i_], gates[:, f_], gates[:, g_], gates[:, o_]
        c_prev = np.vstack([np.zeros((1, hidden)), cells[:-1]])
        h_prev = np.vstack([np.zeros((1, hidden)), states[:-1]])
        # Local derivatives for every step at once: the i, f and g
        # pre-activations scale the cell gradient, o scales the state's.
        by_dc = np.stack([gg * i * (1.0 - i), c_prev * f * (1.0 - f),
                          i * (1.0 - gg * gg)], axis=1)
        by_dh = tanh_cells * o * (1.0 - o)
        dc_from_dh = o * (1.0 - tanh_cells * tanh_cells)
        d_pre = np.empty((n, 4, hidden))
        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        for t in range(n - 1, -1, -1):
            dh = g[t] + dh_next
            dc = dh * dc_from_dh[t] + dc_next
            np.multiply(by_dc[t], dc, out=d_pre[t, :3])
            np.multiply(by_dh[t], dh, out=d_pre[t, 3])
            dc_next = dc * f[t]
            dh_next = w_hh.data @ d_pre[t].reshape(-1)
        d_pre = d_pre.reshape(n, 4 * hidden)
        if w_ih.requires_grad:
            w_ih._accumulate(xs.T @ d_pre)
        if w_hh.requires_grad:
            w_hh._accumulate(h_prev.T @ d_pre)
        if bias.requires_grad:
            bias._accumulate(d_pre.sum(axis=0))
        if x.requires_grad:
            dx = d_pre @ w_ih.data.T
            x._accumulate(dx[::-1] if reverse else dx)

    return _make(states[::-1] if reverse else states, (x, w_ih, w_hh, bias), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None,
            training: bool) -> Tensor:
    """Inverted dropout: scaled at train time, identity at inference."""
    if not 0.0 <= p < 1.0:
        raise DimensionError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise TrainingStateError("dropout in training mode needs a seeded generator")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(g * mask)

    return _make(x.data * mask, (x,), backward)


def tensor_sum(x: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, float(g)))

    return _make(np.asarray(x.data.sum()), (x,), backward)


def reduce_max(x: Tensor, axis: int = 0) -> Tensor:
    """Max along ``axis``; gradient goes to the first argmax on ties."""
    data = x.data.max(axis=axis)
    argmax = x.data.argmax(axis=axis)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            idx = list(np.indices(data.shape))
            idx.insert(axis, argmax)
            buf[tuple(idx)] = g
            x._accumulate(buf)

    return _make(data, (x,), backward)


def reduce_mean(x: Tensor, axis: int = 0) -> Tensor:
    n = x.shape[axis]

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return _make(x.data.mean(axis=axis), (x,), backward)


def softmax_nll(logits: Tensor, gold) -> Tensor:
    """Negative log-likelihood of the gold class under softmax(logits).

    ``logits`` may be a (C,) vector with an int ``gold``, or an (N, C)
    matrix with a length-N index sequence; the matrix form returns the
    summed loss. Computed with max-subtraction so huge logits do not
    overflow; the gradient is softmax minus the one-hot gold.
    """
    if logits.ndim == 1:
        mat = logits.data[None, :]
        golds = np.asarray([gold], dtype=np.intp)
    elif logits.ndim == 2:
        mat = logits.data
        golds = np.asarray(list(gold), dtype=np.intp)
        if golds.shape[0] != mat.shape[0]:
            raise DimensionError(
                f"softmax_nll: {mat.shape[0]} rows but {golds.shape[0]} gold labels"
            )
    else:
        raise DimensionError(f"softmax_nll: logits must be 1-D or 2-D, got {logits.shape}")
    n_class = mat.shape[1]
    if golds.size and (golds.min() < 0 or golds.max() >= n_class):
        raise IndexError(f"gold class out of range [0, {n_class}): {golds.tolist()}")

    shifted = mat - mat.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows_ix = np.arange(mat.shape[0])
    losses = np.log(exp.sum(axis=1)) - shifted[rows_ix, golds]
    data = np.asarray(losses.sum())

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            grad = probs.copy()
            grad[rows_ix, golds] -= 1.0
            grad *= float(g)
            logits._accumulate(grad[0] if logits.ndim == 1 else grad)

    return _make(data, (logits,), backward)


def softmax_probabilities(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax over the last axis (no graph node)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def xavier_init(shape: Sequence[int], rng: np.random.Generator) -> Tensor:
    """Normal init with variance 2 / (fan_in + fan_out) for 2-D weights."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2:
        raise DimensionError(f"xavier_init needs a 2-D shape, got {shape}")
    if min(shape) <= 0:
        raise DimensionError(f"xavier_init: zero-size shape {shape}")
    std = np.sqrt(2.0 / (shape[0] + shape[1]))
    return Tensor(rng.normal(0.0, std, size=shape))


# ---------------------------------------------------------------------------
# Feed-forward block
# ---------------------------------------------------------------------------

class FeedForward:
    """Linear layers with ReLU and inverted dropout after each hidden layer.

    Weights are (in, out) oriented so the block accepts a (d,) vector or
    an (N, d) batch transparently. The output layer is linear.
    """

    def __init__(self, weights: list[Parameter], biases: list[Parameter],
                 dropout_p: float):
        self.weights = weights
        self.biases = biases
        self.dropout_p = dropout_p

    @classmethod
    def create(cls, name: str, in_dim: int, out_dim: int, *,
               hidden_dim: int = 150, hidden_layers: int = 2,
               dropout_p: float = 0.4, rng: np.random.Generator,
               group: str = "other") -> "FeedForward":
        dims = [in_dim] + [hidden_dim] * hidden_layers + [out_dim]
        weights, biases = [], []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            weights.append(Parameter(xavier_init((d_in, d_out), rng),
                                     name=f"{name}.w{i}", group=group))
            biases.append(Parameter(np.zeros(d_out), name=f"{name}.b{i}", group=group))
        return cls(weights, biases, dropout_p)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def parameters(self) -> list[Parameter]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def __call__(self, x: Tensor, *, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise DimensionError(
                f"feed-forward expects width {self.in_dim}, got input shape {x.shape}"
            )
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = add(matmul(h, w), b)
            if i < last:
                h = relu(h)
                h = dropout(h, self.dropout_p, rng, training)
        return h


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupSettings:
    lr: float
    weight_decay: float


# Encoder-weight settings exist for fine-tuned encoders; the recurrent
# build puts every parameter in "other".
DEFAULT_GROUPS = {
    "other": GroupSettings(lr=1e-3, weight_decay=0.0),
    "encoder-weight": GroupSettings(lr=5e-5, weight_decay=1e-2),
}


class AdamW:
    """Adam with decoupled weight decay, settings chosen per parameter group."""

    def __init__(self, params: Iterable[Parameter],
                 groups: dict[str, GroupSettings] | None = None,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.groups = dict(DEFAULT_GROUPS)
        if groups:
            self.groups.update(groups)
        for p in self.params:
            if p.group not in self.groups:
                raise TrainingStateError(f"parameter {p.name} has unknown group {p.group!r}")
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update to every parameter, then zero the gradients."""
        for p in self.params:
            if p.grad is None:
                raise TrainingStateError(
                    f"parameter {p.name} has no gradient; run backward (after zero_grad) first"
                )
        self.step_count += 1
        b1, b2 = self.betas
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            g = p.grad
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            settings = self.groups[p.group]
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if settings.weight_decay:
                update = update + settings.weight_decay * p.data
            p.data -= settings.lr * update
        for p in self.params:
            p.grad.fill(0.0)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "spantriplet-checkpoint-v1"


def save_checkpoint(path: str, params: Iterable[Parameter],
                    meta: dict | None = None) -> None:
    """Write parameters (name -> shape -> values) plus JSON metadata.

    The file is an ``.npz`` container with a format tag, written via a
    temp file and rename so readers never see a truncated checkpoint.
    """
    arrays: dict[str, np.ndarray] = {"__format__": np.array(CHECKPOINT_FORMAT)}
    if meta is not None:
        arrays["__meta__"] = np.array(json.dumps(meta))
    for p in params:
        key = "param/" + p.name
        if key in arrays:
            raise CheckpointError(f"duplicate parameter name {p.name!r}")
        arrays[key] = p.data
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (name -> array, metadata)."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            names = set(npz.files)
            if "__format__" not in names:
                raise CheckpointError(f"{path}: missing format tag, not a checkpoint")
            tag = str(npz["__format__"][()])
            if tag != CHECKPOINT_FORMAT:
                raise CheckpointError(f"{path}: unsupported format {tag!r}")
            meta = {}
            if "__meta__" in names:
                meta = json.loads(str(npz["__meta__"][()]))
            arrays = {
                name[len("param/"):]: npz[name]
                for name in names if name.startswith("param/")
            }
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    return arrays, meta


def restore_parameters(params: Iterable[Parameter],
                       arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into parameters, validating every shape."""
    params = list(params)
    expected = {p.name for p in params}
    for name in arrays:
        if name not in expected:
            raise CheckpointError(f"checkpoint has unexpected parameter {name!r}")
    for p in params:
        if p.name not in arrays:
            raise CheckpointError(f"checkpoint is missing parameter {p.name!r}")
        arr = arrays[p.name]
        if tuple(arr.shape) != p.shape:
            raise CheckpointError(
                f"parameter {p.name!r}: checkpoint shape {tuple(arr.shape)} != model shape {p.shape}"
            )
        p.data = arr.astype(np.float64, copy=True)
