"""Elementary ops and the per-span pooling path, kept as test oracles.

The library builds span vectors with one ``ad.span_pool`` node per
sentence, both LSTM directions as one ``ad.bilstm`` node, each scorer
layer as one ``ad.linear`` node and the relation scorer's layer 0 over
the pair matrix as one ``ad.pair_linear`` node. These are the
elementwise, per-row and per-slice ops the older compositions were made
of, plus the materialized pair matrix; the tests rebuild those
compositions from them and compare. ``bucket_index`` and ``pair_distance``
are the scalar rules that the library computes on arrays.
"""

import bisect

import numpy as np

from spantriplet import autodiff as ad
from spantriplet import encoder as enc
from spantriplet.autodiff import Tensor
from spantriplet.errors import DataError, DimensionError


def matmul(a, b):
    """Matrix product for 1-D/2-D operands with numpy semantics."""
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise DimensionError(f"matmul: only 1-D/2-D operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g):
        if a.ndim == 2 and b.ndim == 2:
            if a.requires_grad:
                a._accumulate(g @ b.data.T)
            if b.requires_grad:
                b._accumulate_product((a.data.T, g))
            return
        if a.ndim == 2 and b.ndim == 1:
            ga, gb = np.outer(g, b.data), a.data.T @ g
        elif a.ndim == 1 and b.ndim == 2:
            ga, gb = b.data @ g, np.outer(a.data, g)
        else:
            ga, gb = g * b.data, g * a.data
        if a.requires_grad:
            a._accumulate(ga)
        if b.requires_grad:
            b._accumulate(gb)

    return ad._make(data, (a, b), backward)


def mul(a, b):
    """Elementwise product of two same-shape tensors."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} differ")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return ad._make(a.data * b.data, (a, b), backward)


def sigmoid(x):
    s = ad._sigmoid(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s * (1.0 - s))

    return ad._make(s, (x,), backward)


def tanh(x):
    t = np.tanh(x.data)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * (1.0 - t * t))

    return ad._make(t, (x,), backward)


def tensor_sum(x):
    """Sum of all entries as a scalar."""
    def backward(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, float(g)))

    return ad._make(np.asarray(x.data.sum()), (x,), backward)


def stack(tensors, axis=0):
    """Stack same-shape tensors along a new axis."""
    tensors = list(tensors)
    if not tensors:
        raise DimensionError("stack: need at least one tensor")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise DimensionError(f"stack: shapes differ, {[t.shape for t in tensors]}")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return ad._make(data, tuple(tensors), backward)


def join(vectors):
    """Concatenate 1-D tensors end to end; gradients slice back to the inputs."""
    data = np.concatenate([v.data for v in vectors])
    offsets = np.cumsum([0] + [v.shape[0] for v in vectors])

    def backward(g):
        for v, start, stop in zip(vectors, offsets[:-1], offsets[1:]):
            v._accumulate(g[start:stop])

    return ad._make(data, tuple(vectors), backward)


def row(x, index):
    """Single row of a 2-D tensor as a vector."""
    n = x.shape[0]
    if not 0 <= index < n:
        raise IndexError(f"row index {index} out of range for {n} rows")

    def backward(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[index] = g
            x._accumulate(buf)

    return ad._make(x.data[index].copy(), (x,), backward)


def narrow(x, start, stop, axis=0):
    """Contiguous slice [start:stop) along ``axis``."""
    if not 0 <= start <= stop <= x.shape[axis]:
        raise IndexError(f"narrow [{start}:{stop}) out of range for axis {axis} of {x.shape}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, stop)
    index = tuple(index)

    def backward(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[index] = g
            x._accumulate(buf)

    return ad._make(x.data[index].copy(), (x,), backward)


def reduce_max(x, axis=0):
    """Max along ``axis``; gradient goes to the first argmax on ties."""
    data = x.data.max(axis=axis)
    argmax = x.data.argmax(axis=axis)

    def backward(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            idx = list(np.indices(data.shape))
            idx.insert(axis, argmax)
            buf[tuple(idx)] = g
            x._accumulate(buf)

    return ad._make(data, (x,), backward)


def reduce_mean(x, axis=0):
    n = x.shape[axis]

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return ad._make(x.data.mean(axis=axis), (x,), backward)


def bucket_index(value):
    """The bucket of one width or distance: the scalar form of ``enc.bucket_indices``."""
    return bisect.bisect_left(enc.BUCKET_UPPER, value)


def pair_distance(target, opinion):
    """min(|b - c|, |a - d|) for target (a, b) and opinion (c, d)."""
    (a, b), (c, d) = target, opinion
    return min(abs(b - c), abs(a - d))


def span_representation(h: Tensor, span, mode, width_table):
    """Vector for one span, built from per-span graph nodes."""
    i, j = span
    n = h.shape[0]
    if not (0 <= i <= j < n):
        raise IndexError(f"span {span} out of range for sentence length {n}")
    if mode == "boundary":
        core = [row(h, i), row(h, j)]
    elif mode == "max_pool":
        core = [reduce_max(narrow(h, i, j + 1), axis=0)]
    elif mode == "mean_pool":
        core = [reduce_mean(narrow(h, i, j + 1), axis=0)]
    else:
        raise DataError(f"unknown span mode {mode!r}; expected one of {enc.SPAN_MODES}")
    if width_table is not None:
        core.append(row(width_table, bucket_index(enc.span_width(span))))
    return core[0] if len(core) == 1 else join(core)


def span_representation_matrix(h, spans, mode, width_table):
    """(S, D) span matrix as a stack of per-span vectors: the pooling oracle."""
    return stack([span_representation(h, s, mode, width_table) for s in spans], axis=0)


def pair_features(reps, targets, opinions, table, buckets):
    """The (kt * ko, 2D + dd) pair matrix of every target x opinion pair as one node.

    Row ``a * ko + b`` is ``[reps[targets[a]]; reps[opinions[b]];
    table[buckets[a * ko + b]]]``; without a table the last block is absent.
    ``ad.linear`` over this matrix is the oracle for ``ad.pair_linear``.
    Backward sums the target block over the opinion axis and the opinion
    block over the target axis before scattering them into ``reps``.
    """
    t_idx = np.asarray(targets, dtype=np.intp)
    o_idx = np.asarray(opinions, dtype=np.intp)
    dim = reps.shape[1]
    kt, ko = t_idx.size, o_idx.size
    width = 2 * dim + (0 if table is None else table.shape[1])
    data = np.empty((kt * ko, width))
    grid = data.reshape(kt, ko, width)
    grid[:, :, :dim] = reps.data[t_idx][:, None, :]
    grid[:, :, dim:2 * dim] = reps.data[o_idx][None, :, :]
    if table is not None:
        b_idx = np.asarray(buckets, dtype=np.intp)
        data[:, 2 * dim:] = table.data[b_idx]

    def backward(g):
        if reps.requires_grad:
            g_grid = g.reshape(kt, ko, width)
            ad._scatter_rows(reps, t_idx, g_grid[:, :, :dim].sum(axis=1))
            ad._scatter_rows(reps, o_idx, g_grid[:, :, dim:2 * dim].sum(axis=0))
        if table is not None:
            ad._scatter_rows(table, b_idx, g[:, 2 * dim:])

    parents = (reps,) if table is None else (reps, table)
    return ad._make(data, parents, backward)
