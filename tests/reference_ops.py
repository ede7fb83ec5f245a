"""Elementary ops and the per-span pooling path, kept as test oracles.

The library builds span vectors with one ``ad.span_pool`` node per
sentence and each LSTM direction as one ``ad.lstm`` node. These are the
per-row and per-slice ops the older compositions were made of; the tests
rebuild those compositions from them and compare.
"""

import numpy as np

from spantriplet import autodiff as ad
from spantriplet import encoder as enc
from spantriplet.autodiff import Tensor
from spantriplet.errors import DataError, DimensionError


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
        core.append(row(width_table, enc.bucket_index(enc.span_width(span))))
    return core[0] if len(core) == 1 else ad.concat(core, axis=0)


def span_representation_matrix(h, spans, mode, width_table):
    """(S, D) span matrix as a stack of per-span vectors: the pooling oracle."""
    return stack([span_representation(h, s, mode, width_table) for s in spans], axis=0)
