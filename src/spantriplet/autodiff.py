"""Reverse-mode automatic differentiation on numpy arrays.

Everything is float64. Each operation returns a new Tensor holding the
result plus a closure that routes the output gradient to the inputs;
``Tensor.backward()`` replays the closures in reverse topological order.
The graph is rebuilt on every forward pass, which fits per-sentence
updates (batch size 1) and keeps no state between examples.

The op set is exactly what the model runs: ``rows`` (embedding, boundary
and width gathers), ``span_pool``, ``pair_linear``, ``concat``,
``bilstm``, ``dropout``, ``linear``, ``relu``, ``softmax_nll`` and the
``add`` that sums the two losses. Both LSTM directions are one op: each
direction's input projection is hoisted into one GEMM over the sentence
and its BPTT backward is written by hand. Max or mean pooling over every
span of a sentence is one op too, and so is each affine layer of a scorer.
The relation scorer's layer 0 and the pair matrix it reads are one op,
``pair_linear``: its backward sums the output gradient over the pools
before any GEMM, so no (pairs, 2D + dd) gradient is ever formed, and its
forward builds the pair matrix a block of rows at a time in the thread's
scratch buffer.
Two ops run in two lanes when their BLAS calls are large enough: the
caller's thread and one worker thread, which overlap because numpy
releases the GIL inside BLAS. ``bilstm`` runs one direction in each lane,
forward and backward, and ``pair_linear``'s forward gives each lane half
of its blocks. Every lane writes its own arrays, so the bits are those of
running the halves in turn.
A training step allocates little: weight-gradient GEMMs, pair-row blocks
and AdamW's temporaries borrow one scratch buffer per thread, row gathers
scatter their gradient into the existing grad buffer, and AdamW updates in
place, block by block. Inside ``no_grad`` ops record no graph, so a forward
that nothing differentiates frees each op's saved arrays as it returns.

``Tensor._accumulate`` is the one gradient gate: it drops the gradient of
a tensor without ``requires_grad``, ``_accumulate_product`` drops it before
its GEMM and ``_scatter_rows`` before it allocates, so a detached input
never gets a grad buffer and each op's backward is its bare gradient formula.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import math
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, TrainingStateError


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
        """Add ``g`` to the gradient; a tensor without ``requires_grad`` takes none."""
        if not self.requires_grad:
            return
        if self.grad is None:
            # A fresh buffer (``g`` may be a view shared with other consumers)
            # holding 0.0 + g in one pass: the bits of zeros plus ``g``.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def _accumulate_product(self, *factors: tuple[np.ndarray, np.ndarray]) -> None:
        """Add the products ``a @ b`` of ``factors``, stacked by rows, through the thread's scratch.

        The products go there, never straight into ``grad``, which may hold
        another consumer's gradient. Returns before any GEMM for a tensor
        without ``requires_grad``.
        """
        if not self.requires_grad:
            return
        product = _scratch(*self.data.shape)
        start = 0
        for a, b in factors:
            np.matmul(a, b, out=product[start:start + a.shape[0]])
            start += a.shape[0]
        self._accumulate(product)

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable tensor with a unique name."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class _PerThread(threading.local):
    """What each thread keeps: its scratch buffer and whether ops record a graph.

    The scratch buffer is lent to one op at a time. Weight-gradient products,
    ``pair_linear``'s pair-row blocks and AdamW's temporaries borrow it in
    turn, so no view of it may outlive the op that borrowed it. The worker
    lane of ``_in_lanes`` borrows its own thread's buffer. A fresh buffer of
    megabytes per call would make the allocator hand its pages back and
    fault them in again on every sentence.
    """

    def __init__(self) -> None:
        self.scratch = np.empty(0)
        self.record = True


_thread = _PerThread()


def _scratch(rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) view of this thread's scratch buffer, grown when too short."""
    size = rows * cols
    if _thread.scratch.size < size:
        _thread.scratch = np.empty(size)
    return _thread.scratch[:size].reshape(rows, cols)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Ops run inside keep no parents or backward closure, so no graph outlives them.

    For forwards that nothing differentiates; the outputs hold the same bits.
    The previous state comes back on exit, after an error too, so blocks nest.
    """
    record, _thread.record = _thread.record, False
    try:
        yield
    finally:
        _thread.record = record


def _make(data: np.ndarray, parents: tuple[Tensor, ...],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    out.requires_grad = _thread.record and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Threads: two lanes per op, and the BLAS thread count
# ---------------------------------------------------------------------------

# The smallest BLAS call, in multiply-adds, that an op splits over two
# lanes. An LSTM step's ``h @ w_hh`` is 4H * H of them: two lanes gained
# nothing at H = 128 (65k) and ran the forward 1.4-1.9x faster at H = 300
# (360k).
LANE_MIN_MULADDS = 1 << 18

_worker: ThreadPoolExecutor | None = None


def _drop_worker() -> None:
    global _worker
    _worker = None


# A forked child inherits the executor but not its thread; it makes its own.
os.register_at_fork(after_in_child=_drop_worker)


def _lanes_pay(muladds: int) -> bool:
    """Whether an op whose BLAS calls are ``muladds`` each runs in two lanes.

    Only if every call is at least ``LANE_MIN_MULADDS`` and the process may
    use two CPUs.
    """
    if muladds < LANE_MIN_MULADDS:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _in_lanes(work: Callable, first: tuple, second: tuple, lanes: bool) -> tuple:
    """``(work(*first), work(*second))``: the two independent halves of one op.

    With ``lanes`` the first half runs on the one worker thread, made on
    first use, while the second runs on the caller; without, they run in
    turn on the caller. The halves must write disjoint arrays; each borrows
    the scratch buffer of the thread it runs on.
    """
    global _worker
    if not lanes:
        return work(*first), work(*second)
    if _worker is None:
        _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="spantriplet-lane")
    pending = _worker.submit(work, *first)
    try:
        done = work(*second)
    finally:
        # The worker's half finishes before the caller goes on, even after an error.
        first_done = pending.result()
    return first_done, done


# Thread-count (setter, getter) pairs as numpy's bundled OpenBLAS, a plain
# OpenBLAS and MKL export them.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)


def set_blas_threads(threads: int) -> tuple[str | None, int | None]:
    """Set the thread count of numpy's BLAS from inside the process.

    At the reference dimensions the bits of a matrix product depend on how
    many threads split it, so a run replays bitwise only at a fixed count.
    The library is looked up among the shared objects this process maps
    (``/proc/self/maps``) and set through ``ctypes``. Returns its path and
    the count it reads back, or (None, None) after one logged warning when
    no mapped library exports a known setter.
    """
    mapped = set()
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                # The sixth field, when present, is the mapped file.
                if len(fields) == 6 and re.search(r"blas|mkl", os.path.basename(fields[5]), re.I):
                    mapped.add(fields[5].strip())
    except OSError:
        pass
    for path in sorted(mapped):
        try:
            library = ctypes.CDLL(path)
        except OSError:  # a mapped file that is no loadable library
            continue
        for set_name, get_name in _BLAS_THREAD_SYMBOLS:
            if hasattr(library, set_name) and hasattr(library, get_name):
                setter, getter = getattr(library, set_name), getattr(library, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter(threads)
                return path, getter()
    logging.getLogger(__name__).warning(
        "found no BLAS thread setter; matrix products keep their thread count, "
        "so results may not replay bitwise")
    return None, None


# ---------------------------------------------------------------------------
# Linear algebra and structure
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Sum of two same-shape tensors; the model adds its two loss terms."""
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")

    def backward(g: np.ndarray) -> None:
        a._accumulate(g)
        b._accumulate(g)

    return _make(a.data + b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine layer ``x @ w + b`` over (N, in) rows as one node.

    Backward sends ``g @ w.T`` to ``x``, ``x.T @ g`` to ``w`` through the
    thread's scratch buffer, and the column sums of ``g`` to ``b``.
    """
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear: (N, in) rows, (in, out) weight and (out,) bias "
                             f"needed, got {x.shape}, {w.shape} and {b.shape}")
    data = x.data @ w.data
    data += b.data

    def backward(g: np.ndarray) -> None:
        x._accumulate(g @ w.data.T)
        w._accumulate_product((x.data.T, g))
        b._accumulate(g.sum(axis=0))

    return _make(data, (x, w, b), backward)


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Join 2-D tensors with equal row counts side by side; ``axis`` must be 1.

    Gradients slice back to the inputs column block by column block.
    """
    tensors = list(tensors)
    shapes = [t.shape for t in tensors]
    if axis != 1 or not tensors or any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes):
        raise DimensionError(f"concat: joins 2-D tensors with equal row counts on axis 1, "
                             f"got axis {axis} and shapes {shapes}")
    data = np.concatenate([t.data for t in tensors], axis=1)
    offsets = np.cumsum([0] + [s[1] for s in shapes])

    def backward(g: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            t._accumulate(g[:, start:stop])

    return _make(data, tuple(tensors), backward)


def _scatter_rows(x: Tensor, idx: np.ndarray, g: np.ndarray) -> None:
    """Add row ``i`` of ``g`` to row ``idx[i]`` of ``x.grad``, allocating it if needed.

    The gradient rows of each distinct index are summed in the order they
    occur, then each sum is added to its row of ``x.grad``: bincount adds
    its weights in input order into zeros, so these are the bits of
    scattering into zeros with ``np.add.at`` and adding that.
    """
    if not x.requires_grad:
        return
    if x.grad is None:
        x.grad = np.zeros_like(x.data)
    seen, where = np.unique(idx, return_inverse=True)
    width = g.shape[1]
    flat = where[:, None] * width + np.arange(width)
    x.grad[seen] += np.bincount(flat.ravel(), weights=g.ravel(),
                                minlength=seen.size * width).reshape(seen.size, width)


def rows(x: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a 2-D tensor; repeated indices accumulate gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"row indices out of range for {x.shape[0]} rows: {idx.tolist()}")

    def backward(g: np.ndarray) -> None:
        _scatter_rows(x, idx, g)

    return _make(x.data[idx], (x,), backward)


# Rows of the pair matrix that pair_linear builds at a time: 5 MiB at the
# reference width of 2568.
PAIR_BLOCK_ROWS = 256


def pair_linear(reps: Tensor, targets: Sequence[int], opinions: Sequence[int],
                table: Tensor | None, buckets: Sequence[int] | None,
                w: Tensor, b: Tensor) -> Tensor:
    """Relation layer 0, ``x @ w + b``, over every target x opinion pair as one node.

    ``x`` is the (kt * ko, 2D + dd) pair matrix: row ``a * ko + b`` is
    ``[reps[targets[a]]; reps[opinions[b]]; table[buckets[a * ko + b]]]``;
    without a table the last block is absent and ``buckets`` is None. The
    one caller, ``SpanModel.forward``, passes pool indices below the rows of
    ``reps``, buckets below the table's rows and a weight of pair-row width,
    so nothing here checks them.
    ``x`` never exists whole. The forward writes it a block of whole target
    groups at a time, about ``PAIR_BLOCK_ROWS`` rows, into the caller's
    scratch buffer, and runs that block's GEMM into its rows of the
    output. When the blocks are large enough, each of two lanes does half
    of them in a block of its own, both cut from the caller's buffer.
    The blocks hold equal target counts, give or take one, so none is a
    1- or 2-row product unless the whole matrix is: BLAS rounds those
    through other kernels. Every row then has the bits of ``linear`` on
    the materialized matrix wherever BLAS takes the same kernel for a
    block as for the whole, as OpenBLAS does at the reference width.

    Backward never forms a (kt * ko, .) gradient. With ``w`` split into
    its target, opinion and distance blocks W_t, W_o, W_d and ``g`` viewed
    as (kt, ko, H), each target row gets ``(sum over b of g[a, b]) @ W_t.T``,
    each opinion row ``(sum over a of g[a, b]) @ W_o.T`` and each table
    row ``(its bucket's sum of g) @ W_d.T``; the weight blocks are the
    gathered rows' transposes times those same sums.
    """
    t_idx = np.asarray(targets, dtype=np.intp)
    o_idx = np.asarray(opinions, dtype=np.intp)
    if table is not None:
        b_idx = np.asarray(buckets, dtype=np.intp)
    dim = reps.shape[1]
    kt, ko = t_idx.size, o_idx.size
    width = w.shape[0]
    data = np.empty((kt * ko, w.shape[1]))
    # A block holds at least one target, so an opinion pool wider than a
    # block gives one target per block.
    per_block = max(1, PAIR_BLOCK_ROWS // max(ko, 1))
    blocks = max(1, math.ceil(kt / per_block))
    bounds = [i * kt // blocks for i in range(blocks + 1)]
    block_rows = math.ceil(kt / blocks) * ko
    lanes = blocks > 1 and _lanes_pay(block_rows * width * w.shape[1])
    # One block per lane, sized here: a buffer grown inside a lane would race.
    scratch = _scratch((1 + lanes) * block_rows, width)
    opinion_rows = reps.data[o_idx]

    def fill(bounds: list[int], rows: np.ndarray) -> None:
        for start, stop in zip(bounds[:-1], bounds[1:]):
            x = rows[:(stop - start) * ko]
            grid = x.reshape(stop - start, ko, width)
            grid[:, :, :dim] = reps.data[t_idx[start:stop]][:, None, :]
            grid[:, :, dim:2 * dim] = opinion_rows
            if table is not None:
                x[:, 2 * dim:] = table.data[b_idx[start * ko:stop * ko]]
            np.matmul(x, w.data, out=data[start * ko:stop * ko])

    half = blocks // 2
    _in_lanes(fill, (bounds[:half + 1], scratch[:block_rows]),
              (bounds[half:], scratch[len(scratch) - block_rows:]), lanes)
    data += b.data

    def backward(g: np.ndarray) -> None:
        g_grid = g.reshape(kt, ko, w.shape[1])
        by_target = g_grid.sum(axis=1)
        by_opinion = g_grid.sum(axis=0)
        w_t, w_o, w_d = w.data[:dim], w.data[dim:2 * dim], w.data[2 * dim:]
        if table is not None:
            # One (buckets seen, P) indicator GEMM sums g per bucket.
            buckets_seen = np.unique(b_idx)
            by_bucket = np.equal.outer(buckets_seen, b_idx) @ g
        _scatter_rows(reps, t_idx, by_target @ w_t.T)
        _scatter_rows(reps, o_idx, by_opinion @ w_o.T)
        factors = [(reps.data[t_idx].T, by_target), (reps.data[o_idx].T, by_opinion)]
        if table is not None:
            _scatter_rows(table, buckets_seen, by_bucket @ w_d.T)
            factors.append((table.data[buckets_seen].T, by_bucket))
        w._accumulate_product(*factors)
        b._accumulate(g.sum(axis=0))

    parents = (reps, w, b) if table is None else (reps, table, w, b)
    return _make(data, parents, backward)


def span_pool(h: Tensor, starts: Sequence[int], ends: Sequence[int], mode: str) -> Tensor:
    """Elementwise max or mean over rows ``starts[s]..ends[s]`` (inclusive) of (n, D) ``h``.

    One node for all S spans: the forward gathers the padded (S, W, D)
    window of rows once, W being the widest span, and reduces over it. A
    window row past its span's end repeats the end row, which leaves the max
    and its first argmax unchanged; for the mean it is zeroed, which leaves
    the sum's bits unchanged (numpy sums from +0.0). Backward sends each max entry's gradient
    to its first argmax row and spreads the mean's gradient as g / width over
    the span's rows, summed in span order into one zeros buffer for ``h``.
    Any ``mode`` but "max" means the mean: the one caller maps the span mode,
    which ``ModelConfig`` checks, to one of the two. Its ``starts`` and
    ``ends`` are the columns of one (S, 2) array; only their bounds are checked.
    """
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    n, dim = h.shape
    if starts.size and (starts.min() < 0 or ends.max() >= n or (ends < starts).any()):
        raise IndexError(f"span bounds out of range for {n} rows: "
                         f"{list(zip(starts.tolist(), ends.tolist()))}")
    widths = ends - starts + 1
    offsets = np.arange(widths.max(initial=1))
    window_rows = np.minimum(starts[:, None] + offsets, ends[:, None])  # (S, W)
    window = h.data[window_rows]
    if mode == "max":
        data = window.max(axis=1)
    else:
        window[offsets >= widths[:, None]] = 0.0
        data = window.sum(axis=1) / widths[:, None]

    def backward(g: np.ndarray) -> None:
        if mode == "max":
            # The first argmax never lies in the padding, so its row is start + position.
            picked = h.data[window_rows].argmax(axis=1)
            flat = (starts[:, None] + picked) * dim + np.arange(dim)
            spread = g
        else:
            # Padding rows point at the span's end row and carry a zero.
            flat = window_rows[:, :, None] * dim + np.arange(dim)
            spread = np.where((offsets < widths[:, None])[:, :, None],
                              (g / widths[:, None])[:, None, :], 0.0)
        # bincount adds the weights in order into zeros, as np.add.at would.
        buf = np.bincount(flat.ravel(), weights=spread.ravel(), minlength=n * dim)
        h._accumulate(buf.reshape(n, dim))

    return _make(data, (h,), backward)


# ---------------------------------------------------------------------------
# Nonlinearities and reductions
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        x._accumulate(g * (x.data > 0.0))

    return _make(np.maximum(x.data, 0.0), (x,), backward)


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """Logistic function split by sign so neither branch overflows.

    With e = exp(-|d|) this is 1 / (1 + e) where d >= 0 and e / (1 + e)
    elsewhere, computed for every entry and chosen with ``np.where``.
    """
    e = np.exp(-np.abs(d))
    den = 1.0 + e
    return np.where(d >= 0, 1.0 / den, e / den)


def _lstm_forward(xs: np.ndarray, w_ih: Tensor, w_hh: Tensor, bias: Tensor,
                  out: np.ndarray) -> tuple[np.ndarray, ...]:
    """One direction's recurrence over the rows of ``xs`` in reading order.

    Writes the states into ``out`` and returns the activated gates, the
    cells, their tanh and the states, which its backward reads.
    """
    n, hidden = xs.shape[0], w_hh.shape[0]
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
    out[...] = states
    return gates, cells, tanh_cells, states


def _lstm_backward(g: np.ndarray, xs: np.ndarray, saved: tuple[np.ndarray, ...],
                   w_ih: Tensor, w_hh: Tensor, bias: Tensor,
                   input_grad: bool) -> np.ndarray | None:
    """BPTT of one direction, ``g`` and ``xs`` in its reading order.

    Adds the direction's weight gradients and returns its input gradient
    in reading order, or None without ``input_grad``.
    """
    gates, cells, tanh_cells, states = saved
    n, hidden = states.shape
    i_, f_, g_, o_ = (slice(k * hidden, (k + 1) * hidden) for k in range(4))
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
        if t == 0:
            break  # nothing reads the gradient of the zero initial state
        dc_next = dc * f[t]
        dh_next = w_hh.data @ d_pre[t].reshape(-1)
    d_pre = d_pre.reshape(n, 4 * hidden)
    w_ih._accumulate_product((xs.T, d_pre))
    w_hh._accumulate_product((h_prev.T, d_pre))
    bias._accumulate(d_pre.sum(axis=0))
    return d_pre @ w_ih.data.T if input_grad else None


def bilstm(x: Tensor, fw: Sequence[Tensor], bw: Sequence[Tensor]) -> Tensor:
    """Both LSTM directions over an (n, E) sequence as one (n, 2H) graph node.

    ``fw`` and ``bw`` are each direction's (w_ih, w_hh, bias), shaped as
    ``encoder.lstm_parameters`` builds them (unchecked here), with gate
    order i, f, g, o along the 4H axis; they must not share a tensor, as
    the two directions may write their gradients at once. Columns
    :H hold the forward direction's states and H: the backward one's,
    which reads the rows from last to first; either way row t holds the
    state after reading row t. The states start at zero. Each direction's
    input projection ``x @ w_ih + bias`` is one GEMM for the whole sequence
    (Appleyard et al. 2016). Backward is hand-written BPTT: it fills the
    (n, 4H) gradient of the gate pre-activations, then forms each weight
    gradient and the input gradient as one GEMM over it.

    Each direction is one lane of ``_in_lanes``, forward and backward, when
    its per-step ``h @ w_hh`` is large enough. A direction writes only its
    own arrays and weight gradients; the input gradient is added after
    both, the forward direction's first.
    """
    n = x.shape[0]
    hidden = fw[1].shape[0]
    # Each direction runs in its reading order; only the ends are flipped.
    reading = (x.data, x.data[::-1])
    data = np.empty((n, 2 * hidden))
    lanes = _lanes_pay(4 * hidden * hidden)
    saved = _in_lanes(_lstm_forward, (reading[0], *fw, data[:, :hidden]),
                      (reading[1], *bw, data[::-1, hidden:]), lanes)

    def backward(g: np.ndarray) -> None:
        dx = _in_lanes(_lstm_backward,
                       (g[:, :hidden], reading[0], saved[0], *fw, x.requires_grad),
                       (g[::-1, hidden:], reading[1], saved[1], *bw, x.requires_grad),
                       lanes)
        if x.requires_grad:
            x._accumulate(dx[0])
            x._accumulate(dx[1][::-1])

    return _make(data, (x, *fw, *bw), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator | None,
            training: bool) -> Tensor:
    """Inverted dropout: scaled at train time, identity at inference.

    ``p`` is in [0, 1), as ``ModelConfig`` checks for both dropout rates.
    """
    if not training or p == 0.0:
        return x
    if rng is None:
        raise TrainingStateError("dropout in training mode needs a seeded generator")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return _make(x.data * mask, (x,), backward)


def softmax_nll(logits: Tensor, gold: Sequence[int]) -> Tensor:
    """Summed negative log-likelihood of each row's gold class under softmax.

    ``logits`` is an (N, C) matrix and ``gold`` holds N class indices.
    Computed with max-subtraction so huge logits do not overflow; the
    gradient is softmax minus the one-hot gold.
    """
    if logits.ndim != 2:
        raise DimensionError(f"softmax_nll: logits must be (N, C), got {logits.shape}")
    mat = logits.data
    golds = np.asarray(list(gold), dtype=np.intp)
    if golds.shape[0] != mat.shape[0]:
        raise DimensionError(
            f"softmax_nll: {mat.shape[0]} rows but {golds.shape[0]} gold labels"
        )
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
        grad = probs.copy()
        grad[rows_ix, golds] -= 1.0
        grad *= float(g)
        logits._accumulate(grad)

    return _make(data, (logits,), backward)


def softmax_probabilities(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax over the last axis (no graph node)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def xavier_init(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Normal init with variance 2 / (fan_in + fan_out) for a 2-D shape of sizes >= 1."""
    std = np.sqrt(2.0 / (shape[0] + shape[1]))
    return rng.normal(0.0, std, size=shape)


# ---------------------------------------------------------------------------
# Feed-forward block
# ---------------------------------------------------------------------------

class FeedForward:
    """Linear layers with ReLU and inverted dropout after each hidden layer.

    Maps an (N, in) batch of rows to (N, out) with one ``linear`` node per
    layer; weights are (in, out) oriented. The output layer is linear.
    Calling the block runs layer 0 and then ``from_layer0``, so a caller
    that computes layer 0 some other way (the relation scorer's
    ``pair_linear``) hands its output to ``from_layer0``; the dropout draws
    come in the same order either way.
    """

    def __init__(self, weights: list[Parameter], biases: list[Parameter],
                 dropout_p: float):
        self.weights = weights
        self.biases = biases
        self.dropout_p = dropout_p

    @classmethod
    def create(cls, name: str, in_dim: int, out_dim: int, *,
               hidden_dim: int, hidden_layers: int, dropout_p: float,
               rng: np.random.Generator) -> "FeedForward":
        dims = [in_dim] + [hidden_dim] * hidden_layers + [out_dim]
        weights, biases = [], []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            weights.append(Parameter(xavier_init((d_in, d_out), rng), name=f"{name}.w{i}"))
            biases.append(Parameter(np.zeros(d_out), name=f"{name}.b{i}"))
        return cls(weights, biases, dropout_p)

    def parameters(self) -> list[Parameter]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def __call__(self, x: Tensor, *, training: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        return self.from_layer0(linear(x, self.weights[0], self.biases[0]),
                                training=training, rng=rng)

    def from_layer0(self, h: Tensor, *, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor:
        """The rest of the block after layer 0: ReLU, dropout, then each later layer."""
        for w, b in zip(self.weights[1:], self.biases[1:]):
            h = dropout(relu(h), self.dropout_p, rng, training)
            h = linear(h, w, b)
        return h


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay, updating every parameter in place.

    Each parameter is updated in blocks of about ``BLOCK`` entries along its
    first axis, with two temporary blocks borrowed from the thread's scratch
    buffer, so a step allocates no array memory once that buffer is grown
    and each block's gradient is zeroed while still in cache.
    Basic slices are views for any memory layout, so every update lands.
    """

    BLOCK = 16384
    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 weight_decay: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]
        # A row wider than BLOCK is a block of its own.
        widest = max((math.prod(p.shape[1:]) for p in self.params), default=0)
        self._block_size = max(self.BLOCK, widest)

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
        b1, b2 = self.BETAS
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        temporaries = _scratch(2, self._block_size)
        for p, m_all, v_all in zip(self.params, self.first_moment, self.second_moment):
            arrays = [np.atleast_1d(a) for a in (p.data, p.grad, m_all, v_all)]
            per_block = max(1, self.BLOCK // max(1, math.prod(arrays[0].shape[1:])))
            for start in range(0, len(arrays[0]), per_block):
                w, g, m, v = (a[start:start + per_block] for a in arrays)
                t, u = (s[:g.size].reshape(g.shape) for s in temporaries)
                # m, v and u exactly as m = b1*m + (1-b1)*g,
                # v = b2*v + (1-b2)*g*g, u = (m/bias1) / (sqrt(v/bias2) + eps).
                m *= b1
                np.multiply(1.0 - b1, g, out=t)
                m += t
                v *= b2
                np.multiply(1.0 - b2, g, out=t)
                t *= g
                v += t
                np.divide(v, bias2, out=t)
                np.sqrt(t, out=t)
                t += self.EPS
                np.divide(m, bias1, out=u)
                u /= t
                if self.weight_decay:
                    np.multiply(self.weight_decay, w, out=t)
                    u += t
                u *= self.lr
                w -= u
                g.fill(0.0)
