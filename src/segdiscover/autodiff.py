"""Reverse-mode automatic differentiation on dense float64 matrices.

Everything is a 2-D array; vectors are columns. A forward pass records
parent links and a backward closure on every result, and ``backward``
replays that tape in reverse topological order, accumulating gradients
into leaf tensors created with ``requires_grad=True``. Tensors are
treated as immutable once created; an optimizer may mutate parameter
``.data`` only between passes, which keeps any recorded tape valid for
exactly one forward/backward round trip.

A tape is spent by its ``backward``: each non-leaf node drops its
closure, its parent links and its gradient as soon as it has passed
its gradient on, so the graph's intermediates are freed during the
pass and only ``.data`` stays readable. A second ``backward`` through a
spent node raises a ``ValueError`` that names it. Inference records no
tape: ops run inside ``no_tape()`` return untracked results.

Supported operations: matmul, optionally with a column-vector bias and
a ReLU folded in (one node per linear layer, holding only its output
and the ReLU mask), transpose, add (with column-vector bias
broadcast), elementwise multiply, scalar scaling, ReLU, column-wise
L2 normalization, column-wise softmax, clamped log, sum and mean
reduction, a sum in row-major order, row/column concatenation, a
column gather used to slice batches, a neighbour mean that averages
each column's k-NN columns through an index gather, a linear map of
an input stacked over its neighbour mean that pools the map's output
instead (``pooled_matmul``: the extractor's projection and pooling as
one node), and a fused softmax cross entropy that scores a view's
logits as one tape node: one value per head, head families read as
contiguous row slabs that share the base rows, with a closed-form
backward.

The pooling ops take a ``NeighbourGraph`` around a
``model.knn_indices`` index. A graph keeps the transpose its first
backward pass builds, at 2 bytes per entry up to 65,536 points, so a
scene's later passes gather through it without rebuilding it;
inference never builds it.
Backward closures compute gradients only for operands that reach a
tracked leaf.
"""

from __future__ import annotations

import contextlib
import math
import struct
from typing import Mapping, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"NOPS"
CHECKPOINT_VERSION = 1
NORM_FLOOR = 1e-12  # l2_normalize_cols' lower bound on a column norm


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names the node."""


class Tensor:
    """A float64 matrix with an optional gradient slot.

    ``name`` is carried into shape-error messages so a failure points at
    the offending node rather than at anonymous arrays.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.ndim != 2:
            raise ShapeError(f"tensor {name or '<anon>'}: expected at most 2 dims, got {arr.ndim}")
        self.data = arr
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def label(self):
        return self.name if self.name is not None else f"<{self.data.shape[0]}x{self.data.shape[1]}>"

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(name={self.name!r}, shape={self.data.shape})"


def parameter(data, name):
    """A named leaf tensor with a gradient slot."""
    return Tensor(data, requires_grad=True, name=name)


def constant(data, name=None):
    return Tensor(data, requires_grad=False, name=name)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# False inside ``no_tape``: ops then record nothing
_recording = True


@contextlib.contextmanager
def no_tape():
    """Run ops untracked, for inference: every result is a constant that
    holds no parents and no closure, so each intermediate is freed as
    soon as nothing else refers to it."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _tracked(a: Tensor) -> bool:
    # a spent node (``_parents`` None) still counts, so a backward through
    # it reaches it and fails
    return a.requires_grad or a._parents != () or a._backward is not None


def _result(data, parents, backward):
    if _recording and any(_tracked(p) for p in parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def matmul(a, b, bias=None, relu=False):
    """``a @ b``, plus a column-vector ``bias`` and a ReLU when asked, as
    one node.

    The bias is added in place and the ReLU masks in place, so the node
    holds its output and the ReLU mask only; the values equal those of
    matmul, add and relu chained.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul {a.label()} @ {b.label()}: inner dims {a.data.shape} vs {b.data.shape}"
        )
    out = a.data @ b.data
    parents = (a, b)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (out.shape[0], 1):
            raise ShapeError(
                f"matmul {a.label()} @ {b.label()} + {bias.label()}: bias {bias.data.shape} "
                f"vs output {out.shape}"
            )
        out += bias.data
        parents = (a, b, bias)
    mask = None
    if relu:
        mask = out > 0.0
        out *= mask

    def backward(grad, acc):
        if mask is not None:
            grad = grad * mask
        if _tracked(a):
            acc(a, grad @ b.data.T)
        if _tracked(b):
            acc(b, a.data.T @ grad)
        if bias is not None:
            acc(bias, grad.sum(axis=1, keepdims=True))

    return _result(out, parents, backward)


def transpose(a):
    a = _as_tensor(a)

    def backward(grad, acc):
        acc(a, grad.T)

    return _result(a.data.T, (a,), backward)


def add(a, b):
    """Elementwise sum; the second operand may be a column vector bias."""
    a, b = _as_tensor(a), _as_tensor(b)
    bias = a.data.shape != b.data.shape
    if bias and not (b.data.shape == (a.data.shape[0], 1)):
        raise ShapeError(f"add {a.label()} + {b.label()}: shapes {a.data.shape} vs {b.data.shape}")
    out = a.data + b.data

    def backward(grad, acc):
        acc(a, grad)
        acc(b, grad.sum(axis=1, keepdims=True) if bias else grad)

    return _result(out, (a, b), backward)


def mul(a, b):
    """Elementwise product; either operand may be a python scalar."""
    if not isinstance(a, Tensor) and np.isscalar(a):
        a, b = b, a
    a = _as_tensor(a)
    if np.isscalar(b):
        s = float(b)

        def backward_scalar(grad, acc):
            acc(a, grad * s)

        return _result(a.data * s, (a,), backward_scalar)
    b = _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul {a.label()} * {b.label()}: shapes {a.data.shape} vs {b.data.shape}")

    def backward(grad, acc):
        acc(a, grad * b.data)
        acc(b, grad * a.data)

    return _result(a.data * b.data, (a, b), backward)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0.0

    def backward(grad, acc):
        acc(a, grad * mask)

    return _result(a.data * mask, (a,), backward)


def log(a, floor=0.0):
    """Natural log; with ``floor`` > 0 the argument is clamped below first."""
    a = _as_tensor(a)
    clamped = np.maximum(a.data, floor) if floor > 0.0 else a.data
    if floor <= 0.0 and np.any(a.data <= 0.0):
        raise ValueError("log of non-positive entries without a floor")
    out = np.log(clamped)
    active = a.data >= floor if floor > 0.0 else np.ones_like(a.data, dtype=bool)

    def backward(grad, acc):
        acc(a, grad * active / clamped)

    return _result(out, (a,), backward)


def softmax_cols(a):
    """Column-wise softmax, max-subtracted for stability."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=0, keepdims=True)

    def backward(grad, acc):
        dot = (grad * s).sum(axis=0, keepdims=True)
        acc(a, s * (grad - dot))

    return _result(s, (a,), backward)


def l2_normalize_cols(a):
    """Scale every column to unit L2 norm."""
    a = _as_tensor(a)
    norms = np.maximum(np.sqrt((a.data ** 2).sum(axis=0, keepdims=True)), NORM_FLOOR)
    y = a.data / norms

    def backward(grad, acc):
        dot = (grad * y).sum(axis=0, keepdims=True)
        acc(a, (grad - y * dot) / norms)

    return _result(y, (a,), backward)


def sum_all(a):
    a = _as_tensor(a)

    def backward(grad, acc):
        acc(a, np.full_like(a.data, float(grad[0, 0])))

    return _result(np.array([[a.data.sum()]]), (a,), backward)


def mean_all(a):
    a = _as_tensor(a)
    return mul(sum_all(a), 1.0 / a.data.size)


def _concat(tensors: Sequence, axis: int, op: str):
    """``tensors`` side by side along ``axis`` (1: columns, 0: rows)."""
    tensors = [_as_tensor(t) for t in tensors]
    if len({t.data.shape[1 - axis] for t in tensors}) != 1:
        across = "row" if axis else "column"
        raise ShapeError(f"{op}: {across} counts differ: {[t.label() for t in tensors]}")
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])

    def backward(grad, acc):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            acc(t, grad[:, lo:hi] if axis else grad[lo:hi])

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


def concat_cols(tensors: Sequence):
    return _concat(tensors, 1, "concat_cols")


def concat_rows(tensors: Sequence):
    return _concat(tensors, 0, "concat_rows")


def gather_cols(a, indices):
    """Select columns by index; backward scatter-adds into the source."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)

    def backward(grad, acc):
        g = np.zeros_like(a.data)
        np.add.at(g, (slice(None), idx), grad)
        acc(a, g)

    return _result(a.data[:, idx], (a,), backward)


def index_dtype(m: int):
    """The narrowest type that indexes m points: uint16 up to 65,536
    points, int32 past that. ``model.knn_indices`` returns its graphs in
    it and ``_reverse_passes`` keeps their transposes in it."""
    return np.uint16 if m <= 1 << 16 else np.int32


def _reverse_passes(neighbours, m):
    """The transpose of a k-NN index as gather passes.

    Returns ``order``, the points sorted by falling in-degree; ``flat``,
    the passes one after another; and ``offsets``, where pass s is
    ``flat[offsets[s]:offsets[s + 1]]``: the rows that name, for the
    s-th time, each of the first ``offsets[s + 1] - offsets[s]`` points
    of ``order`` (those named by more than s rows). ``order`` and
    ``flat`` take ``index_dtype(m)``. Sorts run on the narrowest
    unsigned key type, so numpy takes its radix sort when the key fits
    16 bits.
    """
    k = neighbours.shape[1]
    flat = neighbours.reshape(-1)
    degree = np.bincount(flat, minlength=m)
    # each point's naming rows, grouped by point and in row order
    by_point = np.argsort(flat.astype(np.min_scalar_type(m - 1)), kind="stable") // k
    start = np.cumsum(degree) - degree
    top = int(degree.max())
    order = np.argsort((top - degree).astype(np.min_scalar_type(top)), kind="stable")
    named = m - np.cumsum(np.bincount(degree, minlength=top + 1))[:-1]
    dtype = index_dtype(m)
    passes = np.concatenate([by_point[start[order[:c]] + s] for s, c in enumerate(named)])
    offsets = np.concatenate([[0], np.cumsum(named)])
    return order.astype(dtype), passes.astype(dtype), offsets


class NeighbourGraph:
    """A k-NN graph as the averaging operator P: column i of P(a) is the
    mean of ``a``'s columns ``index[i]``.

    ``index`` is an (m, k) integer array, e.g. ``model.knn_indices``,
    checked here and not changed afterwards. P's transpose, which every
    backward pass through the pooling gathers with, is built by the
    first ``mean_transpose`` and kept in ``reverse`` (None until then):
    ``_reverse_passes``' order, flat passes and pass offsets, at most
    2 bytes per graph entry up to 65,536 points. Inference never builds
    it; it goes with the graph.
    """

    __slots__ = ("index", "reverse", "__weakref__")

    def __init__(self, index):
        nb = np.asarray(index)
        if nb.ndim != 2 or min(nb.shape) < 1 or not np.issubdtype(nb.dtype, np.integer):
            raise ShapeError(
                f"neighbours must be a non-empty 2-D integer array, got {nb.dtype} {nb.shape}"
            )
        if nb.min() < 0 or nb.max() >= nb.shape[0]:
            raise ShapeError(
                f"neighbour indices span [{nb.min()}, {nb.max()}], outside [0, {nb.shape[0]})"
            )
        self.index = nb
        self.reverse = None

    @property
    def n_points(self) -> int:
        return self.index.shape[0]

    def mean(self, a):
        """P(a) for a (D, m) array: gathers rows of its points-major copy,
        which is dropped before the sum is divided in place."""
        nb = self.index
        # gathering rows of the transpose is twice as fast once it is contiguous
        rows = np.ascontiguousarray(a.T)
        total = rows.take(nb[:, 0], axis=0)
        for j in range(1, nb.shape[1]):
            total += rows.take(nb[:, j], axis=0)
        del rows
        total /= nb.shape[1]
        return total.T

    def mean_transpose(self, grad):
        """P's transpose applied to a (D, m) array, through the kept
        reverse passes."""
        if self.reverse is None:
            self.reverse = _reverse_passes(self.index, self.n_points)
        order, flat, offsets = self.reverse
        g = np.ascontiguousarray(grad.T) / self.index.shape[1]
        summed = np.zeros_like(g)
        # pass s adds each point's s-th naming row to the prefix of
        # points named more than s times
        bounds = offsets.tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            summed[:hi - lo] += g.take(flat[lo:hi], axis=0)
        out = np.empty_like(summed)
        out[order] = summed
        return out.T


def _check_points(graph, m, where):
    if graph.n_points != m:
        raise ShapeError(f"{where}: {graph.n_points} neighbour rows for {m} points")


def neighbour_mean(a, graph: NeighbourGraph):
    """Column i of the result is the mean of ``a``'s columns ``graph.index[i]``.

    ``a`` is (D, m) with one column per point and ``graph`` a
    ``NeighbourGraph`` over its m points. Backward applies the graph's
    transpose, built at the first backward pass and kept by the graph.
    """
    a = _as_tensor(a)
    _check_points(graph, a.data.shape[1], f"neighbour_mean {a.label()}")

    def backward(grad, acc):
        acc(a, graph.mean_transpose(grad))

    return _result(graph.mean(a.data), (a,), backward)


def pooled_matmul(w, a, graph: NeighbourGraph, bias):
    """``w @ [a; P(a)] + bias`` as one node, P the neighbour mean of
    ``neighbour_mean``, with the pooling moved past the product:
    ``w[:, :n] @ a + P(w[:, n:] @ a) + bias`` for an (n, m) ``a``.

    P is linear, so the value equals pooling ``a`` and concatenating
    it under ``a`` up to rounding, while the pooling runs over the
    output's rows rather than twice as many of the input's. Each half
    of ``w`` is copied out, so values and gradients equal those of
    ``gather_cols`` halves, ``matmul``, ``neighbour_mean`` and two
    ``add`` nodes chained bit for bit.
    """
    w, a, bias = _as_tensor(w), _as_tensor(a), _as_tensor(bias)
    n, m = a.data.shape
    if w.data.shape[1] != 2 * n:
        raise ShapeError(
            f"pooled_matmul {w.label()} @ {a.label()}: {w.data.shape[1]} weight columns "
            f"for 2 x {n} input rows"
        )
    if bias.data.shape != (w.data.shape[0], 1):
        raise ShapeError(
            f"pooled_matmul {w.label()} @ {a.label()} + {bias.label()}: bias {bias.data.shape} "
            f"vs {w.data.shape[0]} output rows"
        )
    _check_points(graph, m, f"pooled_matmul {a.label()}")
    w_own = np.ascontiguousarray(w.data[:, :n])
    w_pool = np.ascontiguousarray(w.data[:, n:])
    out = w_own @ a.data
    out += graph.mean(w_pool @ a.data)
    out += bias.data

    def backward(grad, acc):
        pooled = graph.mean_transpose(grad)
        if _tracked(a):
            acc(a, w_own.T @ grad + w_pool.T @ pooled)
        if _tracked(w):
            acc(w, np.concatenate([grad @ a.data.T, pooled @ a.data.T], axis=1))
        acc(bias, grad.sum(axis=1, keepdims=True))

    return _result(out, (w, a, bias), backward)


def _check_cols(node, cols, n_cols, what):
    """``cols`` as distinct column indices of ``node``'s n_cols columns."""
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    if not cols.size:
        return cols
    if cols.min() < 0 or cols.max() >= n_cols:
        problem = f"columns outside [0, {n_cols})"
    else:
        seen = np.zeros(n_cols, dtype=bool)
        seen[cols] = True
        if np.count_nonzero(seen) == cols.size:
            return cols
        problem = "repeats a column"
    raise ShapeError(f"softmax_cross_entropy {node.label()}: {what} {problem}")


def softmax_cross_entropy(logits, cols, slots, weights, fcols, families, *, scale, floor):
    """Softmax cross entropy of ``logits`` against a weighted one-hot base
    target and head families, as one node.

    The base rows are the first ``len(weights)`` rows of ``logits``:
    column ``cols[j]`` targets base row ``slots[j]`` with weight
    ``weights[slots[j]]``. Each family is ``(start, target, kept)``: H
    heads of K rows each, head by head from row ``start``, with targets
    ``target`` (H, K, c) at the c columns ``fcols`` that all families
    share, of which head h scores those that ``kept[h]`` (H, c) marks. Head h's column softmax
    q runs over the base rows and its own K rows of ``logits * scale``,
    and its value is the mean over its ``len(cols) + kept[h].sum()``
    scored columns of -sum_r t_rj log max(q_rj, floor): the base target
    counts in every head. The result is a column of one value per head,
    family by family; without families, one value of the softmax over
    the base rows alone. A head with no scored column scores 0 and
    passes no gradient; neither ``cols`` nor ``fcols`` may repeat a
    column.

    Each family takes one column shift over the base rows and all of its
    rows, so one exponential of the base rows serves its every head, and
    log q is the shifted logit less the log of its head's normaliser.
    Backward is the closed form scale * (q T - t) / m per head, T being
    each column's target mass over the entries with q >= floor: below
    the floor the log is constant and passes no gradient.
    """
    logits = _as_tensor(logits)
    if floor <= 0.0:
        raise ValueError(f"softmax_cross_entropy needs a positive log floor, got {floor}")
    data = logits.data
    n_rows, n_cols = data.shape
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    n_base = weights.size
    cols = _check_cols(logits, cols, n_cols, "the base target")
    slots = np.asarray(slots, dtype=np.intp).reshape(-1)
    if (n_base > n_rows or slots.size != cols.size
            or slots.size and (slots.min() < 0 or slots.max() >= n_base)):
        raise ShapeError(
            f"softmax_cross_entropy {logits.label()}: {slots.size} base slots in "
            f"[0, {n_base}) for {cols.size} columns of {n_rows} rows"
        )
    if families:
        fcols = _check_cols(logits, fcols, n_cols, "the head target")
    log_floor = np.log(floor)
    base = data[:n_base] * scale
    base_max = base.max(axis=0, initial=-np.inf)
    w_labels = weights[slots]
    values, scored = [], []
    # without families, one head of no rows: the softmax over the base rows
    for f, family in enumerate(families or [None]):
        heads, rows_part = 1, None
        shift, z = base_max, 0.0
        if family is not None:
            start, target, kept = family
            target = np.asarray(target, dtype=np.float64)
            kept = np.asarray(kept, dtype=bool)
            heads, k = target.shape[:2] if target.ndim == 3 else (0, 0)
            if (target.shape != (heads, k, fcols.size) or kept.shape != (heads, fcols.size)
                    or not n_base <= start <= n_rows - heads * k):
                raise ShapeError(
                    f"softmax_cross_entropy {logits.label()}: family {f} has target "
                    f"{target.shape} and kept {kept.shape} for {fcols.size} columns from row "
                    f"{start} of {n_rows}, past {n_base} base rows"
                )
            rows = data[start:start + heads * k].reshape(heads, k, n_cols) * scale
            shift = np.maximum(base_max, rows.max(axis=(0, 1), initial=-np.inf))
            rows -= shift
            # log q at the scored entries: the shifted logit less log z
            log_q_rows = np.take(rows, fcols, axis=2)
            e_rows = np.exp(rows, out=rows)
            z = e_rows.sum(axis=1)
        x_base = base - shift
        log_q_base = x_base[slots, cols]
        e_base = np.exp(x_base, out=x_base)
        z = e_base.sum(axis=0, keepdims=True) + z
        log_z = np.log(z)
        log_q_base = log_q_base - log_z[:, cols]
        logs = np.maximum(log_q_base, log_floor) @ w_labels
        counts = np.full(heads, cols.size)
        if family is not None:
            log_q_rows -= log_z[:, None, fcols]
            t_rows = target * kept[:, None, :]
            counts += np.count_nonzero(kept, axis=1)
            logs += (t_rows * np.maximum(log_q_rows, log_floor)).reshape(heads, -1).sum(axis=1)
            # each head's targets where q >= floor, the only entries whose log moves
            t_rows *= log_q_rows >= log_floor
            rows_part = (start, e_rows, t_rows)
        values.append(np.where(counts > 0, -logs / np.maximum(counts, 1), 0.0))
        if counts.any():
            t_base = w_labels * (log_q_base >= log_floor)
            scored.append((f, e_base, z, t_base, counts, rows_part))
    out = np.concatenate(values)[:, None]
    if not scored:
        return Tensor(out)
    first = np.cumsum([0] + [v.size for v in values]).tolist()

    def backward(grad, acc):
        g = np.zeros_like(data)
        for f, e_base, z, t_base, counts, rows_part in scored:
            coef = (scale / np.maximum(counts, 1)) * grad[first[f]:first[f + 1], 0]
            t_base *= coef[:, None]
            # q T summed over heads: each column's target mass over its normaliser
            mass = np.zeros(z.shape)
            mass[:, cols] = t_base
            if rows_part is not None:
                start, e_rows, t_rows = rows_part
                heads, k = e_rows.shape[:2]
                t_rows *= coef[:, None, None]
                mass[:, fcols] += t_rows.sum(axis=1)
            mass /= z
            g[:n_base] += e_base * mass.sum(axis=0)
            g[slots, cols] -= t_base.sum(axis=0)
            if rows_part is not None:
                e_rows *= mass[:, None, :]
                g_rows = g[start:start + heads * k]
                g_rows += e_rows.reshape(heads * k, n_cols)
                g_rows[:, fcols] -= t_rows.reshape(heads * k, fcols.size)
        acc(logits, g)

    return _result(out, (logits,), backward)


def sum_in_order(a, scale):
    """1x1 sum of ``a``'s entries added one at a time in row-major order,
    times ``scale``: the value of a chain of adds and one scalar mul,
    which a pairwise ``sum_all`` does not reproduce bit for bit."""
    a = _as_tensor(a)

    def backward(grad, acc):
        acc(a, np.full_like(a.data, float(grad[0, 0]) * scale))

    total = np.cumsum(a.data.reshape(-1))[-1]
    return _result(np.array([[total * scale]]), (a,), backward)


def backward(output: Tensor):
    """Accumulate d(output)/d(leaf) into every reachable gradient slot,
    spending the tape on the way.

    ``output`` must be scalar (a 1x1 tensor). Gradient slots are added
    to, not reset; call ``zero_grad`` on parameters between passes.
    Each non-leaf node, ``output`` included, keeps its ``.data`` but
    loses its parent links and closure once it has propagated.
    """
    if output.data.size != 1:
        raise ValueError(f"backward needs a scalar output, got shape {output.data.shape}")

    order = []
    seen = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise ValueError(
                f"backward through {node.label()}, whose tape an earlier backward spent"
            )
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads = {id(output): np.ones_like(output.data)}
    # A node's first gradient is kept as passed, possibly a view of an
    # upstream gradient, so it is never written in place; the first sum
    # makes an array of its own, which later terms are added into.
    owned = set()

    def acc(node, g):
        if not _tracked(node):
            return
        key = id(node)
        if key not in grads:
            grads[key] = g
        elif key in owned:
            grads[key] += g
        else:
            grads[key] = grads[key] + g
            owned.add(key)

    # reverse topological order; popping lets each node's closure (and
    # the node, once its consumers are spent) go as soon as it has run
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if node._backward is not None:
            node._backward(g, acc)
            node._parents, node._backward = None, None


def save_checkpoint(path, params: Mapping[str, "Tensor | np.ndarray"]):
    """Write named parameters in the versioned binary checkpoint format.

    Layout: magic ``NOPS``, format u32, then per parameter (sorted by
    name): u32 name length, name bytes, u32 ndim, u32 dims, little-endian
    f64 values in row-major order.
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for name in sorted(params):
            arr = params[name]
            data = arr.data if isinstance(arr, Tensor) else np.asarray(arr, dtype=np.float64)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", data.ndim))
            for d in data.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a ``save_checkpoint`` file; any malformed input raises a
    ``ValueError`` that names the file, and a repeated parameter name or
    a non-finite value also names the parameter."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    pos = 4

    def take(size, what):
        nonlocal pos
        if len(blob) - pos < size:
            raise ValueError(f"{path}: truncated checkpoint ({what} at byte {pos})")
        pos += size
        return blob[pos - size:pos]

    def u32s(count, what):
        return struct.unpack(f"<{count}I", take(4 * count, what))

    (version,) = u32s(1, "format")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint format {version}")
    out: dict[str, np.ndarray] = {}
    while pos < len(blob):
        (nlen,) = u32s(1, "name length")
        try:
            name = take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: name at byte {pos - nlen} is not UTF-8") from None
        (ndim,) = u32s(1, f"{name} rank")
        dims = u32s(ndim, f"{name} shape")
        values = np.frombuffer(take(8 * math.prod(dims), f"{name} values"), dtype="<f8")
        if name in out:
            raise ValueError(f"{path}: parameter {name} appears twice")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: parameter {name} holds a non-finite value")
        try:
            out[name] = values.reshape(dims).astype(np.float64)
        except ValueError:  # a zero-size shape past numpy's rank or size limits
            raise ValueError(f"{path}: {name} has shape {dims}, which numpy cannot hold") from None
    return out
