"""Reverse-mode automatic differentiation on dense float64 matrices.

Everything is a 2-D array; vectors are columns. A forward pass records
parent links and a backward closure on every result, and ``backward``
replays that tape in reverse topological order, accumulating gradients
into leaf tensors created with ``requires_grad=True``. Tensors are
treated as immutable once created; an optimizer may mutate parameter
``.data`` only between passes, which keeps any recorded tape valid for
exactly one forward/backward round trip.

Supported operations: matmul, transpose, add (with column-vector bias
broadcast), elementwise multiply, scalar scaling, ReLU, column-wise
L2 normalization, column-wise softmax, clamped log, sum and mean
reduction, row/column concatenation, a column gather used to slice
batches, a neighbour mean that averages each column's k-NN columns
through an index gather, and a fused softmax cross entropy that
scores a row/column block of a logit matrix as one tape node.
Backward closures compute gradients only for operands that reach a
tracked leaf.
"""

from __future__ import annotations

import math
import struct
from typing import Mapping, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"NOPS"
CHECKPOINT_VERSION = 1


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


def _tracked(a: Tensor, b: Tensor | None = None) -> bool:
    tracked = a.requires_grad or a._parents != () or a._backward is not None
    if b is not None:
        tracked = tracked or _tracked(b)
    return tracked


def _result(data, parents, backward):
    if any(_tracked(p) for p in parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul {a.label()} @ {b.label()}: inner dims {a.data.shape} vs {b.data.shape}"
        )
    out = a.data @ b.data

    def backward(grad, acc):
        if _tracked(a):
            acc(a, grad @ b.data.T)
        if _tracked(b):
            acc(b, a.data.T @ grad)

    return _result(out, (a, b), backward)


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


def l2_normalize_cols(a, eps=1e-12):
    """Scale every column to unit L2 norm."""
    a = _as_tensor(a)
    norms = np.maximum(np.sqrt((a.data ** 2).sum(axis=0, keepdims=True)), eps)
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


def concat_cols(tensors: Sequence):
    tensors = [_as_tensor(t) for t in tensors]
    rows = {t.data.shape[0] for t in tensors}
    if len(rows) != 1:
        raise ShapeError(f"concat_cols: row counts differ: {[t.label() for t in tensors]}")
    widths = [t.data.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def backward(grad, acc):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            acc(t, grad[:, lo:hi])

    return _result(np.concatenate([t.data for t in tensors], axis=1), tensors, backward)


def concat_rows(tensors: Sequence):
    tensors = [_as_tensor(t) for t in tensors]
    cols = {t.data.shape[1] for t in tensors}
    if len(cols) != 1:
        raise ShapeError(f"concat_rows: column counts differ: {[t.label() for t in tensors]}")
    heights = [t.data.shape[0] for t in tensors]
    offsets = np.cumsum([0] + heights)

    def backward(grad, acc):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            acc(t, grad[lo:hi, :])

    return _result(np.concatenate([t.data for t in tensors], axis=0), tensors, backward)


def _distinct(indices, n) -> bool:
    """Whether ``indices`` into a length-``n`` axis name no slot twice."""
    mark = np.zeros(n, dtype=bool)
    mark[indices] = True
    return int(np.count_nonzero(mark)) == indices.size


def gather_cols(a, indices):
    """Select columns by index; backward scatter-adds into the source."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)

    def backward(grad, acc):
        g = np.zeros_like(a.data)
        np.add.at(g, (slice(None), idx), grad)
        acc(a, g)

    return _result(a.data[:, idx], (a,), backward)


def _reverse_passes(neighbours, m):
    """The transpose of a k-NN index as gather passes.

    Returns ``order``, the points sorted by falling in-degree, and one
    index array per pass s: the rows that name, for the s-th time, each
    of the first ``len(passes[s])`` points of ``order`` (those named by
    more than s rows). Sorts run on the narrowest unsigned key type, so
    numpy takes its radix sort when the key fits 16 bits.
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
    return order, [by_point[start[order[:c]] + s] for s, c in enumerate(named)]


def neighbour_mean(a, neighbours):
    """Column i of the result is the mean of ``a``'s columns ``neighbours[i]``.

    ``a`` is (D, m) with one column per point and ``neighbours`` an
    (m, k) integer index into those columns, e.g. ``knn_indices``.
    Forward gathers rows of the points-major copy of ``a``; backward
    gathers the output gradient through the reverse index, built only
    when a backward pass runs.
    """
    a = _as_tensor(a)
    nb = np.asarray(neighbours)
    m = a.data.shape[1]
    if nb.ndim != 2 or min(nb.shape) < 1 or not np.issubdtype(nb.dtype, np.integer):
        raise ShapeError(
            f"neighbour_mean {a.label()}: neighbours must be a non-empty 2-D integer array, "
            f"got {nb.dtype} {nb.shape}"
        )
    if nb.shape[0] != m:
        raise ShapeError(
            f"neighbour_mean {a.label()}: {nb.shape[0]} neighbour rows for {m} points"
        )
    if nb.min() < 0 or nb.max() >= m:
        raise ShapeError(
            f"neighbour_mean {a.label()}: neighbour indices span "
            f"[{nb.min()}, {nb.max()}], outside [0, {m})"
        )
    k = nb.shape[1]
    # gathering rows of the transpose is twice as fast once it is contiguous
    rows = np.ascontiguousarray(a.data.T)
    total = rows[nb[:, 0]]
    for j in range(1, k):
        total += rows[nb[:, j]]

    def backward(grad, acc):
        order, passes = _reverse_passes(nb, m)
        g = np.ascontiguousarray(grad.T) / k
        summed = np.zeros_like(g)
        # pass s adds each point's s-th naming row to the prefix of
        # points named more than s times
        for src in passes:
            summed[:src.size] += g[src]
        out = np.empty_like(summed)
        out[order] = summed
        acc(a, out.T)

    return _result((total / k).T, (a,), backward)


def softmax_cross_entropy(logits, cols, target, weights, *, scale, floor, rows=None):
    """Weighted softmax cross entropy of a block of ``logits``, one node.

    Selects ``rows`` (all when None) and ``cols``, multiplies by
    ``scale``, takes the column softmax q and returns the 1x1 mean over
    the m selected columns of -sum_c w_c t_cj log max(q_cj, floor). The
    value is that of gather, mul, softmax_cols, log, mul and sum_all
    chained; ``target`` and ``weights`` are constants.
    """
    logits = _as_tensor(logits)
    if floor <= 0.0:
        raise ValueError(f"softmax_cross_entropy needs a positive log floor, got {floor}")
    n_rows, n_cols = logits.data.shape
    ri = np.arange(n_rows) if rows is None else np.asarray(rows, dtype=np.intp)
    ci = np.asarray(cols, dtype=np.intp)
    target = np.asarray(target, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if target.shape != (ri.size, ci.size):
        raise ShapeError(
            f"softmax_cross_entropy {logits.label()}: block {(ri.size, ci.size)} "
            f"vs target {target.shape}"
        )
    if weights.size != ri.size:
        raise ShapeError(f"softmax_cross_entropy {logits.label()}: one weight per row required")
    m = ci.size
    if m == 0:
        return constant(0.0)
    s = logits.data[ri][:, ci] * scale
    e = np.exp(s - s.max(axis=0, keepdims=True))
    q = e / e.sum(axis=0, keepdims=True)
    clamped = np.maximum(q, floor)
    wt = weights[:, None] * target
    out = np.array([[(wt * np.log(clamped)).sum() * (-1.0 / m)]])
    distinct = _distinct(ri, n_rows) and _distinct(ci, n_cols)

    def backward(grad, acc):
        dq = wt * ((-float(grad[0, 0]) / m) * (q >= floor)) / clamped
        ds = q * (dq - (dq * q).sum(axis=0, keepdims=True))
        g = np.zeros_like(logits.data)
        # assignment suffices unless a row or column repeats
        if distinct:
            g[np.ix_(ri, ci)] = ds * scale
        else:
            np.add.at(g, np.ix_(ri, ci), ds * scale)
        acc(logits, g)

    return _result(out, (logits,), backward)


def backward(output: Tensor):
    """Accumulate d(output)/d(leaf) into every reachable gradient slot.

    ``output`` must be scalar (a 1x1 tensor). Gradient slots are added
    to, not reset; call ``zero_grad`` on parameters between passes.
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

    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if node._backward is not None:
            node._backward(g, acc)


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
    ``ValueError`` that names the file."""
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
        try:
            out[name] = values.reshape(dims).astype(np.float64)
        except ValueError:  # a zero-size shape past numpy's rank or size limits
            raise ValueError(f"{path}: {name} has shape {dims}, which numpy cannot hold") from None
    return out
