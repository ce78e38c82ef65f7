"""Entropic optimal-transport pseudo-labelling.

``sinkhorn_assign`` projects a prototype/point similarity matrix onto
the transportation polytope with uniform marginals (1/rho per prototype
row, 1/m per point column) by alternating renormalization. Each
iteration normalizes prototype rows first and point columns last, so
the per-point marginal is exact at output, matching the per-point
rescale applied downstream; the row constraint is the equipartition
side that prevents cluster collapse and tightens with iteration count.

``SinkhornConfig`` holds the iteration count and the smoothness
schedule that ``epsilon_at`` reads, and refuses a schedule outside
``eps_start >= eps_end > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TINY = 1e-300


@dataclass(frozen=True)
class SinkhornConfig:
    iters: int = 3
    eps_start: float = 0.3
    eps_end: float = 0.05

    def __post_init__(self):
        if self.iters < 0:
            raise ValueError(f"iters must be non-negative, got {self.iters}")
        if not (self.eps_start >= self.eps_end > 0.0):
            raise ValueError(f"need eps_start >= eps_end > 0, got {self.eps_start}, {self.eps_end}")


def epsilon_at(cfg: SinkhornConfig, epoch: int, total_epochs: int) -> float:
    """Smoothness at a given epoch of ``total_epochs``: linear from
    ``eps_start`` to ``eps_end``, clamped."""
    if total_epochs <= 1:
        return cfg.eps_start
    t = epoch / (total_epochs - 1)
    eps = cfg.eps_start + (cfg.eps_end - cfg.eps_start) * t
    return float(min(cfg.eps_start, max(cfg.eps_end, eps)))


def sinkhorn_assign(scores, eps: float, n_iters: int, heads: int = 1) -> np.ndarray:
    """Soft assignment of points (columns) to prototypes (rows).

    ``scores`` is (heads x rho) x m: ``heads`` prototype sets of rho rows
    each, stacked, that score the same m columns (queue columns, if any,
    already appended). Each set is projected on its own; ``q`` keeps the
    layout of ``scores``. The exponentials are computed with each set's
    per-column max subtracted, so eps down to 0.05 is safe for scores
    well outside the unit range.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
        raise ValueError(f"scores must be a non-empty 2-D matrix, got shape {scores.shape}")
    if heads < 1 or scores.shape[0] % heads:
        raise ValueError(f"{scores.shape[0]} score rows do not split into {heads} heads")
    if np.any(np.isnan(scores)):
        raise ValueError("scores contain NaN")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    m = scores.shape[1]
    rho = scores.shape[0] // heads
    # row sums reduce the contiguous axis and column sums add each set's
    # rows in order, so every set's q equals a call on its rows alone
    s = scores.reshape(heads, rho, m)
    q = np.exp((s - s.max(axis=1, keepdims=True)) / eps)
    for _ in range(n_iters):
        q *= (1.0 / rho) / np.maximum(q.sum(axis=2, keepdims=True), _TINY)
        q *= (1.0 / m) / np.maximum(q.sum(axis=1, keepdims=True), _TINY)
    return q.reshape(scores.shape)


def pseudo_labels_from(q: np.ndarray, m_batch: int) -> np.ndarray:
    """Per-point class distributions for the first ``m_batch`` columns.

    ``q`` is (..., rho, m), leading axes being heads. Queue columns sit
    past ``m_batch`` and are dropped; each kept column is rescaled to
    sum to one.
    """
    if m_batch > q.shape[-1]:
        raise ValueError(f"m_batch {m_batch} exceeds {q.shape[-1]} assignment columns")
    kept = q[..., :m_batch].copy()
    kept /= np.maximum(kept.sum(axis=-2, keepdims=True), _TINY)
    return kept
