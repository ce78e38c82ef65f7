"""Class-balanced feature queue and percentile-based point selection.

The queue holds novel-point features from past iterations in one FIFO
array of feature rows per predicted class, so batches missing a class
can still borrow columns for the transport step. The selection function
keeps, per head and predicted class, the points whose class probability
reaches that class's p-th percentile (nearest rank), an adaptive
threshold that tracks how confident the model currently is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class QueueConfig:
    capacity: int = 1024  # per bucket
    insert_fraction: float = 0.1
    sample_per_class: int = 64

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if not (0.0 <= self.insert_fraction <= 1.0):
            raise ValueError("insert_fraction must be in [0, 1]")
        if self.sample_per_class < 0:
            raise ValueError("sample_per_class must be non-negative")


@dataclass
class SelectionResult:
    kept: np.ndarray  # (..., m) bool: the points each head keeps
    thresholds: np.ndarray  # (..., n_classes) tau_c; NaN where a class has no argmax points


def select_phi(class_probs: np.ndarray, p: float) -> SelectionResult:
    """Keep reliable points per head and predicted class.

    ``class_probs`` is (..., n_classes, m) with columns summing to one;
    leading axes are heads, each selected on its own. For each head and
    class c, tau_c is the p-th percentile (nearest rank) of the max
    probabilities of points whose argmax is c; points at or above tau_c
    are kept. p = 0 keeps everything.
    """
    probs = np.asarray(class_probs, dtype=np.float64)
    if probs.ndim < 2:
        raise ValueError(f"class_probs must be at least 2-D, got shape {probs.shape}")
    if not (0.0 <= p < 1.0):
        raise ValueError(f"percentile p must be in [0, 1), got {p}")
    # NaN fails both comparisons, so a column holding one is refused
    valid = (probs >= -1e-9).all(axis=-2) & (np.abs(probs.sum(axis=-2) - 1.0) <= 1e-6)
    if not valid.all():
        *head, col = np.argwhere(~valid)[0].tolist()
        column = probs[(*head, slice(None), col)]
        bad = np.flatnonzero(~np.isfinite(column))
        where = f"column {col}" + (f" of head {', '.join(map(str, head))}" if head else "")
        what = (f"holds {column[bad[0]]} at row {bad[0]}" if bad.size
                else f"sums to {column.sum()} with least entry {column.min()}")
        raise ValueError(f"class_probs columns must be distributions summing to 1; "
                         f"{where} {what}")

    *lead, n_classes, m = probs.shape
    # one group per (head, class); points sorted by confidence, then
    # stably by group, so each group's confidences lie ascending in a run
    winners = probs.argmax(axis=-2).reshape(-1, m)
    n_groups = winners.shape[0] * n_classes
    group = (winners + n_classes * np.arange(winners.shape[0])[:, None]).reshape(-1)
    confidence = probs.max(axis=-2).reshape(-1)
    order = np.argsort(confidence)
    # a 16-bit key takes numpy's radix sort, ~3x faster here
    key = group[order].astype(np.uint16 if n_groups <= 1 << 16 else np.intp)
    order = order[np.argsort(key, kind="stable")]
    sizes = np.bincount(group, minlength=n_groups)
    rank = np.maximum(1, np.ceil(p * sizes).astype(np.intp))
    present = sizes > 0
    tau = np.full(sizes.shape, np.nan)
    tau[present] = confidence[order[(np.cumsum(sizes) - sizes + rank - 1)[present]]]
    kept = confidence >= tau[group]
    return SelectionResult(kept.reshape(*lead, m), tau.reshape(*lead, n_classes))


@dataclass
class FeatureQueue:
    """Per-class FIFO buffers of unit-norm features, each one (n, D) array
    of rows, oldest first, cut to its last ``capacity`` rows on insert.

    With ``balanced=False`` the queue degrades to a single bucket with
    no per-class bookkeeping (the unbalanced ablation variant).
    """

    class_ids: tuple
    capacity: int
    balanced: bool = True
    _buckets: dict = field(init=False)

    def __post_init__(self):
        keys = tuple(sorted(self.class_ids)) if self.balanced else (None,)
        self._buckets = {key: np.zeros((0, 0)) for key in keys}

    def sizes(self) -> dict:
        return {key: len(bucket) for key, bucket in self._buckets.items()}

    def total(self) -> int:
        return sum(len(b) for b in self._buckets.values())

    def insert(self, features: np.ndarray, predicted_classes: np.ndarray,
               insert_fraction: float, rng: np.random.Generator):
        """Push a random fraction of candidate columns per predicted class.

        The count per class is ceil(fraction * n), sampled without
        replacement; FIFO eviction keeps every bucket within capacity.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.size == 0:
            return
        predicted_classes = np.asarray(predicted_classes)
        if predicted_classes.shape[0] != features.shape[1]:
            raise ValueError("one predicted class per feature column required")
        if insert_fraction <= 0.0:
            return
        for key, bucket in self._buckets.items():
            members = (
                np.flatnonzero(predicted_classes == key)
                if self.balanced
                else np.arange(features.shape[1])
            )
            if members.size == 0:
                continue
            count = min(members.size, int(np.ceil(insert_fraction * members.size)))
            # sorted so FIFO order follows arrival (column) order
            chosen = np.sort(rng.choice(members, size=count, replace=False))
            rows = features[:, chosen].T
            if len(bucket):
                rows = np.concatenate([bucket, rows])
            self._buckets[key] = rows[-self.capacity:]

    def sample(self, per_class_count: int, rng: np.random.Generator) -> np.ndarray:
        """Up to ``per_class_count`` rows per bucket, uniform without replacement,
        in queue order as the columns of a C-contiguous (D, total) array
        (0 x 0 when the queue is empty)."""
        rows = []
        budget = per_class_count if self.balanced else per_class_count * max(1, len(self.class_ids))
        for bucket in self._buckets.values():
            if not len(bucket):
                continue
            take = min(budget, len(bucket))
            chosen = rng.choice(len(bucket), size=take, replace=False)
            rows.append(bucket[np.sort(chosen)])
        if not rows:
            return np.zeros((0, 0))
        return np.ascontiguousarray(np.concatenate(rows).T)
