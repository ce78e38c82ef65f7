"""Evaluation protocol: per-class IoU, base/novel/all mIoU, head matching.

Novel head outputs are anonymous slots; before scoring they are aligned
to ground-truth novel classes by a maximum-IoU assignment computed once
over the full evaluation set, then frozen. Classes that never occur in
either prediction or ground truth are excluded from means rather than
scored zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import hungarian_max
from .data import SplitSpec, check_labels, class_counts


@dataclass
class ConfusionMatrix:
    """Square count matrix; rows are ground truth, columns predictions."""

    classes: list  # row/column labels, in order
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        n = len(self.classes)
        if self.counts is None:
            self.counts = np.zeros((n, n), dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (n, n):
            raise ValueError(f"counts must be {n}x{n}, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")
        self._index = {c: i for i, c in enumerate(self.classes)}

    def add(self, preds, labels, ignore_label=None):
        preds = np.asarray(preds)
        labels = np.asarray(labels)
        if preds.shape != labels.shape:
            raise ValueError("predictions and labels must have equal length")
        if ignore_label is not None:
            keep = labels != ignore_label
            preds, labels = preds[keep], labels[keep]
        rows = self._positions(labels, "ground-truth label")
        cols = self._positions(preds, "prediction")
        n = len(self.classes)
        self.counts += np.bincount(rows * n + cols, minlength=n * n).reshape(n, n)
        return self

    def _positions(self, values, what):
        """Each value's class position; names the first value outside the classes."""
        uniq, inverse = np.unique(values, return_inverse=True)
        pos = np.array([self._index.get(v, -1) for v in uniq.tolist()], dtype=np.int64)[inverse]
        if np.any(pos < 0):
            raise ValueError(f"{what} {values[np.argmax(pos < 0)]} outside the evaluated set")
        return pos

    def iou(self, cls) -> float | None:
        """TP / (TP + FP + FN); None when the class never occurs."""
        i = self._index[cls]
        tp = self.counts[i, i]
        denom = self.counts[i, :].sum() + self.counts[:, i].sum() - tp
        if denom == 0:
            return None
        return float(tp) / float(denom)


def miou(cm: ConfusionMatrix, class_subset) -> float:
    """Mean IoU over a class subset; classes whose TP+FP+FN is zero are
    dropped from the mean."""
    if not class_subset:
        raise ValueError("class subset must be non-empty")
    values = [v for v in map(cm.iou, class_subset) if v is not None]
    if not values:
        return 0.0
    return float(np.mean(values))


def match_novel(count_block: np.ndarray) -> list[int]:
    """Map novel head slots to ground-truth novel classes.

    ``count_block`` is the confusion sub-matrix of novel ground-truth rows
    by novel head columns. The returned list sends head slot j to the
    novel row index mapping[j], chosen to maximize the summed IoU; ties
    break to the lowest index pair.
    """
    block = np.asarray(count_block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise ValueError(f"expected a square block, got {block.shape}")
    row_tot = block.sum(axis=1, keepdims=True)
    col_tot = block.sum(axis=0, keepdims=True)
    denom = row_tot + col_tot - block
    iou = np.divide(block, denom, out=np.zeros_like(block), where=denom > 0)
    row_to_col = hungarian_max(iou)
    mapping = [0] * len(row_to_col)
    for row, col in enumerate(row_to_col):
        mapping[col] = row
    return mapping


@dataclass
class EvalReport:
    per_class_iou: dict  # class id -> IoU or None
    novel_miou: float
    base_miou: float
    all_miou: float
    mapping: dict  # novel head slot -> class id
    class_names: dict | None = None

    def _name(self, cls) -> str:
        return self.class_names.get(cls, str(cls)) if self.class_names else str(cls)

    def rows(self) -> list[tuple[str, float | None]]:
        """Per-class rows followed by the three aggregate rows."""
        out = [(self._name(c), self.per_class_iou[c]) for c in sorted(self.per_class_iou)]
        out.append(("Novel mIoU", self.novel_miou))
        out.append(("Base mIoU", self.base_miou))
        out.append(("All mIoU", self.all_miou))
        return out

    def to_tsv(self) -> str:
        lines = []
        for name, value in self.rows():
            lines.append(f"{name}\t{'' if value is None else f'{value:.4f}'}")
        return "\n".join(lines) + "\n"

    def wide_header(self) -> str:
        """Benchmark-table layout: one column per class plus aggregates."""
        names = [self._name(c) for c in sorted(self.per_class_iou)]
        return "\t".join(["model"] + names + ["Novel", "Base", "All"])

    def wide_row(self, label: str) -> str:
        cells = [label]
        for c in sorted(self.per_class_iou):
            v = self.per_class_iou[c]
            cells.append("" if v is None else f"{v:.4f}")
        cells += [f"{self.novel_miou:.4f}", f"{self.base_miou:.4f}", f"{self.all_miou:.4f}"]
        return "\t".join(cells)


def evaluate(model, clouds, split: SplitSpec, class_names: dict | None = None,
             neighbours=None) -> EvalReport:
    """Score a model on an evaluation set.

    The model must expose ``predict_slots(coords, neighbours=)``
    returning, per point, an argmax over base slots (sorted base ids)
    followed by its selected head's novel slots. Novel slots are matched
    to class ids on this same set, then the matrix columns are permuted
    accordingly before scoring. Points labelled ``split.ignore_id`` are
    not scored; any other label outside the split is refused by scene.
    ``neighbours`` optionally carries each cloud's k-NN graph. An empty
    ``clouds``, or a ``neighbours`` of another length, is refused.
    """
    if not clouds:
        raise ValueError("evaluate: no scenes to score")
    if neighbours is not None and len(neighbours) != len(clouds):
        raise ValueError(f"evaluate: {len(neighbours)} neighbour graphs for {len(clouds)} scenes")
    base_order = split.base_order
    novel_order = sorted(split.novel_classes)
    n_base = len(base_order)

    classes = base_order + novel_order
    # predicted slot j stands for classes[j] until the novel slots are matched
    slot_classes = np.asarray(classes)
    by_slot = ConfusionMatrix(classes)
    check_labels(clouds, split)
    for i, cloud in enumerate(clouds):
        slots = model.predict_slots(
            cloud.coords, neighbours=None if neighbours is None else neighbours[i]
        )
        by_slot.add(slot_classes[slots], cloud.labels, ignore_label=split.ignore_id)

    mapping_rows = match_novel(by_slot.counts[n_base:, n_base:])
    # permute novel prediction columns so each matched slot lands on its
    # class: argsort inverts the slot -> row permutation
    perm = np.concatenate([np.arange(n_base), n_base + np.argsort(mapping_rows)])
    cm = ConfusionMatrix(classes, by_slot.counts[:, perm])
    return EvalReport(
        per_class_iou={c: cm.iou(c) for c in classes},
        novel_miou=miou(cm, novel_order),
        base_miou=miou(cm, base_order),
        all_miou=miou(cm, classes),
        mapping={j: novel_order[mapping_rows[j]] for j in range(len(novel_order))},
        class_names=class_names,
    )


def constant_predictor_bound(clouds, split: SplitSpec) -> float:
    """Novel mIoU of the best constant predictor (the chance-level bound).

    Predicting one class c everywhere scores IoU_c = frequency(c) and
    zero elsewhere, so the bound is max_c freq(c) / |C_n|.
    """
    novel = sorted(split.novel_classes)
    counts = class_counts(clouds, novel)
    total = sum(cloud.n_points for cloud in clouds)
    if total == 0:
        return 0.0
    return max(counts.values()) / total / len(novel)
