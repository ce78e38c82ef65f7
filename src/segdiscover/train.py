"""Online discovery training: the batch objective ``losses.fit`` steps on.

Per batch and view: extract features and score them against every head
at once. Each head family (the novel heads, then the over-clustering
heads) is one contiguous row range of those logits, so one transport
call solves all of a family's heads (queue columns, scored by the same
map, appended) at the current epoch's smoothness, and one selection
call filters their pseudo-labels. Then refresh the queue, and take an
SGD step on the swapped objective over base ground truth plus novel
pseudo-labels: one cross-entropy node per view scores every head of
every family. Novel ground truth is hidden before the loop ever sees a
point, and the batch's slot lookup (``SplitSpec.base_slots``) refuses
any id that is not a base class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, make_views
from .data import UNLABELLED, SplitSpec, check_labels, mask_novel
from .evaluate import evaluate
from .losses import TrainConfig, compute_loss_weights, fit, tempered_ce
from .model import ModelConfig, SegmentationModel
from .model import knn_indices  # noqa: F401 -- unused; the bench checks its hooks reach it here
from .queueing import FeatureQueue, QueueConfig, select_phi
from .sinkhorn import SinkhornConfig, epsilon_at, pseudo_labels_from, sinkhorn_assign

METRICS_COLUMNS = (
    ("epoch", "d"), ("loss", ".6f"), ("lr", ".8f"), ("eps", ".6f"),
    ("novel_mIoU", ".4f"), ("base_mIoU", ".4f"), ("all_mIoU", ".4f"),
)
METRICS_HEADER = "\t".join(name for name, _ in METRICS_COLUMNS)


@dataclass(frozen=True)
class DiscoveryConfig:
    """Component toggles mirroring the ablation ladder."""

    use_queue: bool = True
    phi_queue: bool = True  # filter queue inserts and class-balance buckets
    tau_train: bool = True  # filter the pseudo-labels used for training
    overcluster: bool = True
    percentile: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.percentile < 1.0):
            raise ValueError(f"percentile must be in [0, 1), got {self.percentile}")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    sinkhorn: SinkhornConfig = field(default_factory=SinkhornConfig)
    queue: QueueConfig = field(default_factory=QueueConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    discovery: DiscoveryConfig = field(default_factory=DiscoveryConfig)


@dataclass
class TrainResult:
    model: SegmentationModel
    metrics: list  # one dict per epoch
    head_losses: np.ndarray  # mean per-head novel loss, final epoch

    def metrics_tsv(self) -> str:
        rows = ["\t".join(format(row[k], f) for k, f in METRICS_COLUMNS) for row in self.metrics]
        return "\n".join([METRICS_HEADER, *rows]) + "\n"


def _pseudo_label(scores, heads, m, eps, iters, percentile):
    """Transport-based soft labels for one head family from its stacked
    prototype scores (heads x rho rows; m novel points, then queue
    columns) and their percentile selection; returns (kept, dists),
    (heads, m) and (heads, rho, m)."""
    q = sinkhorn_assign(scores, eps, iters, heads)
    dists = pseudo_labels_from(q.reshape(heads, -1, q.shape[1]), m)
    return select_phi(dists, percentile).kept, dists


def train(clouds, split: SplitSpec, cfg: ExperimentConfig, val_clouds=None,
          init_state: dict | None = None, log=None) -> TrainResult:
    """Run the discovery training loop and per-epoch evaluation.

    ``clouds`` keep their ground truth; ``mask_novel`` hides novel labels and
    ignored points here, and only the masked view is ever batched. Evaluation
    metrics use ``val_clouds`` (unmasked) or, when it is None, the training
    scenes themselves; an empty ``val_clouds``, or one with an id outside
    the split, is refused before any step.
    """
    if not clouds:
        raise ValueError("training dataset must be non-empty")
    if val_clouds is not None:
        if not val_clouds:
            raise ValueError("val_clouds is empty; pass None to score the training scenes")
        check_labels(val_clouds, split)
    masked = mask_novel(clouds, split)
    if not masked:
        raise ValueError("no usable scenes after masking")
    eval_set = val_clouds if val_clouds is not None else clouds
    n_base, n_novel = len(split.base_classes), split.n_novel
    tc = cfg.train
    dc = cfg.discovery

    # every training graph is built here, before the first step; both views
    # of a scene pool over it by design (jitter would change some neighbour sets)
    k = cfg.model.knn
    for c in masked:
        c.neighbours(k)

    rng = np.random.default_rng(tc.seed)
    model = SegmentationModel(cfg.model, n_base, n_novel, rng)
    if init_state is not None:
        model.load_state(init_state, strict=False)

    # each family is (first row, rows per head) of the stacked logits;
    # novel classes all weigh one, so only the base rows carry weights
    heads = cfg.model.heads
    families = model.head_families(dc.overcluster)
    w_base = compute_loss_weights(masked, split)
    # a batch without novel points trains every head on base labels alone
    no_targets = [(np.zeros((heads, 0), dtype=bool), np.zeros((heads, width, 0)))
                  for _, width in families]
    queue = FeatureQueue(tuple(range(n_novel)), cfg.queue.capacity, balanced=dc.phi_queue)
    metrics = []
    batches = []  # per batch of this epoch: its loss, then each novel head's term
    head_losses = None

    def batch_loss(scene_ids, last_lr):
        """One batch's swapped objective; the driver steps on it."""
        eps = epsilon_at(cfg.sinkhorn, len(metrics), tc.epochs)  # one row per finished epoch
        scenes = [masked[i] for i in scene_ids]
        views = [make_views(c, rng, cfg.augment, 2) for c in scenes]
        neigh = [c.neighbours(k) for c in scenes]
        zs = [model.view_features(coords, neigh) for coords in zip(*views)]
        if not all(np.isfinite(z.data).all() for z in zs):
            raise ValueError(f"features went non-finite after the SGD step at lr {last_lr:g}")
        # views keep point order, so one label layout serves both
        labels = np.concatenate([c.labels for c in scenes])
        base_idx = np.flatnonzero(labels != UNLABELLED)
        novel_idx = np.flatnonzero(labels == UNLABELLED)
        base_slots = split.base_slots(labels[base_idx])
        # every head scores each view once, for the transport and the loss;
        # the bias is zero past the base rows, so those rows are prototype scores
        w_stack, b_stack = model.stacked_heads(dc.overcluster)
        logits = [ad.matmul(w_stack, z, bias=b_stack) for z in zs]

        # pseudo-labels per view and family; queue is sampled before the
        # current batch is inserted, so it only carries past iterations
        targets = [no_targets, no_targets]
        for vi, z in enumerate(zs):
            if novel_idx.size == 0:
                break
            scores = logits[vi].data[:, novel_idx]
            if dc.use_queue:
                qcols = queue.sample(cfg.queue.sample_per_class, rng)
                if qcols.size:
                    scores = np.concatenate([scores, w_stack.data @ qcols], axis=1)
            selected = [
                _pseudo_label(scores[start:start + heads * width], heads, novel_idx.size, eps,
                              cfg.sinkhorn.iters, dc.percentile)
                for start, width in families
            ]
            # the selection filters training targets when tau_train is on
            # and novel head-0 queue inserts when phi_queue is on
            targets[vi] = selected if dc.tau_train else [
                (np.ones_like(kept), dists) for kept, dists in selected]
            if dc.use_queue:
                kept, dists = selected[0]
                head0 = dists[0]
                cand = np.flatnonzero(kept[0]) if dc.phi_queue else np.arange(head0.shape[1])
                queue.insert(z.data[:, novel_idx[cand]], head0[:, cand].argmax(axis=0),
                             cfg.queue.insert_fraction, rng)

        total, head_vals = _step_loss(
            logits, targets, families, base_idx, base_slots, w_base, novel_idx, heads,
            tc.temperature,
        )
        batches.append(np.concatenate([total.data[0], head_vals]))
        return total

    def end_epoch(epoch, lr):
        nonlocal head_losses
        # every batch holds at least one scene, so each one returned a loss
        means = sum(batches, np.zeros(1 + heads)) / len(batches)
        batches.clear()
        head_losses = means[1:]
        model.selected_head = int(np.argmin(head_losses))
        report = evaluate(model, eval_set, split, neighbours=[c.neighbours(k) for c in eval_set])
        row = {
            "epoch": epoch,
            "loss": float(means[0]),
            "lr": lr,
            "eps": epsilon_at(cfg.sinkhorn, epoch, tc.epochs),
            "novel_mIoU": report.novel_miou,
            "base_mIoU": report.base_miou,
            "all_mIoU": report.all_miou,
        }
        metrics.append(row)
        if log is not None:
            print(
                f"epoch {epoch}: loss {row['loss']:.4f} novel {row['novel_mIoU']:.3f} "
                f"base {row['base_mIoU']:.3f}",
                file=log,
            )

    fit(model, len(masked), tc, tc.epochs, rng, batch_loss, end_epoch)
    return TrainResult(model, metrics, head_losses)


def _step_loss(logits, targets, families, base_idx, base_slots, w_base, novel_idx, heads,
               temperature):
    """The step's objective and each novel head's swapped term.

    One cross-entropy node per view scores that view's ``stacked_heads``
    logits: base ground truth (point ``base_idx[j]`` in base row
    ``base_slots[j]``, rows weighted by ``w_base``) and, per family of
    ``families``, the other view's pseudo-labels ``targets[other][f]`` =
    (kept, dists) at ``novel_idx``. Its values are one per head, family
    by family, the novel heads first; the objective is the sum of both
    views' values over the head count.
    """
    values = []
    for view_logits, other in zip(logits, (1, 0)):
        scored = [(start, dists, kept)
                  for (start, _), (kept, dists) in zip(families, targets[other])]
        values.append(tempered_ce(view_logits, base_idx, base_slots, w_base, novel_idx, scored,
                                  temperature))
    # head h's term is its two views' values added; summed family by family
    terms = ad.add(values[0], values[1])
    return ad.sum_in_order(terms, 1.0 / heads), terms.data[:heads, 0]
