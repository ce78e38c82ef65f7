"""Online discovery training: the batch objective ``losses.fit`` steps on.

Per batch and view: extract features, score novel points against each
head's prototypes (queue columns appended), solve the transport problem
at the current epoch's smoothness, filter the resulting pseudo-labels,
refresh the queue, and take an SGD step on the swapped objective over
base ground truth plus novel pseudo-labels. Novel ground truth is hidden
before the loop ever sees a point and the batch assembly asserts that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, make_views
from .data import UNLABELLED, SplitSpec, mask_novel
from .evaluate import evaluate
from .losses import TrainConfig, compute_loss_weights, fit, one_hot, tempered_ce
from .model import ModelConfig, SegmentationModel
from .model import knn_indices  # noqa: F401 -- unused; the bench checks its hooks reach it here
from .queueing import FeatureQueue, QueueConfig, select_phi
from .sinkhorn import EpsilonSchedule, epsilon_at, pseudo_labels_from, sinkhorn_assign

METRICS_COLUMNS = (
    ("epoch", "d"), ("loss", ".6f"), ("lr", ".8f"), ("eps", ".6f"),
    ("novel_mIoU", ".4f"), ("base_mIoU", ".4f"), ("all_mIoU", ".4f"),
)
METRICS_HEADER = "\t".join(name for name, _ in METRICS_COLUMNS)


@dataclass(frozen=True)
class SinkhornConfig:
    iters: int = 3
    eps_start: float = 0.3
    eps_end: float = 0.05


@dataclass(frozen=True)
class DiscoveryConfig:
    """Component toggles mirroring the ablation ladder."""

    use_queue: bool = True
    phi_queue: bool = True  # filter queue inserts and class-balance buckets
    tau_train: bool = True  # filter the pseudo-labels used for training
    overcluster: bool = True
    percentile: float = 0.5


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


def _features(model, views, neighbours):
    """One view's (D, n) features, the scenes' coordinate arrays side by
    side; each scene pools over its entry of ``neighbours``."""
    feats = [model.extract_features(coords, nb) for coords, nb in zip(views, neighbours)]
    return ad.concat_cols(feats) if len(feats) > 1 else feats[0]


def _pseudo_label(prototypes, z_novel, queue_cols, eps, iters, percentile, filter_on):
    """Transport-based soft labels for one head; returns (kept, dists)."""
    scores = prototypes.T @ z_novel
    if queue_cols.size:
        scores = np.concatenate([scores, prototypes.T @ queue_cols], axis=1)
    q = sinkhorn_assign(scores, eps, iters)
    labels = pseudo_labels_from(q, z_novel.shape[1])
    if filter_on:
        kept = select_phi(labels, percentile).kept_indices
    else:
        kept = np.arange(labels.shape[1])
    return kept, labels


def train(clouds, split: SplitSpec, cfg: ExperimentConfig, val_clouds=None,
          init_state: dict | None = None, ignore_label: int | None = None,
          log=None) -> TrainResult:
    """Run the discovery training loop and per-epoch evaluation.

    ``clouds`` keep their ground truth; novel labels are masked out here,
    at the boundary, and only the masked view is ever batched. Evaluation
    metrics use ``val_clouds`` (unmasked) or, failing that, the training
    scenes themselves.
    """
    if not clouds:
        raise ValueError("training dataset must be non-empty")
    masked = mask_novel(clouds, split, ignore_id=ignore_label)
    if not masked:
        raise ValueError("no usable scenes after masking")
    eval_set = val_clouds if val_clouds is not None else clouds
    base_order = sorted(split.base_classes)
    n_base, n_novel = len(base_order), split.n_novel
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

    # one entry per swapped term, in summing order: novel_0, over_0,
    # novel_1, ... (over only when on); each is (prototypes, class
    # weights, rows of the stacked logits)
    heads = cfg.model.heads
    weights = compute_loss_weights(masked, split)
    w_novel = weights.vector(base_order, n_novel)
    w_over = weights.vector(base_order, cfg.model.overcluster_factor * n_novel)
    entries = []
    for h in range(heads):
        entries.append((model.novel_p[h], w_novel, model.head_rows(h)))
        if dc.overcluster:
            entries.append((model.over_p[h], w_over, model.head_rows(h, over=True)))
    # a batch without novel points trains every entry on base labels alone
    no_targets = [(np.arange(0), np.zeros((p.shape[1], 0))) for p, _, _ in entries]
    queue = FeatureQueue(tuple(range(n_novel)), cfg.queue.capacity, balanced=dc.phi_queue)
    sched = EpsilonSchedule(cfg.sinkhorn.eps_start, cfg.sinkhorn.eps_end, tc.epochs)
    metrics = []
    batches = []  # per batch of this epoch: its loss, then each novel head's term
    head_losses = None

    def batch_loss(scene_ids, last_lr):
        """One batch's swapped objective; the driver steps on it."""
        eps = epsilon_at(sched, len(metrics))  # one row per finished epoch
        scenes = [masked[i] for i in scene_ids]
        views = [make_views(c, rng, cfg.augment) for c in scenes]
        neigh = [c.neighbours(k) for c in scenes]
        zs = [_features(model, coords, neigh) for coords in zip(*views)]
        if not all(np.isfinite(z.data).all() for z in zs):
            raise ValueError(f"features went non-finite after the SGD step at lr {last_lr:g}")
        # views keep point order, so one label layout serves both
        labels = np.concatenate([c.labels for c in scenes])
        base_idx = np.flatnonzero(labels != UNLABELLED)
        novel_idx = np.flatnonzero(labels == UNLABELLED)
        assert np.all(np.isin(labels[base_idx], base_order)), "unmasked label reached training"
        base_onehot = one_hot(labels[base_idx], base_order, n_base)

        # pseudo-labels per view and entry; queue is sampled before the
        # current batch is inserted, so it only carries past iterations
        targets = [no_targets, no_targets]
        for vi, z in enumerate(zs):
            if novel_idx.size == 0:
                break
            z_novel = z.data[:, novel_idx]
            qcols = (
                queue.sample(cfg.queue.sample_per_class, rng)
                if dc.use_queue
                else np.zeros((0, 0))
            )
            targets[vi] = [
                _pseudo_label(p.data, z_novel, qcols, eps, cfg.sinkhorn.iters,
                              dc.percentile, dc.tau_train)
                for p, _, _ in entries
            ]
            if dc.use_queue:
                # novel head-0 inserts are filtered when phi_queue is on;
                # with tau_train on too, the training filter chose them
                kept0, head0 = targets[vi][0]
                if not dc.phi_queue:
                    cand = np.arange(head0.shape[1])
                elif dc.tau_train:
                    cand = kept0
                else:
                    cand = select_phi(head0, dc.percentile).kept_indices
                queue.insert(
                    z_novel[:, cand], head0[:, cand].argmax(axis=0),
                    cfg.queue.insert_fraction, rng,
                )

        total, head_vals = _step_loss(
            model, zs, targets, entries, base_idx, novel_idx, base_onehot, tc.temperature
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
        report = evaluate(model, eval_set, split, ignore_label=ignore_label,
                          neighbours=[c.neighbours(k) for c in eval_set])
        row = {
            "epoch": epoch,
            "loss": float(means[0]),
            "lr": lr,
            "eps": epsilon_at(sched, epoch),
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


def _step_loss(model, zs, targets, entries, base_idx, novel_idx, base_onehot, temperature):
    """The step's objective and each novel head's swapped term.

    Entry ``e`` of ``entries`` (prototypes, class weights, logit rows)
    scores view 0 against view 1's pseudo-labels ``targets[1][e]`` and
    view 1 against ``targets[0][e]``, both on base ground truth too. The
    objective is the sum of all entries' terms over the head count; the
    novel heads are every ``len(entries) // heads``-th entry from the
    first. One logit matrix per view holds every head, and one cross
    entropy node per view scores every entry as a block of its rows.
    """
    n_base, heads = model.n_base, model.cfg.heads
    w_stack, b_stack = model.stacked_heads(len(entries) > heads)
    values = []
    for z, other in zip(zs, (1, 0)):
        blocks = []
        for e, (_, w_vec, rows) in enumerate(entries):
            kept, dist = targets[other][e]
            cols = np.concatenate([base_idx, novel_idx[kept]])
            target = np.zeros((rows.size, cols.size))
            target[:n_base, :base_idx.size] = base_onehot
            target[n_base:, base_idx.size:] = dist[:, kept]
            blocks.append((rows, cols, target, w_vec))
        values.append(tempered_ce(ad.matmul(w_stack, z, bias=b_stack), blocks, temperature))
    # entry e's term is its two views' values added; summed in entry order
    terms = ad.add(values[0], values[1])
    head_vals = terms.data[::len(entries) // heads, 0]
    return ad.sum_in_order(terms, 1.0 / heads), head_vals
