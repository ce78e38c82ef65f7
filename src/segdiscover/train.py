"""Online discovery training: the epoch loop over the full pipeline.

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
from .losses import SGD, TrainConfig, compute_loss_weights, lr_at, one_hot, sum_tensors, tempered_ce
from .model import ModelConfig, SegmentationModel, knn_indices
from .queueing import FeatureQueue, QueueConfig, select_phi
from .sinkhorn import EpsilonSchedule, epsilon_at, pseudo_labels_from, sinkhorn_assign

# acceptance criterion 3 builds the step's loss from the private names
_one_hot = one_hot

METRICS_HEADER = "epoch\tloss\tlr\teps\tnovel_mIoU\tbase_mIoU\tall_mIoU"


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
    selected_head: int
    head_losses: np.ndarray  # mean per-head novel loss, final epoch

    def metrics_tsv(self) -> str:
        lines = [METRICS_HEADER]
        for row in self.metrics:
            lines.append(
                "\t".join(
                    [
                        str(row["epoch"]),
                        f"{row['loss']:.6f}",
                        f"{row['lr']:.8f}",
                        f"{row['eps']:.6f}",
                        f"{row['novel_mIoU']:.4f}",
                        f"{row['base_mIoU']:.4f}",
                        f"{row['all_mIoU']:.4f}",
                    ]
                )
            )
        return "\n".join(lines) + "\n"


class _BatchView:
    """One view of a batch: stacked features, labels, and index sets.

    Each cloud's features pool over its entry of ``neighbours``."""

    def __init__(self, model, clouds, neighbours):
        feats = [model.extract_features(c.coords, nb) for c, nb in zip(clouds, neighbours)]
        self.z = ad.concat_cols(feats) if len(feats) > 1 else feats[0]
        self.labels = np.concatenate([c.labels for c in clouds])
        self.base_idx = np.flatnonzero(self.labels != UNLABELLED)
        self.novel_idx = np.flatnonzero(self.labels == UNLABELLED)


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

    # the neighbour graph survives the augmentation family, so compute it
    # once per scene instead of per view
    k = cfg.model.knn
    scene_neigh = [knn_indices(c.coords, k) for c in masked]
    eval_neigh = [knn_indices(c.coords, k) for c in eval_set]

    rng = np.random.default_rng(tc.seed)
    model = SegmentationModel(cfg.model, n_base, n_novel, rng)
    if init_state is not None:
        model.load_state(init_state, strict=False)

    # the novel heads and, when on, the over-clustering heads; each family
    # is (prototypes per head, class weights, over flag)
    weights = compute_loss_weights(masked, split)
    families = [(model.novel_p, weights.vector(base_order, n_novel), False)]
    if dc.overcluster:
        w_over = weights.vector(base_order, cfg.model.overcluster_factor * n_novel)
        families.append((model.over_p, w_over, True))
    queue = FeatureQueue(tuple(range(n_novel)), cfg.queue.capacity, balanced=dc.phi_queue)
    opt = SGD(model.parameters(), tc.momentum, tc.weight_decay)
    sched = EpsilonSchedule(cfg.sinkhorn.eps_start, cfg.sinkhorn.eps_end, tc.epochs)

    n_batches = (len(masked) + tc.batch_size - 1) // tc.batch_size
    total_steps = tc.epochs * n_batches
    heads = cfg.model.heads
    step = 0
    lr = 0.0
    metrics = []

    for epoch in range(tc.epochs):
        eps = epsilon_at(sched, epoch)
        order = rng.permutation(len(masked))
        epoch_loss = 0.0
        head_sums = np.zeros(heads)

        for b in range(n_batches):
            scene_ids = order[b * tc.batch_size:(b + 1) * tc.batch_size]
            pairs = [make_views(masked[i], rng, cfg.augment) for i in scene_ids]
            # both views of a scene share its neighbour graph
            neigh = [scene_neigh[i] for i in scene_ids]
            views = (
                _BatchView(model, [p.view_a for p in pairs], neigh),
                _BatchView(model, [p.view_b for p in pairs], neigh),
            )
            va, vb = views
            if not (np.isfinite(va.z.data).all() and np.isfinite(vb.z.data).all()):
                raise ValueError(f"features went non-finite after the SGD step at lr {lr:g}")
            assert np.array_equal(va.labels, vb.labels)
            assert np.all(np.isin(va.labels[va.base_idx], base_order)), "unmasked label reached training"

            # pseudo-labels per family, view and head; queue is sampled before
            # the current batch is inserted, so it only carries past iterations
            targets = [[{}, {}] for _ in families]
            for vi, view in enumerate(views):
                if view.novel_idx.size == 0:
                    continue
                z_novel = view.z.data[:, view.novel_idx]
                qcols = (
                    queue.sample(cfg.queue.sample_per_class, rng)
                    if dc.use_queue
                    else np.zeros((0, 0))
                )
                for f, (protos, _, _) in enumerate(families):
                    for h in range(heads):
                        targets[f][vi][h] = _pseudo_label(
                            protos[h].data, z_novel, qcols, eps,
                            cfg.sinkhorn.iters, dc.percentile, dc.tau_train,
                        )
                if dc.use_queue:
                    # novel head-0 inserts are filtered when phi_queue is on;
                    # with tau_train on too, the training filter chose them
                    kept0, head0 = targets[0][vi][0]
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

            total, batch_head_vals = _step_loss(
                model, views, targets, families, base_order, tc.temperature
            )
            lr = lr_at(tc, step, total_steps)
            opt.zero_grad()
            ad.backward(total)
            opt.step(lr)
            step += 1
            epoch_loss += float(total.data[0, 0])
            head_sums += batch_head_vals

        # every batch holds at least one scene, so each one took a step
        head_losses = head_sums / n_batches
        model.selected_head = int(np.argmin(head_losses))
        report = evaluate(
            model, eval_set, split, ignore_label=ignore_label, neighbours=eval_neigh
        )
        row = {
            "epoch": epoch,
            "loss": epoch_loss / n_batches,
            "lr": lr,
            "eps": eps,
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

    return TrainResult(model, metrics, model.selected_head, head_losses)


def _step_loss(model, views, targets, families, base_order, temperature):
    """The step's objective and each novel head's swapped term.

    The objective is the mean over heads of one swapped term per head
    family, in the order of ``families``, whose entry ``f`` reads its
    pseudo-labels from ``targets[f]``. One logit matrix per view holds
    every head; each term reads the base rows and its own head's rows.
    """
    n_base, heads = model.n_base, model.cfg.heads
    base_onehot = [one_hot(v.labels[v.base_idx], base_order, n_base) for v in views]
    w_stack, b_stack = model.stacked_heads(any(over for _, _, over in families))
    logits = [ad.add(ad.matmul(w_stack, v.z), b_stack) for v in views]
    terms = []
    head_vals = np.zeros(heads)
    for h in range(heads):
        head_terms = [
            _swapped_term(
                views, logits, base_onehot, targets[f], h, n_base, protos[h].shape[1],
                w_vec, temperature, model.head_rows(h, over),
            )
            for f, (protos, w_vec, over) in enumerate(families)
        ]
        head_vals[h] = float(head_terms[0].data[0, 0])
        terms += head_terms
    return ad.mul(sum_tensors(terms), 1.0 / heads), head_vals


def _swapped_term(views, logits, base_onehot, targets, h, n_base, n_slots, w_vec, temperature,
                  rows=None):
    """One head's swapped loss: predictions of each view against base
    ground truth plus the other view's filtered pseudo-labels.

    ``logits[v]`` holds the view's base and head logits in ``rows``
    (every row when None)."""
    terms = []
    for vi, other in ((0, 1), (1, 0)):
        base_idx = views[vi].base_idx
        kept, dist = targets[other].get(h) or (np.arange(0), np.zeros((n_slots, 0)))
        cols = np.concatenate([base_idx, views[other].novel_idx[kept]])
        if cols.size == 0:
            continue
        target = np.zeros((n_base + n_slots, cols.size))
        target[:n_base, :base_idx.size] = base_onehot[vi]
        target[n_base:, base_idx.size:] = dist[:, kept]
        terms.append(tempered_ce(logits[vi], cols, target, w_vec, temperature, rows))
    if not terms:
        return ad.constant(0.0)
    return sum_tensors(terms)
