"""Offline-clustering baseline: pretrain, cluster, propagate, fine-tune.

The pipeline pretrains the extractor and base head on base points only,
subsamples per-scene novel features, clusters the pooled features with
seeded k-means, spreads each pseudo-label to its nearest unselected
neighbour in coordinate space, and fine-tunes a joint head on base
ground truth plus the hard pseudo-labels. Novel ground truth is masked
at the same boundary the online trainer uses. Each stage trains a
``CombinedHeadModel``, the extractor and one head, on one augmented
view per scene and step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .augment import AugmentConfig, make_views
from .data import UNLABELLED, SplitSpec, mask_novel
from .losses import TrainConfig, compute_loss_weights, fit, tempered_ce
from .model import CombinedHeadModel, ModelConfig, check_coords, distance_blocks
from .model import knn_indices  # noqa: F401 -- unused; the bench checks its hooks reach it here

KMEANS_RESTARTS = 20  # k-means++ seedings per kmeans call; the lowest SSE wins
KMEANS_MAX_ITER = 300  # Lloyd iterations per seeding, if it has not converged


@dataclass(frozen=True)
class SubsampleSpec:
    """Per-scene novel-point subsampling: a ratio with a hard cap."""

    ratio: float = 0.3
    cap: int = 1000

    def __post_init__(self):
        if not (0.0 < self.ratio <= 1.0):
            raise ValueError("ratio must be in (0, 1]")
        if self.cap < 1:
            raise ValueError("cap must be at least 1")


@dataclass(frozen=True)
class BaselineConfig:
    pretrain_epochs: int = 20
    finetune_epochs: int = 10
    subsample: SubsampleSpec = field(default_factory=SubsampleSpec)
    overcluster: bool = False  # entropy-ranked agglomeration stage
    overcluster_factor: int = 3

    def __post_init__(self):
        if min(self.pretrain_epochs, self.finetune_epochs) < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.overcluster_factor < 1:
            raise ValueError("overcluster_factor must be >= 1")


@dataclass
class KMeansModel:
    centroids: np.ndarray  # (k, D)

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 2 or self.centroids.shape[0] < 1:
            raise ValueError("centroids must be a non-empty (k, D) matrix")
        if not np.all(np.isfinite(self.centroids)):
            raise ValueError("centroids must be finite")


def _kmeans_pp_init(features, k, rng):
    n = features.shape[0]
    centers = [features[rng.integers(n)]]
    d2 = ((features - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers.append(features[rng.integers(n)])
            continue
        probs = d2 / total
        idx = rng.choice(n, p=probs)
        centers.append(features[idx])
        d2 = np.minimum(d2, ((features - centers[-1]) ** 2).sum(axis=1))
    return np.stack(centers)


def _sq_dists(x, centroids):
    """(n, k) squared distances from the rows of ``x`` to each centroid,
    one centroid at a time, so no (n, k, D) temporary is made."""
    out = np.empty((x.shape[0], centroids.shape[0]))
    for j, c in enumerate(centroids):
        out[:, j] = ((x - c) ** 2).sum(axis=1)
    return out


def _lloyd(features, centroids, max_iter):
    """Lloyd refinement: at most ``max_iter`` centroid updates, stopping
    early once the assignment repeats. The last distances computed are
    those of the returned centroids and give the assignment and SSE."""
    previous = None
    for it in range(max_iter + 1):
        d2 = _sq_dists(features, centroids)
        assignments = d2.argmin(axis=1)
        if it == max_iter or (previous is not None and np.array_equal(assignments, previous)):
            break
        previous = assignments
        for j in range(centroids.shape[0]):
            members = features[assignments == j]
            if members.shape[0]:
                centroids[j] = members.mean(axis=0)
    sse = float(d2[np.arange(features.shape[0]), assignments].sum())
    return centroids, assignments, sse


def kmeans(features, k, seed):
    """Seeded k-means++ with Lloyd refinement, best SSE over restarts."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError("features must be (n, D)")
    if features.shape[0] < k:
        raise ValueError(f"cannot fit {k} clusters to {features.shape[0]} points")
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(KMEANS_RESTARTS):
        centroids = _kmeans_pp_init(features, k, rng)
        centroids, assignments, sse = _lloyd(features, centroids.copy(), KMEANS_MAX_ITER)
        if best is None or sse < best[2]:
            best = (centroids, assignments, sse)
    centroids, assignments, _ = best
    return KMeansModel(centroids), assignments


def subsample_psi(n_points: int, spec: SubsampleSpec, rng: np.random.Generator) -> np.ndarray:
    """Indices of min(ceil(ratio * n), cap) points, without replacement."""
    if n_points == 0:
        return np.array([], dtype=np.intp)
    count = min(int(np.ceil(spec.ratio * n_points)), spec.cap, n_points)
    return np.sort(rng.choice(n_points, size=count, replace=False))


def propagate_nn(coords: np.ndarray, selected: np.ndarray, labels: np.ndarray):
    """Copy each selected point's label to its nearest unselected point.

    Ties break to the lower point index; if two selected points share a
    nearest neighbour, the first (lowest selected index) writes and later
    ones are ignored. Returns (indices, labels) including the originals.
    Selected points are scored in ``model.distance_blocks``, past whose
    range ``model.check_coords`` refuses a point, as in ``knn_indices``.
    """
    selected = np.asarray(selected, dtype=np.intp)
    labels = np.asarray(labels)
    if selected.size == 0:
        raise ValueError("propagation needs a non-empty selected subset")
    check_coords(coords, "propagate_nn")
    n = coords.shape[0]
    mask = np.ones(n, dtype=bool)
    mask[selected] = False
    others = np.flatnonzero(mask)
    out_idx, out_lab = selected, labels
    if others.size:
        nearest = np.empty(selected.size, dtype=np.intp)
        for lo, hi, d2 in distance_blocks(coords[selected], coords[others]):
            nearest[lo:hi] = d2.argmin(axis=1)  # the lowest index on ties
        nearest = others[nearest]
        # np.unique reports each target's first occurrence: the first writer
        targets, first = np.unique(nearest, return_index=True)
        out_idx = np.concatenate([selected, targets])
        out_lab = np.concatenate([labels, labels[first]])
    order = np.argsort(out_idx, kind="stable")
    return out_idx[order], out_lab[order]


def _merge_overclusters(centroids, assignments, point_entropy, n_target):
    """Agglomerate overclustered centroids down to the target count.

    Clusters are visited lowest-entropy first and greedily absorbed into
    their nearest surviving centroid; labels follow the merges.
    """
    k = centroids.shape[0]
    sizes = np.bincount(assignments, minlength=k).astype(np.float64)
    cluster_entropy = np.zeros(k)
    for j in range(k):
        members = point_entropy[assignments == j]
        cluster_entropy[j] = members.mean() if members.size else np.inf
    alive = list(range(k))
    parent = np.arange(k)
    cents = centroids.copy()
    while len(alive) > n_target:
        order = sorted(alive, key=lambda j: (cluster_entropy[j], j))
        src = order[0]
        rest = [j for j in alive if j != src]
        d2 = ((cents[rest] - cents[src]) ** 2).sum(axis=1)
        dst = rest[int(d2.argmin())]
        w = sizes[src] + sizes[dst]
        if w > 0:
            cents[dst] = (cents[src] * sizes[src] + cents[dst] * sizes[dst]) / w
        sizes[dst] = w
        cluster_entropy[dst] = min(cluster_entropy[dst], cluster_entropy[src])
        parent[src] = dst
        alive.remove(src)
    # follow merges to the surviving representative, then densify ids
    while not np.array_equal(parent[parent], parent):
        parent = parent[parent]
    survivors = np.sort(alive)
    return cents[survivors], np.searchsorted(survivors, parent[assignments])


def _ce_loss(model: CombinedHeadModel, scenes, split: SplitSpec, pseudo, temperature,
             aug: AugmentConfig, rng):
    """The batch loss pretraining and fine-tuning step on: the mean
    tempered CE of the batch's scenes that have targets, each on one
    augmented view; None when no scene in the batch has any.

    Targets are base ground truth, plus ``pseudo[scene_id]`` = (point
    indices, slots) in the head's rows after the base ones.
    """
    n_base = len(split.base_classes)
    w_vec = np.concatenate([compute_loss_weights(scenes, split),
                            np.ones(model.head_w.shape[0] - n_base)])
    k = model.cfg.knn
    no_pseudo = (np.array([], dtype=np.intp), np.array([], dtype=np.int64))
    targets = []
    for cloud in scenes:
        cloud.neighbours(k)  # built here, before the first step
        base_idx = np.flatnonzero(cloud.labels != UNLABELLED)
        idx, slots = pseudo.get(cloud.scene_id, no_pseudo)
        cols = np.concatenate([base_idx, idx])
        rows = np.concatenate([split.base_slots(cloud.labels[base_idx]), n_base + slots])
        targets.append((cols, rows) if cols.size else None)

    def batch_loss(ids, _last_lr):
        terms = []
        for i in ids:
            if targets[i] is None:
                continue
            cols, rows = targets[i]
            coords, = make_views(scenes[i], rng, aug, 1)
            z = model.extract_features(coords, scenes[i].neighbours(k))
            # every row is a base row: one softmax over all of them, no family
            terms.append(tempered_ce(model.logits(z), cols, rows, w_vec, (), (), temperature))
        return ad.sum_in_order(ad.concat_rows(terms), 1 / len(terms)) if terms else None

    return batch_loss


def pretrain_base(scenes, split: SplitSpec, model_cfg: ModelConfig, train_cfg: TrainConfig,
                  baseline_cfg: BaselineConfig, aug: AugmentConfig) -> CombinedHeadModel:
    """Supervised training of extractor plus base head on base points only:
    a ``CombinedHeadModel`` with no novel slot, its head named ``base``.

    ``scenes`` are masked (``mask_novel`` output).
    """
    rng = np.random.default_rng(train_cfg.seed)
    model = CombinedHeadModel(model_cfg, len(split.base_classes), 0, rng, name="base")
    batch_loss = _ce_loss(model, scenes, split, {}, train_cfg.temperature, aug, rng)
    fit(model, len(scenes), train_cfg, baseline_cfg.pretrain_epochs, rng, batch_loss)
    return model


def finetune(pretrained: CombinedHeadModel, scenes, pseudo, split: SplitSpec,
             model_cfg: ModelConfig, train_cfg: TrainConfig, baseline_cfg: BaselineConfig,
             aug: AugmentConfig) -> CombinedHeadModel:
    """Joint training on base ground truth and hard novel pseudo-labels.

    ``scenes`` are masked (``mask_novel`` output). ``pseudo[scene_id]``
    holds (point indices, cluster slots in 0..n_novel-1) produced by the
    clustering stage.
    """
    n_base, n_novel = len(split.base_classes), split.n_novel
    rng = np.random.default_rng(train_cfg.seed + 1)
    model = CombinedHeadModel(model_cfg, n_base, n_novel, rng)
    model.load_state(pretrained.state(), strict=False)  # the extractor
    model.head_w.data[:n_base] = pretrained.head_w.data
    model.head_b.data[:n_base] = pretrained.head_b.data
    batch_loss = _ce_loss(model, scenes, split, pseudo, train_cfg.temperature, aug, rng)
    fit(model, len(scenes), train_cfg, baseline_cfg.finetune_epochs, rng, batch_loss)
    return model


def run_baseline(clouds, split: SplitSpec, model_cfg: ModelConfig, train_cfg: TrainConfig,
                 baseline_cfg: BaselineConfig, aug: AugmentConfig):
    """Full offline pipeline; returns (model, per-scene pseudo-labels).

    Pseudo-labels are keyed by scene id, so the ids must be distinct.
    Points labelled ``split.ignore_id`` are dropped before pretraining.
    """
    shared = sorted(s for s, n in Counter(c.scene_id for c in clouds).items() if n > 1)
    if shared:
        raise ValueError(f"scene ids {shared} each name more than one scene; "
                         "pseudo-labels are keyed by scene id")
    masked = mask_novel(clouds, split)
    # each scene's one k-NN graph serves pretraining, clustering and fine-tuning
    pretrained = pretrain_base(masked, split, model_cfg, train_cfg, baseline_cfg, aug)

    rng = np.random.default_rng(train_cfg.seed + 2)
    # per scene: (scene index, its novel points, subsample positions among them)
    feats, picks = [], []
    for i, cloud in enumerate(masked):
        novel_idx = np.flatnonzero(cloud.labels == UNLABELLED)
        local = subsample_psi(novel_idx.size, baseline_cfg.subsample, rng)
        if local.size == 0:
            continue
        # features of the whole scene, so k-NN pooling sees every point;
        # ``picked`` is ascending, so each chunk holds one run of it
        picked, rows = novel_idx[local], []
        for lo, hi, z in pretrained.feature_chunks(cloud.coords, cloud.neighbours(model_cfg.knn)):
            first, last = np.searchsorted(picked, [lo, hi])
            rows.append(z[:, picked[first:last] - lo].T)
        feats.append(np.concatenate(rows))
        picks.append((i, novel_idx, local))
    pseudo: dict = {}
    if feats:
        pool = np.concatenate(feats, axis=0)
        n_novel = split.n_novel
        if baseline_cfg.overcluster and pool.shape[0] >= baseline_cfg.overcluster_factor * n_novel:
            k = baseline_cfg.overcluster_factor * n_novel
            km, assign = kmeans(pool, k, train_cfg.seed)
            d2 = _sq_dists(pool, km.centroids)
            temp = max(float(d2.min(axis=1).mean()), 1e-12)
            soft = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / temp)
            soft /= soft.sum(axis=1, keepdims=True)
            point_entropy = -(soft * np.log(np.maximum(soft, 1e-12))).sum(axis=1)
            _, assign = _merge_overclusters(km.centroids, assign, point_entropy, n_novel)
        else:
            _, assign = kmeans(pool, min(n_novel, pool.shape[0]), train_cfg.seed)
        bounds = np.cumsum([local.size for _, _, local in picks])[:-1]
        for (i, novel_idx, local), slots in zip(picks, np.split(assign, bounds)):
            # propagate within the scene's novel points only
            ext_local, ext_lab = propagate_nn(masked[i].coords[novel_idx], local, slots)
            pseudo[masked[i].scene_id] = (novel_idx[ext_local], ext_lab)

    model = finetune(pretrained, masked, pseudo, split, model_cfg, train_cfg, baseline_cfg, aug)
    return model, pseudo


def write_pseudo_labels(path, pseudo: dict):
    """Binary dump: per scene a file of little-endian u32 (point index, slot)
    pairs. Slots are k-means clusters 0..n_novel-1, not class ids; they are
    matched to classes only at evaluation."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    for scene_id, (idx, slots) in sorted(pseudo.items()):
        pairs = np.column_stack([idx, slots]).astype("<u4")
        (root / f"{scene_id}.plabel").write_bytes(pairs.tobytes())


def read_pseudo_labels(path):
    out = {}
    for f in sorted(Path(path).glob("*.plabel")):
        raw = f.read_bytes()
        if len(raw) % 8 != 0:
            raise ValueError(f"{f}: truncated pseudo-label dump")
        pairs = np.frombuffer(raw, dtype="<u4").reshape(-1, 2)
        out[f.stem] = (pairs[:, 0].astype(np.intp), pairs[:, 1].astype(np.int64))
    return out
