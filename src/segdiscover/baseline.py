"""Offline-clustering baseline: pretrain, cluster, propagate, fine-tune.

The pipeline pretrains the extractor and base head on base points only,
subsamples per-scene novel features, clusters the pooled features with
seeded k-means, spreads each pseudo-label to its nearest unselected
neighbour in coordinate space, and fine-tunes a joint head on base
ground truth plus the hard pseudo-labels. Novel ground truth is masked
at the same boundary the online trainer uses. Each stage trains a
``CombinedHeadModel``, the extractor and one head, on one augmented
view per scene and step, and keeps its targets in narrow index types:
3 bytes per labelled point up to 65,536 points per scene, 5 past that.

The clustering stage holds its pool of picked features once, as one
(n, D) array dropped with the assignment before fine-tuning. k-means
scores the pool, and sums its clusters, in ``model.row_blocks`` of
``model.BLOCK_BYTES`` in row order, so it adds only one (n, k)
distance array, one block and the assignments (uint8 up to 256
clusters) to the pool, and its results are bit for bit those of the
one-shot formulas.
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
from .model import (CombinedHeadModel, ModelConfig, check_coords, distance_blocks,
                    index_dtype, row_blocks)
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
    d2 = _sq_dists(features, centers[0][None])[:, 0]
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers.append(features[rng.integers(n)])
            continue
        probs = d2 / total
        idx = rng.choice(n, p=probs)
        centers.append(features[idx])
        d2 = np.minimum(d2, _sq_dists(features, centers[-1][None])[:, 0])
    return np.stack(centers)


def _sq_dists(x, centroids, out=None):
    """(n, k) squared distances from the rows of ``x`` to each centroid,
    written into ``out`` when it is given.

    Rows are scored in blocks through one reused (block, D) buffer, so no
    (n, D) temporary is made. Each row's sum over D is reduced on its own
    from a contiguous row, as ``((x - c) ** 2).sum(axis=1)`` reduces it,
    so the distances do not depend on the block."""
    if out is None:
        out = np.empty((x.shape[0], centroids.shape[0]))
    blocks, rows = row_blocks(x.shape[0], x.shape[1])
    buf = np.empty((rows, x.shape[1]))
    for lo, hi in blocks:
        diff = buf[:hi - lo]
        for j, c in enumerate(centroids):
            np.subtract(x[lo:hi], c, out=diff)
            np.square(diff, out=diff)
            out[lo:hi, j] = diff.sum(axis=1)
    return out


def _update_centroids(features, assignments, centroids):
    """Move each centroid with members to their mean; keep the others.

    Each cluster's sum is carried over the row blocks in row order: a
    block's members are gathered under the running sum in one reused
    (block + 1, D) buffer and reduced with it. numpy reduces axis 0 of a
    C-ordered array of two or more columns one row after another, so the
    centroids equal ``features[assignments == j].mean(axis=0)`` bit for
    bit without copying a cluster. (One column is reduced pairwise, so
    at D = 1 they may differ from it in the last bits.)"""
    k, width = centroids.shape
    sums, counts = np.empty((k, width)), np.zeros(k, dtype=np.int64)
    blocks, rows = row_blocks(features.shape[0], width)
    buf = np.empty((rows + 1, width))
    for lo, hi in blocks:
        block = assignments[lo:hi]
        for j in range(k):
            mask = block == j
            c = int(np.count_nonzero(mask))
            if not c:
                continue
            np.compress(mask, features[lo:hi], axis=0, out=buf[1:c + 1])
            if counts[j]:  # row 0 carries the sum; a cluster's first members start it
                buf[0] = sums[j]
            np.add.reduce(buf[0 if counts[j] else 1:c + 1], axis=0, out=sums[j])
            counts[j] += c
    filled = counts > 0
    centroids[filled] = sums[filled] / counts[filled, None]
    return centroids


def _lloyd(features, centroids, max_iter):
    """Lloyd refinement: at most ``max_iter`` centroid updates, stopping
    early once the assignment repeats. The last distances computed are
    those of the returned centroids and give the assignment and SSE.
    Every iteration scores into one (n, k) array. Assignments take the
    narrowest unsigned type that counts the clusters (uint8 up to 256),
    each row block's argmin written into them."""
    n, k = features.shape[0], centroids.shape[0]
    blocks, _ = row_blocks(n, k)
    previous = d2 = None
    for it in range(max_iter + 1):
        d2 = _sq_dists(features, centroids, d2)
        assignments = np.empty(n, dtype=np.min_scalar_type(k - 1))
        for lo, hi in blocks:
            d2[lo:hi].argmin(axis=1, out=assignments[lo:hi])
        if it == max_iter or (previous is not None and np.array_equal(assignments, previous)):
            break
        previous = assignments
        _update_centroids(features, assignments, centroids)
    sse = float(d2.min(axis=1).sum())
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


def _point_entropy(d2):
    """Each row's entropy of its soft assignment: ``exp(-(d2 - min) / temp)``
    normalised over the row, ``temp`` the mean row minimum.

    The soft assignment is made in place of ``d2``, so the (n, k) scores
    are held once; the entropy's product of the soft assignment and its
    log is taken a row block at a time."""
    low = d2.min(axis=1, keepdims=True)
    temp = max(float(low[:, 0].mean()), 1e-12)
    soft = np.subtract(d2, low, out=d2)
    np.negative(soft, out=soft)
    soft /= temp
    np.exp(soft, out=soft)
    soft /= soft.sum(axis=1, keepdims=True)
    entropy = np.empty(soft.shape[0])
    blocks, rows = row_blocks(*soft.shape)
    buf = np.empty((rows, soft.shape[1]))
    for lo, hi in blocks:
        term = np.maximum(soft[lo:hi], 1e-12, out=buf[:hi - lo])
        np.log(term, out=term)
        term *= soft[lo:hi]
        entropy[lo:hi] = -term.sum(axis=1)
    return entropy


def _cluster(pretrained: CombinedHeadModel, masked, split: SplitSpec, model_cfg: ModelConfig,
             train_cfg: TrainConfig, baseline_cfg: BaselineConfig) -> dict:
    """The clustering stage: per-scene pseudo-labels, keyed by scene id,
    of the pretrained model's features at subsampled novel points.

    The pool of picked features is one (n, D) array, written scene by
    scene and dropped, with the assignment, when this returns."""
    rng = np.random.default_rng(train_cfg.seed + 2)
    # per scene: (scene index, its novel points, subsample positions among
    # them), all drawn before any feature: ``feature_chunks`` draws nothing
    picks = []
    for i, cloud in enumerate(masked):
        novel_idx = np.flatnonzero(cloud.labels == UNLABELLED)
        local = subsample_psi(novel_idx.size, baseline_cfg.subsample, rng)
        if local.size:
            picks.append((i, novel_idx, local))
    if not picks:
        return {}
    starts = np.cumsum([0] + [local.size for _, _, local in picks])  # each scene's pool rows
    pool = np.empty((starts[-1], model_cfg.feature_dim))
    for (i, novel_idx, local), at in zip(picks, starts):
        # features of the whole scene, so k-NN pooling sees every point;
        # ``picked`` is ascending, so each chunk holds one run of it
        picked = novel_idx[local]
        cloud = masked[i]
        for lo, hi, z in pretrained.feature_chunks(cloud.coords, cloud.neighbours(model_cfg.knn)):
            first, last = np.searchsorted(picked, [lo, hi])
            pool[at + first:at + last] = z[:, picked[first:last] - lo].T
    n_novel = split.n_novel
    if baseline_cfg.overcluster and pool.shape[0] >= baseline_cfg.overcluster_factor * n_novel:
        km, assign = kmeans(pool, baseline_cfg.overcluster_factor * n_novel, train_cfg.seed)
        point_entropy = _point_entropy(_sq_dists(pool, km.centroids))
        _, assign = _merge_overclusters(km.centroids, assign, point_entropy, n_novel)
    else:
        _, assign = kmeans(pool, min(n_novel, pool.shape[0]), train_cfg.seed)
    pseudo = {}
    for (i, novel_idx, local), slots in zip(picks, np.split(assign, starts[1:-1])):
        # propagate within the scene's novel points only
        ext_local, ext_lab = propagate_nn(masked[i].coords[novel_idx], local, slots)
        pseudo[masked[i].scene_id] = (novel_idx[ext_local], ext_lab)
    return pseudo


def _ce_loss(model: CombinedHeadModel, scenes, split: SplitSpec, pseudo, temperature,
             aug: AugmentConfig, rng):
    """The batch loss pretraining and fine-tuning step on: the mean
    tempered CE of the batch's scenes that have targets, each on one
    augmented view; None when no scene in the batch has any.

    Targets are base ground truth, plus ``pseudo[scene_id]`` = (point
    indices, slots) in the head's rows after the base ones. They are
    kept for the whole stage in the narrowest types that hold them: a
    point index in ``model.index_dtype`` of the scene's points, a row
    in the narrowest unsigned type that counts the head's rows.
    """
    n_rows, n_base = model.head_w.shape[0], len(split.base_classes)
    w_vec = np.concatenate([compute_loss_weights(scenes, split), np.ones(n_rows - n_base)])
    row_dtype = np.min_scalar_type(n_rows - 1)
    k = model.cfg.knn
    no_pseudo = (np.array([], dtype=np.intp), np.array([], dtype=np.int64))
    targets = []
    for cloud in scenes:
        cloud.neighbours(k)  # built here, before the first step
        base_idx = np.flatnonzero(cloud.labels != UNLABELLED)
        idx, slots = pseudo.get(cloud.scene_id, no_pseudo)
        m = cloud.labels.size
        # checked before narrowing, which would wrap a value out of range
        if idx.size != slots.size or idx.size and not (
                0 <= idx.min() and idx.max() < m and 0 <= slots.min()
                and slots.max() < n_rows - n_base):
            raise ValueError(f"pseudo-labels of scene {cloud.scene_id!r} must pair points in "
                             f"[0, {m}) with slots in [0, {n_rows - n_base})")
        cols = np.concatenate([base_idx, idx]).astype(index_dtype(m))
        # added in int64: k-means slots come in uint8, where 250 + 9 wraps to 3
        rows = np.concatenate([split.base_slots(cloud.labels[base_idx]),
                               slots.astype(np.int64) + n_base])
        targets.append((cols, rows.astype(row_dtype)) if cols.size else None)

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

    pseudo = _cluster(pretrained, masked, split, model_cfg, train_cfg, baseline_cfg)
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
