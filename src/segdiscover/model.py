"""Shared per-point feature extractor and segmentation heads.

The extractor is a small dense per-point network: an MLP encodes xyz,
a k-nearest-neighbour mean pools local context, and a final linear map
projects the hidden features and their pooled context, stacked, to D
dimensions, L2-normalized per point. The pooling is linear, so it runs
after the projection, on D rows rather than twice the hidden width:
``W [h; P h] = W_a h + P (W_b h)``, one tape node
(``autodiff.pooled_matmul``).
Novel heads are bias-free linear maps whose weight columns double as the
class prototypes read by the transport solver; the base head carries a
bias. Over-clustering heads are extra bias-free heads with o times the
novel width, discarded at inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int = 32  # D
    hidden: int = 64
    knn: int = 16
    heads: int = 5  # H
    overcluster_factor: int = 3  # o

    def __post_init__(self):
        if min(self.feature_dim, self.hidden, self.knn, self.heads) < 1:
            raise ValueError("model dimensions must be positive")
        if self.overcluster_factor < 1:
            raise ValueError("overcluster_factor must be >= 1")


# Squared distances one ``distance_blocks`` block may hold. A k-NN block
# works on three arrays of this size at once (the distances, one axis's
# term and the int64 partition index), so it is sized for the per-core
# L2 cache: 256 KiB blocks keep 768 KiB at work, where 2 MiB blocks put
# 6 MiB against a 2 MiB L2 and ran an 8,192-point k-NN ~25% slower.
KNN_BLOCK_BYTES = 1 << 18


def distance_blocks(points: np.ndarray, others: np.ndarray):
    """Yield ``(lo, hi, d2)``: squared distances from ``points[lo:hi]`` to all
    ``others``, ``KNN_BLOCK_BYTES // (8 len(others))`` rows (at least one) at
    a time; each is summed from coordinate differences, x then y then z,
    so it does not depend on its block.

    Every block is written into the same two reused buffers, so the next
    block overwrites a yielded one: a caller consumes each block, and may
    change it, before asking for the next."""
    axes = np.ascontiguousarray(points.T, dtype=np.float64)
    rest = np.ascontiguousarray(others.T, dtype=np.float64)
    step = max(1, KNN_BLOCK_BYTES // (8 * rest.shape[1]))
    rows = min(step, axes.shape[1])
    d2_rows, term_rows = np.empty((2, rows, rest.shape[1]))
    for lo in range(0, axes.shape[1], step):
        hi = min(lo + step, axes.shape[1])
        d2, term = d2_rows[:hi - lo], term_rows[:hi - lo]
        np.subtract(axes[0, lo:hi, None], rest[0], out=d2)
        np.square(d2, out=d2)
        for axis in (1, 2):
            np.subtract(axes[axis, lo:hi, None], rest[axis], out=term)
            np.square(term, out=term)
            d2 += term
        yield lo, hi, d2


def knn_indices(coords: np.ndarray, k: int) -> np.ndarray:
    """(m, min(k, m-1)) nearest-neighbour indices per point, self
    excluded, each row in ascending index order. A distance tie at the
    k-th neighbour is broken by lower point index. Indices take
    ``autodiff.index_dtype(m)``: uint16 up to 65,536 points, int32 past
    that. A scene with more points than int32 can count, or with a
    coordinate that is non-finite or of magnitude ``2**510`` or more
    (past which squared distances overflow), is refused by its point.

    Rows are scored in ``distance_blocks``, so memory grows with m while
    time stays quadratic. Per block, ``np.argpartition`` to position k
    puts each row's k nearest columns first and its (k+1)-th smallest
    distance at position k (the self distance, inf, when k = m - 1). A
    row has a tie across its k-th distance exactly when that value is no
    larger than the k-th distance, the largest picked one; otherwise its
    picks, sorted, are its neighbours. A tied row keeps its picks below
    the k-th distance and takes the rest from the lowest-indexed columns
    at it.

    A scene keeps its graph per k (``LabelledCloud.neighbours``), and
    training pools both augmented views over the un-augmented scene's
    graph, by design: rotation about z and isotropic scale keep the
    graph, but the default jitter moves points enough to change some
    neighbour sets.
    """
    m = coords.shape[0]
    if m > np.iinfo(np.int32).max:
        raise ValueError(f"knn_indices: a scene of {m} points is past the int32 index range")
    # NaN fails the comparison too; below 2**510 three squared differences
    # sum to less than 3 * 2**1022, inside the float64 range
    bad = np.flatnonzero(~(np.abs(coords) < 2.0 ** 510).all(axis=1))
    if bad.size:
        point = coords[bad[0]]
        what = ("non-finite coordinate" if not np.isfinite(point).all()
                else "coordinate of magnitude 2**510 or more")
        raise ValueError(f"knn_indices: point {bad[0]} has a {what} {point.tolist()}")
    if m == 1:
        return np.zeros((1, 1), dtype=ad.index_dtype(m))
    k = min(k, m - 1)
    out = np.empty((m, k), dtype=ad.index_dtype(m))
    for lo, hi, d2 in distance_blocks(coords, coords):
        rows = np.arange(hi - lo)
        d2[rows, rows + lo] = np.inf
        order = np.argpartition(d2, k, axis=1)
        picked = order[:, :k]
        kth = np.take_along_axis(d2, picked, axis=1).max(axis=1)
        tied = np.flatnonzero(d2[rows, order[:, k]] <= kth)
        if tied.size:
            # a tie crosses the k-th distance: the picks at it give way to
            # the lowest-indexed columns at it, as many as there are
            d2, kth, fixed = d2[tied], kth[tied, None], picked[tied]
            at_kth = np.take_along_axis(d2, fixed, axis=1) == kth
            row, col = np.nonzero(d2 == kth)
            # ``col`` runs row by row: each row keeps its first ``deficit``
            deficit = np.count_nonzero(at_kth, axis=1)
            end = np.searchsorted(row, np.arange(tied.size)) + deficit
            fixed[at_kth] = col[np.arange(col.size) < end[row]]
            picked[tied] = fixed
        picked.sort(axis=1)
        out[lo:hi] = picked
    return out


def knn_mean_matrix(coords: np.ndarray, k: int, neighbours: np.ndarray | None = None) -> np.ndarray:
    """Column-stochastic (m, m) matrix averaging each point's k nearest
    neighbours; right-multiplying features (D, m) by it yields the
    neighbourhood mean per point. A single-point cloud averages itself.

    Each row of ``neighbours`` must hold distinct point indices, as
    ``knn_indices`` returns them.

    The package pools through ``autodiff.NeighbourGraph`` and no longer
    calls this; it stays as the dense reference that the benchmark's
    layer hooks and checks still name."""
    if neighbours is None:
        neighbours = knn_indices(coords, k)
    m, kk = neighbours.shape
    mat = np.zeros((m, m))
    # distinct rows write each (neighbour, point) entry once, so a plain
    # assignment equals an accumulating one
    mat[neighbours.reshape(-1), np.repeat(np.arange(m), kk)] = 1.0 / kk
    return mat


class SegmentationModel:
    """Feature extractor plus base, novel, and over-clustering heads."""

    def __init__(self, cfg: ModelConfig, n_base: int, n_novel: int, rng: np.random.Generator):
        self.cfg = cfg
        self.n_base = n_base
        self.n_novel = n_novel
        h, d = cfg.hidden, cfg.feature_dim

        def init(shape, fan_in, name):
            return ad.parameter(rng.normal(0.0, np.sqrt(2.0 / fan_in), shape), name)

        self.w1 = init((h, 3), 3, "enc1.w")
        self.b1 = ad.parameter(np.zeros((h, 1)), "enc1.b")
        self.w2 = init((h, h), h, "enc2.w")
        self.b2 = ad.parameter(np.zeros((h, 1)), "enc2.b")
        self.w3 = init((d, 2 * h), 2 * h, "proj.w")
        self.b3 = ad.parameter(np.zeros((d, 1)), "proj.b")
        self.base_w = init((n_base, d), d, "base.w")
        self.base_b = ad.parameter(np.zeros((n_base, 1)), "base.b")
        # Prototype matrices, one D x rho block per head; the same storage
        # is read by the transport solver and by the head logits.
        self.novel_p = [
            init((d, n_novel), d, f"novel{i}.p") for i in range(cfg.heads)
        ]
        self.over_p = [
            init((d, cfg.overcluster_factor * n_novel), d, f"over{i}.p")
            for i in range(cfg.heads)
        ]
        self.selected_head = 0
        # the extractor's tensors, which both model classes train and save
        self.extractor = [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def parameters(self) -> dict:
        heads = [self.base_w, self.base_b] + self.novel_p + self.over_p
        return {p.name: p for p in self.extractor + heads}

    def extract_features(self, coords: np.ndarray,
                         neighbours: ad.NeighbourGraph | None = None) -> ad.Tensor:
        """(D, m) feature matrix with unit-norm columns for one cloud.

        ``neighbours`` is the scene's ``LabelledCloud.neighbours`` graph,
        which keeps the transpose a backward pass builds; bare
        coordinates get a graph built here and then dropped.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
            raise ValueError(f"expected (m, 3) coordinates, got {coords.shape}")
        if neighbours is None:
            neighbours = ad.NeighbourGraph(knn_indices(coords, self.cfg.knn))
        x = ad.constant(coords.T, name="xyz")
        # one name for both encoder layers, dropped before normalising:
        # untaped, each (hidden, m) layer is freed once the next one exists
        h = ad.matmul(self.w1, x, bias=self.b1, relu=True)
        h = ad.matmul(self.w2, h, bias=self.b2, relu=True)
        # proj.w @ [h; P(h)] + proj.b, pooling the projection instead
        z = ad.pooled_matmul(self.w3, h, neighbours, self.b3)
        del h
        return ad.l2_normalize_cols(z)

    def base_logits(self, z: ad.Tensor) -> ad.Tensor:
        return ad.matmul(self.base_w, z, bias=self.base_b)

    def novel_logits(self, z: ad.Tensor, head: int) -> ad.Tensor:
        if not (0 <= head < self.cfg.heads):
            raise IndexError(f"head index {head} out of range")
        return ad.matmul(ad.transpose(self.novel_p[head]), z)

    def over_logits(self, z: ad.Tensor, head: int) -> ad.Tensor:
        if not (0 <= head < self.cfg.heads):
            raise IndexError(f"head index {head} out of range")
        return ad.matmul(ad.transpose(self.over_p[head]), z)

    def head_logits(self, z: ad.Tensor, head: int) -> tuple[ad.Tensor, ad.Tensor]:
        return self.base_logits(z), self.novel_logits(z, head)

    def stacked_heads(self, overcluster: bool) -> tuple[ad.Tensor, ad.Tensor]:
        """All heads as one linear map: weight rows [base; novel_0..H-1;
        over_0..H-1] (over-clustering rows only with ``overcluster``) and
        a bias column that is zero past the base rows.

        Built from the per-head parameters, so gradients reach them and
        checkpoint names do not change; ``head_families`` locates the heads.
        The prototypes are set side by side and transposed once, so the
        map takes four tape nodes whatever the head count.
        """
        prototypes = self.novel_p + (self.over_p if overcluster else [])
        w = ad.concat_rows([self.base_w, ad.transpose(ad.concat_cols(prototypes))])
        zeros = ad.constant(np.zeros((w.shape[0] - self.n_base, 1)))
        return w, ad.concat_rows([self.base_b, zeros])

    def head_families(self, overcluster: bool) -> list[tuple[int, int]]:
        """(first row, rows per head) of each head family in the
        ``stacked_heads`` logits: the novel heads, then the
        over-clustering heads with ``overcluster``. A family's heads
        follow one another, so its rows are one contiguous range."""
        families = [(self.n_base, self.n_novel)]
        if overcluster:
            families.append((self.n_base + self.cfg.heads * self.n_novel,
                             self.cfg.overcluster_factor * self.n_novel))
        return families

    def predict_slots(self, coords: np.ndarray, head: int | None = None,
                      neighbours: ad.NeighbourGraph | None = None) -> np.ndarray:
        """Per-point argmax over concatenated base+novel logits.

        Slots 0..n_base-1 are base classes in sorted-id order; slots
        n_base.. are the selected novel head's outputs, to be aligned to
        class ids by the evaluation matching.
        """
        head = self.selected_head if head is None else head
        with ad.no_tape():
            z = self.extract_features(coords, neighbours)
            logits = np.concatenate(
                [self.base_logits(z).data, self.novel_logits(z, head).data], axis=0
            )
        return logits.argmax(axis=0)

    def state(self) -> dict:
        st = {name: p.data for name, p in self.parameters().items()}
        st["meta.selected_head"] = np.array([[float(self.selected_head)]])
        return st

    def load_state(self, state: dict, strict: bool = True):
        params = self.parameters()
        unknown = sorted(set(state) - set(params) - {"meta.selected_head"})
        if strict and unknown:
            raise ValueError(f"checkpoint holds parameters the model lacks: {', '.join(unknown)}")
        for name, p in params.items():
            if name in state:
                arr = np.asarray(state[name], dtype=np.float64)
                if arr.shape != p.data.shape:
                    raise ValueError(
                        f"parameter {name} has shape {arr.shape}, the model expects {p.data.shape}"
                    )
                p.data[...] = arr
            elif strict:
                raise KeyError(f"checkpoint missing parameter {name}")
        if "meta.selected_head" in state:
            head = np.asarray(state["meta.selected_head"], dtype=np.float64).reshape(-1)
            if head.size != 1 or head[0] not in range(self.cfg.heads):
                raise ValueError(
                    f"meta.selected_head {head.tolist()} is not a head index in "
                    f"0..{self.cfg.heads - 1}"
                )
            self.selected_head = int(head[0])

    def save(self, path):
        ad.save_checkpoint(path, self.state())

    def load(self, path):
        _restore(self, path, ad.load_checkpoint(path))


class CombinedHeadModel(SegmentationModel):
    """Extractor plus a single head over base and novel slots jointly.

    Used by the offline baseline's fine-tuning stage; base slots can be
    seeded from a pretrained base head. The per-head parameters it
    inherits are not trained or saved.
    """

    def __init__(self, cfg: ModelConfig, n_base: int, n_novel: int, rng: np.random.Generator):
        super().__init__(cfg, n_base, n_novel, rng)
        d = cfg.feature_dim
        n_all = n_base + n_novel
        self.head_w = ad.parameter(rng.normal(0.0, np.sqrt(2.0 / d), (n_all, d)), "joint.w")
        self.head_b = ad.parameter(np.zeros((n_all, 1)), "joint.b")

    def parameters(self) -> dict:
        return {p.name: p for p in self.extractor + [self.head_w, self.head_b]}

    def logits(self, z: ad.Tensor) -> ad.Tensor:
        return ad.matmul(self.head_w, z, bias=self.head_b)

    def predict_slots(self, coords: np.ndarray, head: int | None = None,
                      neighbours: ad.NeighbourGraph | None = None) -> np.ndarray:
        with ad.no_tape():
            return self.logits(self.extract_features(coords, neighbours)).data.argmax(axis=0)

    def state(self) -> dict:
        return {name: p.data for name, p in self.parameters().items()}


def _restore(model, path, state: dict):
    """Load ``state``, read from ``path``, into ``model``; a mismatch names the file."""
    try:
        model.load_state(state)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model


def load_model(path, cfg: ModelConfig, n_base: int, n_novel: int,
               rng: np.random.Generator) -> SegmentationModel:
    """The model a checkpoint file holds, the file read once: a
    ``CombinedHeadModel`` when it holds the baseline's joint head, else a
    ``SegmentationModel``. Any other name mismatch is refused by name."""
    state = ad.load_checkpoint(path)
    cls = CombinedHeadModel if "joint.w" in state else SegmentationModel
    return _restore(cls(cfg, n_base, n_novel, rng), path, state)
