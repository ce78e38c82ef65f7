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


# Bytes of squared distances one block of rows may hold; a scene of m
# points is scored KNN_BLOCK_BYTES // (8 m) rows at a time (at least one).
KNN_BLOCK_BYTES = 1 << 21


def knn_indices(coords: np.ndarray, k: int) -> np.ndarray:
    """(m, min(k, m-1)) int32 nearest-neighbour indices per point, self
    excluded, distance ties broken by lower point index. A scene with
    more points than int32 can count is refused.

    Rows are scored in blocks of at most ``KNN_BLOCK_BYTES`` of
    distances, so memory grows with m while time stays quadratic. Each
    squared distance is summed from coordinate differences, so it does
    not depend on the block a row falls in.

    A scene keeps its graph per k (``LabelledCloud.neighbours``), and
    training pools both augmented views over the un-augmented scene's
    graph, by design: rotation about z and isotropic scale keep the
    graph, but the default jitter moves points enough to change some
    neighbour sets.
    """
    m = coords.shape[0]
    if m > np.iinfo(np.int32).max:
        raise ValueError(f"knn_indices: a scene of {m} points is past the int32 index range")
    if m == 1:
        return np.zeros((1, 1), dtype=np.int32)
    k = min(k, m - 1)
    axes = np.ascontiguousarray(coords.T, dtype=np.float64)
    step = max(1, KNN_BLOCK_BYTES // (8 * m))
    out = np.empty((m, k), dtype=np.int32)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        d2 = np.square(axes[0, lo:hi, None] - axes[0])
        d2 += np.square(axes[1, lo:hi, None] - axes[1])
        d2 += np.square(axes[2, lo:hi, None] - axes[2])
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        strict = d2 < kth
        deficit = k - strict.sum(axis=1)
        ties = d2 == kth
        chosen = strict | (ties & (np.cumsum(ties, axis=1) <= deficit[:, None]))
        out[lo:hi] = np.nonzero(chosen)[1].reshape(hi - lo, k)
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
        x = ad.constant(coords.T, name="xyz")
        h1 = ad.matmul(self.w1, x, bias=self.b1, relu=True)
        h2 = ad.matmul(self.w2, h1, bias=self.b2, relu=True)
        if neighbours is None:
            neighbours = ad.NeighbourGraph(knn_indices(coords, self.cfg.knn))
        # proj.w @ [h2; P(h2)] + proj.b, pooling the projection instead
        z = ad.pooled_matmul(self.w3, h2, neighbours, self.b3)
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
        checkpoint names do not change; ``head_rows`` picks one head.
        The prototypes are set side by side and transposed once, so the
        map takes four tape nodes whatever the head count.
        """
        prototypes = self.novel_p + (self.over_p if overcluster else [])
        w = ad.concat_rows([self.base_w, ad.transpose(ad.concat_cols(prototypes))])
        zeros = ad.constant(np.zeros((w.shape[0] - self.n_base, 1)))
        return w, ad.concat_rows([self.base_b, zeros])

    def head_rows(self, head: int, over: bool = False) -> np.ndarray:
        """Rows of the ``stacked_heads`` logits for the base classes
        followed by one novel (or over-clustering) head."""
        if not (0 <= head < self.cfg.heads):
            raise IndexError(f"head index {head} out of range")
        width = self.n_novel * (self.cfg.overcluster_factor if over else 1)
        start = self.n_base + (self.cfg.heads * self.n_novel if over else 0) + head * width
        return np.concatenate([np.arange(self.n_base), np.arange(start, start + width)])

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
        for name, p in self.parameters().items():
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
        state = ad.load_checkpoint(path)
        try:
            self.load_state(state)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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
