"""The shared per-point feature extractor and the two head sets built on it.

``Extractor`` is a small dense per-point network: an MLP encodes xyz,
a k-nearest-neighbour mean pools local context, and a final linear map
projects the hidden features and their pooled context, stacked, to D
dimensions, L2-normalized per point. The pooling is linear, so it runs
after the projection, on D rows rather than twice the hidden width:
``W [h; P h] = W_a h + P (W_b h)``.

Training records a view's scenes as one tape node
(``Extractor.view_features``) that keeps per scene only the second
hidden layer, the column norms and the coordinates, and recomputes the
first layer in backward, the activation-recomputation trade of Chen et
al. (2016). Inference scores a scene in untaped chunks of points
(``Extractor.feature_chunks``) through the same numpy forward
(``Extractor._forward``), so it holds ~0.5 kB per point at D = 32, not
the ~1.8 kB of whole-scene (hidden, m) layers: ``predict_slots`` with
the graph given peaks under ``tracemalloc`` at 6.0 MB for 8,192
points, against 14.8 MB for one whole-scene untaped forward.

``SegmentationModel`` (online discovery) adds a base head with a bias,
bias-free novel heads whose weight columns double as the class
prototypes read by the transport solver, and over-clustering heads with
o times the novel width, discarded at inference. ``CombinedHeadModel``
(the offline baseline) adds one head over base and novel slots jointly.
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
    eval_head: str = "auto"  # the head ``eval`` scores: its index, or auto for the selected one

    def __post_init__(self):
        if min(self.feature_dim, self.hidden, self.knn, self.heads) < 1:
            raise ValueError("model dimensions must be positive")
        if self.overcluster_factor < 1:
            raise ValueError("overcluster_factor must be >= 1")
        head = self.eval_head
        if head != "auto" and not (head.isdecimal() and int(head) < self.heads):
            raise ValueError(f"eval_head must be auto or 0..{self.heads - 1}, got {head!r}")


# Squared distances one ``distance_blocks`` block may hold. A k-NN block
# works on three arrays of this size at once (the distances, one axis's
# term and the int64 partition index), so it is sized for the per-core
# L2 cache: 256 KiB blocks keep 768 KiB at work, where 2 MiB blocks put
# 6 MiB against a 2 MiB L2 and ran an 8,192-point k-NN ~25% slower.
KNN_BLOCK_BYTES = 1 << 18

# Bytes of one (hidden, chunk) encoder layer of an untaped forward
# (``Extractor.feature_chunks``): 2,048 points at hidden = 64.
FORWARD_CHUNK_BYTES = 1 << 20


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


def check_coords(coords: np.ndarray, where: str):
    """Refuse, by its point and prefixed by ``where``, the first point of
    (m, 3) ``coords`` with a coordinate that is non-finite or of magnitude
    ``2**510`` or more, past which ``distance_blocks`` overflows."""
    # NaN fails the comparison too; below 2**510 three squared differences
    # sum to less than 3 * 2**1022, inside the float64 range
    bad = np.flatnonzero(~(np.abs(coords) < 2.0 ** 510).all(axis=1))
    if bad.size:
        point = coords[bad[0]]
        what = ("non-finite coordinate" if not np.isfinite(point).all()
                else "coordinate of magnitude 2**510 or more")
        raise ValueError(f"{where}: point {bad[0]} has a {what} {point.tolist()}")


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
    check_coords(coords, "knn_indices")
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


def _relu_layer(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``relu(w @ x + b)``, the bias added and the ReLU masked in place."""
    out = w @ x
    out += b
    out *= out > 0.0
    return out


def _normal(rng: np.random.Generator, shape, fan_in: int, name: str) -> ad.Tensor:
    return ad.parameter(rng.normal(0.0, np.sqrt(2.0 / fan_in), shape), name)


class Extractor:
    """The per-point feature extractor that both model classes build on.

    It draws enc1.w, enc2.w and proj.w from ``rng`` in that order; a
    model class then draws the heads it trains and adds them to
    ``tensors``, which ``parameters`` names: all it trains and saves."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.cfg = cfg
        h, d = cfg.hidden, cfg.feature_dim
        self.w1 = _normal(rng, (h, 3), 3, "enc1.w")
        self.b1 = ad.parameter(np.zeros((h, 1)), "enc1.b")
        self.w2 = _normal(rng, (h, h), h, "enc2.w")
        self.b2 = ad.parameter(np.zeros((h, 1)), "enc2.b")
        self.w3 = _normal(rng, (d, 2 * h), 2 * h, "proj.w")
        self.b3 = ad.parameter(np.zeros((d, 1)), "proj.b")
        self.tensors = [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    def parameters(self) -> dict:
        return {p.name: p for p in self.tensors}

    def _scene(self, coords, neighbours):
        """``coords`` as (m, 3) float64 and the graph to pool them over:
        ``neighbours``, refused unless it is m rows of ``knn_indices``'
        width, or one built here."""
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
            raise ValueError(f"expected (m, 3) coordinates, got {coords.shape}")
        if neighbours is None:
            neighbours = ad.NeighbourGraph(knn_indices(coords, self.cfg.knn))
        m, (rows, width) = coords.shape[0], neighbours.index.shape
        knn_width = min(self.cfg.knn, max(m - 1, 1))
        if (rows, width) != (m, knn_width):
            raise ad.ShapeError(f"{rows} neighbour rows of width {width} for {m} points "
                                f"and a k-NN of width {knn_width} (knn={self.cfg.knn})")
        return coords, neighbours

    def _halves(self):
        """The own and pooled halves of proj.w, each copied out."""
        n = self.cfg.hidden
        return (np.ascontiguousarray(self.w3.data[:, :n]),
                np.ascontiguousarray(self.w3.data[:, n:]))

    def _layer1(self, coords: np.ndarray) -> np.ndarray:
        return _relu_layer(self.w1.data, coords.T, self.b1.data)

    def _forward(self, coords, graph, step, hidden=None):
        """Yield ``(lo, hi, z, norms)``: the unit (D, hi - lo) features of
        points lo:hi and their pre-normalisation column norms, chunk by
        chunk of ``step`` points, untaped. ``hidden``, a list, gets each
        chunk's second layer.

        Pass 1 runs the encoder on each chunk and keeps only its two
        halves of the projection: the own half by chunk, the pooled half
        points-major in one (m, D) array. Pass 2 pools each chunk over its
        rows of ``graph`` (``NeighbourGraph.mean``), then adds the bias
        and normalises. So one chunk's encoder layers and the two (D, m)
        projections are held at a time, never every (hidden, m) layer.
        """
        w_own, w_pool = self._halves()
        own, pooled = [], np.empty((coords.shape[0], w_pool.shape[0]))
        for lo in range(0, coords.shape[0], step):
            h = _relu_layer(self.w2.data, self._layer1(coords[lo:lo + step]), self.b2.data)
            own.append(w_own @ h)
            pooled[lo:lo + step] = (w_pool @ h).T
            if hidden is not None:
                hidden.append(h)
            del h
        for lo in range(0, coords.shape[0], step):
            z = own.pop(0)
            hi = lo + z.shape[1]
            z += graph.mean(pooled.T, lo, hi)
            z += self.b3.data
            norms = ad.col_norms(z)
            z /= norms
            yield lo, hi, z, norms

    def view_features(self, coords_list, graphs) -> ad.Tensor:
        """(D, sum of m) unit-column features of one view: its scenes'
        (m, 3) coordinate arrays side by side, each pooled over its
        ``graphs`` entry (a scene's ``LabelledCloud.neighbours`` graph, or
        None to build one here), as one tape node.

        Each scene runs ``_forward`` whole, and the node keeps per scene
        only its second hidden layer, its column norms and its
        coordinates. Backward walks the scenes in order, recomputes the
        first layer from the coordinates and applies the transposes of
        the normalisation, the pooled projection (``NeighbourGraph.
        mean_transpose``, kept by the graph) and both layers; every
        parameter gets one gradient per scene, in scene order.
        """
        scenes = [self._scene(c, g) for c, g in zip(coords_list, graphs, strict=True)]
        out = np.empty((self.cfg.feature_dim, sum(c.shape[0] for c, _ in scenes)))
        kept, col = [], 0
        for coords, graph in scenes:
            hidden, m = [], coords.shape[0]
            for _, _, z, norms in self._forward(coords, graph, m, hidden):
                out[:, col:col + m] = z
            kept.append((col, col + m, coords, graph, hidden[0], norms))
            col += m

        def backward(grad, acc):
            w_own, w_pool = self._halves()
            for lo, hi, coords, graph, h2, norms in kept:
                g, y = grad[:, lo:hi], out[:, lo:hi]
                # the normalisation, then the projection and its pooled half
                g = (g - y * (g * y).sum(axis=0, keepdims=True)) / norms
                pooled = graph.mean_transpose(g)
                acc(self.w3, np.concatenate([g @ h2.T, pooled @ h2.T], axis=1))
                acc(self.b3, g.sum(axis=1, keepdims=True))
                g = (w_own.T @ g + w_pool.T @ pooled) * (h2 > 0.0)
                h1 = self._layer1(coords)
                acc(self.w2, g @ h1.T)
                acc(self.b2, g.sum(axis=1, keepdims=True))
                g = (self.w2.data.T @ g) * (h1 > 0.0)
                acc(self.w1, g @ coords)
                acc(self.b1, g.sum(axis=1, keepdims=True))

        return ad.record(out, (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3), backward)

    def extract_features(self, coords: np.ndarray,
                         neighbours: ad.NeighbourGraph | None = None) -> ad.Tensor:
        """``view_features`` of one scene: (D, m) unit-column features."""
        return self.view_features([coords], [neighbours])

    def feature_chunks(self, coords: np.ndarray, neighbours: ad.NeighbourGraph | None = None):
        """Yield ``(lo, hi, z)``: the untaped (D, hi - lo) features of
        points lo:hi, ``_forward`` by chunks of ``FORWARD_CHUNK_BYTES //
        (8 hidden)`` points. A scene of one chunk gets the features of
        ``extract_features`` bit for bit; past one chunk, BLAS may round
        a narrower product's columns in the last bit.
        """
        coords, neighbours = self._scene(coords, neighbours)
        step = max(1, FORWARD_CHUNK_BYTES // (8 * self.cfg.hidden))
        for lo, hi, z, _ in self._forward(coords, neighbours, step):
            yield lo, hi, z

    def _slots(self, coords, neighbours, logits) -> np.ndarray:
        """Per-point argmax of ``logits(z)`` over ``feature_chunks``, untaped."""
        with ad.no_tape():
            return np.concatenate([
                logits(z).argmax(axis=0) for _, _, z in self.feature_chunks(coords, neighbours)
            ])

    def state(self) -> dict:
        return {name: p.data for name, p in self.parameters().items()}

    def load_state(self, state: dict, strict: bool = True):
        unknown = sorted(set(state) - set(self.state()))  # every name save writes
        if strict and unknown:
            raise ValueError(f"checkpoint holds parameters the model lacks: {', '.join(unknown)}")
        for name, p in self.parameters().items():
            if name in state:
                arr = np.asarray(state[name], dtype=np.float64)
                if arr.shape != p.data.shape:
                    raise ValueError(f"parameter {name} has shape {arr.shape}, "
                                     f"the model expects {p.data.shape}")
                p.data[...] = arr
            elif strict:
                raise ValueError(f"checkpoint missing parameter {name}")

    def save(self, path):
        ad.save_checkpoint(path, self.state())


class SegmentationModel(Extractor):
    """Feature extractor plus base, novel, and over-clustering heads."""

    def __init__(self, cfg: ModelConfig, n_base: int, n_novel: int, rng: np.random.Generator):
        super().__init__(cfg, rng)
        self.n_base, self.n_novel, d = n_base, n_novel, cfg.feature_dim
        self.base_w = _normal(rng, (n_base, d), d, "base.w")
        self.base_b = ad.parameter(np.zeros((n_base, 1)), "base.b")
        # Prototype matrices, one D x rho block per head; the same storage
        # is read by the transport solver and by the head logits.
        self.novel_p = [_normal(rng, (d, n_novel), d, f"novel{i}.p") for i in range(cfg.heads)]
        o = cfg.overcluster_factor * n_novel
        self.over_p = [_normal(rng, (d, o), d, f"over{i}.p") for i in range(cfg.heads)]
        self.tensors += [self.base_w, self.base_b] + self.novel_p + self.over_p
        self.selected_head = 0

    # looked up on this class by name by bench/layers.py
    extract_features = Extractor.extract_features

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
        return self._slots(coords, neighbours, lambda z: np.concatenate(
            [self.base_logits(z).data, self.novel_logits(z, head).data], axis=0
        ))

    def state(self) -> dict:
        return {**super().state(), "meta.selected_head": np.array([[float(self.selected_head)]])}

    def load_state(self, state: dict, strict: bool = True):
        super().load_state(state, strict)
        if "meta.selected_head" in state:
            head = np.asarray(state["meta.selected_head"], dtype=np.float64).reshape(-1)
            if head.size != 1 or head[0] not in range(self.cfg.heads):
                raise ValueError(f"meta.selected_head {head.tolist()} is not a head index "
                                 f"in 0..{self.cfg.heads - 1}")
            self.selected_head = int(head[0])


class CombinedHeadModel(Extractor):
    """Extractor plus a single head over base and novel slots jointly,
    one per offline baseline stage: fine-tuning's ``joint`` head, and
    pretraining's ``base`` head with no novel slot, whose state seeds
    fine-tuning and ``ablate``'s online model alike."""

    def __init__(self, cfg: ModelConfig, n_base: int, n_novel: int, rng: np.random.Generator,
                 name: str = "joint"):
        super().__init__(cfg, rng)
        n_all, d = n_base + n_novel, cfg.feature_dim
        self.head_w = _normal(rng, (n_all, d), d, f"{name}.w")
        self.head_b = ad.parameter(np.zeros((n_all, 1)), f"{name}.b")
        self.tensors += [self.head_w, self.head_b]

    def logits(self, z: ad.Tensor) -> ad.Tensor:
        return ad.matmul(self.head_w, z, bias=self.head_b)

    def predict_slots(self, coords: np.ndarray, head: int | None = None,
                      neighbours: ad.NeighbourGraph | None = None) -> np.ndarray:
        """Per-point argmax of the one head; ``head`` is ignored."""
        return self._slots(coords, neighbours, lambda z: self.logits(z).data)


def load_model(path, cfg: ModelConfig, n_base: int, n_novel: int,
               rng: np.random.Generator) -> Extractor:
    """The model a checkpoint file holds, the file read once: a
    ``CombinedHeadModel`` when it holds the baseline's joint head, else a
    ``SegmentationModel``. Any other name mismatch is refused by name,
    and every mismatch names the file."""
    state = ad.load_checkpoint(path)
    cls = CombinedHeadModel if "joint.w" in state else SegmentationModel
    model = cls(cfg, n_base, n_novel, rng)
    try:
        model.load_state(state)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model
