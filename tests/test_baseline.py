"""Offline baseline: clustering, subsampling, propagation, both trainers."""

import struct
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdiscover import baseline as bl
from segdiscover import model as model_module
from segdiscover.augment import AugmentConfig
from segdiscover.baseline import (
    BaselineConfig,
    SubsampleSpec,
    _merge_overclusters,
    finetune,
    kmeans,
    pretrain_base,
    propagate_nn,
    read_pseudo_labels,
    run_baseline,
    subsample_psi,
    write_pseudo_labels,
)
from segdiscover.data import LabelledCloud, generate_synthetic, mask_novel, toy_discovery_config
from segdiscover.evaluate import evaluate
from segdiscover.losses import TrainConfig
from segdiscover.model import ModelConfig


def tiny_setup(seed=0, scenes=6, points=48):
    cfg = toy_discovery_config(seed=seed, n_scenes=scenes, points_per_scene=points)
    return generate_synthetic(cfg), cfg.split()


TINY_MODEL = ModelConfig(feature_dim=8, hidden=16, knn=4, heads=2, overcluster_factor=2)
TINY_TRAIN = TrainConfig(epochs=2, batch_size=2, seed=0)
TINY_BASE = BaselineConfig(pretrain_epochs=2, finetune_epochs=2, subsample=SubsampleSpec(0.5, 20))
AUG = AugmentConfig()


class TestSubsample:
    def test_ratio_binds(self, rng):
        assert subsample_psi(10, SubsampleSpec(0.3, 1000), rng).size == 3

    def test_cap_binds(self, rng):
        assert subsample_psi(10_000, SubsampleSpec(0.3, 1000), rng).size == 1000

    def test_identity_when_ratio_one(self, rng):
        idx = subsample_psi(10, SubsampleSpec(1.0, 100), rng)
        assert idx.tolist() == list(range(10))

    def test_without_replacement(self, rng):
        idx = subsample_psi(50, SubsampleSpec(0.9, 100), rng)
        assert len(set(idx.tolist())) == idx.size

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SubsampleSpec(0.0, 10)
        with pytest.raises(ValueError):
            SubsampleSpec(0.5, 0)


class TestKMeans:
    def test_two_points_two_clusters(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        model, assign = kmeans(pts, 2, seed=0)
        assert sorted(assign.tolist()) == [0, 1]
        got = {tuple(c) for c in model.centroids}
        assert got == {(0.0, 0.0), (5.0, 5.0)}

    def test_separated_blobs_recovered_exactly(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 0.1, (10, 3))
        b = rng.normal(10.0, 0.1, (10, 3))
        _, assign = kmeans(np.vstack([a, b]), 2, seed=0)
        assert len(set(assign[:10])) == 1
        assert len(set(assign[10:])) == 1
        assert assign[0] != assign[10]

    def test_sse_non_increasing_over_lloyd_iterations(self):
        from segdiscover.baseline import _kmeans_pp_init, _lloyd

        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 2))
        centroids = _kmeans_pp_init(pts, 3, rng)
        sses = []
        current = centroids.copy()
        for i in range(1, 12):
            _, _, sse = _lloyd(pts, centroids.copy(), max_iter=i)
            sses.append(sse)
        assert all(a >= b - 1e-9 for a, b in zip(sses, sses[1:]))

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 300])
    def test_lloyd_scores_the_centroids_it_returns(self, max_iter):
        from segdiscover.baseline import _kmeans_pp_init, _lloyd

        rng = np.random.default_rng(4)
        pts = rng.normal(size=(200, 3)) + rng.integers(0, 3, size=(200, 1))
        init = _kmeans_pp_init(pts, 4, rng)
        centroids, assign, sse = _lloyd(pts, init.copy(), max_iter)
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(assign, d2.argmin(axis=1))
        assert sse == float(d2[np.arange(200), assign].sum())
        if max_iter == 0:
            assert np.array_equal(centroids, init)

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_distances_equal_the_broadcast_ones_without_its_temporary(self, k):
        import tracemalloc

        from segdiscover.baseline import _sq_dists

        # the shape of the offline benchmark's clustering pool
        rng = np.random.default_rng(k)
        pts, centroids = rng.normal(size=(8224, 32)), rng.normal(size=(k, 32))
        tracemalloc.start()
        try:
            d2 = _sq_dists(pts, centroids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(d2, ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2))
        # an (n, D) difference or two at a time, where the (n, k, D)
        # temporary holds k of them
        assert peak < 3 * pts.nbytes, f"peak {peak / 1e6:.2f} MB"

    def test_deterministic_per_seed(self):
        pts = np.random.default_rng(3).normal(size=(30, 4))
        m1, a1 = kmeans(pts, 3, seed=5)
        m2, a2 = kmeans(pts, 3, seed=5)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert np.array_equal(a1, a2)

    def test_fewer_points_than_k_rejected(self):
        with pytest.raises(ValueError, match="clusters"):
            kmeans(np.zeros((2, 3)), 3, seed=0)

    def test_sse_within_five_percent_of_exhaustive_restarts(self):
        # oracle: Lloyd from every k-subset of the points, best SSE
        def sse_of(pts, centroids):
            d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            return float(d2.min(axis=1).sum())

        def exhaustive_best(pts, k):
            from segdiscover.baseline import _lloyd

            best = np.inf
            for subset in combinations(range(pts.shape[0]), k):
                _, _, sse = _lloyd(pts, pts[list(subset)].copy(), max_iter=100)
                best = min(best, sse)
            return best

        rng = np.random.default_rng(4)
        for case in range(50):
            k = int(rng.integers(1, 4))
            pts = rng.normal(size=(20, 2))
            _, assign = kmeans(pts, k, seed=case)
            model, _ = kmeans(pts, k, seed=case)
            ours = sse_of(pts, model.centroids)
            oracle = exhaustive_best(pts, k)
            assert ours <= oracle * 1.05 + 1e-12


# Test-local copies of the one-shot k-means formulas that the blockwise
# ones replaced: every blockwise result must equal them bit for bit.
def one_shot_sq_dists(x, centroids):
    out = np.empty((x.shape[0], centroids.shape[0]))
    for j, c in enumerate(centroids):
        out[:, j] = ((x - c) ** 2).sum(axis=1)
    return out


def one_shot_update(features, assignments, centroids):
    centroids = centroids.copy()
    for j in range(centroids.shape[0]):
        members = features[assignments == j]
        if members.shape[0]:
            centroids[j] = members.mean(axis=0)
    return centroids


def one_shot_pp_init(features, k, rng):
    n = features.shape[0]
    centers = [features[rng.integers(n)]]
    d2 = ((features - centers[0]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers.append(features[rng.integers(n)])
            continue
        idx = rng.choice(n, p=d2 / total)
        centers.append(features[idx])
        d2 = np.minimum(d2, ((features - centers[-1]) ** 2).sum(axis=1))
    return np.stack(centers)


def one_shot_entropy(d2):
    temp = max(float(d2.min(axis=1).mean()), 1e-12)
    soft = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / temp)
    soft /= soft.sum(axis=1, keepdims=True)
    return -(soft * np.log(np.maximum(soft, 1e-12))).sum(axis=1)


BLOCK_ROWS = bl.KMEANS_BLOCK_BYTES // (8 * 32)  # rows of one block at D = 32


class TestBlockwiseClustering:
    """The blockwise distances, centroid sums and entropies equal the
    one-shot formulas bit for bit, whatever the pool's block count."""

    @staticmethod
    def pool(n, width=32, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, width)) + rng.integers(0, 4, size=(n, 1))

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_distances_equal_the_one_shot_ones(self, n, k):
        pts = self.pool(n)
        centroids = np.random.default_rng(k).normal(size=(k, 32))
        assert np.array_equal(bl._sq_dists(pts, centroids), one_shot_sq_dists(pts, centroids))

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_one_lloyd_update_equals_the_one_shot_one(self, n):
        pts = self.pool(n)
        init = bl._kmeans_pp_init(pts, 4, np.random.default_rng(1))
        centroids, assign, sse = bl._lloyd(pts, init.copy(), max_iter=1)
        ref_assign = one_shot_sq_dists(pts, init).argmin(axis=1)
        ref_centroids = one_shot_update(pts, ref_assign, init)
        d2 = one_shot_sq_dists(pts, ref_centroids)
        assert np.array_equal(centroids, ref_centroids)
        assert np.array_equal(assign, d2.argmin(axis=1))
        assert sse == float(d2[np.arange(n), d2.argmin(axis=1)].sum())

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 1])
    def test_a_cluster_without_members_keeps_its_centroid(self, n):
        pts = self.pool(n)
        centroids = np.random.default_rng(2).normal(size=(5, 32))
        assign = np.random.default_rng(3).choice([0, 1, 3, 4], size=n)  # cluster 2 is empty
        got = bl._update_centroids(pts, assign, centroids.copy())
        assert np.array_equal(got, one_shot_update(pts, assign, centroids))
        assert np.array_equal(got[2], centroids[2])

    @pytest.mark.parametrize("width", [2, 3, 9, 32])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_a_small_pool_over_many_blocks_keeps_every_bit(self, monkeypatch, width, rows):
        # blocks of a few rows: k = 5 clusters outnumber one block's
        # members, and most clusters skip most blocks
        monkeypatch.setattr(bl, "KMEANS_BLOCK_BYTES", 8 * width * rows)
        pts = self.pool(40, width, seed=width)
        rng = np.random.default_rng(rows)
        centroids = rng.normal(size=(5, width))
        assign = rng.integers(0, 5, size=40)
        assign[assign == 3] = 4  # and one goes empty
        assert np.array_equal(bl._sq_dists(pts, centroids), one_shot_sq_dists(pts, centroids))
        assert np.array_equal(bl._update_centroids(pts, assign, centroids.copy()),
                              one_shot_update(pts, assign, centroids))
        assert np.array_equal(bl._kmeans_pp_init(pts, 5, np.random.default_rng(0)),
                              one_shot_pp_init(pts, 5, np.random.default_rng(0)))
        d2 = one_shot_sq_dists(pts, centroids)
        assert np.array_equal(bl._point_entropy(d2.copy()), one_shot_entropy(d2))

    def test_a_negative_zero_sum_keeps_its_sign(self):
        # a cluster's first member starts its sum, as numpy's mean starts
        # from its first row: a sum started from +0.0 would lose the sign
        pts = np.array([[-0.0, 1.0], [-0.0, 2.0]])
        got = bl._update_centroids(pts, np.array([0, 0]), np.ones((1, 2)))
        assert np.array_equal(np.signbit(got), np.signbit(one_shot_update(pts, np.zeros(2, int),
                                                                          np.ones((1, 2)))))

    def test_one_column_sums_within_rounding(self):
        # numpy reduces a single column pairwise, not row by row
        pts = self.pool(5000, width=1)
        assign = np.random.default_rng(0).integers(0, 3, size=5000)
        np.testing.assert_allclose(bl._update_centroids(pts, assign, np.zeros((3, 1))),
                                   one_shot_update(pts, assign, np.zeros((3, 1))), rtol=1e-13)

    def test_seeding_equals_the_one_shot_one(self):
        pts = self.pool(2 * BLOCK_ROWS + 1)
        assert np.array_equal(bl._kmeans_pp_init(pts, 6, np.random.default_rng(5)),
                              one_shot_pp_init(pts, 6, np.random.default_rng(5)))

    @pytest.mark.parametrize("k", [1, 2, 7, 9, 20])
    def test_point_entropy_equals_the_one_shot_one(self, k):
        n = 2 * (bl.KMEANS_BLOCK_BYTES // (8 * k)) + 1
        d2 = one_shot_sq_dists(self.pool(n), np.random.default_rng(k).normal(size=(k, 32)))
        assert np.array_equal(bl._point_entropy(d2.copy()), one_shot_entropy(d2))

    def test_kmeans_holds_the_pool_once(self, monkeypatch):
        import tracemalloc

        # 2 seedings of at most 5 Lloyd iterations each: the peak of one
        # iteration, with a best fit held beside the current one
        monkeypatch.setattr(bl, "KMEANS_RESTARTS", 2)
        monkeypatch.setattr(bl, "KMEANS_MAX_ITER", 5)
        pts = np.random.default_rng(0).normal(size=(32768, 32))  # 8 MiB
        tracemalloc.start()
        try:
            kmeans(pts, 5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the one-shot k-means copied each cluster and made (n, D)
        # temporaries per centroid (12.9 MiB here, 15.1 MiB at 20 seedings
        # of up to 300 iterations); blockwise it holds one (n, k) distance
        # array, the assignments and a block (2.3 MiB)
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestPropagateNN:
    def test_full_subset_is_identity(self):
        coords = np.random.default_rng(5).normal(size=(6, 3))
        idx, lab = propagate_nn(coords, np.arange(6), np.arange(6))
        assert idx.tolist() == list(range(6))
        assert lab.tolist() == list(range(6))

    def test_collinear_case_copies_to_nearer(self):
        coords = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]])
        idx, lab = propagate_nn(coords, np.array([0]), np.array([7]))
        assert (1 in idx.tolist()) and (2 not in idx.tolist())
        assert lab[idx.tolist().index(1)] == 7

    def test_at_most_doubles(self):
        rng = np.random.default_rng(6)
        coords = rng.normal(size=(30, 3))
        sel = np.sort(rng.choice(30, size=10, replace=False))
        idx, _ = propagate_nn(coords, sel, np.zeros(10, dtype=int))
        assert 10 <= idx.size <= 20

    def test_first_writer_wins(self):
        # two selected points share the same nearest unselected neighbour
        coords = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
        idx, lab = propagate_nn(coords, np.array([0, 1]), np.array([10, 20]))
        assert idx.tolist() == [0, 1, 2]
        assert lab[2] == 10  # lower selected index wrote first

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            propagate_nn(np.zeros((3, 3)), np.array([], dtype=int), np.array([]))

    def test_a_coordinate_past_the_squared_distance_range_is_refused_by_its_point(self):
        # the squared distances overflowed to inf, and point 1, not the
        # nearer point 3, took the label
        coords = [[3e200, 0, 0], [0, 0, 0], [1e200, 0, 0], [2.9e200, 0, 0]]
        message = r"^propagate_nn: point 0 has a coordinate of magnitude 2\*\*510 or more"
        with pytest.raises(ValueError, match=message + r" \[3e\+200, 0\.0, 0\.0\]$"):
            propagate_nn(np.array(coords), [0], [7])
        with pytest.raises(ValueError, match=r"^propagate_nn: point 2 has a non-finite"):
            propagate_nn(np.array([[0.0, 0, 0], [1, 0, 0], [0, np.nan, 0]]), [0], [7])

    def test_row_blocks_bound_memory_and_keep_the_result(self):
        import tracemalloc

        rng = np.random.default_rng(11)
        # a coarse integer grid, so nearest neighbours tie
        coords = rng.integers(0, 24, size=(8192, 3)).astype(np.float64)
        selected = np.sort(rng.choice(8192, size=1000, replace=False))
        labels = rng.integers(0, 5, size=1000)
        tracemalloc.start()
        try:
            idx, lab = propagate_nn(coords, selected, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the unblocked 1,000 x 7,192 x 3 difference array alone is 173 MB
        assert peak < 64e6
        ref_idx, ref_lab = loop_propagate_nn(coords, selected, labels)
        np.testing.assert_array_equal(idx, ref_idx)
        np.testing.assert_array_equal(lab, ref_lab)


def loop_propagate_nn(coords, selected, labels):
    """The per-point loop ``propagate_nn`` replaced, kept as its reference."""
    selected = np.asarray(selected, dtype=np.intp)
    labels = np.asarray(labels)
    mask = np.ones(coords.shape[0], dtype=bool)
    mask[selected] = False
    others = np.flatnonzero(mask)
    out_idx, out_lab = list(selected), list(labels)
    if others.size:
        written = {}
        d2 = ((coords[selected][:, None, :] - coords[others][None, :, :]) ** 2).sum(axis=2)
        nearest = others[d2.argmin(axis=1)]
        for src_pos in range(selected.size):
            tgt = int(nearest[src_pos])
            if tgt not in written:
                written[tgt] = labels[src_pos]
        for tgt in sorted(written):
            out_idx.append(tgt)
            out_lab.append(written[tgt])
    order = np.argsort(out_idx, kind="stable")
    return np.asarray(out_idx, dtype=np.intp)[order], np.asarray(out_lab)[order]


def loop_merge_overclusters(centroids, assignments, point_entropy, n_target):
    """The dict-and-closure merge ``_merge_overclusters`` replaced."""
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
        src = sorted(alive, key=lambda j: (cluster_entropy[j], j))[0]
        rest = [j for j in alive if j != src]
        dst = rest[int(((cents[rest] - cents[src]) ** 2).sum(axis=1).argmin())]
        w = sizes[src] + sizes[dst]
        if w > 0:
            cents[dst] = (cents[src] * sizes[src] + cents[dst] * sizes[dst]) / w
        sizes[dst] = w
        cluster_entropy[dst] = min(cluster_entropy[dst], cluster_entropy[src])
        parent[src] = dst
        alive.remove(src)

    def root(j):
        while parent[j] != j:
            j = parent[j]
        return j

    dense = {j: i for i, j in enumerate(sorted(alive))}
    return cents[sorted(alive)], np.array([dense[root(j)] for j in assignments])


@st.composite
def propagation_cases(draw):
    # coordinates on a coarse integer grid, so distances tie and selected
    # points often share a nearest neighbour
    n = draw(st.integers(1, 14))
    coords = np.array(draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * 3), min_size=n, max_size=n,
    )), dtype=np.float64)
    selected = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    labels = draw(st.lists(st.integers(0, 4), min_size=len(selected), max_size=len(selected)))
    return coords, np.array(selected, dtype=np.intp), np.array(labels, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(propagation_cases())
def test_propagate_nn_matches_the_loop_reference(case):
    coords, selected, labels = case
    idx, lab = propagate_nn(coords, selected, labels)
    ref_idx, ref_lab = loop_propagate_nn(coords, selected, labels)
    assert idx.dtype == ref_idx.dtype and lab.dtype == ref_lab.dtype
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_array_equal(lab, ref_lab)


@st.composite
def merge_cases(draw):
    k = draw(st.integers(1, 8))
    centroids = np.array(draw(st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=k, max_size=k,
    )), dtype=np.float64)
    # some clusters may stay empty; entropies tie often
    assignments = np.array(draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=30)))
    entropy = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0]), min_size=assignments.size, max_size=assignments.size,
    )))
    return centroids, assignments, entropy, draw(st.integers(1, k))


@settings(max_examples=300, deadline=None)
@given(merge_cases())
def test_merge_overclusters_matches_the_loop_reference(case):
    centroids, assignments, entropy, n_target = case
    cents, merged = _merge_overclusters(centroids, assignments, entropy, n_target)
    ref_cents, ref_merged = loop_merge_overclusters(centroids, assignments, entropy, n_target)
    assert merged.dtype == ref_merged.dtype
    np.testing.assert_array_equal(cents, ref_cents)
    np.testing.assert_array_equal(merged, ref_merged)


class TestPretrain:
    def test_smoke_base_miou_above_chance(self):
        clouds, split = tiny_setup(scenes=12, points=64)
        model_cfg = ModelConfig(feature_dim=16, hidden=32, knn=8, heads=2, overcluster_factor=2)
        model = pretrain_base(
            mask_novel(clouds, split), split, model_cfg,
            TrainConfig(epochs=6, batch_size=2, seed=0),
            BaselineConfig(pretrain_epochs=6, finetune_epochs=1), AUG,
        )
        report = evaluate(model, clouds, split)
        # chance level: closed form for a uniform predictor over 5 slots
        labels = np.concatenate([c.labels for c in clouds])
        chance = []
        for c in sorted(split.base_classes):
            f = float(np.mean(labels == c))
            chance.append((f / 5) / (f + 1 / 5 - f / 5))
        assert report.base_miou > np.mean(chance)

    def test_novel_permutation_oracle(self, tmp_path):
        clouds, split = tiny_setup()
        rng = np.random.default_rng(7)
        shuffled = []
        for c in clouds:
            labels = c.labels.copy()
            novel = np.flatnonzero(np.isin(labels, [3, 4]))
            labels[novel] = rng.permutation(labels[novel])
            shuffled.append(LabelledCloud(c.coords, labels, c.scene_id))
        a, b = (pretrain_base(mask_novel(c, split), split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)
                for c in (clouds, shuffled))
        a.save(tmp_path / "a.ckpt")
        b.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_both_stages_refuse_unmasked_scenes(self):
        # masking is run_baseline's job; a stage handed raw ground truth
        # fails on the first novel label instead of training on it
        clouds, split = tiny_setup()
        message = r"labels \[3, 4\] are not in the class order \[0, 1, 2\]"
        with pytest.raises(ValueError, match=message):
            pretrain_base(clouds, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)
        pretrained = pretrain_base(
            mask_novel(clouds, split), split, TINY_MODEL, TINY_TRAIN,
            BaselineConfig(pretrain_epochs=1, finetune_epochs=1), AUG,
        )
        with pytest.raises(ValueError, match=message):
            finetune(pretrained, clouds, {}, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)

    def test_loss_decreases_on_average(self):
        # non-strict check averaged over seeds: pretrain longer, compare
        # evaluation quality of a 1-epoch vs 5-epoch model. At 6 scenes of
        # 48 points a single seed's gain swings by up to +-0.25 either way
        gains = []
        for seed in range(6):
            clouds, split = tiny_setup(seed=seed)
            short = pretrain_base(
                mask_novel(clouds, split), split, TINY_MODEL,
                TrainConfig(epochs=1, batch_size=2, seed=seed),
                BaselineConfig(pretrain_epochs=1, finetune_epochs=1), AUG,
            )
            long = pretrain_base(
                mask_novel(clouds, split), split, TINY_MODEL,
                TrainConfig(epochs=5, batch_size=2, seed=seed),
                BaselineConfig(pretrain_epochs=5, finetune_epochs=1), AUG,
            )
            gains.append(
                evaluate(long, clouds, split).base_miou
                - evaluate(short, clouds, split).base_miou
            )
        assert np.mean(gains) > -1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_the_pretraining_loss_falls_from_the_first_epoch_to_the_last(self, seed,
                                                                         monkeypatch):
        import segdiscover.baseline as bl

        real_fit, means = bl.fit, []

        def recording_fit(model, n_scenes, cfg, epochs, rng, batch_loss, end_epoch=None):
            losses = []

            def recorded(scene_ids, last_lr):
                loss = batch_loss(scene_ids, last_lr)
                if loss is not None:
                    losses.append(loss.data.item())
                return loss

            def epoch_mean(epoch, lr):
                means.append(np.mean(losses))
                losses.clear()

            real_fit(model, n_scenes, cfg, epochs, rng, recorded, epoch_mean)

        monkeypatch.setattr(bl, "fit", recording_fit)
        clouds, split = tiny_setup(seed=seed)
        pretrain_base(mask_novel(clouds, split), split, TINY_MODEL,
                      TrainConfig(epochs=5, batch_size=2, seed=seed),
                      BaselineConfig(pretrain_epochs=5, finetune_epochs=1), AUG)
        assert len(means) == 5
        assert means[-1] < means[0], means


class TestPipeline:
    def test_run_baseline_smoke(self):
        clouds, split = tiny_setup()
        model, pseudo = run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)
        assert pseudo, "clustering produced no pseudo-labels"
        for idx, slots in pseudo.values():
            assert np.all((slots >= 0) & (slots < 2))
            assert len(set(idx.tolist())) == idx.size
        report = evaluate(model, clouds, split)
        assert 0.0 <= report.all_miou <= 1.0

    def test_shared_scene_ids_are_refused(self):
        # pseudo-labels are keyed by scene id: scenes sharing one would
        # receive each other's point indices
        clouds, split = tiny_setup(scenes=4)
        unnamed = [LabelledCloud(c.coords, c.labels) for c in clouds]
        with pytest.raises(ValueError, match=r"scene ids \[''\] each name more than one scene"):
            run_baseline(unnamed, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)
        renamed = clouds[:3] + [LabelledCloud(clouds[3].coords, clouds[3].labels, "0001")]
        with pytest.raises(ValueError, match=r"scene ids \['0001'\]"):
            run_baseline(renamed, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)

    def test_a_diverging_run_stops_at_the_sgd_step(self):
        clouds, split = tiny_setup()
        train_cfg = TrainConfig(epochs=2, batch_size=2, seed=0, lr_max=1e300)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=r"SGD step at lr \S+ left parameter \S+ non-finite"
        ):
            run_baseline(clouds, split, TINY_MODEL, train_cfg, TINY_BASE, AUG)

    def test_overcluster_stage_smoke(self):
        clouds, split = tiny_setup()
        cfg = BaselineConfig(
            pretrain_epochs=1, finetune_epochs=1,
            subsample=SubsampleSpec(0.7, 30), overcluster=True, overcluster_factor=2,
        )
        model, pseudo = run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, cfg, AUG)
        for _, slots in pseudo.values():
            assert np.all((slots >= 0) & (slots < 2))

    @staticmethod
    def _clustering_pool(monkeypatch):
        """The k-means pool of a tiny baseline run, and the whole-scene
        taped features of the pretrained model at the picked points."""
        import segdiscover.baseline as bl
        from segdiscover.data import UNLABELLED

        pools, pretrained = [], []
        real_kmeans, real_pretrain = bl.kmeans, bl.pretrain_base

        def capture_kmeans(features, k, seed, **kw):
            pools.append(np.array(features))
            return real_kmeans(features, k, seed, **kw)

        def capture_pretrain(*args, **kw):
            pretrained.append(real_pretrain(*args, **kw))
            return pretrained[-1]

        monkeypatch.setattr(bl, "kmeans", capture_kmeans)
        monkeypatch.setattr(bl, "pretrain_base", capture_pretrain)
        clouds, split = tiny_setup()
        run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)

        rng = np.random.default_rng(TINY_TRAIN.seed + 2)
        expected = []
        for cloud in mask_novel(clouds, split):
            novel_idx = np.flatnonzero(cloud.labels == UNLABELLED)
            picked = novel_idx[subsample_psi(novel_idx.size, TINY_BASE.subsample, rng)]
            if picked.size:
                expected.append(pretrained[0].extract_features(cloud.coords).data[:, picked].T)
        assert len(pools) == 1
        return pools[0], np.concatenate(expected)

    def test_clustering_pool_is_full_scene_features_at_picked_points(self, monkeypatch):
        # a 48-point scene is one chunk, which runs the whole-scene products
        pool, expected = self._clustering_pool(monkeypatch)
        np.testing.assert_array_equal(pool, expected)

    def test_clustering_pool_across_chunks_is_the_picked_features(self, monkeypatch):
        # 10-point chunks: each chunk gives its own run of the picked points.
        # BLAS may round a narrower product's columns in the last bit
        monkeypatch.setattr(model_module, "FORWARD_CHUNK_BYTES", 8 * TINY_MODEL.hidden * 10)
        pool, expected = self._clustering_pool(monkeypatch)
        np.testing.assert_allclose(pool, expected, rtol=1e-12, atol=1e-15)

    def test_picked_points_carry_their_kmeans_assignments(self, monkeypatch):
        import segdiscover.baseline as bl
        from segdiscover.data import UNLABELLED

        assignments = []
        real_kmeans = bl.kmeans

        def capture_kmeans(features, k, seed, **kw):
            km, assign = real_kmeans(features, k, seed, **kw)
            assignments.append(assign)
            return km, assign

        monkeypatch.setattr(bl, "kmeans", capture_kmeans)
        clouds, split = tiny_setup()
        _, pseudo = run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)

        rng = np.random.default_rng(TINY_TRAIN.seed + 2)
        start = 0
        for cloud in mask_novel(clouds, split):
            novel_idx = np.flatnonzero(cloud.labels == UNLABELLED)
            picked = novel_idx[subsample_psi(novel_idx.size, TINY_BASE.subsample, rng)]
            if not picked.size:
                assert cloud.scene_id not in pseudo
                continue
            idx, slots = pseudo[cloud.scene_id]
            at = np.searchsorted(idx, picked)
            np.testing.assert_array_equal(idx[at], picked)
            np.testing.assert_array_equal(slots[at], assignments[0][start:start + picked.size])
            start += picked.size
            # the rest are propagated copies onto other novel points
            assert np.all(np.isin(idx, novel_idx))
            assert idx.size <= 2 * picked.size
        assert start == assignments[0].size

    def test_one_knn_graph_per_training_scene(self, monkeypatch):
        import segdiscover.baseline as bl
        import segdiscover.model as model_module

        calls = []
        real_knn = model_module.knn_indices

        def counted(coords, k):
            calls.append(len(coords))
            return real_knn(coords, k)

        for module in (bl, model_module):
            monkeypatch.setattr(module, "knn_indices", counted)
        clouds, split = tiny_setup()
        run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)
        assert calls == [c.n_points for c in clouds]

    def test_no_loss_node_of_a_step_outlives_it(self, monkeypatch):
        import weakref

        import segdiscover.baseline as bl
        from segdiscover.losses import SGD

        ce, views, sgd_step = bl.tempered_ce, bl.make_views, SGD.step
        current, done, alive = [], [], []

        def tracked_ce(*args, **kwargs):
            out = ce(*args, **kwargs)
            # Tensor has no weakref slot; its .data dies with it
            current.append(weakref.ref(out.data))
            return out

        def stepped(opt, lr):
            sgd_step(opt, lr)
            done.extend(current)
            current.clear()

        def checked_views(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in done))
            return views(*args, **kwargs)

        monkeypatch.setattr(bl, "tempered_ce", tracked_ce)
        monkeypatch.setattr(bl, "make_views", checked_views)
        monkeypatch.setattr(SGD, "step", stepped)
        clouds, split = tiny_setup()
        run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)
        # 3 steps of 2 scenes per epoch, 2 epochs per stage, 2 stages
        assert len(done) == 24 and len(alive) == 24
        assert alive == [0] * len(alive)

    def test_each_step_draws_one_view_per_scene_in_one_call(self, monkeypatch):
        import segdiscover.baseline as bl
        from segdiscover.losses import SGD

        views, sgd_step = bl.make_views, SGD.step
        steps, current = [], []

        def counted_views(cloud, rng, aug, n_views):
            out = views(cloud, rng, aug, n_views)
            current.append((cloud.scene_id, n_views, len(out)))
            return out

        def stepped(opt, lr):
            sgd_step(opt, lr)
            steps.append(current[:])
            current.clear()

        monkeypatch.setattr(bl, "make_views", counted_views)
        monkeypatch.setattr(SGD, "step", stepped)
        clouds, split = tiny_setup()
        run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)
        # 3 steps of 2 scenes per epoch, 2 epochs per stage, 2 stages
        assert len(steps) == 12 and not current
        for calls in steps:
            assert len({scene for scene, _, _ in calls}) == len(calls) == 2
            assert all(asked == drawn == 1 for _, asked, drawn in calls)

    def test_stage_targets_are_held_in_narrow_types(self, monkeypatch):
        seen = set()
        real_ce = bl.tempered_ce

        def recorded(logits, cols, rows, *args):
            seen.add((cols.dtype, rows.dtype))
            return real_ce(logits, cols, rows, *args)

        monkeypatch.setattr(bl, "tempered_ce", recorded)
        clouds, split = tiny_setup()
        run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)
        # 48-point scenes and at most 5 head rows: 3 bytes per target
        assert seen == {(np.dtype(np.uint16), np.dtype(np.uint8))}

    @pytest.mark.parametrize("idx, slots", [
        ([3, 1 << 16], [0, 1]),  # past the scene: uint16 would wrap it to 0
        ([-1], [0]),
        ([3], [2]),  # two novel slots
        ([3], [-1]),
        ([3], [256]),  # uint8 would wrap it to slot 0
        ([3, 4], [0]),
    ])
    def test_fine_tuning_refuses_pseudo_labels_out_of_range(self, idx, slots):
        clouds, split = tiny_setup(scenes=4)
        masked = mask_novel(clouds, split)
        pretrained = pretrain_base(masked, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)
        scene = masked[0].scene_id
        pseudo = {scene: (np.array(idx), np.array(slots))}
        with pytest.raises(ValueError, match=rf"pseudo-labels of scene '{scene}' must pair "
                                             r"points in \[0, 48\) with slots in \[0, 2\)"):
            finetune(pretrained, masked, pseudo, split, TINY_MODEL, TINY_TRAIN, TINY_BASE, AUG)

    def test_the_pool_is_dropped_before_fine_tuning(self, monkeypatch):
        import weakref

        refs, alive = [], []
        real_kmeans, real_finetune = bl.kmeans, bl.finetune

        def captured(features, k, seed):
            km, assign = real_kmeans(features, k, seed)
            refs.extend([weakref.ref(features), weakref.ref(assign)])
            return km, assign

        def checked(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return real_finetune(*args, **kwargs)

        monkeypatch.setattr(bl, "kmeans", captured)
        monkeypatch.setattr(bl, "finetune", checked)
        clouds, split = tiny_setup()
        cfg = BaselineConfig(pretrain_epochs=1, finetune_epochs=1,
                             subsample=SubsampleSpec(0.7, 30), overcluster=True)
        run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, cfg, AUG)
        assert alive == [[False, False]]

    @pytest.mark.parametrize("overcluster", [False, True])
    def test_a_64_scene_run_stays_under_5_5_mb(self, overcluster):
        import tracemalloc

        cfg = toy_discovery_config(seed=0, n_scenes=64, points_per_scene=256)
        clouds = generate_synthetic(cfg)
        base = BaselineConfig(pretrain_epochs=1, finetune_epochs=1,
                              subsample=SubsampleSpec(1.0, 1000), overcluster=overcluster)
        tracemalloc.start()
        try:
            run_baseline(clouds, cfg.split(), ModelConfig(), TrainConfig(epochs=1, batch_size=4),
                         base, AUG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bound sits between the peaks of a clustering stage that held
        # the pool as per-scene arrays and their concatenation, scored it
        # through (n, D) temporaries and kept 16-byte stage targets
        # (6.3-7.8 MB, either flag, first or second run in a process) and
        # of one pool array scored in blocks with 3-byte targets (3.6-4.7 MB)
        assert peak < 5.5e6, f"peak {peak / 1e6:.2f} MB"

    def test_pipeline_permutation_oracle(self, tmp_path):
        clouds, split = tiny_setup(scenes=4, points=32)
        rng = np.random.default_rng(8)
        shuffled = []
        for c in clouds:
            labels = c.labels.copy()
            novel = np.flatnonzero(np.isin(labels, [3, 4]))
            labels[novel] = rng.permutation(labels[novel])
            shuffled.append(LabelledCloud(c.coords, labels, c.scene_id))
        cfg = BaselineConfig(pretrain_epochs=1, finetune_epochs=1, subsample=SubsampleSpec(0.5, 10))
        ma, _ = run_baseline(clouds, split, TINY_MODEL, TINY_TRAIN, cfg, AUG)
        mb, _ = run_baseline(shuffled, split, TINY_MODEL, TINY_TRAIN, cfg, AUG)
        ma.save(tmp_path / "a.ckpt")
        mb.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_pseudo_label_dump_round_trip(self, tmp_path):
        pseudo = {
            "0000": (np.array([3, 5, 9]), np.array([0, 1, 0])),
            "0002": (np.array([1]), np.array([1])),
        }
        write_pseudo_labels(tmp_path, pseudo)
        back = read_pseudo_labels(tmp_path)
        assert set(back) == {"0000", "0002"}
        np.testing.assert_array_equal(back["0000"][0], [3, 5, 9])
        np.testing.assert_array_equal(back["0000"][1], [0, 1, 0])
        raw = (tmp_path / "0000.plabel").read_bytes()
        assert len(raw) == 3 * 8  # u32 pairs, little endian
        assert raw[:4] == (3).to_bytes(4, "little")

    def test_pseudo_label_bytes_are_u32_index_class_pairs(self, tmp_path):
        pseudo = {
            "0001": (np.array([0, 7, 70_000], dtype=np.intp), np.array([2, 0, 1], dtype=np.int64)),
            "0003": (np.array([], dtype=np.intp), np.array([], dtype=np.int64)),
        }
        write_pseudo_labels(tmp_path, pseudo)
        for scene_id, (idx, slots) in pseudo.items():
            expected = b"".join(struct.pack("<II", i, s) for i, s in zip(idx, slots))
            assert (tmp_path / f"{scene_id}.plabel").read_bytes() == expected
