"""Feature extractor and heads: normalization, equivariance, prototypes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdiscover import autodiff as ad
from segdiscover import model as model_module
from segdiscover.data import generate_synthetic, toy_discovery_config
from segdiscover.model import (
    CombinedHeadModel,
    ModelConfig,
    SegmentationModel,
    knn_indices,
    knn_mean_matrix,
)


# points per untaped forward chunk at the default hidden width
CHUNK = model_module.FORWARD_CHUNK_BYTES // (8 * ModelConfig().hidden)


def make_model(seed=0, **kw):
    cfg = ModelConfig(**kw)
    return SegmentationModel(cfg, n_base=3, n_novel=2, rng=np.random.default_rng(seed))


class TestKnnMatrix:
    def test_column_stochastic(self):
        coords = np.random.default_rng(0).normal(size=(12, 3))
        mat = knn_mean_matrix(coords, 4)
        np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-12)

    def test_self_excluded(self):
        coords = np.random.default_rng(1).normal(size=(6, 3))
        mat = knn_mean_matrix(coords, 3)
        assert np.all(np.diag(mat) == 0.0)

    def test_single_point_averages_itself(self):
        assert knn_mean_matrix(np.zeros((1, 3)), 16).tolist() == [[1.0]]

    def test_equals_the_scatter_add_reference(self):
        rng = np.random.default_rng(11)
        for m, k in [(1, 4), (2, 4), (9, 3), (40, 16), (64, 5)]:
            # integer coordinates, so neighbour distances tie
            coords = rng.integers(0, 3, size=(m, 3)).astype(np.float64)
            neighbours = knn_indices(coords, k)
            ref = np.zeros((m, m))
            kk = neighbours.shape[1]
            np.add.at(ref, (neighbours.reshape(-1), np.repeat(np.arange(m), kk)), 1.0 / kk)
            np.testing.assert_array_equal(knn_mean_matrix(coords, k), ref)
            np.testing.assert_array_equal(knn_mean_matrix(coords, k, neighbours), ref)

    def test_small_cloud_caps_k(self):
        coords = np.random.default_rng(2).normal(size=(3, 3))
        mat = knn_mean_matrix(coords, 16)
        np.testing.assert_allclose(mat.sum(axis=0), 1.0)


class TestExtractFeatures:
    def test_columns_are_unit_norm(self):
        model = make_model()
        coords = np.random.default_rng(3).normal(size=(20, 3))
        z = model.extract_features(coords).data
        np.testing.assert_allclose(np.linalg.norm(z, axis=0), 1.0, atol=1e-9)

    def test_identical_points_identical_columns(self):
        model = make_model()
        coords = np.random.default_rng(4).normal(size=(8, 3))
        coords[5] = coords[2]
        z = model.extract_features(coords).data
        np.testing.assert_allclose(z[:, 5], z[:, 2], atol=1e-12)

    def test_permutation_equivariance(self):
        model = make_model()
        rng = np.random.default_rng(5)
        coords = rng.normal(size=(10, 3))
        perm = rng.permutation(10)
        z = model.extract_features(coords).data
        z_perm = model.extract_features(coords[perm]).data
        np.testing.assert_allclose(z_perm, z[:, perm], atol=1e-9)

    def test_rejects_bad_shapes(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.extract_features(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            model.extract_features(np.zeros((4, 2)))


class TestHeads:
    def test_one_hot_prototypes_give_identity_pattern(self):
        model = make_model()
        d = model.cfg.feature_dim
        p = np.zeros((d, 2))
        p[0, 0] = 1.0
        p[1, 1] = 1.0
        model.novel_p[0].data[...] = p
        z = ad.constant(p)  # features equal to the prototypes
        logits = model.novel_logits(z, 0).data
        np.testing.assert_allclose(logits, np.eye(2), atol=1e-12)

    def test_orthogonal_feature_gives_zero_logits(self):
        model = make_model()
        d = model.cfg.feature_dim
        p = np.zeros((d, 2))
        p[0, 0] = 1.0
        p[1, 1] = 1.0
        model.novel_p[0].data[...] = p
        z = np.zeros((d, 1))
        z[2, 0] = 1.0
        logits = model.novel_logits(ad.constant(z), 0).data
        np.testing.assert_allclose(logits, 0.0, atol=1e-12)

    def test_random_case_matches_matmul_oracle(self):
        rng = np.random.default_rng(6)
        model = SegmentationModel(ModelConfig(feature_dim=4), 3, 2, rng)
        z = rng.normal(size=(4, 3))
        logits = model.novel_logits(ad.constant(z), 1).data
        expected = np.zeros((2, 3))
        for i in range(2):
            for j in range(3):
                expected[i, j] = sum(model.novel_p[1].data[k, i] * z[k, j] for k in range(4))
        np.testing.assert_allclose(logits, expected, atol=1e-12)

    def test_logits_read_prototype_storage(self):
        # same storage: mutating P must change head output
        model = make_model()
        z = ad.constant(np.eye(model.cfg.feature_dim)[:, :3])
        before = model.novel_logits(z, 0).data.copy()
        model.novel_p[0].data[...] *= 2.0
        after = model.novel_logits(z, 0).data
        np.testing.assert_allclose(after, 2.0 * before)

    def test_head_index_out_of_range(self):
        model = make_model()
        z = ad.constant(np.zeros((model.cfg.feature_dim, 1)))
        with pytest.raises(IndexError):
            model.novel_logits(z, model.cfg.heads)

    def test_over_heads_have_overcluster_width(self):
        model = make_model(overcluster_factor=3)
        z = ad.constant(np.zeros((model.cfg.feature_dim, 4)))
        assert model.over_logits(z, 0).data.shape == (3 * 2, 4)

    def test_head_logits_pair(self):
        model = make_model()
        coords = np.random.default_rng(7).normal(size=(5, 3))
        z = model.extract_features(coords)
        base, novel = model.head_logits(z, 2)
        assert base.data.shape == (3, 5)
        assert novel.data.shape == (2, 5)


class TestStateRoundTrip:
    def test_checkpoint_restores_predictions(self, tmp_path):
        model = make_model(seed=1)
        coords = np.random.default_rng(8).normal(size=(12, 3))
        model.selected_head = 3
        expected = model.predict_slots(coords)
        model.save(tmp_path / "m.ckpt")

        saved = model.state()
        assert any(not np.array_equal(v, saved[k]) for k, v in make_model(seed=2).state().items())
        fresh = model_module.load_model(tmp_path / "m.ckpt", ModelConfig(), 3, 2,
                                        np.random.default_rng(2))
        assert type(fresh) is SegmentationModel
        assert fresh.selected_head == 3
        np.testing.assert_array_equal(fresh.predict_slots(coords), expected)

    def test_combined_head_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        model = CombinedHeadModel(ModelConfig(), 3, 2, rng)
        coords = rng.normal(size=(6, 3))
        expected = model.predict_slots(coords)
        model.save(tmp_path / "c.ckpt")
        fresh = model_module.load_model(tmp_path / "c.ckpt", ModelConfig(), 3, 2,
                                        np.random.default_rng(10))
        assert type(fresh) is CombinedHeadModel
        np.testing.assert_array_equal(fresh.predict_slots(coords), expected)


class TestCombinedHeadModel:
    def test_checkpoint_holds_the_extractor_and_the_joint_head_only(self, tmp_path):
        model = CombinedHeadModel(ModelConfig(), 3, 2, np.random.default_rng(0))
        model.save(tmp_path / "c.ckpt")
        names = ["enc1.w", "enc1.b", "enc2.w", "enc2.b", "proj.w", "proj.b", "joint.w", "joint.b"]
        assert list(model.state()) == names
        assert sorted(ad.load_checkpoint(tmp_path / "c.ckpt")) == sorted(names)
        assert model.state()["joint.w"].shape == (5, ModelConfig().feature_dim)

    def test_draws_the_extractor_then_the_joint_head_and_nothing_else(self):
        cfg = ModelConfig(feature_dim=8, hidden=16)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        model = CombinedHeadModel(cfg, 3, 2, rng)
        expected = {name: ref.normal(0.0, np.sqrt(2.0 / fan_in), shape) for name, shape, fan_in in (
            ("enc1.w", (16, 3), 3), ("enc2.w", (16, 16), 16), ("proj.w", (8, 32), 32),
            ("joint.w", (5, 8), 8),
        )}
        for name, value in expected.items():
            np.testing.assert_array_equal(model.state()[name], value)
        assert rng.random() == ref.random()
        # the online model draws the same extractor first
        online = SegmentationModel(cfg, 3, 2, np.random.default_rng(4))
        for name in ("enc1.w", "enc2.w", "proj.w"):
            np.testing.assert_array_equal(online.state()[name], expected[name])

    def test_finetune_starts_from_the_pretrained_extractor_and_base_head(self):
        from segdiscover.augment import AugmentConfig
        from segdiscover.baseline import BaselineConfig, finetune
        from segdiscover.data import generate_synthetic, mask_novel, toy_discovery_config
        from segdiscover.losses import TrainConfig

        syn = toy_discovery_config(seed=0, n_scenes=2, points_per_scene=24)
        clouds, split = generate_synthetic(syn), syn.split()
        cfg = ModelConfig(feature_dim=8, hidden=16, knn=4, heads=2)
        train_cfg = TrainConfig(epochs=1, batch_size=2, seed=3)
        pretrained = CombinedHeadModel(cfg, 3, 0, np.random.default_rng(1), name="base")
        for p in pretrained.parameters().values():  # no zero biases left
            p.data += np.random.default_rng(2).normal(size=p.data.shape)
        model = finetune(pretrained, mask_novel(clouds, split), {}, split, cfg, train_cfg,
                         BaselineConfig(finetune_epochs=0), AugmentConfig())
        fresh = CombinedHeadModel(cfg, 3, 2, np.random.default_rng(train_cfg.seed + 1))
        state, before = model.state(), pretrained.state()
        for name in ("enc1.w", "enc1.b", "enc2.w", "enc2.b", "proj.w", "proj.b"):
            np.testing.assert_array_equal(state[name], before[name])
        np.testing.assert_array_equal(state["joint.w"][:3], before["base.w"])
        np.testing.assert_array_equal(state["joint.b"][:3], before["base.b"])
        np.testing.assert_array_equal(state["joint.w"][3:], fresh.state()["joint.w"][3:])


def _plain_slots(arrays, coords, k, w, b):
    """Slots of a plain numpy forward of checkpoint ``arrays`` through the
    logit rows ``w`` and bias ``b``, pooling over ``knn_indices``."""
    h = np.maximum(arrays["enc1.w"] @ coords.T + arrays["enc1.b"], 0.0)
    h = np.maximum(arrays["enc2.w"] @ h + arrays["enc2.b"], 0.0)
    pooled = h[:, knn_indices(coords, k)].mean(axis=2)
    z = arrays["proj.w"] @ np.concatenate([h, pooled]) + arrays["proj.b"]
    return (w @ (z / np.linalg.norm(z, axis=0)) + b).argmax(axis=0)


class TestParametersAndKeys:
    @pytest.mark.parametrize("make", [
        lambda rng: SegmentationModel(ModelConfig(), 3, 2, rng),
        lambda rng: CombinedHeadModel(ModelConfig(), 3, 2, rng),
        lambda rng: CombinedHeadModel(ModelConfig(), 3, 0, rng, name="base"),
    ], ids=["online", "joint", "pretrain"])
    def test_every_drawn_tensor_is_a_parameter(self, make):
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        model = make(rng)
        params = list(model.parameters().values())
        held = [v for v in vars(model).values() if isinstance(v, ad.Tensor)]
        held += [t for v in vars(model).values() if isinstance(v, list) for t in v]
        assert held and all(any(t is p for p in params) for t in held)
        # the generator moved by the drawn parameters' values and no more
        ref.normal(size=sum(p.data.size for p in params if p.name.endswith((".w", ".p"))))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("combined", [False, True])
    def test_a_checkpoint_with_the_stable_key_set_loads_and_predicts(self, combined, tmp_path):
        cfg, d = ModelConfig(), ModelConfig().feature_dim
        rng = np.random.default_rng(16)
        shapes = {"enc1.w": (64, 3), "enc1.b": (64, 1), "enc2.w": (64, 64), "enc2.b": (64, 1),
                  "proj.w": (d, 128), "proj.b": (d, 1)}
        if combined:
            shapes.update({"joint.w": (5, d), "joint.b": (5, 1)})
        else:
            shapes.update({"base.w": (3, d), "base.b": (3, 1)})
            shapes.update({f"novel{i}.p": (d, 2) for i in range(5)})
            shapes.update({f"over{i}.p": (d, 6) for i in range(5)})
        arrays = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        state = dict(arrays) if combined else {**arrays, "meta.selected_head": np.array([[3.0]])}
        ad.save_checkpoint(tmp_path / "m.ckpt", state)
        model = model_module.load_model(tmp_path / "m.ckpt", cfg, 3, 2, np.random.default_rng(0))
        assert type(model) is (CombinedHeadModel if combined else SegmentationModel)
        assert sorted(model.state()) == sorted(state)
        if combined:
            w, b = arrays["joint.w"], arrays["joint.b"]
        else:
            assert model.selected_head == 3
            w = np.concatenate([arrays["base.w"], arrays["novel3.p"].T])
            b = np.concatenate([arrays["base.b"], np.zeros((2, 1))])
        coords = rng.normal(size=(200, 3))
        np.testing.assert_array_equal(model.predict_slots(coords),
                                      _plain_slots(arrays, coords, cfg.knn, w, b))


def _checkpoint_blob(tmp_dir):
    """A small model's checkpoint bytes, the byte offset of every u32
    header field and each name's first byte, and each record's end."""
    path = tmp_dir / "real.ckpt"
    make_model(feature_dim=4, hidden=4, heads=2).save(path)
    blob = path.read_bytes()
    fields, ends, pos = [4], [8], 8
    while pos < len(blob):
        nlen = int.from_bytes(blob[pos:pos + 4], "little")
        ndim_at = pos + 4 + nlen
        ndim = int.from_bytes(blob[ndim_at:ndim_at + 4], "little")
        fields += [pos, pos + 4, ndim_at] + [ndim_at + 4 * (i + 1) for i in range(ndim)]
        dims = np.frombuffer(blob, "<u4", ndim, ndim_at + 4)
        pos = ndim_at + 4 + 4 * ndim + 8 * int(np.prod(dims))
        ends.append(pos)
    return blob, fields, ends


def _load_or_value_error(path):
    """The checkpoint's state, or None after a ValueError naming the file;
    any other exception escapes."""
    try:
        return ad.load_checkpoint(path)
    except ValueError as exc:
        assert str(path) in str(exc)
        return None


class TestCheckpointInput:
    def test_truncation_at_every_offset_is_a_named_value_error(self, tmp_path):
        blob, _, ends = _checkpoint_blob(tmp_path)
        path = tmp_path / "cut.ckpt"
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            state = _load_or_value_error(path)
            # only a cut between whole records loads, as that prefix
            assert (state is not None) == (cut in ends), cut
        path.write_bytes(blob)
        assert len(_load_or_value_error(path)) == len(ends) - 1

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_header_fields_only_raise_value_errors(self, tmp_path_factory, data):
        tmp = tmp_path_factory.mktemp("fuzz")
        blob, fields, _ = _checkpoint_blob(tmp)
        edits = data.draw(st.lists(
            st.tuples(st.sampled_from(fields), st.integers(0, 2**32 - 1)),
            min_size=1, max_size=3,
        ))
        raw = bytearray(blob)
        for at, value in edits:
            raw[at:at + 4] = value.to_bytes(4, "little")
        cut = data.draw(st.integers(0, len(raw)))
        (tmp / "edited.ckpt").write_bytes(bytes(raw[:cut]))
        _load_or_value_error(tmp / "edited.ckpt")

    def test_short_header_and_bad_name_name_the_file(self, tmp_path):
        blob, _, _ = _checkpoint_blob(tmp_path)
        path = tmp_path / "six.ckpt"
        path.write_bytes(blob[:6])
        with pytest.raises(ValueError, match=r"six\.ckpt: truncated checkpoint"):
            ad.load_checkpoint(path)
        raw = bytearray(blob)
        raw[12] = 0xFF  # first byte of the first name
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"six\.ckpt: name at byte 12 is not UTF-8"):
            ad.load_checkpoint(path)

    def test_a_shape_mismatch_names_the_parameter_and_both_shapes(self, tmp_path):
        make_model(feature_dim=8).save(tmp_path / "d8.ckpt")
        with pytest.raises(ValueError, match=r"d8\.ckpt: parameter proj\.w has shape "
                                             r"\(8, 128\), the model expects \(4, 128\)"):
            model_module.load_model(tmp_path / "d8.ckpt", ModelConfig(feature_dim=4), 3, 2,
                                    np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_parameter_is_refused_by_file_and_name(self, bad, tmp_path):
        # a NaN in enc1.w used to load, and the model then predicted slot 0
        # for every point
        state = make_model().state()
        state["enc1.w"][3, 1] = bad
        path = tmp_path / "nan.ckpt"
        ad.save_checkpoint(path, state)
        with pytest.raises(ValueError, match=r"nan\.ckpt: parameter enc1\.w holds a non-finite"):
            model_module.load_model(path, ModelConfig(), 3, 2, np.random.default_rng(0))

    def test_a_missing_parameter_is_refused_by_file_and_name(self, tmp_path):
        # a KeyError named neither, and the command line printed it quoted
        state = make_model().state()
        del state["enc1.w"]
        path = tmp_path / "short.ckpt"
        ad.save_checkpoint(path, state)
        with pytest.raises(ValueError, match=r"short\.ckpt: checkpoint missing parameter enc1\.w$"):
            model_module.load_model(path, ModelConfig(), 3, 2, np.random.default_rng(0))

    def test_a_flattened_array_is_not_reshaped(self):
        model = make_model(seed=1)
        state = model.state()
        state["proj.b"] = state["proj.b"].reshape(-1)
        with pytest.raises(ValueError, match=r"proj\.b has shape \(\d+,\)"):
            make_model(seed=2).load_state(state)

    def test_a_strict_load_names_every_parameter_the_model_lacks(self):
        state = make_model(heads=5).state()
        state["meta.selected_head"] = np.array([[0.0]])
        with pytest.raises(ValueError, match=r"the model lacks: novel4\.p, over4\.p$"):
            make_model(heads=4).load_state(state)
        loose = make_model(heads=4)
        loose.load_state(state, strict=False)  # finetune and init_state skip them
        np.testing.assert_array_equal(loose.novel_p[3].data, state["novel3.p"])

    @pytest.mark.parametrize("head", [99.0, -1.0, 0.5, float("nan")])
    def test_selected_head_outside_the_heads_rejected(self, head):
        model = make_model(heads=4)
        state = model.state()
        state["meta.selected_head"] = np.array([[head]])
        with pytest.raises(ValueError, match=r"meta\.selected_head .* 0\.\.3"):
            make_model(heads=4).load_state(state)
        state["meta.selected_head"] = np.array([[3.0]])
        fresh = make_model(heads=4)
        fresh.load_state(state)
        assert fresh.selected_head == 3


# the block size as shipped, the 2 MiB it replaced, and blocks of a few rows
BLOCK_BYTES = [model_module.KNN_BLOCK_BYTES, 1 << 21, 1 << 14]


def _knn_reference(coords, k):
    """Nearest neighbours by sorting each row's (distance, index) pairs,
    listed in index order as ``knn_indices`` lists them."""
    m = len(coords)
    if m == 1:
        return np.zeros((1, 1), dtype=np.intp)
    out = []
    for i in range(m):
        d2 = [
            ((coords[i, 0] - coords[j, 0]) ** 2 + (coords[i, 1] - coords[j, 1]) ** 2)
            + (coords[i, 2] - coords[j, 2]) ** 2
            for j in range(m)
        ]
        out.append(sorted(sorted((j for j in range(m) if j != i), key=lambda j: (d2[j], j))[:k]))
    return np.array(out, dtype=np.intp)


def _knn_selection_reference(coords, k):
    """The k-NN selection that ``knn_indices`` replaced: per block, a
    partition to the k-th distance, every distance below it, then the
    lowest-indexed ones equal to it by a cumulative count over the row.
    A single point lists itself, as ``knn_indices`` lists it."""
    m = len(coords)
    if m == 1:
        return np.zeros((1, 1), dtype=np.intp)
    k = min(k, m - 1)
    out = np.empty((m, k), dtype=np.intp)
    for lo, hi, d2 in model_module.distance_blocks(coords, coords):
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        strict = d2 < kth
        deficit = k - strict.sum(axis=1)
        ties = d2 == kth
        chosen = strict | (ties & (np.cumsum(ties, axis=1) <= deficit[:, None]))
        out[lo:hi] = np.nonzero(chosen)[1].reshape(hi - lo, k)
    return out


class TestKnnIndices:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 24).flatmap(
            lambda m: st.tuples(
                st.one_of(
                    st.lists(st.integers(-2, 2), min_size=3 * m, max_size=3 * m),
                    st.lists(
                        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
                        min_size=3 * m, max_size=3 * m,
                    ),
                ),
                st.integers(1, m + 2),
                st.integers(1, 3),
            )
        )
    )
    def test_row_blocks_equal_one_block_and_the_reference(self, case):
        values, k, rows = case
        coords = np.asarray(values, dtype=np.float64).reshape(-1, 3)
        m = len(coords)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_module, "KNN_BLOCK_BYTES", 1 << 40)
            whole = knn_indices(coords, k)
            mp.setattr(model_module, "KNN_BLOCK_BYTES", 8 * m * rows)
            blocked = knn_indices(coords, k)
        assert whole.shape == (m, max(1, min(k, m - 1)))
        assert whole.dtype == ad.index_dtype(m)
        assert blocked.dtype == whole.dtype
        np.testing.assert_array_equal(blocked, whole)
        np.testing.assert_array_equal(whole, _knn_reference(coords, k))

    @pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
    def test_a_toy_scan_equals_the_replaced_selection(self, block_bytes, monkeypatch):
        syn = toy_discovery_config(seed=0, n_scenes=1, points_per_scene=2048)
        # through float32, as a scan file stores it
        coords = generate_synthetic(syn)[0].coords.astype(np.float32).astype(np.float64)
        want = _knn_selection_reference(coords, 16)
        monkeypatch.setattr(model_module, "KNN_BLOCK_BYTES", block_bytes)
        got = knn_indices(coords, 16)
        assert got.dtype == np.uint16
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_smallest_scenes_equal_the_replaced_selection(self, m, block_bytes, monkeypatch):
        # k = m - 1 reads the self distance at partition position k; past
        # it k is capped to m - 1
        coords = np.random.default_rng(m).normal(size=(m, 3))
        monkeypatch.setattr(model_module, "KNN_BLOCK_BYTES", block_bytes)
        for k in (m - 1, m, m + 1):
            got = knn_indices(coords, k)
            assert got.dtype == np.uint16
            np.testing.assert_array_equal(got, _knn_selection_reference(coords, k))

    @pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
    def test_equal_kth_and_next_distances_equal_the_replaced_selection(
        self, block_bytes, monkeypatch
    ):
        # point 0 is 0.5 from point 1 and 1 from points 2 and 3, so at k = 2
        # its 2nd and 3rd distances are equal and the lower index wins
        coords = np.array([[0.0, 0, 0], [0.5, 0, 0], [-1, 0, 0], [0, 1, 0]])
        monkeypatch.setattr(model_module, "KNN_BLOCK_BYTES", block_bytes)
        got = knn_indices(coords, 2)
        assert got[0].tolist() == [1, 2]
        np.testing.assert_array_equal(got, _knn_selection_reference(coords, 2))

    @pytest.mark.parametrize("block_bytes", BLOCK_BYTES)
    def test_a_duplicate_heavy_lattice_equals_the_replaced_selection(
        self, block_bytes, monkeypatch
    ):
        # 1,000 draws from 125 lattice points: every row ties at its k-th
        # distance, so the tie rule picks most neighbours
        coords = np.random.default_rng(5).integers(0, 5, size=(1000, 3)).astype(np.float64)
        want = _knn_selection_reference(coords, 16)
        monkeypatch.setattr(model_module, "KNN_BLOCK_BYTES", block_bytes)
        np.testing.assert_array_equal(knn_indices(coords, 16), want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_coordinate_is_refused_by_its_point(self, bad):
        coords = np.random.default_rng(6).normal(size=(50, 3))
        coords[17, 1] = bad
        with pytest.raises(ValueError, match=r"point 17 has a non-finite coordinate"):
            knn_indices(coords, 4)
        with pytest.raises(ValueError, match=r"point 17 has a non-finite coordinate"):
            make_model().predict_slots(coords)

    def test_coordinates_whose_squared_differences_overflow_are_refused(self):
        # past ~1.3e154 the squared distances overflow to inf and tie with
        # the self distance, so a point would list itself
        coords = np.array([[0.0, 0, 0], [1e200, 0, 0], [2e200, 0, 0], [3e200, 0, 0]])
        with pytest.raises(ValueError, match=r"point 1 has a coordinate of magnitude 2\*\*510"):
            knn_indices(coords, 2)
        coords[1:, 0] = [2.0**510, 1.0, 2.0]
        with pytest.raises(ValueError, match=r"point 1 has a coordinate of magnitude 2\*\*510"):
            knn_indices(coords, 2)
        # just below the bound every sum of three squares stays finite
        edge = np.nextafter(2.0**510, 0.0)
        coords = np.array([[edge, edge, edge], [-edge, -edge, -edge], [0.0, 0, 0]])
        np.testing.assert_array_equal(knn_indices(coords, 1), [[2], [2], [0]])

    def test_memory_grows_with_points_not_their_square(self):
        import tracemalloc

        coords = np.random.default_rng(9).normal(size=(4096, 3))
        tracemalloc.start()
        try:
            knn_indices(coords, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense 4,096 x 4,096 distance matrix alone is 134 MB; a
        # 256 KiB block's distances, term and partition index take ~0.8 MB
        assert peak < 4e6

    def test_a_scene_past_the_int32_index_range_is_refused(self):
        # a broadcast view: 2**31 points that allocate nothing
        coords = np.broadcast_to(np.zeros(3), (2**31, 3))
        with pytest.raises(ValueError, match="2147483648 points"):
            knn_indices(coords, 16)


class TestGraphWidth:
    @pytest.mark.parametrize("m, width", [(1, 1), (2, 1), (10, 9), (40, 16)])
    def test_only_a_graph_of_the_knn_width_is_pooled(self, m, width):
        model = make_model()
        coords = np.random.default_rng(m).normal(size=(m, 3))
        graph = ad.NeighbourGraph(knn_indices(coords, 16))
        assert graph.index.shape == (m, width)
        model.predict_slots(coords, neighbours=graph)
        if m > 2:
            narrow = ad.NeighbourGraph(knn_indices(coords, 4))
            message = rf"{m} neighbour rows of width 4 for {m} points and a k-NN of width {width} "
            for forward in (model.predict_slots, model.extract_features):
                with pytest.raises(ad.ShapeError, match=message + r"\(knn=16\)"):
                    forward(coords, neighbours=narrow)
        # a graph of another scene's rows is refused as before
        other = ad.NeighbourGraph(knn_indices(np.zeros((m + 1, 3)), 16))
        with pytest.raises(ad.ShapeError, match=rf"{m + 1} neighbour rows of width"):
            model.predict_slots(coords, neighbours=other)


class TestLeanInference:
    @pytest.mark.parametrize("combined", [False, True])
    def test_predict_slots_records_no_tape_and_matches_a_tracked_forward(
        self, combined, monkeypatch
    ):
        rng = np.random.default_rng(13)
        model = (CombinedHeadModel if combined else SegmentationModel)(ModelConfig(), 3, 2, rng)
        model.selected_head = 2
        coords = rng.normal(size=(200, 3))
        nb = ad.NeighbourGraph(knn_indices(coords, 16))
        z = model.extract_features(coords, nb)
        if combined:
            logits = model.logits(z)
        else:
            logits = ad.concat_rows([model.base_logits(z), model.novel_logits(z, 2)])
        assert logits._backward is not None
        init, taped = ad.Tensor.__init__, []

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if self._backward is not None:
                taped.append(self)

        monkeypatch.setattr(ad.Tensor, "__init__", spy)
        slots = model.predict_slots(coords, neighbours=nb)
        assert taped == []
        np.testing.assert_array_equal(slots, logits.data.argmax(axis=0))

    @pytest.mark.parametrize("combined", [False, True])
    def test_inference_builds_no_transpose_and_training_keeps_one(self, combined):
        rng = np.random.default_rng(15)
        model = (CombinedHeadModel if combined else SegmentationModel)(ModelConfig(), 3, 2, rng)
        coords = rng.normal(size=(100, 3))
        graph = ad.NeighbourGraph(knn_indices(coords, 16))
        model.predict_slots(coords, neighbours=graph)
        with ad.no_tape():
            model.extract_features(coords, graph)
        assert graph.reverse is None
        ad.backward(ad.sum_all(model.extract_features(coords, graph)))
        assert graph.reverse is not None

    @staticmethod
    def _predict_peak(m):
        """tracemalloc peak of ``predict_slots`` on m points, graph given.
        The graph is random: memory does not depend on which rows it names."""
        import tracemalloc

        rng = np.random.default_rng(14)
        model = SegmentationModel(ModelConfig(), 3, 2, rng)
        coords = rng.normal(size=(m, 3))
        nb = ad.NeighbourGraph(rng.integers(0, m, size=(m, 16)).astype(ad.index_dtype(m)))
        tracemalloc.start()
        try:
            model.predict_slots(coords, neighbours=nb)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_predict_slots_memory_stays_near_the_features(self):
        # a recorded tape holds every layer's output at once: ~23 MB here;
        # a whole-scene untaped forward peaks at 7.4 MB with two (64, m)
        # layers. In chunks it holds one chunk's layers and the two (D, m)
        # projections: 3.9 MB
        assert self._predict_peak(4096) < 5e6

    def test_predict_slots_memory_grows_by_the_projections_per_point(self):
        # ~0.5 kB per point: the (D, m) own and pooled projections at
        # D = 32, plus the slots; every (64, m) layer held at once took ~1.8 kB
        per_point = (self._predict_peak(16384) - self._predict_peak(4096)) / (16384 - 4096)
        assert per_point < 700

    @pytest.mark.parametrize("combined", [False, True])
    @pytest.mark.parametrize("m", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    def test_chunk_boundaries_keep_the_slots_of_a_taped_forward(self, combined, m):
        rng = np.random.default_rng(m)
        model = (CombinedHeadModel if combined else SegmentationModel)(ModelConfig(), 4, 3, rng)
        coords = rng.normal(size=(m, 3)) * 5
        graph = ad.NeighbourGraph(knn_indices(coords, 16))
        # a non-default eval head; the combined model has one head only
        slots = model.predict_slots(coords, 3, graph)
        assert graph.reverse is None
        z = model.extract_features(coords, graph)
        logits = model.logits(z) if combined else ad.concat_rows(
            [model.base_logits(z), model.novel_logits(z, 3)])
        np.testing.assert_array_equal(slots, logits.data.argmax(axis=0))
        chunks = list(model.feature_chunks(coords, graph))
        assert [(lo, hi) for lo, hi, _ in chunks] == [
            (lo, min(lo + CHUNK, m)) for lo in range(0, m, CHUNK)
        ]
        features = np.concatenate([f for _, _, f in chunks], axis=1)
        if m <= CHUNK:
            # one chunk runs the whole-scene products
            np.testing.assert_array_equal(features, z.data)
        else:
            # BLAS may round a narrower product's columns in the last bit
            np.testing.assert_allclose(features, z.data, rtol=0, atol=1e-15)


class TestExtractFeaturesGradient:
    def test_pooling_gradient_matches_central_differences(self):
        rng = np.random.default_rng(12)
        model = SegmentationModel(ModelConfig(feature_dim=4, hidden=5, knn=3), 2, 2, rng)
        coords = rng.normal(size=(9, 3))
        neighbours = ad.NeighbourGraph(knn_indices(coords, 3))
        weight = ad.constant(rng.normal(size=(4, 9)))

        def loss():
            return ad.sum_all(ad.mul(model.extract_features(coords, neighbours), weight))

        for p in model.parameters().values():
            p.zero_grad()
        ad.backward(loss())
        # the encoder weights reach the loss through both the point and the
        # pooled branch; proj.w columns past `hidden` read the pooled one only
        for p in (model.w1, model.b1, model.w2, model.b2, model.w3):
            for flat in range(p.data.size):
                original = p.data.flat[flat]
                p.data.flat[flat] = original + 1e-5
                up = float(loss().data[0, 0])
                p.data.flat[flat] = original - 1e-5
                down = float(loss().data[0, 0])
                p.data.flat[flat] = original
                numeric = (up - down) / 2e-5
                assert abs(p.grad.flat[flat] - numeric) <= 1e-6 * max(1.0, abs(numeric)), p.name


# one view of unequal scenes: m > k, m <= k (a graph narrower than knn),
# a one-point scene that averages itself, and m = k + 1
VIEW_SIZES = (9, 3, 1, 4)


def _view_case(seed):
    rng = np.random.default_rng(seed)
    model = SegmentationModel(ModelConfig(feature_dim=4, hidden=5, knn=3), 2, 2, rng)
    coords = [rng.normal(size=(m, 3)) for m in VIEW_SIZES]
    graphs = [ad.NeighbourGraph(knn_indices(c, 3)) for c in coords]
    weight = ad.constant(rng.normal(size=(4, sum(VIEW_SIZES))))
    return model, coords, graphs, weight


def _extractor_grads(model, loss):
    params = model.tensors[:6]
    for p in params:
        p.zero_grad()
    ad.backward(loss)
    return {p.name: p.grad.copy() for p in params}


class TestViewFeatures:
    """``Extractor.view_features``: one tape node for a view's scenes."""

    def test_value_and_gradients_match_the_op_chain_per_scene(self):
        from test_train import chain_features

        model, coords, graphs, weight = _view_case(21)
        z = model.view_features(coords, graphs)
        got = _extractor_grads(model, ad.sum_all(ad.mul(z, weight)))
        chain = ad.concat_cols([chain_features(model, c, g) for c, g in zip(coords, graphs)])
        want = _extractor_grads(model, ad.sum_all(ad.mul(chain, weight)))
        # the chain pools the projection through a dense matrix
        np.testing.assert_allclose(z.data, chain.data, rtol=0, atol=1e-14)
        for name, g in want.items():
            assert np.abs(g).max() > 0.0, name
            np.testing.assert_allclose(got[name], g, rtol=1e-10, atol=1e-13, err_msg=name)

    def test_gradients_match_central_differences(self):
        model, coords, graphs, weight = _view_case(22)

        def loss():
            return ad.sum_all(ad.mul(model.view_features(coords, graphs), weight))

        grads = _extractor_grads(model, loss())
        for p in model.tensors[:6]:
            for flat in range(p.data.size):
                original = p.data.flat[flat]
                p.data.flat[flat] = original + 1e-5
                up = float(loss().data[0, 0])
                p.data.flat[flat] = original - 1e-5
                down = float(loss().data[0, 0])
                p.data.flat[flat] = original
                numeric = (up - down) / 2e-5
                assert abs(grads[p.name].flat[flat] - numeric) <= 1e-6 * max(1.0, abs(numeric)), \
                    (p.name, flat)

    def test_a_view_holds_its_scenes_features_bit_for_bit(self):
        model, coords, graphs, _ = _view_case(23)
        z = model.view_features(coords, graphs)
        ends = np.cumsum(VIEW_SIZES)
        for c, g, lo, hi in zip(coords, graphs, ends - VIEW_SIZES, ends):
            assert np.array_equal(z.data[:, lo:hi], model.extract_features(c, g).data)
            (_, _, chunk), = model.feature_chunks(c, g)
            assert np.array_equal(z.data[:, lo:hi], chunk)

    def test_an_inactive_hidden_unit_passes_no_gradient(self):
        model, coords, graphs, weight = _view_case(24)
        # unit 0 of each hidden layer is below zero at every point
        model.b1.data[0] = -1e6
        model.b2.data[0] = -1e6
        grads = _extractor_grads(model, ad.sum_all(ad.mul(model.view_features(coords, graphs),
                                                          weight)))
        for name in ("enc1.w", "enc1.b", "enc2.w", "enc2.b"):
            assert not grads[name][0].any(), name
            assert grads[name][1:].any(), name
        # layer 2's unit 0 reads a dead input, so its column passes nothing
        assert not grads["enc2.w"][:, 0].any()

    def test_a_graph_keeps_the_transpose_its_first_backward_builds(self):
        rng = np.random.default_rng(9)
        model = SegmentationModel(ModelConfig(), 3, 2, rng)
        coords = rng.normal(size=(300, 3))
        nb = knn_indices(coords, 16)
        graph = ad.NeighbourGraph(nb)
        z = model.view_features([coords], [graph])
        assert graph.reverse is None  # a forward pass builds none
        ad.backward(ad.sum_all(z))
        kept = graph.reverse
        fresh = ad._reverse_passes(nb, 300)
        assert kept[0].dtype == kept[1].dtype == np.uint16
        assert kept[1].nbytes == 2 * nb.size
        for got, want in zip(kept[:2], fresh[:2]):
            assert np.array_equal(got, want)
        assert np.array_equal(kept[2], fresh[2])
        ad.backward(ad.sum_all(model.view_features([coords], [graph])))
        assert graph.reverse is kept  # every later pass reuses it

    def test_a_backward_pass_spends_the_node(self):
        model, coords, graphs, weight = _view_case(25)
        z = model.view_features(coords, graphs)
        assert z._parents == tuple(model.tensors[:6])
        ad.backward(ad.sum_all(ad.mul(z, weight)))
        assert z._parents is None and z._backward is None
        with pytest.raises(ValueError, match="an earlier backward spent"):
            ad.backward(ad.sum_all(z))

    def test_no_tape_records_nothing(self):
        model, coords, graphs, _ = _view_case(26)
        with ad.no_tape():
            z = model.view_features(coords, graphs)
        assert z._parents == () and z._backward is None
        assert np.array_equal(z.data, model.view_features(coords, graphs).data)

    def test_a_graph_list_of_another_length_is_refused(self):
        model, coords, graphs, _ = _view_case(27)
        with pytest.raises(ValueError, match="zip"):
            model.view_features(coords, graphs[:-1])

    @pytest.mark.parametrize("m", [1, 5])
    def test_a_missing_graph_is_built_for_its_scene(self, m):
        model, coords, graphs, _ = _view_case(28)
        scene = np.random.default_rng(m).normal(size=(m, 3))
        built = model.view_features(coords + [scene], graphs + [None])
        given = model.view_features(coords + [scene],
                                    graphs + [ad.NeighbourGraph(knn_indices(scene, 3))])
        assert np.array_equal(built.data, given.data)
