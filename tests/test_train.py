"""Training loop: smoke, determinism, isolation, full-loss gradients."""

import dataclasses
import io

import numpy as np
import pytest

from segdiscover import autodiff as ad
from segdiscover.data import LabelledCloud, generate_synthetic, toy_discovery_config
from segdiscover.losses import TrainConfig, compute_loss_weights, sum_tensors, weighted_ce
from segdiscover.model import ModelConfig, SegmentationModel
from segdiscover.queueing import QueueConfig
from segdiscover.train import (
    DiscoveryConfig,
    ExperimentConfig,
    METRICS_HEADER,
    SinkhornConfig,
    train,
)


def tiny_setup(seed=0, scenes=6, points=48):
    cfg = toy_discovery_config(seed=seed, n_scenes=scenes, points_per_scene=points)
    clouds = generate_synthetic(cfg)
    return clouds, cfg.split()


def tiny_exp(seed=0, epochs=2, **discovery):
    return ExperimentConfig(
        model=ModelConfig(feature_dim=8, hidden=16, knn=4, heads=2, overcluster_factor=2),
        train=TrainConfig(epochs=epochs, batch_size=2, seed=seed),
        queue=QueueConfig(capacity=64, sample_per_class=8),
        discovery=DiscoveryConfig(**discovery) if discovery else DiscoveryConfig(),
    )


class TestSmoke:
    def test_one_epoch_runs_and_loss_is_finite(self):
        clouds, split = tiny_setup()
        result = train(clouds, split, tiny_exp(epochs=1))
        assert len(result.metrics) == 1
        assert np.isfinite(result.metrics[0]["loss"])
        assert 0 <= result.selected_head < 2

    def test_metrics_tsv_format(self):
        clouds, split = tiny_setup()
        result = train(clouds, split, tiny_exp(epochs=2))
        lines = result.metrics_tsv().strip().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 7 for line in lines[1:])

    def test_component_toggles_run(self):
        clouds, split = tiny_setup()
        for toggles in (
            dict(use_queue=False, phi_queue=False, tau_train=False, overcluster=False),
            dict(use_queue=True, phi_queue=False, tau_train=False, overcluster=True),
            dict(use_queue=True, phi_queue=True, tau_train=True, overcluster=True),
        ):
            result = train(clouds, split, tiny_exp(epochs=1, **toggles))
            assert np.isfinite(result.metrics[0]["loss"])

    def test_base_only_batches_are_supervised_ce(self):
        # a dataset with no novel points still trains (novel head idle)
        clouds, split = tiny_setup()
        base_only = [
            LabelledCloud(c.coords, np.where(np.isin(c.labels, [3, 4]), 0, c.labels), c.scene_id)
            for c in clouds
        ]
        result = train(base_only, split, tiny_exp(epochs=1))
        assert np.isfinite(result.metrics[0]["loss"])


    @pytest.mark.parametrize("lr_max, message", [
        # parameters stay finite at 1e300, but the next forward overflows
        (1e300, r"features went non-finite after the SGD step at lr 1e\+300"),
        (1e308, r"SGD step at lr 1e\+308 left parameter \S+ non-finite"),
    ])
    def test_a_diverging_run_stops_where_it_diverges(self, lr_max, message):
        clouds, split = tiny_setup()
        cfg = dataclasses.replace(tiny_exp(epochs=2), train=TrainConfig(
            epochs=2, batch_size=2, lr_max=lr_max))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
            train(clouds, split, cfg)


class TestDeterminism:
    def test_fixed_seed_identical_metrics(self):
        clouds, split = tiny_setup()
        a = train(clouds, split, tiny_exp(seed=3))
        b = train(clouds, split, tiny_exp(seed=3))
        assert a.metrics_tsv() == b.metrics_tsv()

    def test_fixed_seed_identical_checkpoints(self, tmp_path):
        clouds, split = tiny_setup()
        a = train(clouds, split, tiny_exp(seed=4))
        b = train(clouds, split, tiny_exp(seed=4))
        a.model.save(tmp_path / "a.ckpt")
        b.model.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_different_seed_differs(self):
        clouds, split = tiny_setup()
        a = train(clouds, split, tiny_exp(seed=0))
        b = train(clouds, split, tiny_exp(seed=5))
        assert a.metrics_tsv() != b.metrics_tsv()


class TestSupervisionIsolation:
    def test_novel_label_permutation_leaves_checkpoint_unchanged(self, tmp_path):
        clouds, split = tiny_setup()
        rng = np.random.default_rng(9)
        shuffled = []
        for c in clouds:
            labels = c.labels.copy()
            novel = np.flatnonzero(np.isin(labels, [3, 4]))
            labels[novel] = rng.permutation(labels[novel])
            shuffled.append(LabelledCloud(c.coords, labels, c.scene_id))
        # evaluation metrics may differ (they read ground truth), the
        # trained parameters must not
        a = train(clouds, split, tiny_exp(seed=1), val_clouds=clouds)
        b = train(shuffled, split, tiny_exp(seed=1), val_clouds=clouds)
        a.model.save(tmp_path / "a.ckpt")
        b.model.save(tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_masked_labels_asserted_in_batches(self):
        clouds, split = tiny_setup()
        result = train(clouds, split, tiny_exp(epochs=1))
        assert result is not None  # assertion inside the loop did not fire


class TestFullLossGradient:
    def test_swapped_loss_through_model_matches_finite_differences(self):
        # 2 scenes x 16 points, targets held fixed while parameters move
        clouds, split = tiny_setup(scenes=2, points=16)
        from segdiscover.data import mask_novel
        from segdiscover.model import knn_indices
        from segdiscover.losses import one_hot
        from segdiscover.train import _BatchView, _swapped_term
        from segdiscover.augment import AugmentConfig, make_views
        from segdiscover.sinkhorn import sinkhorn_assign, pseudo_labels_from

        masked = mask_novel(clouds, split)
        model_cfg = ModelConfig(feature_dim=8, hidden=12, knn=4, heads=2, overcluster_factor=2)
        rng = np.random.default_rng(0)
        model = SegmentationModel(model_cfg, 3, 2, rng)
        aug = AugmentConfig()
        pairs = [make_views(c, rng, aug) for c in masked]
        neigh = [knn_indices(c.coords, 4) for c in masked]
        base_order = [0, 1, 2]
        weights = compute_loss_weights(masked, split).vector(base_order, 2)

        def build_views():
            return (
                _BatchView(model, [p.view_a for p in pairs], neigh),
                _BatchView(model, [p.view_b for p in pairs], neigh),
            )

        # freeze pseudo-label targets once (constants for the gradient)
        views = build_views()
        targets = [dict(), dict()]
        for vi, view in enumerate(views):
            scores = model.novel_p[0].data.T @ view.z.data[:, view.novel_idx]
            dist = pseudo_labels_from(sinkhorn_assign(scores, 0.3, 3), view.novel_idx.size)
            targets[vi][0] = (np.arange(dist.shape[1]), dist)

        def loss_value():
            vs = build_views()
            base_onehot = [one_hot(v.labels[v.base_idx], base_order, 3) for v in vs]
            logits = [
                ad.concat_rows([model.base_logits(v.z), model.novel_logits(v.z, 0)])
                for v in vs
            ]
            return _swapped_term(vs, logits, base_onehot, targets, 0, 3, 2, weights, 0.2)

        loss = loss_value()
        ad.backward(loss)
        params = model.parameters()
        grad_rng = np.random.default_rng(1)
        worst = 0.0
        for name, p in params.items():
            if name.startswith("over"):
                continue  # over heads unused in this single-head loss
            for flat in grad_rng.choice(p.data.size, size=min(3, p.data.size), replace=False):
                flat = int(flat)
                orig = p.data.flat[flat]
                p.data.flat[flat] = orig + 1e-4
                up = float(loss_value().data[0, 0])
                p.data.flat[flat] = orig - 1e-4
                down = float(loss_value().data[0, 0])
                p.data.flat[flat] = orig
                fd = (up - down) / 2e-4
                an = p.grad.flat[flat]
                rel = abs(an - fd) / max(abs(an), abs(fd), 1e-4)
                worst = max(worst, rel)
        assert worst < 1e-3

    def test_step_loss_and_gradients_match_a_single_op_reference(self):
        self._check_step_loss_against_single_ops(overcluster=True)

    def test_step_loss_with_only_the_novel_family_matches_a_single_op_reference(self):
        # overcluster off: no over-clustering rows, terms or gradients
        self._check_step_loss_against_single_ops(overcluster=False)

    def _check_step_loss_against_single_ops(self, overcluster):
        # the stacked-head, fused-CE step against each head's logits and
        # cross entropy built from the public single ops
        from segdiscover.augment import AugmentConfig, make_views
        from segdiscover.data import mask_novel
        from segdiscover.model import knn_indices
        from segdiscover.train import _BatchView, _pseudo_label, _step_loss

        clouds, split = tiny_setup(scenes=3, points=48)
        masked = mask_novel(clouds, split)
        heads, temperature = 3, 0.2
        model_cfg = ModelConfig(feature_dim=8, hidden=12, knn=4, heads=heads, overcluster_factor=2)
        model = SegmentationModel(model_cfg, 3, 2, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        pairs = [make_views(c, rng, AugmentConfig()) for c in masked]
        neigh = [knn_indices(c.coords, 4) for c in masked]
        base_order = sorted(split.base_classes)
        weights = compute_loss_weights(masked, split)
        w_novel, w_over = weights.vector(base_order, 2), weights.vector(base_order, 4)

        def build_views():
            return (
                _BatchView(model, [p.view_a for p in pairs], neigh),
                _BatchView(model, [p.view_b for p in pairs], neigh),
            )

        views = build_views()
        families = [(model.novel_p, w_novel, False), (model.over_p, w_over, True)]
        if not overcluster:
            families = families[:1]
        targets, over_targets = [{}, {}], [{}, {}]
        no_queue = np.zeros((0, 0))
        for vi, view in enumerate(views):
            z_novel = view.z.data[:, view.novel_idx]
            for h in range(heads):
                targets[vi][h] = _pseudo_label(
                    model.novel_p[h].data, z_novel, no_queue, 0.3, 3, 0.5, True)
                over_targets[vi][h] = _pseudo_label(
                    model.over_p[h].data, z_novel, no_queue, 0.3, 3, 0.5, True)
        assert all(0 < t[0].size < t[1].shape[1] for t in targets[0].values())
        total, head_vals = _step_loss(
            model, views, [targets, over_targets][:len(families)], families, base_order,
            temperature,
        )
        params = model.parameters()
        ad.backward(total)
        got = {name: p.grad.copy() for name, p in params.items()}
        for p in params.values():
            p.zero_grad()

        vs = build_views()
        terms, ref_head_vals = [], np.zeros(heads)
        ref_families = [(model.novel_logits, targets, w_novel),
                        (model.over_logits, over_targets, w_over)]
        for h in range(heads):
            for head_logits, tg, w in ref_families[:len(families)]:
                for vi, other in ((0, 1), (1, 0)):
                    v = vs[vi]
                    kept, dist = tg[other][h]
                    cols = np.concatenate([v.base_idx, vs[other].novel_idx[kept]])
                    target = np.zeros((3 + dist.shape[0], cols.size))
                    base_rows = [base_order.index(c) for c in v.labels[v.base_idx]]
                    target[base_rows, np.arange(v.base_idx.size)] = 1.0
                    target[3:, v.base_idx.size:] = dist[:, kept]
                    logits = ad.concat_rows([model.base_logits(v.z), head_logits(v.z, h)])
                    pred = ad.softmax_cols(ad.mul(ad.gather_cols(logits, cols), 1.0 / temperature))
                    terms.append(weighted_ce(pred, target, w))
                    if head_logits == model.novel_logits:
                        ref_head_vals[h] += float(terms[-1].data[0, 0])
        reference = ad.mul(sum_tensors(terms), 1.0 / heads)
        ad.backward(reference)

        np.testing.assert_allclose(total.data, reference.data, rtol=1e-10)
        np.testing.assert_allclose(head_vals, ref_head_vals, rtol=1e-10)
        for name, p in params.items():
            if name.startswith("over") and not overcluster:
                assert not np.any(got[name]), name
                continue
            assert np.abs(p.grad).max() > 0.0, name
            np.testing.assert_allclose(
                got[name], p.grad, rtol=1e-10, atol=1e-10 * np.abs(p.grad).max(), err_msg=name
            )

    def test_loss_is_non_negative(self):
        clouds, split = tiny_setup()
        result = train(clouds, split, tiny_exp(epochs=1))
        assert result.metrics[0]["loss"] >= 0.0


class TestScheduleWiring:
    def test_eps_column_follows_schedule(self):
        clouds, split = tiny_setup()
        exp = dataclasses.replace(
            tiny_exp(epochs=3), sinkhorn=SinkhornConfig(eps_start=0.3, eps_end=0.05)
        )
        result = train(clouds, split, exp)
        eps = [row["eps"] for row in result.metrics]
        assert eps[0] == pytest.approx(0.3)
        assert eps[-1] == pytest.approx(0.05)
        assert eps == sorted(eps, reverse=True)

    def test_log_stream(self):
        clouds, split = tiny_setup()
        stream = io.StringIO()
        train(clouds, split, tiny_exp(epochs=1), log=stream)
        assert "epoch 0" in stream.getvalue()
