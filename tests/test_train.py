"""Training loop: smoke, determinism, isolation, full-loss gradients."""

import dataclasses
import io

import numpy as np
import pytest

from segdiscover import autodiff as ad
from segdiscover.data import UNLABELLED, LabelledCloud, generate_synthetic, toy_discovery_config
from segdiscover.losses import (
    LOG_FLOOR,
    TrainConfig,
    compute_loss_weights,
    one_hot,
    weighted_ce,
)
from segdiscover.model import ModelConfig, SegmentationModel
from segdiscover.queueing import QueueConfig
from segdiscover.train import (
    DiscoveryConfig,
    ExperimentConfig,
    METRICS_HEADER,
    SinkhornConfig,
    TrainResult,
    _features,
    _step_loss,
    train,
)


def sum_tensors(terms):
    """A chain of adds, left to right: the reference composition's sum."""
    acc = terms[0]
    for t in terms[1:]:
        acc = ad.add(acc, t)
    return acc


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
        assert 0 <= result.model.selected_head < 2

    def test_metrics_tsv_format(self):
        clouds, split = tiny_setup()
        result = train(clouds, split, tiny_exp(epochs=2))
        lines = result.metrics_tsv().strip().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3
        assert all(len(line.split("\t")) == 7 for line in lines[1:])

    def test_metrics_tsv_exact_text(self):
        rows = [
            {"epoch": 0, "loss": 1.23456789, "lr": 0.000123456789, "eps": 0.3,
             "novel_mIoU": 0.56789, "base_mIoU": 1.0, "all_mIoU": 0.0},
            {"epoch": 1, "loss": 0.5, "lr": 0.01, "eps": 0.05,
             "novel_mIoU": 0.25, "base_mIoU": 0.123456, "all_mIoU": 0.99999},
        ]
        text = TrainResult(None, rows, np.zeros(2)).metrics_tsv()
        assert text == (
            "epoch\tloss\tlr\teps\tnovel_mIoU\tbase_mIoU\tall_mIoU\n"
            "0\t1.234568\t0.00012346\t0.300000\t0.5679\t1.0000\t0.0000\n"
            "1\t0.500000\t0.01000000\t0.050000\t0.2500\t0.1235\t1.0000\n"
        )

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


class TestHeadEntries:
    def test_head_losses_are_the_final_epochs_mean_novel_terms(self, monkeypatch, tmp_path):
        import segdiscover.train as train_mod

        step_loss, steps = train_mod._step_loss, []

        def recording(model, zs, targets, entries, *rest):
            # summing order; the novel entries are every other one
            names = [p.name for p, _, _ in entries]
            assert names == ["novel0.p", "over0.p", "novel1.p", "over1.p"]
            total, head_vals = step_loss(model, zs, targets, entries, *rest)
            steps.append(head_vals.copy())
            return total, head_vals

        monkeypatch.setattr(train_mod, "_step_loss", recording)
        clouds, split = tiny_setup(scenes=7)  # 4 batches of at most 2 scenes
        result = train(clouds, split, tiny_exp(epochs=3))
        assert len(steps) == 12 and all(v.shape == (2,) for v in steps)
        final = np.mean(steps[-4:], axis=0)
        np.testing.assert_allclose(result.head_losses, final, rtol=1e-12)
        assert result.model.selected_head == int(np.argmin(final))
        result.model.save(tmp_path / "c.ckpt")
        meta = ad.load_checkpoint(tmp_path / "c.ckpt")["meta.selected_head"]
        assert meta.reshape(-1).tolist() == [float(result.model.selected_head)]


    def test_queue_takes_the_first_novel_heads_kept_points(self, monkeypatch):
        import segdiscover.train as train_mod
        from segdiscover.queueing import FeatureQueue

        pseudo, inserts = train_mod._pseudo_label, []
        labelled = []  # per call: (z_novel, (kept, dists))

        def recording_label(prototypes, z_novel, *rest):
            labelled.append((z_novel, pseudo(prototypes, z_novel, *rest)))
            return labelled[-1][1]

        insert = FeatureQueue.insert

        def recording_insert(self, features, classes, *rest):
            inserts.append((features.copy(), np.asarray(classes).copy(), len(labelled)))
            return insert(self, features, classes, *rest)

        monkeypatch.setattr(train_mod, "_pseudo_label", recording_label)
        monkeypatch.setattr(FeatureQueue, "insert", recording_insert)
        clouds, split = tiny_setup()
        train(clouds, split, tiny_exp(epochs=1))  # 2 heads, over on: 4 entries
        assert inserts
        for features, classes, calls in inserts:
            # the view's first labelling call is entry 0, novel head 0
            z_novel, (kept, dists) = labelled[calls - 4]
            np.testing.assert_array_equal(features, z_novel[:, kept])
            np.testing.assert_array_equal(classes, dists[:, kept].argmax(axis=0))


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


def batch_layout(masked, base_order):
    """One batch's labels, base and novel columns and base one-hot, the
    layout both views share."""
    labels = np.concatenate([c.labels for c in masked])
    base_idx = np.flatnonzero(labels != UNLABELLED)
    novel_idx = np.flatnonzero(labels == UNLABELLED)
    return labels, base_idx, novel_idx, one_hot(labels[base_idx], base_order, len(base_order))


def view_features(model, pairs, neigh):
    return [_features(model, views, neigh) for views in zip(*pairs)]


def step_case(heads, overcluster):
    """A 3-scene batch as ``train`` hands it to ``_step_loss``: views,
    graphs, label layout, each view's features, pseudo-labels per head
    and family, and the flat entry list with its targets."""
    from types import SimpleNamespace

    from segdiscover.augment import AugmentConfig, make_views
    from segdiscover.data import mask_novel
    from segdiscover.train import _pseudo_label

    clouds, split = tiny_setup(scenes=3, points=48)
    masked = mask_novel(clouds, split)
    model_cfg = ModelConfig(feature_dim=8, hidden=12, knn=4, heads=heads, overcluster_factor=2)
    model = SegmentationModel(model_cfg, 3, 2, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    pairs = [make_views(c, rng, AugmentConfig()) for c in masked]
    neigh = [c.neighbours(4) for c in masked]
    base_order = sorted(split.base_classes)
    weights = compute_loss_weights(masked, split)
    w_novel, w_over = weights.vector(base_order, 2), weights.vector(base_order, 4)
    labels, base_idx, novel_idx, base_onehot = batch_layout(masked, base_order)

    zs = view_features(model, pairs, neigh)
    targets, over_targets = [{}, {}], [{}, {}]
    no_queue = np.zeros((0, 0))
    for vi, z in enumerate(zs):
        z_novel = z.data[:, novel_idx]
        for h in range(heads):
            targets[vi][h] = _pseudo_label(
                model.novel_p[h].data, z_novel, no_queue, 0.3, 3, 0.5, True)
            over_targets[vi][h] = _pseudo_label(
                model.over_p[h].data, z_novel, no_queue, 0.3, 3, 0.5, True)
    assert all(0 < t[0].size < t[1].shape[1] for t in targets[0].values())
    # the flat entry list in summing order: novel_0, over_0, novel_1, ...
    entries, flat_targets = [], [[], []]
    for h in range(heads):
        entries.append((model.novel_p[h], w_novel, model.head_rows(h)))
        for vi in range(2):
            flat_targets[vi].append(targets[vi][h])
        if overcluster:
            entries.append((model.over_p[h], w_over, model.head_rows(h, over=True)))
            for vi in range(2):
                flat_targets[vi].append(over_targets[vi][h])
    return SimpleNamespace(
        model=model, pairs=pairs, neigh=neigh, zs=zs, labels=labels, base_idx=base_idx,
        novel_idx=novel_idx, base_onehot=base_onehot, base_order=base_order, targets=targets,
        over_targets=over_targets, entries=entries, flat_targets=flat_targets,
        w_novel=w_novel, w_over=w_over,
    )


class TestFullLossGradient:
    def test_swapped_loss_through_model_matches_finite_differences(self):
        # 2 scenes x 16 points, every novel and over-clustering entry of
        # the step; targets held fixed while parameters move
        clouds, split = tiny_setup(scenes=2, points=16)
        from segdiscover.data import mask_novel
        from segdiscover.augment import AugmentConfig, make_views
        from segdiscover.sinkhorn import sinkhorn_assign, pseudo_labels_from

        masked = mask_novel(clouds, split)
        model_cfg = ModelConfig(feature_dim=8, hidden=12, knn=4, heads=2, overcluster_factor=2)
        rng = np.random.default_rng(0)
        model = SegmentationModel(model_cfg, 3, 2, rng)
        aug = AugmentConfig()
        pairs = [make_views(c, rng, aug) for c in masked]
        neigh = [c.neighbours(4) for c in masked]
        base_order = [0, 1, 2]
        weights = compute_loss_weights(masked, split)
        w_novel, w_over = weights.vector(base_order, 2), weights.vector(base_order, 4)
        entries = []
        for h in range(2):
            entries.append((model.novel_p[h], w_novel, model.head_rows(h)))
            entries.append((model.over_p[h], w_over, model.head_rows(h, over=True)))
        _, base_idx, novel_idx, base_onehot = batch_layout(masked, base_order)

        # freeze pseudo-label targets once (constants for the gradient)
        targets = []
        for z in view_features(model, pairs, neigh):
            targets.append([])
            for p, _, _ in entries:
                scores = p.data.T @ z.data[:, novel_idx]
                dist = pseudo_labels_from(sinkhorn_assign(scores, 0.3, 3), novel_idx.size)
                targets[-1].append((np.arange(dist.shape[1]), dist))

        def loss_value():
            zs = view_features(model, pairs, neigh)
            return _step_loss(
                model, zs, targets, entries, base_idx, novel_idx, base_onehot, 0.2
            )[0]

        loss = loss_value()
        ad.backward(loss)
        params = model.parameters()
        grad_rng = np.random.default_rng(1)
        worst = 0.0
        for name, p in params.items():
            if name.startswith("over"):
                continue  # checked against the single-op reference below
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
        # the stacked-head, fused-CE step over the flat entry list against
        # each head's logits and cross entropy built from the public single ops
        heads, temperature = 3, 0.2
        c = step_case(heads, overcluster)
        model, pairs, neigh, zs = c.model, c.pairs, c.neigh, c.zs
        labels, base_idx, novel_idx, base_onehot = c.labels, c.base_idx, c.novel_idx, c.base_onehot
        targets, over_targets, base_order = c.targets, c.over_targets, c.base_order
        entries, flat_targets, w_novel, w_over = c.entries, c.flat_targets, c.w_novel, c.w_over
        total, head_vals = _step_loss(
            model, zs, flat_targets, entries, base_idx, novel_idx, base_onehot, temperature
        )
        params = model.parameters()
        ad.backward(total)
        got = {name: p.grad.copy() for name, p in params.items()}
        for p in params.values():
            p.zero_grad()

        zs = view_features(model, pairs, neigh)
        terms, ref_head_vals = [], np.zeros(heads)
        ref_families = [(model.novel_logits, targets, w_novel),
                        (model.over_logits, over_targets, w_over)]
        for h in range(heads):
            for head_logits, tg, w in ref_families[:2 if overcluster else 1]:
                for vi, other in ((0, 1), (1, 0)):
                    kept, dist = tg[other][h]
                    cols = np.concatenate([base_idx, novel_idx[kept]])
                    target = np.zeros((3 + dist.shape[0], cols.size))
                    base_rows = [base_order.index(c) for c in labels[base_idx]]
                    target[base_rows, np.arange(base_idx.size)] = 1.0
                    target[3:, base_idx.size:] = dist[:, kept]
                    logits = ad.concat_rows([model.base_logits(zs[vi]), head_logits(zs[vi], h)])
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


def chain_features(model, coords, neighbours):
    """The extractor composed from single ops: one node each for every
    layer's product, bias sum and ReLU, and the projection as products
    with ``gather_cols`` halves of ``proj.w``, the second one pooled."""
    x = ad.constant(coords.T)
    h1 = ad.relu(ad.add(ad.matmul(model.w1, x), model.b1))
    h2 = ad.relu(ad.add(ad.matmul(model.w2, h1), model.b2))
    n = h2.shape[0]
    own = ad.matmul(ad.gather_cols(model.w3, np.arange(n)), h2)
    pooled = ad.neighbour_mean(
        ad.matmul(ad.gather_cols(model.w3, np.arange(n, 2 * n)), h2), neighbours)
    return ad.l2_normalize_cols(ad.add(ad.add(own, pooled), model.b3))


def concat_features(model, coords, neighbours):
    """The extractor as composed before the projection took the pooling:
    ``proj.w`` times the hidden features with their neighbour mean
    stacked under them."""
    x = ad.constant(coords.T)
    h1 = ad.matmul(model.w1, x, bias=model.b1, relu=True)
    h2 = ad.matmul(model.w2, h1, bias=model.b2, relu=True)
    cat = ad.concat_rows([h2, ad.neighbour_mean(h2, neighbours)])
    return ad.l2_normalize_cols(ad.matmul(model.w3, cat, bias=model.b3))


def per_entry_step_loss(model, zs, targets, entries, base_idx, novel_idx, base_onehot,
                        temperature):
    """``_step_loss`` composed one cross entropy node per entry and view,
    the pairs and then the entries added by a chain of ``add`` nodes."""
    n_base, heads = model.n_base, model.cfg.heads
    w_stack, b_stack = model.stacked_heads(len(entries) > heads)
    logits = [ad.add(ad.matmul(w_stack, z), b_stack) for z in zs]
    terms = []
    for e, (_, w_vec, rows) in enumerate(entries):
        pair = []
        for vi, other in ((0, 1), (1, 0)):
            kept, dist = targets[other][e]
            cols = np.concatenate([base_idx, novel_idx[kept]])
            if cols.size == 0:
                continue
            target = np.zeros((rows.size, cols.size))
            target[:n_base, :base_idx.size] = base_onehot
            target[n_base:, base_idx.size:] = dist[:, kept]
            pair.append(ad.softmax_cross_entropy(
                logits[vi], [(rows, cols, target, w_vec)], scale=1.0 / temperature,
                floor=LOG_FLOOR,
            ))
        terms.append(sum_tensors(pair) if pair else ad.constant(0.0))
    head_vals = np.array([float(t.data[0, 0]) for t in terms[::len(entries) // heads]])
    return ad.mul(sum_tensors(terms), 1.0 / heads), head_vals


class TestStepLossBits:
    @pytest.mark.parametrize("heads, overcluster", [(3, True), (3, False), (1, True)])
    def test_gradients_equal_the_per_entry_composition_bit_for_bit(self, heads, overcluster):
        c = step_case(heads, overcluster)
        model, params = c.model, c.model.parameters()
        layout = (c.entries, c.base_idx, c.novel_idx, c.base_onehot, 0.2)
        total, head_vals = _step_loss(model, c.zs, c.flat_targets, *layout)
        ad.backward(total)
        got = {name: p.grad.copy() for name, p in params.items()}
        for p in params.values():
            p.zero_grad()

        for features in (chain_features, concat_features):
            zs = [ad.concat_cols([features(model, coords, nb)
                                  for coords, nb in zip(views, c.neigh)])
                  for views in zip(*c.pairs)]
            reference, ref_head_vals = per_entry_step_loss(model, zs, c.flat_targets, *layout)
            ad.backward(reference)
            ref_grads = {name: p.grad.copy() for name, p in params.items()}
            for p in params.values():
                p.zero_grad()
            if features is chain_features:
                assert np.array_equal(total.data, reference.data)
                assert np.array_equal(head_vals, ref_head_vals)
                for name in params:
                    assert np.array_equal(got[name], ref_grads[name]), name
            else:
                # pooling the projection, not the hidden layer, reorders
                # the sums: equal up to rounding
                np.testing.assert_allclose(total.data, reference.data, rtol=1e-10)
                np.testing.assert_allclose(head_vals, ref_head_vals, rtol=1e-10)
                for name, g in ref_grads.items():
                    np.testing.assert_allclose(got[name], g, rtol=1e-10,
                                               atol=1e-10 * np.abs(g).max(), err_msg=name)


def tape_size(output):
    """The number of recorded (non-leaf) nodes a backward from ``output``
    would visit."""
    seen, stack = set(), [output]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class TestOneTapePerStep:
    def test_no_loss_node_of_a_step_outlives_it(self, monkeypatch):
        import weakref

        import segdiscover.train as train_mod

        ce, features = train_mod.tempered_ce, train_mod._features
        made, alive = [], []

        def tracked_ce(*args, **kwargs):
            out = ce(*args, **kwargs)
            # Tensor has no weakref slot; its .data dies with it
            made.append(weakref.ref(out.data))
            return out

        def checked_features(*args, **kwargs):
            # no CE node of this step exists yet: every one made is old
            alive.append(sum(ref() is not None for ref in made))
            return features(*args, **kwargs)

        monkeypatch.setattr(train_mod, "tempered_ce", tracked_ce)
        monkeypatch.setattr(train_mod, "_features", checked_features)
        clouds, split = tiny_setup(scenes=7)  # 4 steps per epoch
        train(clouds, split, tiny_exp(epochs=2))
        # one CE node per view: 8 steps x 2
        assert len(made) == 8 * 2 and len(alive) == 2 * 8
        assert alive == [0] * len(alive)

    @pytest.mark.parametrize("heads, overcluster", [
        (1, False), (1, True), (5, False), (5, True), (10, False), (10, True),
    ])
    def test_a_step_makes_two_ce_nodes_whatever_the_head_count(self, monkeypatch, heads,
                                                                overcluster):
        counts = {"ce": 0, "nodes": [], "steps": 0}
        real_ce, real_backward = ad.softmax_cross_entropy, ad.backward

        def counted_ce(*args, **kwargs):
            out = real_ce(*args, **kwargs)
            counts["ce"] += out._backward is not None
            return out

        def counted_backward(loss):
            counts["steps"] += 1
            counts["nodes"].append(tape_size(loss))
            return real_backward(loss)

        monkeypatch.setattr(ad, "softmax_cross_entropy", counted_ce)
        monkeypatch.setattr(ad, "backward", counted_backward)
        clouds, split = tiny_setup(scenes=4)
        exp = ExperimentConfig(
            model=ModelConfig(heads=heads),
            train=TrainConfig(epochs=2, batch_size=4),
            discovery=DiscoveryConfig(overcluster=overcluster),
        )
        train(clouds, split, exp)
        assert counts["steps"] == 2 and counts["ce"] == 2 * 2
        # 8 extractor passes of 4 nodes (two hidden layers, the pooled
        # projection, the normalization), 2 batch concatenations, 4 for
        # the stacked heads: one column concatenation, one transpose, two
        # row concatenations; 2 logit matmuls, 2 CE nodes, their sum and
        # the ordered total
        assert counts["nodes"] == [44, 44]

    def test_a_step_of_four_512_point_scenes_stays_under_29_mb(self):
        # one step plus the epoch's evaluation at the default model. The
        # bound sits between the tracemalloc peaks of a tape with a node
        # each for every layer's product, bias sum and ReLU and a CE node
        # per entry and view (34.0 MB) and of one node per layer and one
        # CE node per view (23.6 MB)
        import tracemalloc

        cfg = toy_discovery_config(seed=0, n_scenes=4, points_per_scene=512)
        clouds = generate_synthetic(cfg)
        exp = ExperimentConfig(train=TrainConfig(epochs=1, batch_size=4))
        tracemalloc.start()
        try:
            train(clouds, cfg.split(), exp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 29e6, f"peak {peak / 1e6:.1f} MB"

    def test_scoring_the_training_scenes_reuses_their_graphs(self, monkeypatch):
        import segdiscover.model as model_mod

        real, calls = model_mod.knn_indices, []

        def counted(coords, k):
            calls.append(len(coords))
            return real(coords, k)

        monkeypatch.setattr(model_mod, "knn_indices", counted)
        clouds, split = tiny_setup(scenes=7)
        train(clouds, split, tiny_exp(epochs=1))
        assert calls == [c.n_points for c in clouds]

        # dropping ignore-labelled points gives that one scene a training
        # graph of its own; every other scene keeps its one graph
        calls.clear()
        clouds, split = tiny_setup(scenes=7)
        ignored = [LabelledCloud(clouds[0].coords, np.where(np.arange(48) < 5, 9, clouds[0].labels),
                                 clouds[0].scene_id)] + clouds[1:]
        train(ignored, split, tiny_exp(epochs=1), ignore_label=9)
        assert calls == [43] + [48] * 6 + [48]


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
