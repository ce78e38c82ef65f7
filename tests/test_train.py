"""Training loop: smoke, determinism, isolation, full-loss gradients."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdiscover import autodiff as ad
from segdiscover.data import (
    UNLABELLED,
    LabelledCloud,
    SplitSpec,
    generate_synthetic,
    toy_discovery_config,
)
from segdiscover.losses import (
    LOG_FLOOR,
    TrainConfig,
    compute_loss_weights,
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


    def test_an_empty_validation_set_is_refused_before_the_first_step(self, monkeypatch):
        from segdiscover import losses

        def no_step(*args, **kwargs):
            raise AssertionError("an SGD step ran")

        monkeypatch.setattr(losses.SGD, "step", no_step)
        clouds, split = tiny_setup()
        with pytest.raises(ValueError, match="val_clouds is empty"):
            train(clouds, split, tiny_exp(epochs=1), val_clouds=[])

    def test_a_validation_label_outside_the_split_is_refused_before_the_first_step(
            self, monkeypatch):
        from segdiscover import losses

        def no_step(*args, **kwargs):
            raise AssertionError("an SGD step ran")

        monkeypatch.setattr(losses.SGD, "step", no_step)
        clouds, split = tiny_setup()
        val, _ = tiny_setup(seed=1, scenes=2)
        labels = val[1].labels.copy()
        labels[0] = 99
        bad = LabelledCloud(val[1].coords, labels, scene_id="val-1")
        with pytest.raises(ValueError, match=r"^scene 'val-1': label ids \[99\] are neither"):
            train(clouds, split, tiny_exp(epochs=1), val_clouds=[val[0], bad])

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

        def recording(logits, targets, families, *rest):
            # the novel family, then the over-clustering one
            assert families == [(3, 2), (3 + 2 * 2, 4)]
            total, head_vals = step_loss(logits, targets, families, *rest)
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
        self.check_selection_users(monkeypatch, tau_train=True)

    def test_without_tau_train_training_keeps_every_point_and_the_queue_still_filters(
            self, monkeypatch):
        self.check_selection_users(monkeypatch, tau_train=False)

    @staticmethod
    def check_selection_users(monkeypatch, tau_train):
        """Queue inserts take the novel family's head-0 selection; training
        targets take each family's selection only when ``tau_train`` is on."""
        import segdiscover.train as train_mod

        steps = record_steps(monkeypatch)
        step_loss, trained = train_mod._step_loss, []

        def recording(logits, targets, *rest):
            trained.append(targets)
            return step_loss(logits, targets, *rest)

        monkeypatch.setattr(train_mod, "_step_loss", recording)
        clouds, split = tiny_setup()
        # 2 heads, over on: 2 families
        train(clouds, split, tiny_exp(epochs=1, tau_train=tau_train))
        inserted = 0
        for step, targets in zip(steps, trained, strict=True):
            novel = step_novel_idx(step)
            assert len(step["inserts"]) == (2 if novel.size else 0)
            for view, (features, classes) in enumerate(step["inserts"]):
                # the view's first labelling call is the novel family
                kept, dists = step["labelled"][2 * view]
                np.testing.assert_array_equal(features, step["zs"][view][:, novel][:, kept[0]])
                np.testing.assert_array_equal(classes, dists[0][:, kept[0]].argmax(axis=0))
                inserted += 1
                for (k, d), (tk, td) in zip(step["labelled"][2 * view:2 * view + 2], targets[view],
                                            strict=True):
                    assert td is d
                    np.testing.assert_array_equal(tk, k if tau_train else np.ones_like(k))
        assert inserted


def record_steps(monkeypatch):
    """Record, per training step and in call order, what its transport
    reads: the batch's masked labels, each view's features, per head map
    built its families, their prototypes and the Sinkhorn inputs made
    before it, the head map's logit products, each view's queue sample,
    every Sinkhorn input, pseudo-label and queue insert."""
    import segdiscover.train as train_mod
    from segdiscover.queueing import FeatureQueue

    steps = []

    def wrap(owner, name, record):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            record(args, out)
            return out

        monkeypatch.setattr(owner, name, wrapped)

    def views(args, out):
        if not steps or steps[-1]["zs"]:
            steps.append({"labels": [], "zs": [], "heads": [], "logits": [], "queue": [],
                          "scores": [], "labelled": [], "inserts": []})
        steps[-1]["labels"].append(args[0].labels)

    def heads(args, out):
        model, overcluster = args
        kinds = (model.novel_p, model.over_p) if overcluster else (model.novel_p,)
        steps[-1]["heads"].append({
            "map": out[0], "scored_before": len(steps[-1]["scores"]),
            "prototypes": [np.concatenate([p.data for p in kind], axis=1) for kind in kinds],
            "families": model.head_families(overcluster),
        })

    def product(args, out):
        # a product of this step's head map: one logit matrix per view
        if steps and steps[-1]["heads"] and args[0] is steps[-1]["heads"][-1]["map"]:
            steps[-1]["logits"].append(out.data.copy())

    wrap(train_mod, "make_views", views)
    wrap(SegmentationModel, "view_features",
         lambda args, out: steps[-1]["zs"].append(out.data.copy()))
    wrap(SegmentationModel, "stacked_heads", heads)
    wrap(ad, "matmul", product)
    wrap(FeatureQueue, "sample", lambda args, out: steps[-1]["queue"].append(out.copy()))
    wrap(train_mod, "sinkhorn_assign", lambda args, out: steps[-1]["scores"].append(args[0].copy()))
    wrap(train_mod, "_pseudo_label", lambda args, out: steps[-1]["labelled"].append(out))
    wrap(FeatureQueue, "insert", lambda args, out: steps[-1]["inserts"].append(
        (args[1].copy(), np.asarray(args[2]).copy())))
    return steps


def step_novel_idx(step):
    return np.flatnonzero(np.concatenate(step["labels"]) == UNLABELLED)


class TestTransportReadsTheStepLogits:
    def test_a_step_builds_one_head_map_and_one_logit_product_per_view(self, monkeypatch):
        steps = record_steps(monkeypatch)
        clouds, split = tiny_setup(scenes=7)  # 4 steps per epoch
        train(clouds, split, tiny_exp(epochs=2))
        assert len(steps) == 8
        assert [len(step["heads"]) for step in steps] == [1] * 8
        assert [len(step["logits"]) for step in steps] == [2] * 8
        assert any(step["scores"] for step in steps)
        # built before the transport, which reads each family's rows bit for bit
        assert all(step["heads"][0]["scored_before"] == 0 for step in steps)
        for step in steps:
            novel, families = step_novel_idx(step), step["heads"][0]["families"]
            for i, scores in enumerate(step["scores"]):
                view, f = divmod(i, len(families))
                start, width = families[f]
                np.testing.assert_array_equal(
                    scores[:, :novel.size], step["logits"][view][start:start + 2 * width, novel])

    @pytest.mark.parametrize("use_queue", [True, False])
    @pytest.mark.parametrize("overcluster", [True, False])
    def test_every_sinkhorn_input_is_the_prototype_scores(self, monkeypatch, use_queue,
                                                          overcluster):
        # a family's prototypes.T @ [z_novel | queue] per view, the product
        # the transport once computed for itself before it read the step's logits
        steps = record_steps(monkeypatch)
        clouds, split = tiny_setup()
        train(clouds, split, tiny_exp(epochs=2, use_queue=use_queue, overcluster=overcluster))
        checked = queued = 0
        for step in steps:
            novel = step_novel_idx(step)
            prototypes = step["heads"][0]["prototypes"]
            assert len(prototypes) == (2 if overcluster else 1)
            assert len(step["scores"]) == (2 * len(prototypes) if novel.size else 0)
            for i, scores in enumerate(step["scores"]):
                view, f = divmod(i, len(prototypes))
                cols = step["zs"][view][:, novel]
                if use_queue and step["queue"][view].size:
                    cols = np.concatenate([cols, step["queue"][view]], axis=1)
                    queued += 1
                np.testing.assert_allclose(scores, prototypes[f].T @ cols, rtol=1e-12)
                checked += 1
        assert checked and (queued > 0) == use_queue


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

    def test_an_unmasked_label_is_refused_by_the_batch_slot_lookup(self, monkeypatch):
        import segdiscover.train as trainmod

        # with masking skipped, the first batch holding a novel point fails
        # on it instead of training it in a base slot
        monkeypatch.setattr(trainmod, "mask_novel", lambda clouds, split: clouds)
        clouds, split = tiny_setup()
        with pytest.raises(ValueError, match=r"labels \[[34](, 4)?\] are not in the class "
                                             r"order \[0, 1, 2\]"):
            train(clouds, split, tiny_exp(epochs=1))


def shift_ids(clouds, split):
    """``clouds`` and ``split`` with every class id c renamed 10c + 7: the
    ids change, their order does not."""
    def move(ids):
        return frozenset(10 * c + 7 for c in ids)

    moved = [LabelledCloud(c.coords, 10 * c.labels + 7, c.scene_id) for c in clouds]
    return moved, SplitSpec(split.dataset, split.name, move(split.base_classes),
                            move(split.novel_classes))


def assert_same_state(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


class TestClassIdsOnlyByOrder:
    """Both methods read class ids only through their order (the split's
    base slots), so renaming every id in an order-keeping way trains the
    same parameters bit for bit."""

    def test_online_training(self):
        clouds, split = tiny_setup(seed=3, scenes=12, points=64)
        runs = [train(c, s, tiny_exp()) for c, s in ((clouds, split), shift_ids(clouds, split))]
        assert_same_state(runs[0].model.state(), runs[1].model.state())
        assert runs[0].metrics_tsv() == runs[1].metrics_tsv()

    def test_offline_baseline(self):
        from segdiscover.augment import AugmentConfig
        from segdiscover.baseline import BaselineConfig, run_baseline

        clouds, split = tiny_setup(seed=3, scenes=12, points=64)
        exp = tiny_exp()
        runs = [run_baseline(c, s, exp.model, exp.train,
                             BaselineConfig(pretrain_epochs=1, finetune_epochs=1), AugmentConfig())
                for c, s in ((clouds, split), shift_ids(clouds, split))]
        assert_same_state(runs[0][0].state(), runs[1][0].state())
        assert runs[0][1].keys() == runs[1][1].keys()
        for scene, (idx, slots) in runs[0][1].items():
            assert np.array_equal(idx, runs[1][1][scene][0])
            assert np.array_equal(slots, runs[1][1][scene][1])


def _select_phi_per_class(probs, p):
    """One head's selection a class at a time: each class's nearest-rank
    threshold over the confidences of the points it wins."""
    winners, confidence = probs.argmax(axis=0), probs.max(axis=0)
    kept = np.zeros(probs.shape[1], dtype=bool)
    for c in range(probs.shape[0]):
        members = np.flatnonzero(winners == c)
        if members.size:
            tau = np.sort(confidence[members])[max(1, int(np.ceil(p * members.size))) - 1]
            kept[members[confidence[members] >= tau]] = True
    return kept


@st.composite
def family_scores(draw):
    """A family's stacked prototype scores: heads x rho rows over m novel
    and some queue columns, with repeated columns (tied confidences) and
    prototypes that may win no point."""
    heads, rho = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    m, n_queue = draw(st.integers(1, 30)), draw(st.sampled_from([0, 1, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    scores = rng.uniform(-1.0, 1.0, (heads * rho, m + n_queue))
    repeats = rng.integers(0, m + n_queue, draw(st.integers(0, m + n_queue)))
    scores[:, rng.integers(0, m + n_queue, repeats.size)] = scores[:, repeats]
    if draw(st.booleans()):
        scores[rng.integers(0, heads * rho)] -= 10.0  # a prototype that wins nothing
    return scores, heads, m


class TestFamilyTransport:
    @settings(max_examples=150, deadline=None)
    @given(case=family_scores(), p=st.sampled_from([0.0, 0.3, 0.5, 0.9]),
           eps=st.sampled_from([0.05, 0.3]))
    def test_one_call_per_family_equals_the_per_head_chain_bit_for_bit(self, case, p, eps):
        from segdiscover.queueing import select_phi
        from segdiscover.sinkhorn import pseudo_labels_from, sinkhorn_assign
        from segdiscover.train import _pseudo_label

        scores, heads, m = case
        rho = scores.shape[0] // heads
        kept, dists = _pseudo_label(scores, heads, m, eps, 3, p)
        assert kept.shape == (heads, m) and dists.shape == (heads, rho, m)
        for h in range(heads):
            q = sinkhorn_assign(scores[h * rho:(h + 1) * rho], eps, 3)
            dist = pseudo_labels_from(q, m)
            assert np.array_equal(dists[h], dist)
            assert np.array_equal(kept[h], _select_phi_per_class(dist, p))
            assert np.array_equal(kept[h], select_phi(dist, p).kept)
        assert np.array_equal(select_phi(dists, p).kept, kept)
        if p == 0.0:
            assert kept.all()


def batch_layout(masked, split):
    """One batch's labels, base and novel columns and base slots, the
    layout both views share."""
    labels = np.concatenate([c.labels for c in masked])
    base_idx = np.flatnonzero(labels != UNLABELLED)
    novel_idx = np.flatnonzero(labels == UNLABELLED)
    return labels, base_idx, novel_idx, split.base_slots(labels[base_idx])


def view_features(model, pairs, neigh):
    return [model.view_features(views, neigh) for views in zip(*pairs)]


def step_case(heads, overcluster):
    """A 3-scene batch as ``train`` hands it to ``_step_loss``: views,
    graphs, label layout, each view's features and stacked-head logits,
    and per view and family the pseudo-labels (kept, dists)."""
    from types import SimpleNamespace

    from segdiscover.augment import AugmentConfig, make_views
    from segdiscover.data import mask_novel
    from segdiscover.train import _pseudo_label

    clouds, split = tiny_setup(scenes=3, points=48)
    masked = mask_novel(clouds, split)
    model_cfg = ModelConfig(feature_dim=8, hidden=12, knn=4, heads=heads, overcluster_factor=2)
    model = SegmentationModel(model_cfg, 3, 2, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    pairs = [make_views(c, rng, AugmentConfig(), 2) for c in masked]
    neigh = [c.neighbours(4) for c in masked]
    w_base = compute_loss_weights(masked, split)
    labels, base_idx, novel_idx, base_slots = batch_layout(masked, split)
    families = model.head_families(overcluster)
    kinds = (model.novel_p, model.over_p)[:len(families)]

    zs = view_features(model, pairs, neigh)
    targets = []
    for z in zs:
        z_novel = z.data[:, novel_idx]
        targets.append([
            _pseudo_label(np.concatenate([p.data for p in kind], axis=1).T @ z_novel, heads,
                          novel_idx.size, 0.3, 3, 0.5)
            for kind in kinds
        ])
    assert all(0 < kept[h].sum() < novel_idx.size
               for kept, _ in targets[0] for h in range(heads))
    return SimpleNamespace(
        model=model, pairs=pairs, neigh=neigh, zs=zs, logits=step_logits(model, zs, overcluster),
        labels=labels, base_idx=base_idx, novel_idx=novel_idx, base_slots=base_slots,
        w_base=w_base, families=families, targets=targets,
    )


def step_logits(model, zs, overcluster):
    """Each view's stacked-head logits, as ``train`` builds them."""
    w_stack, b_stack = model.stacked_heads(overcluster)
    return [ad.matmul(w_stack, z, bias=b_stack) for z in zs]


def step_loss_of(c, logits, temperature=0.2):
    return _step_loss(logits, c.targets, c.families, c.base_idx, c.base_slots, c.w_base,
                      c.novel_idx, c.model.cfg.heads, temperature)


class TestFullLossGradient:
    def test_swapped_loss_through_model_matches_finite_differences(self):
        # 2 scenes x 16 points, every novel and over-clustering head of
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
        pairs = [make_views(c, rng, aug, 2) for c in masked]
        neigh = [c.neighbours(4) for c in masked]
        w_base = compute_loss_weights(masked, split)
        families = model.head_families(True)
        _, base_idx, novel_idx, base_slots = batch_layout(masked, split)

        # freeze pseudo-label targets once (constants for the gradient)
        targets = []
        for z in view_features(model, pairs, neigh):
            targets.append([])
            for kind in (model.novel_p, model.over_p):
                scores = np.concatenate([p.data for p in kind], axis=1).T @ z.data[:, novel_idx]
                q = sinkhorn_assign(scores, 0.3, 3, 2)
                dists = pseudo_labels_from(q.reshape(2, -1, q.shape[1]), novel_idx.size)
                targets[-1].append((np.ones((2, novel_idx.size), dtype=bool), dists))

        def loss_value():
            logits = step_logits(model, view_features(model, pairs, neigh), True)
            return _step_loss(logits, targets, families, base_idx, base_slots, w_base,
                              novel_idx, 2, 0.2)[0]

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
        # the stacked-head, fused-CE step over the head families against
        # each head's logits and cross entropy built from the public single ops
        heads, temperature = 3, 0.2
        c = step_case(heads, overcluster)
        model, pairs, neigh = c.model, c.pairs, c.neigh
        total, head_vals = step_loss_of(c, c.logits, temperature)
        params = model.parameters()
        ad.backward(total)
        got = {name: p.grad.copy() for name, p in params.items()}
        for p in params.values():
            p.zero_grad()

        zs = view_features(model, pairs, neigh)
        terms, ref_head_vals = [], np.zeros(heads)
        kinds = [(model.novel_logits, np.r_[c.w_base, 1.0, 1.0]),
                 (model.over_logits, np.r_[c.w_base, np.ones(4)])]
        for f, (head_logits, w) in enumerate(kinds[:2 if overcluster else 1]):
            for h in range(heads):
                for vi, other in ((0, 1), (1, 0)):
                    kept, dists = c.targets[other][f]
                    cols = np.concatenate([c.base_idx, c.novel_idx[kept[h]]])
                    target = np.zeros((3 + dists.shape[1], cols.size))
                    target[c.base_slots, np.arange(c.base_idx.size)] = 1.0
                    target[3:, c.base_idx.size:] = dists[h][:, kept[h]]
                    logits = ad.concat_rows([model.base_logits(zs[vi]), head_logits(zs[vi], h)])
                    pred = ad.softmax_cols(ad.mul(ad.gather_cols(logits, cols), 1.0 / temperature))
                    terms.append(weighted_ce(pred, target, w))
                    if f == 0:
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


def dense_pool(a, graph):
    """The neighbour mean P(a) as a product with the graph's dense
    averaging matrix, the numpy reference of ``tests/test_model.py``."""
    from test_model import _dense_mean

    return ad.matmul(a, ad.constant(_dense_mean(graph.index)))


def chain_features(model, coords, neighbours):
    """The extractor composed from single ops: one node each for every
    layer's product, bias sum and ReLU, and the projection as products
    with ``gather_cols`` halves of ``proj.w``, the second one pooled by
    ``dense_pool``."""
    x = ad.constant(coords.T)
    h1 = ad.relu(ad.add(ad.matmul(model.w1, x), model.b1))
    h2 = ad.relu(ad.add(ad.matmul(model.w2, h1), model.b2))
    n = h2.shape[0]
    own = ad.matmul(ad.gather_cols(model.w3, np.arange(n)), h2)
    pooled = dense_pool(ad.matmul(ad.gather_cols(model.w3, np.arange(n, 2 * n)), h2), neighbours)
    return ad.l2_normalize_cols(ad.add(ad.add(own, pooled), model.b3))


def concat_features(model, coords, neighbours):
    """The extractor as composed before the projection took the pooling:
    ``proj.w`` times the hidden features with their ``dense_pool``
    neighbour mean stacked under them."""
    x = ad.constant(coords.T)
    h1 = ad.relu(ad.matmul(model.w1, x, bias=model.b1))
    h2 = ad.relu(ad.matmul(model.w2, h1, bias=model.b2))
    cat = ad.concat_rows([h2, dense_pool(h2, neighbours)])
    return ad.l2_normalize_cols(ad.matmul(model.w3, cat, bias=model.b3))


def per_entry_step_loss(c, zs, temperature):
    """``_step_loss`` one head entry and view at a time, the way the step
    composed it before the families: each entry's cross entropy on its
    own block of the view's logits, by the numpy reference of
    ``tests/test_losses.py``. Returns the objective, the novel heads'
    terms and a surrogate whose gradient reaches every parameter through
    the reference's gradient of the objective at each view's logits."""
    from test_losses import _per_block_reference

    heads, n_base = c.model.cfg.heads, 3
    w_stack, b_stack = c.model.stacked_heads(len(c.families) > 1)
    logits = [ad.add(ad.matmul(w_stack, z), b_stack) for z in zs]
    values, surrogate = [], []
    for view_logits, other in zip(logits, (1, 0)):
        blocks = []
        # summing order of the flat entry list: novel_0, over_0, novel_1, ...
        for h in range(heads):
            for (start, width), (kept, dists) in zip(c.families, c.targets[other]):
                cols = np.concatenate([c.base_idx, c.novel_idx[kept[h]]])
                target = np.zeros((n_base + width, cols.size))
                target[c.base_slots, np.arange(c.base_idx.size)] = 1.0
                target[n_base:, c.base_idx.size:] = dists[h][:, kept[h]]
                rows = np.concatenate([np.arange(n_base), start + h * width + np.arange(width)])
                blocks.append((rows, cols, target, np.r_[c.w_base, np.ones(width)]))
        value, grad = _per_block_reference(view_logits.data, blocks,
                                           np.full(len(blocks), 1 / heads), 1.0 / temperature,
                                           LOG_FLOOR)
        values.append(value)
        surrogate.append(ad.sum_all(ad.mul(view_logits, ad.constant(grad))))
    terms = values[0] + values[1]
    total = np.cumsum(terms)[-1] / heads
    return total, terms[::len(c.families)], sum_tensors(surrogate)


class TestStepLossMatchesThePerEntryComposition:
    @pytest.mark.parametrize("heads, overcluster", [(3, True), (3, False), (1, True)])
    def test_values_and_gradients_match_the_per_entry_composition(self, heads, overcluster):
        c = step_case(heads, overcluster)
        model, params = c.model, c.model.parameters()
        total, head_vals = step_loss_of(c, c.logits)
        ad.backward(total)
        got = {name: p.grad.copy() for name, p in params.items()}
        for p in params.values():
            p.zero_grad()

        for features in (chain_features, concat_features):
            zs = [ad.concat_cols([features(model, coords, nb)
                                  for coords, nb in zip(views, c.neigh)])
                  for views in zip(*c.pairs)]
            ref_total, ref_head_vals, surrogate = per_entry_step_loss(c, zs, 0.2)
            ad.backward(surrogate)
            ref_grads = {name: p.grad.copy() for name, p in params.items()}
            for p in params.values():
                p.zero_grad()
            # the families sum each softmax in another order; pooling the
            # projection, not the hidden layer, reorders the feature sums too
            rtol = 1e-12 if features is chain_features else 1e-10
            np.testing.assert_allclose(total.data[0, 0], ref_total, rtol=rtol)
            np.testing.assert_allclose(head_vals, ref_head_vals, rtol=rtol)
            for name, g in ref_grads.items():
                np.testing.assert_allclose(got[name], g, rtol=rtol,
                                           atol=rtol * np.abs(g).max(), err_msg=name)


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

        ce, features = train_mod.tempered_ce, SegmentationModel.view_features
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
        monkeypatch.setattr(SegmentationModel, "view_features", checked_features)
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
        import segdiscover.train as train_mod

        counts = {"ce": 0, "nodes": [], "steps": 0}
        real_ce, real_backward = train_mod.tempered_ce, ad.backward

        def counted_ce(*args, **kwargs):
            out = real_ce(*args, **kwargs)
            counts["ce"] += out._backward is not None
            return out

        def counted_backward(loss):
            counts["steps"] += 1
            counts["nodes"].append(tape_size(loss))
            return real_backward(loss)

        monkeypatch.setattr(train_mod, "tempered_ce", counted_ce)
        monkeypatch.setattr(ad, "backward", counted_backward)
        clouds, split = tiny_setup(scenes=4)
        exp = ExperimentConfig(
            model=ModelConfig(heads=heads),
            train=TrainConfig(epochs=2, batch_size=4),
            discovery=DiscoveryConfig(overcluster=overcluster),
        )
        train(clouds, split, exp)
        assert counts["steps"] == 2 and counts["ce"] == 2 * 2
        # one extractor node per view, 4 for the stacked heads: one
        # column concatenation, one transpose, two row concatenations;
        # 2 logit matmuls, 2 CE nodes, their sum and the ordered total
        assert counts["nodes"] == [12, 12]

    @staticmethod
    def _step_peak():
        """tracemalloc peak of one step of four 512-point scenes plus the
        epoch's evaluation, at the default model."""
        import tracemalloc

        cfg = toy_discovery_config(seed=0, n_scenes=4, points_per_scene=512)
        clouds = generate_synthetic(cfg)
        exp = ExperimentConfig(train=TrainConfig(epochs=1, batch_size=4))
        tracemalloc.start()
        try:
            train(clouds, cfg.split(), exp)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_step_of_four_512_point_scenes_stays_under_29_mb(self):
        # the bound sits between the peaks of a tape with a node each for
        # every layer's product, bias sum and ReLU and a CE node per entry
        # and view (34.0 MB) and of one node per layer and one CE node per
        # view (23.6 MB)
        peak = self._step_peak()
        assert peak < 29e6, f"peak {peak / 1e6:.1f} MB"

    def test_a_step_of_four_512_point_scenes_stays_under_12_5_mb(self):
        # the bound sits between the peaks of a tape with a node per layer
        # and scene, which keeps every layer, its ReLU mask and a second
        # copy of each view's features (15.0 MB), and of one extractor node
        # per view, which keeps per scene only the second hidden layer and
        # the column norms (10.0 MB)
        peak = self._step_peak()
        assert peak < 12.5e6, f"peak {peak / 1e6:.1f} MB"

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
        train(ignored, dataclasses.replace(split, ignore_id=9), tiny_exp(epochs=1))
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
