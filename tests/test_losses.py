"""Loss formulas, class weighting, the LR schedule and the training driver."""

import numpy as np
import pytest

from segdiscover import autodiff as ad
from segdiscover.data import (
    UNLABELLED,
    LabelledCloud,
    SplitSpec,
    SyntheticConfig,
    class_counts,
    generate_synthetic,
    make_archetypes,
)
from segdiscover.evaluate import constant_predictor_bound
from segdiscover.losses import (
    LOG_FLOOR,
    SGD,
    TrainConfig,
    compute_loss_weights,
    fit,
    lr_at,
    tempered_ce,
    weighted_ce,
)


class TestWeightedCE:
    def test_uniform_prediction_one_hot_target(self):
        pred = np.full((4, 1), 0.25)
        target = np.array([[1.0], [0.0], [0.0], [0.0]])
        loss = weighted_ce(pred, target, np.ones(4))
        assert float(loss.data[0, 0]) == pytest.approx(np.log(4.0), rel=1e-12)

    def test_perfect_prediction_is_near_zero(self):
        target = np.array([[1.0], [0.0]])
        loss = weighted_ce(target, target, np.ones(2))
        assert float(loss.data[0, 0]) <= 1e-11

    def test_soft_target_weighted_case(self):
        pred = np.array([[0.5], [0.5]])
        target = np.array([[0.6], [0.4]])
        loss = weighted_ce(pred, target, np.array([2.0, 1.0]))
        assert float(loss.data[0, 0]) == pytest.approx(1.6 * np.log(2.0), rel=1e-12)

    def test_mean_over_points(self):
        pred = np.full((2, 3), 0.5)
        target = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        loss = weighted_ce(pred, target, np.ones(2))
        assert float(loss.data[0, 0]) == pytest.approx(np.log(2.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            weighted_ce(np.ones((2, 2)) / 2, np.ones((3, 2)) / 3, np.ones(3))

    def test_differentiable_through_softmax(self):
        logits = ad.parameter(np.array([[0.3], [-0.2]]), "logits")
        target = np.array([[1.0], [0.0]])
        loss = weighted_ce(ad.softmax_cols(logits), target, np.ones(2))
        ad.backward(loss)
        s = np.exp([0.3, -0.2]) / np.exp([0.3, -0.2]).sum()
        np.testing.assert_allclose(logits.grad[:, 0], s - [1.0, 0.0], atol=1e-12)


def _per_block_reference(data, blocks, coefs, scale, floor):
    """Cross entropy one block at a time, in numpy: per ``(rows, cols,
    target, weights)`` block, the column softmax of its rows and columns
    of ``data * scale`` and the mean over its columns of
    -sum w t log max(q, floor). Returns the values and the gradient of
    sum_b coefs[b] * value_b, each block's scattered by ``np.add.at``."""
    values, grad = np.zeros(len(blocks)), np.zeros_like(data)
    for b, (rows, cols, target, weights) in enumerate(blocks):
        if not len(cols):
            continue
        s = data[np.ix_(rows, cols)] * scale
        q = np.exp(s - s.max(axis=0))
        q /= q.sum(axis=0)
        wt = weights[:, None] * target
        m = len(cols)
        values[b] = -(wt * np.log(np.maximum(q, floor))).sum() / m
        dq = wt * ((-coefs[b] / m) * (q >= floor)) / np.maximum(q, floor)
        np.add.at(grad, np.ix_(rows, cols), q * (dq - (dq * q).sum(axis=0)) * scale)
    return values, grad


def _as_blocks(cols, slots, weights, fcols, families):
    """The blocks of ``_per_block_reference`` that score what
    ``tempered_ce`` scores: one per head, the base rows and the
    head's rows over the base columns and the head's kept columns."""
    n_base, cols = len(weights), np.asarray(cols)
    onehot = np.zeros((n_base, cols.size))
    onehot[slots, np.arange(cols.size)] = 1.0
    if not families:
        return [(np.arange(n_base), cols, onehot, weights)]
    blocks = []
    for start, target, kept in families:
        heads, k, _ = target.shape
        for h in range(heads):
            block_cols = np.concatenate([cols, np.asarray(fcols)[kept[h]]])
            block = np.zeros((n_base + k, block_cols.size))
            block[:n_base, :cols.size] = onehot
            block[n_base:, cols.size:] = target[h][:, kept[h]]
            rows = np.concatenate([np.arange(n_base), start + h * k + np.arange(k)])
            blocks.append((rows, block_cols, block, np.concatenate([weights, np.ones(k)])))
    return blocks


class TestTemperedCE:
    """Head families of one logit matrix against the per-block reference:
    3 base rows, then a family of 3 heads of 2 rows and one of 3 heads of
    4 rows, over 14 columns."""

    FLOOR, TEMPERATURE = LOG_FLOOR, 1 / 1.5
    SCALE = 1.0 / TEMPERATURE  # the factor the logits are scaled by
    COLS = [0, 2, 3, 5, 7, 8, 11]  # base points
    FCOLS = [1, 4, 6, 9, 10, 12, 13]  # novel points

    def setup_case(self, seed=31):
        fcols = self.FCOLS
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(21, 14))
        data[3:9, 4] = data[9, 6] = data[2, 0] = -40.0  # softmaxes below the floor
        slots = rng.integers(0, 3, len(self.COLS))
        slots[self.COLS.index(0)] = 2  # a base target below the floor
        weights = rng.uniform(0.5, 2.0, 3)
        families = []
        for start, k in ((3, 2), (9, 4)):
            target = rng.random((3, k, len(fcols)))
            kept = rng.random((3, len(fcols))) < 0.6
            kept[:, 0] = kept[0, 1] = True
            families.append((start, target / target.sum(axis=1, keepdims=True), kept))
        coefs = rng.uniform(-1.0, 2.0, 6)
        return ad.parameter(data, "logits"), slots, weights, families, coefs

    def fused(self, logits, slots, weights, families, cols=COLS, fcols=FCOLS):
        return tempered_ce(logits, cols, slots, weights, fcols, families, self.TEMPERATURE)

    def weighted(self, values, coefs):
        return ad.sum_all(ad.mul(values, ad.constant(np.asarray(coefs)[:, None])))

    def check_against_reference(self, logits, slots, weights, families, coefs, cols=COLS):
        values = self.fused(logits, slots, weights, families, cols)
        assert values.data.shape == (len(coefs), 1)
        ad.backward(self.weighted(values, coefs))
        ref_values, ref_grad = _per_block_reference(
            logits.data, _as_blocks(cols, slots, weights, self.FCOLS, families), coefs,
            self.SCALE, self.FLOOR,
        )
        np.testing.assert_allclose(values.data[:, 0], ref_values, rtol=1e-12)
        np.testing.assert_allclose(logits.grad, ref_grad, rtol=1e-12, atol=1e-15)

    def test_values_and_gradient_match_the_per_block_reference(self):
        logits, slots, weights, families, coefs = self.setup_case()
        # the clamp is exercised on a base and a head target
        s = logits.data * self.SCALE
        assert np.exp(s[2, 0] - np.logaddexp.reduce(s[[0, 1, 2, 3, 4], 0])) < self.FLOOR
        assert np.exp(s[3, 4] - np.logaddexp.reduce(s[[0, 1, 2, 3, 4], 4])) < self.FLOOR
        self.check_against_reference(logits, slots, weights, families, coefs)

    def test_one_family_matches_the_reference(self):
        # the over-clustering family alone
        logits, slots, weights, families, coefs = self.setup_case()
        self.check_against_reference(logits, slots, weights, families[1:], coefs[3:])

    def test_no_family_is_the_softmax_over_the_base_rows(self):
        # the baseline's call: every row is a base row
        logits, _, _, _, _ = self.setup_case()
        rng = np.random.default_rng(4)
        slots, weights = rng.integers(0, 21, 10), rng.uniform(0.5, 2.0, 21)
        cols = [13, 0, 2, 5, 4, 7, 9, 10, 11, 6]  # unsorted, like base then pseudo points
        self.check_against_reference(logits, slots, weights, (), [0.7], cols=cols)

    def test_central_differences_including_clamped_entries(self):
        from test_autodiff import finite_difference

        logits, slots, weights, families, coefs = self.setup_case()

        def loss():
            return self.weighted(self.fused(logits, slots, weights, families), coefs)

        ad.backward(loss())
        coords = [(logits, i) for i in range(logits.data.size)]
        fd = finite_difference(lambda: float(loss().data[0, 0]), {"logits": logits}, coords,
                               step=1e-6)
        np.testing.assert_allclose(logits.grad.reshape(-1), fd, rtol=1e-6, atol=1e-9)

    def test_a_head_with_no_scored_column_scores_zero_and_passes_no_gradient(self):
        logits, slots, weights, families, coefs = self.setup_case()
        start, target, kept = families[1]
        kept = kept.copy()
        kept[1] = False
        values = self.fused(logits, slots[:0], weights, [(start, target, kept)], cols=[])
        assert values.data[1, 0] == 0.0 and np.all(values.data[[0, 2], 0] > 0.0)
        ad.backward(self.weighted(values, [0.0, 1.0, 0.0]))
        assert not np.any(logits.grad)

    def test_nothing_to_score_records_no_tape(self):
        logits, _, weights, families, _ = self.setup_case()
        empty = [(start, target[:, :, :0], kept[:, :0]) for start, target, kept in families]
        values = self.fused(logits, [], weights, empty, cols=[], fcols=[])
        assert np.array_equal(values.data, np.zeros((6, 1)))
        assert values._backward is None

    @pytest.mark.parametrize("cols, slots, fcols, families, match", [
        ([0, 2, 0], [0, 1, 2], [1], (), "the base target repeats a column"),
        ([0, 14], [0, 1], [1], (), r"the base target columns outside \[0, 14\)"),
        ([0, 2], [0, 3], [1], (), r"2 base slots in \[0, 3\)"),
        ([0], [0], [1, 4, 1], [(3, np.ones((3, 2, 3)) / 2, np.ones((3, 3), bool))],
         "the head target repeats a column"),
        ([0], [0], [1], [(2, np.ones((3, 2, 1)) / 2, np.ones((3, 1), bool))],
         "family 0 has target .* from row 2 of 21, past 3 base rows"),
        ([0], [0], [1], [(3, np.ones((3, 2, 1)) / 2, np.ones((2, 1), bool))],
         r"family 0 has target \(3, 2, 1\) and kept \(2, 1\)"),
    ])
    def test_bad_targets_raise_a_shape_error_naming_the_node(self, cols, slots, fcols, families,
                                                             match):
        logits, _, weights, _, _ = self.setup_case()
        with pytest.raises(ad.ShapeError, match="logits: " + match):
            self.fused(logits, slots, weights, families, cols, fcols)


class TestLossWeights:
    def test_inverse_frequency_normalized_to_mean_one(self):
        clouds = [LabelledCloud(np.zeros((6, 3)), np.array([0, 0, 0, 1, 1, 2]))]
        split = SplitSpec("s", "t", frozenset({0, 1}), frozenset({2}))
        weights = compute_loss_weights(clouds, split)
        # counts 3 and 2 -> inverse 1/3, 1/2 -> normalized to mean 1
        inv = np.array([1 / 3, 1 / 2])
        assert weights.shape == (2,)
        np.testing.assert_allclose(weights, inv / inv.mean(), rtol=1e-12)

    def test_one_weight_per_base_slot_in_slot_order(self):
        # base ids 7 and 2 train in slots 1 and 0; the novel class 4 gets no weight
        clouds = [LabelledCloud(np.zeros((6, 3)), np.array([7, 7, 7, 2, 4, 4]))]
        split = SplitSpec("s", "t", frozenset({7, 2}), frozenset({4}))
        weights = compute_loss_weights(clouds, split)
        assert split.base_slots(np.array([2, 7])).tolist() == [0, 1]
        np.testing.assert_allclose(weights, [1.5, 0.5], rtol=1e-12)

    def test_an_absent_base_class_takes_the_strongest_weight_present(self):
        clouds = [LabelledCloud(np.zeros((6, 3)), np.array([0, 0, 0, 0, 1, UNLABELLED]))]
        split = SplitSpec("s", "t", frozenset({0, 1, 2}), frozenset({3}))
        # 5 base points: inverse frequencies 5/4 and 5, and class 2 falls back to 5
        inv = [5 / 4, 5.0, 5.0]
        mean = sum(inv) / 3
        expected = [inv[0] / mean, inv[1] / mean, inv[2] / mean]
        assert compute_loss_weights(clouds, split).tolist() == expected

    def test_no_base_points_weigh_every_base_class_one(self):
        clouds = [LabelledCloud(np.zeros((3, 3)), np.full(3, UNLABELLED))]
        split = SplitSpec("s", "t", frozenset({0, 1, 2}), frozenset({3}))
        assert compute_loss_weights(clouds, split).tolist() == [1.0, 1.0, 1.0]

    def test_the_shared_counter_reproduces_the_per_caller_loops_bit_for_bit(self):
        # ten base classes: numpy's pairwise mean of these inverse
        # frequencies differs from the Python left-to-right sum in the last bit
        syn = SyntheticConfig(archetypes=make_archetypes(12, seed=2), n_scenes=5,
                              points_per_scene=90, seed=2, scene_dropout=0.3,
                              novel_classes=(10, 11))
        clouds, split = generate_synthetic(syn), syn.split()
        weights = compute_loss_weights(clouds, split).tolist()
        assert weights == list(_loss_weights_loop(clouds, split).values())
        counts = class_counts(clouds, sorted(split.base_classes))
        inv = np.array([sum(counts.values()) / n for n in counts.values()])
        assert (inv / inv.mean()).tolist() != weights
        assert constant_predictor_bound(clouds, split) == _bound_loop(clouds, split)

    @pytest.mark.parametrize("dropout", [0.0, 0.3, 0.6])
    def test_weights_are_positive_and_average_one(self, dropout):
        syn = SyntheticConfig(archetypes=make_archetypes(8, seed=1), n_scenes=4,
                              points_per_scene=40, seed=1, scene_dropout=dropout,
                              novel_classes=(6, 7))
        weights = compute_loss_weights(generate_synthetic(syn), syn.split())
        assert weights.shape == (6,) and (weights > 0).all()
        assert abs(sum(weights.tolist()) / len(weights) - 1.0) <= 1e-9


def _loss_weights_loop(clouds, split):
    """``compute_loss_weights``' base weights, counted by its own loop."""
    base_order = sorted(split.base_classes)
    counts = {c: 0 for c in base_order}
    for cloud in clouds:
        ids, n = np.unique(cloud.labels, return_counts=True)
        for cid, cnt in zip(ids, n):
            if cid in counts:
                counts[int(cid)] += int(cnt)
    total = sum(counts.values())
    if total == 0:
        return {c: 1.0 for c in base_order}
    inv = {c: (total / cnt) if cnt > 0 else 0.0 for c, cnt in counts.items()}
    fallback = max(inv.values()) if any(v > 0 for v in inv.values()) else 1.0
    inv = {c: (v if v > 0 else fallback) for c, v in inv.items()}
    mean = sum(inv.values()) / len(inv)
    return {c: v / mean for c, v in inv.items()}


def _bound_loop(clouds, split):
    """``constant_predictor_bound``, counted by its own loop."""
    novel = sorted(split.novel_classes)
    total = 0
    counts = {c: 0 for c in novel}
    for cloud in clouds:
        total += cloud.n_points
        ids, n = np.unique(cloud.labels, return_counts=True)
        for cid, cnt in zip(ids, n):
            if int(cid) in counts:
                counts[int(cid)] += int(cnt)
    if total == 0:
        return 0.0
    return max(counts.values()) / total / len(novel)


class TestLrSchedule:
    cfg = TrainConfig(lr_max=1e-2, lr_min=1e-5, warmup_fraction=0.1)

    def test_step_zero_is_zero(self):
        assert lr_at(self.cfg, 0, 100) == 0.0

    def test_end_of_warmup_reaches_lr_max(self):
        assert lr_at(self.cfg, 10, 100) == pytest.approx(1e-2)

    def test_final_step_reaches_lr_min(self):
        assert lr_at(self.cfg, 99, 100) == pytest.approx(1e-5, abs=0)

    def test_monotone_decay_after_warmup(self):
        values = [lr_at(self.cfg, s, 100) for s in range(10, 100)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_no_warmup_starts_at_lr_max(self):
        cfg = TrainConfig(warmup_fraction=0.0)
        assert lr_at(cfg, 0, 50) == pytest.approx(cfg.lr_max)

    def test_final_step_misses_lr_min_when_the_warmup_reaches_it(self):
        # round(0.1 * 1) = 0 warm-up steps, yet the only step is the first
        # one after the warm-up, at lr_max
        assert lr_at(TrainConfig(), 0, 1) == pytest.approx(1e-2)
        # round(0.5 * 3) = 2 = total_steps - 1 warm-up steps: the same
        half = TrainConfig(warmup_fraction=0.5)
        assert lr_at(half, 2, 3) == pytest.approx(half.lr_max)
        # round(0.5 * 4) = 2 = total_steps - 2: the last step lands on lr_min
        assert lr_at(half, 3, 4) == pytest.approx(half.lr_min, abs=0)

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at(self.cfg, 101, 100)


class TestSGD:
    def test_a_non_finite_update_names_the_parameter_and_the_lr(self):
        w = ad.parameter(np.ones((2, 2)), "head.w")
        opt = SGD({"head.w": w}, momentum=0.0, weight_decay=0.0)
        w.grad[...] = 1e10
        opt.step(1e-10)
        np.testing.assert_array_equal(w.data, np.zeros((2, 2)))
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"SGD step at lr 1e\+300 left parameter head\.w non-finite"
        ):
            opt.step(1e300)


class _OneWeight:
    """A model of one parameter; every batch's loss is that parameter."""

    def __init__(self):
        self.w = ad.parameter(np.ones((1, 1)), "w")

    def parameters(self):
        return {"w": self.w}


class _RecordingRng:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.permutations = []

    def permutation(self, n):
        self.permutations.append(self.rng.permutation(n))
        return self.permutations[-1]


class TestFit:
    cfg = TrainConfig(batch_size=3)

    def run(self, monkeypatch, n_scenes, epochs, skip=()):
        """Fit on 0-based batch numbers; a number in ``skip`` gets a None
        loss. Returns the rng, the batches, the last_lr each batch saw,
        each SGD.step's rate, and the end_epoch calls."""
        step = SGD.step
        rates, batches, last_lrs, ends = [], [], [], []

        def stepped(opt, lr):
            rates.append(lr)
            step(opt, lr)

        monkeypatch.setattr(SGD, "step", stepped)
        model, rng = _OneWeight(), _RecordingRng(0)

        def batch_loss(ids, last_lr):
            batches.append(ids.tolist())
            last_lrs.append(last_lr)
            return None if len(batches) - 1 in skip else ad.mul(model.w, 1.0)

        fit(model, n_scenes, self.cfg, epochs, rng, batch_loss,
            lambda epoch, lr: ends.append((epoch, lr)))
        return rng, batches, last_lrs, rates, ends

    def test_one_step_per_batch_at_the_scheduled_rate(self, monkeypatch):
        # 7 scenes in batches of 3: ceil(7 / 3) = 3 steps per epoch
        _, batches, last_lrs, rates, ends = self.run(monkeypatch, 7, 2)
        schedule = [lr_at(self.cfg, s, 6) for s in range(6)]
        assert [len(b) for b in batches] == [3, 3, 1] * 2
        assert rates == schedule
        assert last_lrs == [0.0] + schedule[:-1]
        assert ends == [(0, schedule[2]), (1, schedule[5])]

    def test_one_permutation_per_epoch_cut_into_the_batches(self, monkeypatch):
        rng, batches, _, _, _ = self.run(monkeypatch, 7, 3)
        assert len(rng.permutations) == 3
        for epoch, order in enumerate(rng.permutations):
            assert sorted(order.tolist()) == list(range(7))
            assert sum(batches[3 * epoch:3 * epoch + 3], []) == order.tolist()

    def test_a_none_loss_takes_no_step_but_uses_up_its_rate(self, monkeypatch):
        _, batches, last_lrs, rates, _ = self.run(monkeypatch, 7, 2, skip=(0, 4))
        schedule = [lr_at(self.cfg, s, 6) for s in range(6)]
        assert len(batches) == 6
        assert rates == [schedule[s] for s in (1, 2, 3, 5)]
        assert last_lrs == [0.0] + schedule[:-1]
