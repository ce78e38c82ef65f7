"""Loss formulas, class weighting, and the LR schedule."""

import numpy as np
import pytest

from segdiscover import autodiff as ad
from segdiscover.data import LabelledCloud, SplitSpec
from segdiscover.losses import (
    SGD,
    LossWeights,
    TrainConfig,
    compute_loss_weights,
    lr_at,
    one_hot,
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


class TestOneHot:
    def test_matches_the_per_point_loop(self):
        order = [9, 2, 5]
        labels = np.random.default_rng(2).choice(order, size=40)
        expected = np.zeros((4, labels.size))
        for col, lab in enumerate(labels.tolist()):
            expected[order.index(lab), col] = 1.0
        np.testing.assert_array_equal(one_hot(labels, order, 4), expected)

    def test_label_outside_the_class_order_is_named(self):
        with pytest.raises(ValueError, match=r"labels \[7\]"):
            one_hot(np.array([2, 7]), [2, 5], 2)

    def test_no_labels_gives_zero_columns(self):
        assert one_hot(np.array([], dtype=np.int64), [0, 1], 3).shape == (3, 0)


class TestLossWeights:
    def test_inverse_frequency_normalized_to_mean_one(self):
        clouds = [LabelledCloud(np.zeros((6, 3)), np.array([0, 0, 0, 1, 1, 2]))]
        split = SplitSpec("s", "t", frozenset({0, 1}), frozenset({2}))
        lw = compute_loss_weights(clouds, split)
        # counts 3 and 2 -> inverse 1/3, 1/2 -> normalized to mean 1
        inv = np.array([1 / 3, 1 / 2])
        expected = inv / inv.mean()
        assert lw.base_weights[0] == pytest.approx(expected[0])
        assert lw.base_weights[1] == pytest.approx(expected[1])
        assert lw.vector([0, 1], 2)[2:].tolist() == [1.0, 1.0]

    def test_vector_layout(self):
        lw = LossWeights({0: 0.5, 1: 1.5})
        vec = lw.vector([0, 1], 3)
        np.testing.assert_allclose(vec, [0.5, 1.5, 1.0, 1.0, 1.0])

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights({0: 2.0, 1: 1.0})  # mean != 1
        with pytest.raises(ValueError):
            LossWeights({0: -1.0, 1: 3.0})


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
