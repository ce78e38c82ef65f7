"""Metrics: confusion counting, mIoU, slot matching, end-to-end reports."""

import dataclasses

import numpy as np
import pytest

from segdiscover.data import LabelledCloud, SplitSpec
from segdiscover.evaluate import (
    ConfusionMatrix,
    constant_predictor_bound,
    evaluate,
    match_novel,
    miou,
)


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        cm = ConfusionMatrix([0, 1, 2]).add([0, 1, 2, 1], [0, 1, 2, 1])
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_empty_input_zero_matrix(self):
        cm = ConfusionMatrix([0, 1]).add([], [])
        assert cm.counts.sum() == 0

    def test_six_point_hand_case(self):
        # gt: a a b b b c; pred: a b b b c c
        cm = ConfusionMatrix(list("abc")).add(list("abbbcc"), list("aabbbc"))
        assert cm.counts[0].tolist() == [1, 1, 0]
        assert cm.counts[1].tolist() == [0, 2, 1]
        assert cm.counts[2].tolist() == [0, 0, 1]

    def test_ignore_label_skipped(self):
        cm = ConfusionMatrix([0, 1]).add([0, 1, 0], [0, 1, 255], ignore_label=255)
        assert cm.counts.sum() == 2

    def test_out_of_set_label_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ConfusionMatrix([0, 1]).add([0], [7])

    def test_first_out_of_set_point_is_named(self):
        with pytest.raises(ValueError, match="ground-truth label 9 outside"):
            ConfusionMatrix([0, 1]).add([0, 1, 5], [0, 9, 8])
        with pytest.raises(ValueError, match="prediction 5 outside"):
            ConfusionMatrix([0, 1]).add([0, 5, 6], [0, 1, 1])
        # an ignored point is never checked
        assert ConfusionMatrix([0, 1]).add([0, 5], [1, 255], ignore_label=255).counts[1, 0] == 1

    def test_counts_match_a_per_point_loop(self):
        rng = np.random.default_rng(6)
        classes = [3, 7, 8, 11]
        labels = rng.choice(classes + [255], size=500)
        preds = rng.choice(classes, size=500)
        want = np.zeros((4, 4), dtype=np.int64)
        for gt, pr in zip(labels, preds):
            if gt != 255:
                want[classes.index(gt), classes.index(pr)] += 1
        cm = ConfusionMatrix(classes).add(preds[:200], labels[:200], ignore_label=255)
        cm.add(preds[200:], labels[200:], ignore_label=255)
        assert np.array_equal(cm.counts, want)


class TestMiou:
    def test_diagonal_is_one(self):
        cm = ConfusionMatrix([0, 1], np.diag([3, 4]))
        assert miou(cm, [0, 1]) == 1.0

    def test_six_point_hand_case_is_half(self):
        cm = ConfusionMatrix(list("abc")).add(list("abbbcc"), list("aabbbc"))
        # IoU: a = 1/2, b = 2/4, c = 1/2
        assert miou(cm, list("abc")) == pytest.approx(0.5)

    def test_absent_class_excluded_from_mean(self):
        cm = ConfusionMatrix([0, 1, 2], np.array([[2, 0, 0], [0, 2, 0], [0, 0, 0]]))
        assert miou(cm, [0, 1, 2]) == pytest.approx(1.0)

    def test_empty_subset_rejected(self):
        cm = ConfusionMatrix([0], np.ones((1, 1), dtype=int))
        with pytest.raises(ValueError):
            miou(cm, [])


class TestMatchNovel:
    def test_diagonal_dominant_identity(self):
        block = np.array([[9, 1, 0], [0, 8, 1], [1, 0, 7]])
        assert match_novel(block) == [0, 1, 2]

    def test_anti_diagonal_reverses(self):
        block = np.array([[0, 0, 9], [0, 9, 0], [9, 0, 0]])
        assert match_novel(block) == [2, 1, 0]

    def test_matches_brute_force_iou_objective(self):
        from itertools import permutations

        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            block = rng.integers(0, 10, size=(n, n)).astype(float)
            got = match_novel(block)

            row_tot = block.sum(axis=1, keepdims=True)
            col_tot = block.sum(axis=0, keepdims=True)
            denom = row_tot + col_tot - block
            iou = np.divide(block, denom, out=np.zeros_like(block), where=denom > 0)
            best_val, best = -np.inf, None
            for perm in permutations(range(n)):  # perm[row] = col
                val = sum(iou[i, perm[i]] for i in range(n))
                if val > best_val:
                    best_val, best = val, perm
            expected = [0] * n
            for row, col in enumerate(best):
                expected[col] = row
            assert got == expected


class _OracleModel:
    """Predicts ground truth exactly, through an arbitrary slot shuffle."""

    def __init__(self, clouds, split, shuffle):
        base_order = sorted(split.base_classes)
        novel_order = sorted(split.novel_classes)
        self.slot_of = {c: i for i, c in enumerate(base_order)}
        for j, c in enumerate(novel_order):
            self.slot_of[c] = len(base_order) + shuffle[j]
        self.lookup = {id(c.coords): c.labels for c in clouds}

    def predict_slots(self, coords, head=None, neighbours=None):
        labels = self.lookup[id(coords)]
        return np.array([self.slot_of[int(l)] for l in labels])


class _ConstantModel:
    def __init__(self, slot):
        self.slot = slot

    def predict_slots(self, coords, head=None, neighbours=None):
        return np.full(coords.shape[0], self.slot)


def _toy_eval_set(rng):
    split = SplitSpec("synthetic", "t", frozenset({0, 1}), frozenset({2, 3}))
    clouds = []
    for i in range(3):
        labels = rng.integers(0, 4, size=40)
        clouds.append(LabelledCloud(rng.normal(size=(40, 3)), labels, f"{i}"))
    return split, clouds


class TestEvaluate:
    def test_ground_truth_copier_scores_one(self):
        rng = np.random.default_rng(1)
        split, clouds = _toy_eval_set(rng)
        model = _OracleModel(clouds, split, shuffle=[0, 1])
        report = evaluate(model, clouds, split)
        assert report.all_miou == 1.0
        assert report.novel_miou == 1.0

    def test_matching_undoes_slot_shuffle(self):
        rng = np.random.default_rng(2)
        split, clouds = _toy_eval_set(rng)
        report = evaluate(_OracleModel(clouds, split, shuffle=[1, 0]), clouds, split)
        assert report.all_miou == 1.0
        assert report.mapping == {0: 3, 1: 2}

    def test_constant_predictor_closed_form(self):
        rng = np.random.default_rng(3)
        split, clouds = _toy_eval_set(rng)
        labels = np.concatenate([c.labels for c in clouds])
        freq0 = float(np.mean(labels == 0))
        report = evaluate(_ConstantModel(0), clouds, split)
        assert report.per_class_iou[0] == pytest.approx(freq0)
        assert all(report.per_class_iou[c] in (0.0, None) for c in [1, 2, 3])

    def test_report_schema(self):
        rng = np.random.default_rng(4)
        split, clouds = _toy_eval_set(rng)
        report = evaluate(_OracleModel(clouds, split, [0, 1]), clouds, split)
        rows = report.rows()
        assert len(rows) == 4 + 3
        assert [r[0] for r in rows[-3:]] == ["Novel mIoU", "Base mIoU", "All mIoU"]
        tsv = report.to_tsv()
        assert len(tsv.strip().splitlines()) == 7

    def test_ground_truth_outside_the_split_rejected(self):
        rng = np.random.default_rng(7)
        split, clouds = _toy_eval_set(rng)
        clouds[1].labels[5] = 9
        with pytest.raises(ValueError, match=r"scene '1': label ids \[9\] are neither base"):
            evaluate(_ConstantModel(0), clouds, split)
        # unless it is the split's ignore id
        evaluate(_ConstantModel(0), clouds, dataclasses.replace(split, ignore_id=9))

    def test_ignored_points_are_left_out_of_the_counts(self):
        class OctantModel:
            def predict_slots(self, coords, head=None, neighbours=None):
                return (coords[:, 0] > 0) + 2 * (coords[:, 1] > 0)

        split, clouds = _toy_eval_set(np.random.default_rng(10))
        ignored = [LabelledCloud(c.coords, np.where(np.arange(40) % 3 == 0, 9, c.labels),
                                 c.scene_id) for c in clouds]
        scored = [LabelledCloud(c.coords[c.labels != 9], c.labels[c.labels != 9], c.scene_id)
                  for c in ignored]
        got = evaluate(OctantModel(), ignored, dataclasses.replace(split, ignore_id=9))
        want = evaluate(OctantModel(), scored, split)
        assert got.per_class_iou == want.per_class_iou and got.mapping == want.mapping
        assert got.all_miou == want.all_miou
        # the ignored points would have moved the scores
        assert evaluate(OctantModel(), clouds, split).per_class_iou != want.per_class_iou

    def test_an_empty_scored_set_is_refused(self):
        split, _ = _toy_eval_set(np.random.default_rng(8))
        with pytest.raises(ValueError, match="no scenes to score"):
            evaluate(_ConstantModel(0), [], split)

    @pytest.mark.parametrize("graphs", [2, 4])
    def test_a_neighbour_count_unlike_the_scene_count_is_refused(self, graphs):
        split, clouds = _toy_eval_set(np.random.default_rng(9))
        with pytest.raises(ValueError, match=rf"{graphs} neighbour graphs for 3 scenes"):
            evaluate(_ConstantModel(0), clouds, split, neighbours=[None] * graphs)

    def test_miou_invariant_to_head_relabelling(self):
        rng = np.random.default_rng(5)
        split, clouds = _toy_eval_set(rng)
        r1 = evaluate(_OracleModel(clouds, split, [0, 1]), clouds, split)
        r2 = evaluate(_OracleModel(clouds, split, [1, 0]), clouds, split)
        assert r1.novel_miou == pytest.approx(r2.novel_miou)
        assert r1.all_miou == pytest.approx(r2.all_miou)


def test_constant_predictor_bound():
    split = SplitSpec("synthetic", "t", frozenset({0}), frozenset({1, 2}))
    clouds = [LabelledCloud(np.zeros((10, 3)), np.array([0] * 5 + [1] * 4 + [2] * 1))]
    # best constant novel class is 1 with freq 0.4; bound = 0.4 / 2
    assert constant_predictor_bound(clouds, split) == pytest.approx(0.2)
