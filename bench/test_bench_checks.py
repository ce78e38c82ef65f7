"""Fast tests of the benchmark's own parts: each output check passes on
the package's real output and rejects a corrupted one, the tracer's
self times add up, and BENCHMARK.json matches the metric definitions.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
import workloads
from tracer import Hooks, Tracer

from segdiscover import autodiff as ad
from segdiscover import evaluate as evaluate_mod
from segdiscover.data import SplitSpec, generate_synthetic, toy_discovery_config
from segdiscover.losses import weighted_ce
from segdiscover.model import ModelConfig, SegmentationModel, knn_indices

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def scene():
    return generate_synthetic(toy_discovery_config(seed=3, n_scenes=1, points_per_scene=300))[0]


@pytest.fixture(scope="module")
def model():
    return SegmentationModel(ModelConfig(), 3, 2, np.random.default_rng(1))


def test_knn_check_passes_then_rejects_a_swapped_neighbour(scene):
    neigh = knn_indices(scene.coords, 16)
    sample = np.arange(0, 300, 7)
    problems, skipped = checks.check_knn(scene.coords, neigh, 16, sample)
    assert problems == [] and skipped < len(sample)
    bad = neigh.copy()
    row = sample[1]
    bad[row, 0] = next(j for j in range(300) if j != row and j not in neigh[row])
    assert checks.check_knn(scene.coords, bad, 16, sample)[0]


def test_brute_knn_skips_a_tie_at_the_kth_neighbour():
    coords = np.array([[0.0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [5, 5, 5]])
    assert checks.brute_knn(coords, 0, 3, tie_tol=1e-9).tolist() == [1, 2, 3]
    assert checks.brute_knn(coords, 0, 2, tie_tol=0.0) is None  # 3rd is as near as 2nd
    assert checks.brute_knn(coords, 4, 4, tie_tol=1e-9).tolist() == [0, 1, 2, 3]


def test_forward_check_passes_then_rejects_a_flipped_slot(scene, model, tmp_path):
    model.save(tmp_path / "m.ckpt")
    params = checks.read_checkpoint(tmp_path / "m.ckpt")
    assert set(params) == set(model.state())
    slots = model.predict_slots(scene.coords, 0)
    sample = np.arange(0, 300, 11)
    problems, skipped = checks.check_forward(params, scene.coords, slots, 16, 0, sample)
    assert problems == [] and skipped < len(sample)
    bad = slots.copy()
    bad[sample[2]] = (bad[sample[2]] + 1) % 5
    assert checks.check_forward(params, scene.coords, bad, 16, 0, sample)[0]


def test_permutation_matching_agrees_with_the_program_including_ties():
    rng = np.random.default_rng(0)
    blocks = [rng.integers(0, 6, (n, n)) for n in (2, 3, 4) for _ in range(20)]
    blocks += [np.zeros((3, 3), dtype=int), np.ones((3, 3), dtype=int), np.eye(3, dtype=int)[::-1]]
    for block in blocks:
        assert checks.match_by_permutation(block) == evaluate_mod.match_novel(block)


class _FixedSlots:
    """A model stand-in whose predictions are given."""

    def __init__(self, slots):
        self.slots = iter(slots)

    def predict_slots(self, coords, head=None, neighbours=None):
        return next(self.slots)


def _fake_eval(seed):
    rng = np.random.default_rng(seed)
    split = SplitSpec("t", "t", frozenset({0, 2, 5}), frozenset({7, 9}))
    classes = np.array([0, 2, 5, 7, 9])
    labels = [classes[rng.integers(0, 5, n)] for n in (40, 60, 30)]
    # mostly right, novel slots swapped, some noise
    slot_of = {0: 0, 2: 1, 5: 2, 7: 4, 9: 3}
    slots = [np.array([slot_of[int(c)] for c in lab]) for lab in labels]
    for s in slots:
        noise = rng.random(len(s)) < 0.2
        s[noise] = rng.integers(0, 5, int(noise.sum()))
    clouds = [type("C", (), {"coords": None, "labels": lab})() for lab in labels]
    report = evaluate_mod.evaluate(_FixedSlots(slots), clouds, split)
    expected = checks.recompute_report(labels, slots, [0, 2, 5], [7, 9])
    return report, expected, labels, slots


def test_report_recomputation_agrees_then_rejects_corruption():
    report, expected, labels, slots = _fake_eval(0)
    assert checks.compare_report(report, expected) == []
    assert expected["mapping"] == {0: 9, 1: 7}

    report.per_class_iou[2] += 1e-6
    assert checks.compare_report(report, expected)
    report, *_ = _fake_eval(0)
    report.mapping = {0: 7, 1: 9}
    assert checks.compare_report(report, expected)
    report, *_ = _fake_eval(0)
    slots[0] = slots[0].copy()
    slots[0][:5] = (slots[0][:5] + 1) % 5
    assert checks.compare_report(report, checks.recompute_report(labels, slots, [0, 2, 5], [7, 9]))


def test_report_tsv_parses_back_to_the_report():
    report, expected, _, _ = _fake_eval(1)
    names = {0: "a", 2: "b", 5: "c", 7: "d", 9: "e"}
    report.class_names = names
    parsed = checks.parse_report_tsv(report.to_tsv(), names)
    assert checks.compare_report({**parsed, "mapping": report.mapping}, expected, tol=5e-5) == []
    parsed["base_miou"] += 1e-3
    assert checks.compare_report({**parsed, "mapping": report.mapping}, expected, tol=5e-5)


def test_chance_bound_matches_the_program():
    clouds = generate_synthetic(toy_discovery_config(seed=5, n_scenes=6, points_per_scene=100))
    split = toy_discovery_config().split()
    bound = checks.chance_bound([c.labels for c in clouds], sorted(split.novel_classes))
    assert bound == pytest.approx(evaluate_mod.constant_predictor_bound(clouds, split), abs=1e-15)
    assert bound != checks.chance_bound([c.labels for c in clouds[1:]], sorted(split.novel_classes))


def test_kmeans_check_passes_then_rejects_a_moved_point():
    from segdiscover.baseline import kmeans

    rng = np.random.default_rng(0)
    feats = np.concatenate([rng.normal(0, 0.1, (50, 4)), rng.normal(3, 0.1, (50, 4))])
    km, assign = kmeans(feats, 2, seed=0)
    assert checks.check_kmeans(feats, km.centroids, assign) == []
    bad = assign.copy()
    bad[0] = 1 - bad[0]
    assert checks.check_kmeans(feats, km.centroids, bad)


def test_pseudo_label_check_rejects_a_label_on_a_base_point():
    labels = {"s": np.array([0, 3, 3, 1, 4])}
    good = {"s": (np.array([1, 2, 4]), np.array([0, 1, 1]))}
    assert checks.check_pseudo_labels(good, labels, {3, 4}, 2) == []
    assert checks.check_pseudo_labels({"s": (np.array([0, 1]), np.array([0, 1]))}, labels, {3, 4}, 2)
    assert checks.check_pseudo_labels({"s": (np.array([1, 1]), np.array([0, 1]))}, labels, {3, 4}, 2)
    assert checks.check_pseudo_labels({"s": (np.array([1]), np.array([2]))}, labels, {3, 4}, 2)


def test_gradient_check_passes_then_rejects_a_wrong_gradient(scene, model):
    coords = scene.coords[:64]
    target = np.eye(5)[np.arange(64) % 5].T

    def loss():
        z = model.extract_features(coords)
        logits = ad.concat_rows([model.base_logits(z), model.novel_logits(z, 0)])
        return weighted_ce(ad.softmax_cols(ad.mul(logits, 5.0)), target, np.ones(5))

    params = model.parameters()
    for p in params.values():
        p.zero_grad()
    ad.backward(loss())
    grads = {n: p.grad.copy() for n, p in params.items()}
    picks = [("enc2.w", i) for i in range(0, 4096, 512)] + [("novel0.p", i) for i in range(6)]
    arrays = {n: params[n].data for n in ("enc2.w", "novel0.p")}
    value = lambda: float(loss().data[0, 0])  # noqa: E731
    problems, skipped = checks.check_gradient(value, grads, arrays, picks)
    assert problems == [] and skipped <= 2
    grads["novel0.p"].reshape(-1)[3] *= 1.01
    assert len(checks.check_gradient(value, grads, arrays, picks)[0]) == 1


def test_self_time_is_span_time_minus_children():
    tr = Tracer()
    tr.begin("outer")
    time.sleep(0.01)
    tr.begin("inner")
    time.sleep(0.02)
    tr.end()
    tr.end()
    outer, inner = ("setup", "outer"), ("setup", "inner")
    assert tr.total_s[outer] == pytest.approx(tr.self_s[outer] + tr.total_s[inner])
    assert tr.self_s[inner] == tr.total_s[inner] >= 0.02
    assert tr.span_parent == [-1, 0]


def test_hooks_reach_every_lookup_and_restore():
    from segdiscover import baseline, model, train

    original = model.knn_indices
    hooks, tr = Hooks(), Tracer()
    hooks.function(model, "knn_indices", tr.span("model.knn_indices"))
    try:
        assert train.knn_indices is model.knn_indices is baseline.knn_indices
        assert model.knn_indices is not original
        model.knn_mean_matrix(np.zeros((4, 3)), 2)
        assert tr.calls[("setup", "model.knn_indices")] == 1
    finally:
        hooks.restore()
    assert train.knn_indices is original and model.knn_indices is original


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
