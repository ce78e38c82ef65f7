"""Acceptance suite: one test per criterion, printed as a pass/fail line.

The toy end-to-end runs (three seeds of the full configuration, three of
the no-queue/no-filter configuration) are shared module-scoped fixtures;
everything else is self-contained. Tolerances are pinned here and
nowhere else.
"""

import dataclasses
import time
from itertools import permutations

import numpy as np
import pytest

from segdiscover import autodiff as ad
from segdiscover.assignment import hungarian_max
from segdiscover.baseline import BaselineConfig, SubsampleSpec, run_baseline
from segdiscover.data import (
    LabelledCloud,
    generate_synthetic,
    toy_discovery_config,
)
from segdiscover.evaluate import ConfusionMatrix, constant_predictor_bound, evaluate, miou
from segdiscover.losses import TrainConfig
from segdiscover.model import ModelConfig
from segdiscover.queueing import FeatureQueue, select_phi
from segdiscover.sinkhorn import SinkhornConfig, epsilon_at, sinkhorn_assign
from segdiscover.train import DiscoveryConfig, ExperimentConfig, train


def verdict(number, ok, detail):
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def unit_similarity_scores(rng, rho, m, dim=32):
    protos = rng.normal(size=(dim, rho))
    feats = rng.normal(size=(dim, m))
    return (protos / np.linalg.norm(protos, axis=0)).T @ (feats / np.linalg.norm(feats, axis=0))


# ---------------------------------------------------------------------------
# shared toy experiment (criteria 5 and 11)
# ---------------------------------------------------------------------------

TOY_SEEDS = (0, 1, 2)


def _toy_run(seed, discovery):
    cfg = toy_discovery_config(seed=seed)
    clouds = generate_synthetic(cfg)
    val = generate_synthetic(dataclasses.replace(cfg, n_scenes=50, seed=seed + 10_000))
    exp = ExperimentConfig(
        train=TrainConfig(epochs=10, batch_size=4, seed=seed),
        discovery=discovery,
    )
    result = train(clouds, cfg.split(), exp, val_clouds=val)
    bound = constant_predictor_bound(val, cfg.split())
    return result.metrics[-1]["novel_mIoU"], bound


@pytest.fixture(scope="module")
def toy_full_runs():
    start = time.monotonic()
    runs = [_toy_run(seed, DiscoveryConfig(percentile=0.5)) for seed in TOY_SEEDS]
    elapsed = time.monotonic() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def toy_nofilter_runs():
    discovery = DiscoveryConfig(use_queue=False, phi_queue=False, tau_train=False,
                                overcluster=True, percentile=0.5)
    return [_toy_run(seed, discovery) for seed in TOY_SEEDS]


# ---------------------------------------------------------------------------


def test_criterion_01_sinkhorn_marginals():
    rng = np.random.default_rng(11)
    start = time.monotonic()
    worst_row = worst_col = 0.0
    cases = 0
    shapes = [(rho, m) for rho in (2, 4, 6, 9) for m in (8, 32, 64)]
    while cases < 100:
        rho, m = shapes[cases % len(shapes)]
        q = sinkhorn_assign(unit_similarity_scores(rng, rho, m), eps=0.05, n_iters=200)
        worst_row = max(worst_row, float(np.abs(q.sum(axis=1) - 1.0 / rho).max()))
        worst_col = max(worst_col, float(np.abs(q.sum(axis=0) - 1.0 / m).max()))
        cases += 1
    elapsed = time.monotonic() - start
    ok = worst_row < 1e-6 and worst_col < 1e-6 and elapsed < 5.0
    verdict(1, ok, f"marginal deviations row {worst_row:.2e} col {worst_col:.2e} in {elapsed:.2f}s")


def test_criterion_02_sinkhorn_oracle_equivalence():
    def converged(scores, eps, tol=1e-12):
        rho, m = scores.shape
        q = np.exp((scores - scores.max(axis=0, keepdims=True)) / eps)
        q /= q.sum()
        for _ in range(200_000):
            q *= (1.0 / m) / q.sum(axis=0, keepdims=True)
            q *= (1.0 / rho) / q.sum(axis=1, keepdims=True)
            if (np.abs(q.sum(axis=0) - 1.0 / m).max() < tol
                    and np.abs(q.sum(axis=1) - 1.0 / rho).max() < tol):
                break
        return q

    rng = np.random.default_rng(5)
    worst = {0.3: 0.0, 0.05: 0.0}
    for _ in range(20):
        scores = unit_similarity_scores(rng, 3, 8)
        for eps in worst:
            dev = float(np.abs(sinkhorn_assign(scores, eps, 3) - converged(scores, eps)).max())
            worst[eps] = max(worst[eps], dev)
    ok = worst[0.3] < 1e-2 and worst[0.05] < 0.1
    verdict(2, ok, f"3-iteration deviation {worst[0.3]:.4f} at eps 0.3, {worst[0.05]:.4f} at eps 0.05")


def test_criterion_03_full_loss_gradient():
    from segdiscover.augment import AugmentConfig, make_views
    from segdiscover.data import UNLABELLED, mask_novel
    from segdiscover.losses import compute_loss_weights
    from segdiscover.model import SegmentationModel
    from segdiscover.sinkhorn import pseudo_labels_from
    from segdiscover.train import _features, _step_loss

    cfg = toy_discovery_config(seed=0, n_scenes=2, points_per_scene=16)
    clouds = generate_synthetic(cfg)
    split = cfg.split()
    masked = mask_novel(clouds, split)
    rng = np.random.default_rng(0)
    model = SegmentationModel(ModelConfig(feature_dim=8, hidden=12, knn=4, heads=2,
                                          overcluster_factor=2), 3, 2, rng)
    pairs = [make_views(c, rng, AugmentConfig(), 2) for c in masked]
    neigh = [c.neighbours(4) for c in masked]
    w_base = compute_loss_weights(masked, split)
    families = model.head_families(False)
    labels = np.concatenate([c.labels for c in masked])
    base_idx = np.flatnonzero(labels != UNLABELLED)
    novel_idx = np.flatnonzero(labels == UNLABELLED)
    slots = split.base_slots(labels[base_idx])

    def build():
        return [_features(model, views, neigh) for views in zip(*pairs)]

    def logits():
        w_stack, b_stack = model.stacked_heads(False)
        return [ad.matmul(w_stack, z, bias=b_stack) for z in build()]

    targets = []
    for z in build():
        scores = np.concatenate([p.data for p in model.novel_p], axis=1).T @ z.data[:, novel_idx]
        q = sinkhorn_assign(scores, 0.3, 3, 2)
        dists = pseudo_labels_from(q.reshape(2, -1, q.shape[1]), novel_idx.size)
        targets.append([(np.ones((2, novel_idx.size), dtype=bool), dists)])

    def loss_value():
        # both heads' swapped terms, summed and halved
        return _step_loss(logits(), targets, families, base_idx, slots, w_base, novel_idx, 2,
                          0.2)[0]

    loss = loss_value()
    ad.backward(loss)
    pick = np.random.default_rng(1)
    worst = 0.0
    for name, p in model.parameters().items():
        if name.startswith("over"):
            continue
        for flat in pick.choice(p.data.size, size=min(3, p.data.size), replace=False):
            flat = int(flat)
            orig = p.data.flat[flat]
            p.data.flat[flat] = orig + 1e-4
            up = float(loss_value().data[0, 0])
            p.data.flat[flat] = orig - 1e-4
            down = float(loss_value().data[0, 0])
            p.data.flat[flat] = orig
            fd = (up - down) / 2e-4
            an = float(p.grad.flat[flat])
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-4))
    verdict(3, worst < 1e-3, f"max relative gradient error {worst:.2e}")


def test_criterion_04_epsilon_endpoints():
    sk = SinkhornConfig(eps_start=0.3, eps_end=0.05)
    start_ok = epsilon_at(sk, 0, 10) == 0.3
    end_ok = epsilon_at(sk, 9, 10) == 0.05
    verdict(4, start_ok and end_ok,
            f"epsilon(0) = {epsilon_at(sk, 0, 10)}, epsilon(final) = {epsilon_at(sk, 9, 10)}")


def test_criterion_05_toy_discovery(toy_full_runs):
    runs, elapsed = toy_full_runs
    scores = [s for s, _ in runs]
    bound = float(np.mean([b for _, b in runs]))
    mean = float(np.mean(scores))
    ok = mean >= 0.60 and elapsed < 600.0
    verdict(5, ok,
            f"novel mIoU {[round(s, 3) for s in scores]} mean {mean:.3f} "
            f"(chance bound {bound:.3f}) in {elapsed:.0f}s")


def test_criterion_06_supervision_isolation(tmp_path):
    cfg = toy_discovery_config(seed=0, n_scenes=6, points_per_scene=48)
    clouds = generate_synthetic(cfg)
    split = cfg.split()
    rng = np.random.default_rng(3)
    shuffled = []
    for c in clouds:
        labels = c.labels.copy()
        novel = np.flatnonzero(np.isin(labels, [3, 4]))
        labels[novel] = rng.permutation(labels[novel])
        shuffled.append(LabelledCloud(c.coords, labels, c.scene_id))

    exp = ExperimentConfig(
        model=ModelConfig(feature_dim=8, hidden=16, knn=4, heads=2, overcluster_factor=2),
        train=TrainConfig(epochs=2, batch_size=2, seed=0),
    )
    for tag, data in (("a", clouds), ("b", shuffled)):
        train(data, split, exp).model.save(tmp_path / f"online_{tag}.ckpt")
    online_ok = (tmp_path / "online_a.ckpt").read_bytes() == (tmp_path / "online_b.ckpt").read_bytes()

    bl_cfg = BaselineConfig(pretrain_epochs=1, finetune_epochs=1, subsample=SubsampleSpec(0.5, 16))
    for tag, data in (("a", clouds), ("b", shuffled)):
        model, _ = run_baseline(data, split, exp.model, exp.train, bl_cfg, exp.augment)
        model.save(tmp_path / f"offline_{tag}.ckpt")
    offline_ok = (tmp_path / "offline_a.ckpt").read_bytes() == (tmp_path / "offline_b.ckpt").read_bytes()
    verdict(6, online_ok and offline_ok,
            f"checkpoints identical under novel-label permutation "
            f"(online: {online_ok}, offline: {offline_ok})")


def test_criterion_07_hungarian_equals_brute_force():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        block = rng.random((n, n))

        best_val, best = -np.inf, None
        for perm in permutations(range(n)):
            val = sum(block[i, perm[i]] for i in range(n))
            if val > best_val:
                best_val, best = val, perm
        if hungarian_max(block) != list(best):
            mismatches += 1
    verdict(7, mismatches == 0, f"{mismatches} mismatches over 200 random blocks")


def test_criterion_08_miou_hand_case():
    cm = ConfusionMatrix(list("abc")).add(list("abbbcc"), list("aabbbc"))
    value = miou(cm, list("abc"))
    verdict(8, value == 0.5, f"six-point confusion case mIoU = {value}")


def test_criterion_09_queue_behaviour():
    rng = np.random.default_rng(9)
    q = FeatureQueue((0, 1), capacity=64)
    feats = rng.normal(size=(4, 110))
    classes = np.array([0] * 100 + [1] * 10)  # 10:1 skew
    q.insert(feats, classes, 1.0, rng)
    sample = q.sample(4, rng)
    balanced_ok = sample.shape == (4, 8)

    capacity = 16
    q2 = FeatureQueue((0, 1), capacity=capacity)
    violations = 0
    for _ in range(100_000):
        op = rng.random()
        if op < 0.7:
            n = int(rng.integers(1, 4))
            q2.insert(rng.normal(size=(4, n)), rng.integers(0, 2, n), float(rng.random()), rng)
        else:
            q2.sample(int(rng.integers(1, 6)), rng)
        if any(size > capacity for size in q2.sizes().values()):
            violations += 1
    verdict(9, balanced_ok and violations == 0,
            f"balanced draw 4+4: {balanced_ok}; capacity violations: {violations}")


def test_criterion_10_phi_monotonicity():
    rng = np.random.default_rng(10)
    failures = 0
    for _ in range(100):
        m = int(rng.integers(1, 80))
        probs = rng.random((int(rng.integers(2, 6)), m))
        probs /= probs.sum(axis=0)
        kept_03 = set(np.flatnonzero(select_phi(probs, 0.3).kept).tolist())
        kept_07 = set(np.flatnonzero(select_phi(probs, 0.7).kept).tolist())
        all_kept = np.flatnonzero(select_phi(probs, 0.0).kept).size == m
        if not (kept_07 <= kept_03 and all_kept):
            failures += 1
    verdict(10, failures == 0, f"{failures} monotonicity violations over 100 sets")


def test_criterion_11_ablation_direction(toy_full_runs, toy_nofilter_runs):
    full_mean = float(np.mean([s for s, _ in toy_full_runs[0]]))
    nf_mean = float(np.mean([s for s, _ in toy_nofilter_runs]))
    verdict(11, full_mean >= nf_mean,
            f"Full mean novel mIoU {full_mean:.3f} vs no-queue/no-filter {nf_mean:.3f}")


def test_criterion_12_training_determinism():
    cfg = toy_discovery_config(seed=0, n_scenes=6, points_per_scene=48)
    clouds = generate_synthetic(cfg)
    exp = ExperimentConfig(
        model=ModelConfig(feature_dim=8, hidden=16, knn=4, heads=2, overcluster_factor=2),
        train=TrainConfig(epochs=2, batch_size=2, seed=7),
    )
    log_a = train(clouds, cfg.split(), exp).metrics_tsv()
    log_b = train(clouds, cfg.split(), exp).metrics_tsv()
    verdict(12, log_a == log_b, "fixed-seed metrics logs are byte-identical")
