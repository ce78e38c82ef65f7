"""The benchmark's workloads: set-up, one round of the operation, checks.

Every package call goes through a module attribute (``data.load_scan_dir``,
``train.train``, ...) so the hooks installed by the run see it.

- ``online-toy``: ``train()`` with the default ``ExperimentConfig`` on the
  seeded five-class toy (200 training scenes and 50 validation scenes of
  512 points), evaluated every epoch. Ten epochs are what discovery needs
  on this toy; two epochs end at novel mIoU 0.
- ``offline-baseline``: ``run_baseline()`` with half the default epochs
  (pretrain 10, fine-tune 5: 750 steps), then ``evaluate()``, on the same
  toy. Stages and their ratio are unchanged; at the default 20 + 10
  epochs a round takes ~45 s, and a full measurement schedule of the
  three workloads (70 runs) comes near its 3,420 s budget.
- ``large-scan-eval``: ``segdiscover eval`` run in-process on validation
  scans of 2k, 6k and 8k points, written in set-up together with a checkpoint
  from a one-epoch ``train()`` on eight small scenes.

The toy workloads keep their scenes in memory, so their set-up time is
generation alone; ``large-scan-eval`` writes its scans and reads them
back through the package, so scan I/O shows in its set-up and wall time.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks

TOY_SCENES, TOY_VAL_SCENES, TOY_POINTS = 200, 50, 512
OFFLINE_EPOCHS = (10, 5)  # pretrain, fine-tune
SCAN_SIZES = (2048, 6144, 8192)  # the median step is the 6,144-point scan
CKPT_SCENES = 8
SAMPLED_POINTS = 64  # per large scan, for the k-NN and forward checks
GRAD_POINTS = 128  # of the first validation scene, for the gradient check


@dataclass
class Dataset:
    split: object
    train: list
    val: list
    train_labels: dict  # scene id -> class ids, copied before the run
    val_labels: dict


def _toy_dataset(seed: int) -> Dataset:
    from segdiscover import data

    syn = data.toy_discovery_config(seed=seed, n_scenes=TOY_SCENES, points_per_scene=TOY_POINTS)
    train = data.generate_synthetic(syn)
    val = data.generate_synthetic(replace(syn, n_scenes=TOY_VAL_SCENES, seed=seed + 10_000))
    copy = lambda clouds: {c.scene_id: c.labels.copy() for c in clouds}  # noqa: E731
    return Dataset(syn.split(), train, val, copy(train), copy(val))


def note(workload, text):
    print(f"{workload.name}: {text}", file=sys.stderr)


def _check_evaluation(evaluation, labels: dict, split) -> list:
    """One ``evaluate`` call's report against a recomputation from its
    predicted slots and the ground truth."""
    clouds, report, slots = evaluation
    gt = [labels[c.scene_id] for c in clouds]
    if [len(s) for s in slots] != [len(g) for g in gt]:
        return [f"predictions cover {[len(s) for s in slots]} points, scenes have {[len(g) for g in gt]}"]
    expected = checks.recompute_report(
        gt, slots, sorted(split.base_classes), sorted(split.novel_classes)
    )
    return checks.compare_report(report, expected)


class Workload:
    setups = 11  # set-ups per run; setup_s is their median
    min_rounds = 1
    steps_from = "optimizer"  # or "scans": a step is one scan scored
    keep_knn = False  # keep k-NN results of the measured rounds for the checks


class OnlineToy(Workload):
    name = "online-toy"

    def setup(self, seed, root):
        return _toy_dataset(seed)

    def run(self, ds):
        from segdiscover import train
        from segdiscover.train import ExperimentConfig

        return train.train(ds.train, ds.split, ExperimentConfig(), val_clouds=ds.val)

    def check(self, ds, outputs, probe, seed):
        from segdiscover import autodiff as ad
        from segdiscover.losses import TrainConfig, weighted_ce

        result = outputs[-1]
        labels = ds.val_labels
        problems = _check_evaluation(probe.evaluations[-1], labels, ds.split)
        report = probe.evaluations[-1][1]
        last = result.metrics[-1]
        for key in ("novel_mIoU", "base_mIoU", "all_mIoU"):
            if last[key] != getattr(report, key.replace("mIoU", "miou")):
                problems.append(f"metrics row {key} {last[key]} differs from the final report")
        novel = sorted(ds.split.novel_classes)
        bound = checks.chance_bound(list(labels.values()), novel)
        if not last["novel_mIoU"] > bound:
            problems.append(f"novel mIoU {last['novel_mIoU']:.4f} not above chance {bound:.4f}")
        note(self, f"novel mIoU {last['novel_mIoU']:.4f}, chance bound {bound:.4f}")

        # central differences of a loss built from public functions
        model = result.model
        cloud = ds.val[0]
        coords = cloud.coords[:GRAD_POINTS]
        base_order = sorted(ds.split.base_classes)
        slot_of = {c: i for i, c in enumerate(base_order)}
        slot_of.update({c: len(base_order) + j for j, c in enumerate(novel)})
        target = np.zeros((len(slot_of), len(coords)))
        target[[slot_of[int(c)] for c in cloud.labels[:GRAD_POINTS]], np.arange(len(coords))] = 1.0
        weights = np.linspace(0.5, 1.5, len(slot_of))
        head = model.selected_head
        temperature = TrainConfig().temperature

        def loss_tensor():
            z = model.extract_features(coords)
            logits = ad.concat_rows([model.base_logits(z), model.novel_logits(z, head)])
            pred = ad.softmax_cols(ad.mul(logits, 1.0 / temperature))
            return weighted_ce(pred, target, weights)

        params = model.parameters()
        for p in params.values():
            p.zero_grad()
        ad.backward(loss_tensor())
        grads = {name: p.grad.copy() for name, p in params.items()}
        for p in params.values():
            p.zero_grad()
        rng = np.random.default_rng(seed)
        names = ["enc1.w", "enc1.b", "enc2.w", "proj.w", "proj.b", "base.w", "base.b", f"novel{head}.p"]
        picks = [(n, int(i)) for n in names for i in rng.choice(params[n].data.size, 3, replace=False)]
        grad_problems, skipped = checks.check_gradient(
            lambda: float(loss_tensor().data[0, 0]), grads,
            {n: params[n].data for n in names}, picks,
        )
        problems += grad_problems
        note(self, f"gradient check: {len(picks) - skipped} entries compared, {skipped} skipped")
        if skipped > len(picks) // 4:
            problems.append(f"gradient check skipped {skipped} of {len(picks)} entries at kinks")
        return problems


class OfflineBaseline(Workload):
    name = "offline-baseline"

    def setup(self, seed, root):
        return _toy_dataset(seed)

    def run(self, ds):
        from segdiscover import baseline, evaluate
        from segdiscover.augment import AugmentConfig
        from segdiscover.losses import TrainConfig
        from segdiscover.model import ModelConfig

        cfg = baseline.BaselineConfig(
            pretrain_epochs=OFFLINE_EPOCHS[0], finetune_epochs=OFFLINE_EPOCHS[1]
        )
        model, pseudo = baseline.run_baseline(
            ds.train, ds.split, ModelConfig(), TrainConfig(), cfg, AugmentConfig()
        )
        return model, pseudo, evaluate.evaluate(model, ds.val, ds.split)

    def check(self, ds, outputs, probe, seed):
        _model, pseudo, report = outputs[-1]
        split = ds.split
        problems = []
        if not probe.kmeans:
            problems.append("k-means was never called")
        for features, k, centroids, assignments in probe.kmeans[-1:]:
            if centroids.shape != (k, features.shape[1]):
                problems.append(f"centroids {centroids.shape} for k={k}")
            problems += checks.check_kmeans(features, centroids, assignments)
        problems += checks.check_pseudo_labels(
            pseudo, ds.train_labels, split.novel_classes, split.n_novel
        )
        if not pseudo:
            problems.append("no pseudo-labels")
        note(self, f"k-means over {len(probe.kmeans[-1][0]) if probe.kmeans else 0} points, "
                   f"{sum(i.size for i, _ in pseudo.values())} pseudo-labels checked")
        evaluation = probe.evaluations[-1]
        if evaluation[1] is not report:
            problems.append("the last evaluation is not the workload's report")
        problems += _check_evaluation(evaluation, ds.val_labels, split)
        return problems


@dataclass
class ScanSet:
    root: Path
    checkpoint: Path
    names: dict
    split: object
    out: Path
    rounds: int = 0


class LargeScanEval(Workload):
    name = "large-scan-eval"
    setups = 5
    # the first round faults in ~2.3 GB and runs ~60% slower; the median
    # of three or more rounds is a warm one
    min_rounds = 3
    steps_from = "scans"  # no optimizer steps here
    keep_knn = True

    def setup(self, seed, root):
        from segdiscover import data, train
        from segdiscover.losses import TrainConfig
        from segdiscover.train import ExperimentConfig

        syn = data.toy_discovery_config(seed=seed, n_scenes=CKPT_SCENES, points_per_scene=TOY_POINTS)
        small = data.generate_synthetic(syn)
        scans = []
        for j, size in enumerate(SCAN_SIZES):
            one = replace(syn, n_scenes=1, points_per_scene=size, seed=seed + 1000 * (j + 1))
            cloud = data.generate_synthetic(one)[0]
            scans.append(data.LabelledCloud(cloud.coords, cloud.labels, scene_id=f"{j:04d}"))
        names = syn.class_names()
        data.write_scan_dir(root / "train", small)
        data.write_scan_dir(root / "val", scans)
        data.write_class_names(root / "classes.txt", names)
        data.write_split_file(root / "split.txt", syn.split(), names)
        cfg = replace(ExperimentConfig(), train=replace(TrainConfig(), epochs=1))
        result = train.train(small, syn.split(), cfg)
        ckpt = root / "model.ckpt"
        result.model.save(ckpt)
        return ScanSet(root, ckpt, names, syn.split(), root / "eval")

    def run(self, scans):
        from segdiscover import cli

        out = scans.out / f"round{scans.rounds}"
        scans.rounds += 1
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([
                "eval", "--dataset", str(scans.root), "--checkpoint", str(scans.checkpoint),
                "--out", str(out),
            ])
        if code != 0:
            raise RuntimeError(f"segdiscover eval exited with {code}")
        return stdout.getvalue(), (out / "report.tsv").read_text()

    def check(self, scans, outputs, probe, seed):
        printed, tsv = outputs[-1]
        problems = []
        if any(o != outputs[0] for o in outputs):
            problems.append("rounds disagree on the report")
        if printed != tsv:
            problems.append("printed report differs from report.tsv")
        val = scans.root / "val"
        files = sorted((val / "scans").glob("*.bin"))
        scenes = [checks.read_scan(p, val / "labels" / f"{p.stem}.label") for p in files]
        evaluation = probe.evaluations[-1]
        labels = {p.stem: lab for p, (_, lab) in zip(files, scenes)}
        problems += _check_evaluation(evaluation, labels, scans.split)
        problems += checks.compare_report(
            {**checks.parse_report_tsv(tsv, scans.names), "mapping": evaluation[1].mapping},
            checks.recompute_report(
                [lab for _, lab in scenes], evaluation[2],
                sorted(scans.split.base_classes), sorted(scans.split.novel_classes),
            ),
            tol=5e-5,
        )

        params = checks.read_checkpoint(scans.checkpoint)
        head = int(params["meta.selected_head"].reshape(-1)[0])
        knn = probe.knn[-len(files):]
        rng = np.random.default_rng(seed)
        skipped = checked = 0
        for (coords, _), (prog_coords, k, neighbours), slots in zip(scenes, knn, evaluation[2]):
            if not np.array_equal(coords, prog_coords):
                problems.append("scan coordinates differ from the file")
                continue
            sample = rng.choice(len(coords), SAMPLED_POINTS, replace=False)
            for found, skip in (
                checks.check_knn(coords, neighbours, k, sample),
                checks.check_forward(params, coords, slots, k, head, sample),
            ):
                problems += found
                skipped += skip
                checked += len(sample)
        if len(knn) != len(files):
            problems.append(f"{len(knn)} k-NN results for {len(files)} scans")
        note(self, f"k-NN and forward checks: {checked - skipped} compared, {skipped} skipped")
        if skipped > checked // 10:
            problems.append(f"{skipped} of {checked} sampled points skipped as near-ties")
        return problems


WORKLOADS = {w.name: w for w in (OnlineToy(), OfflineBaseline(), LargeScanEval())}
