#!/usr/bin/env python3
"""Toy discovery experiment: train the full method on the synthetic
benchmark over several seeds and report novel mIoU against the
constant-predictor chance bound. With ``--baseline`` each seed also runs
the offline baseline on the same data, so one run holds the paper's
comparison; ``--json`` appends the run's record (per-seed values,
medians, the mean points per class per training scene, the source's git
sha and the host) to a file.

``--split`` picks the split shape: ``toy`` (the five-class toy, two
novel), or a builtin split of a real dataset, whose class and novel
counts are taken for ``generic`` archetypes: ``kitti-5-0`` is 19 classes
with 5 novel, ``poss-4-0`` 13 with 4. Each seed runs at the generator's
and ``TrainConfig``'s defaults (200 scenes of 512 points, 10 epochs).

Usage: python scripts/run_toy_discovery.py [--seeds 0 1 2] [--baseline]
           [--split toy|kitti-5-0|poss-4-0|...] [--json QUALITY.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import segdiscover
from segdiscover.augment import AugmentConfig
from segdiscover.baseline import BaselineConfig, run_baseline
from segdiscover.data import (
    VAL_SCENES,
    DataConfig,
    builtin_splits,
    class_counts,
    generate_synthetic,
    validation_scenes,
)
from segdiscover.evaluate import constant_predictor_bound, evaluate
from segdiscover.losses import TrainConfig
from segdiscover.model import ModelConfig
from segdiscover.train import ExperimentConfig, train

SCORES = ("novel", "base", "all")
DATASETS = ("semantickitti", "semanticposs")


def split_shapes() -> dict:
    """(classes, novel) per split shape name: the toy's, then every
    builtin split of the real datasets."""
    shapes = {"toy": (DataConfig().classes, DataConfig().novel)}
    for dataset in DATASETS:
        for split in builtin_splits(dataset):
            shapes[split.name] = (len(split.base_classes) + split.n_novel, split.n_novel)
    return shapes


def synthetic_config(shape: str, seed: int):
    """The training scenes' generator config for a split shape."""
    classes, novel = split_shapes()[shape]
    return DataConfig(archetypes="toy" if shape == "toy" else "generic", classes=classes,
                      novel=novel).synthetic(seed)


def source_sha():
    """The git commit of the imported package's source, marked ``-dirty``
    when its tree has changes; None outside a git checkout."""
    where = Path(segdiscover.__file__).resolve().parent

    def git(*args):
        return subprocess.run(["git", "-C", str(where), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        return sha + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    except (OSError, subprocess.CalledProcessError):
        return None


def host():
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--baseline", action="store_true",
                        help="also run the offline baseline on every seed")
    parser.add_argument("--split", default="toy", choices=split_shapes(),
                        help="split shape: the toy, or a real dataset's builtin split")
    parser.add_argument("--json", type=Path, help="append this run's record to this file")
    args = parser.parse_args(argv)

    sha = source_sha()  # of the source as imported, before the runs
    methods = {"online": {s: [] for s in SCORES}}
    if args.baseline:
        methods["baseline"] = {s: [] for s in SCORES}
    bounds, points = [], []
    start = time.monotonic()
    for seed in args.seeds:
        cfg = synthetic_config(args.split, seed)
        clouds = generate_synthetic(cfg)
        counts = class_counts(clouds, range(cfg.n_classes))
        points.append({c: n / len(clouds) for c, n in counts.items()})
        val = validation_scenes(cfg, VAL_SCENES)
        exp = ExperimentConfig(train=TrainConfig(seed=seed))
        result = train(clouds, cfg.split(), exp, val_clouds=val, log=sys.stderr)
        last = result.metrics[-1]
        reports = {"online": (last["novel_mIoU"], last["base_mIoU"], last["all_mIoU"])}
        if args.baseline:
            model, _ = run_baseline(clouds, cfg.split(), ModelConfig(), exp.train,
                                    BaselineConfig(), AugmentConfig())
            report = evaluate(model, val, cfg.split(),
                              neighbours=[c.neighbours(model.cfg.knn) for c in val])
            reports["baseline"] = (report.novel_miou, report.base_miou, report.all_miou)
        bound = constant_predictor_bound(val, cfg.split())
        bounds.append(bound)
        for method, values in reports.items():
            for score, value in zip(SCORES, values):
                methods[method][score].append(float(value))
            novel, base, all_ = values
            print(
                f"seed {seed}: {'' if method == 'online' else method + ' '}novel mIoU {novel:.3f} "
                f"base {base:.3f} all {all_:.3f} (chance bound {bound:.3f})"
            )
    wall = time.monotonic() - start
    if args.baseline:
        novel = methods["baseline"]["novel"]
        print(f"baseline mean novel mIoU over {len(novel)} seeds: {np.mean(novel):.3f}")
    print(f"mean novel mIoU over {len(bounds)} seeds: {np.mean(methods['online']['novel']):.3f} "
          f"in {wall:.0f}s")
    if args.json is not None:
        record = {
            "sha": sha, "host": host(), "seeds": args.seeds,
            "split": {"shape": args.split, "classes": cfg.n_classes,
                      "novel": len(cfg.novel_classes)},
            "sizes": {"scenes": cfg.n_scenes, "points": cfg.points_per_scene,
                      "epochs": exp.train.epochs},
            "points_per_class_per_scene": points,
            "chance_bound": bounds,
            "per_seed": methods,
            "medians": {method: {s: statistics.median(v) for s, v in scores.items()}
                        for method, scores in methods.items()},
            "wall_s": wall,
        }
        runs = json.loads(args.json.read_text())["runs"] if args.json.exists() else []
        args.json.write_text(json.dumps({"runs": runs + [record]}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
