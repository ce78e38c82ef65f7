#!/usr/bin/env python3
"""Toy discovery experiment: train the full method on the synthetic
benchmark over several seeds and report novel mIoU against the
constant-predictor chance bound.

Usage: python scripts/run_toy_discovery.py [--seeds 0 1 2] [--epochs 10]
"""

import argparse
import sys
import time

import numpy as np

from segdiscover.data import VAL_SCENES, generate_synthetic, toy_discovery_config, validation_scenes
from segdiscover.evaluate import constant_predictor_bound
from segdiscover.losses import TrainConfig
from segdiscover.train import ExperimentConfig, train


def main(argv=None):
    toy = toy_discovery_config()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    parser.add_argument("--scenes", type=int, default=toy.n_scenes)
    parser.add_argument("--points", type=int, default=toy.points_per_scene)
    args = parser.parse_args(argv)

    scores = []
    start = time.monotonic()
    for seed in args.seeds:
        cfg = toy_discovery_config(seed=seed, n_scenes=args.scenes, points_per_scene=args.points)
        clouds = generate_synthetic(cfg)
        val = validation_scenes(cfg, VAL_SCENES)
        exp = ExperimentConfig(train=TrainConfig(epochs=args.epochs, seed=seed))
        result = train(clouds, cfg.split(), exp, val_clouds=val, log=sys.stderr)
        last = result.metrics[-1]
        bound = constant_predictor_bound(val, cfg.split())
        scores.append(last["novel_mIoU"])
        print(
            f"seed {seed}: novel mIoU {last['novel_mIoU']:.3f} "
            f"base {last['base_mIoU']:.3f} all {last['all_mIoU']:.3f} "
            f"(chance bound {bound:.3f})"
        )
    print(
        f"mean novel mIoU over {len(scores)} seeds: {np.mean(scores):.3f} "
        f"in {time.monotonic() - start:.0f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
