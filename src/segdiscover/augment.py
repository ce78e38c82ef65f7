"""Paired random views for the swapped prediction task.

A view is a cloud's coordinates, augmented. Both views of a cloud keep
point order, so point i in view A is point i in view B, and both share
the cloud's labels and neighbour graph; pseudo-labels can be swapped
across views directly. The augmentation family is rotation about the
vertical axis, a global isotropic scale, and per-point Gaussian jitter;
anything that drops or reorders points would break the correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabelledCloud


@dataclass(frozen=True)
class AugmentConfig:
    rotate: bool = True
    scale_lo: float = 0.95
    scale_hi: float = 1.05
    jitter_sigma: float = 0.01  # meters

    def __post_init__(self):
        if self.scale_lo <= 0.0:
            raise ValueError(f"scale_lo must be positive, got {self.scale_lo}")
        if self.scale_lo > self.scale_hi:
            raise ValueError("scale_lo must not exceed scale_hi")
        if self.jitter_sigma < 0.0:
            raise ValueError("jitter_sigma must be non-negative")


def _augment_once(coords: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    theta = rng.uniform(0.0, 2.0 * np.pi) if cfg.rotate else 0.0
    scale = rng.uniform(cfg.scale_lo, cfg.scale_hi)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    coords = scale * (coords @ rot.T)
    if cfg.jitter_sigma > 0.0:
        coords = coords + rng.normal(0.0, cfg.jitter_sigma, coords.shape)
    return coords


def make_views(cloud: LabelledCloud, rng: np.random.Generator, cfg: AugmentConfig,
               n_views: int) -> tuple[np.ndarray, ...]:
    """``n_views`` independently augmented (n, 3) coordinate arrays of ``cloud``."""
    return tuple(_augment_once(cloud.coords, cfg, rng) for _ in range(n_views))
