"""Weighted cross entropy, base-class loss weights, LR schedule, optimizer
and the epoch-and-batch driver both training methods step through.

Base-class loss weights are inverse relative frequencies normalized to
mean one, in the split's base-slot order (``SplitSpec.base_slots``);
novel slots all weigh one because their frequency is unknown by
construction, and the callers that train them append those ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import SplitSpec, class_counts

LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 4
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_max: float = 1e-2
    lr_min: float = 1e-5
    warmup_fraction: float = 0.1
    # softmax temperature for training predictions; prototype logits are
    # bounded by the feature norm, so the cross entropy needs sharpening
    # to produce decisive margins against the unconstrained base head
    temperature: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1:
            raise ValueError("epochs and batch_size must be positive")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ValueError("warmup_fraction must be in [0, 1)")
        if min(self.lr_max, self.lr_min, self.momentum, self.weight_decay) < 0:
            raise ValueError("optimizer settings must be non-negative")
        if self.momentum >= 1.0:
            raise ValueError(f"momentum must be below 1, got {self.momentum}")
        if self.lr_min > self.lr_max:
            raise ValueError("lr_min must not exceed lr_max")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


def compute_loss_weights(clouds, split: SplitSpec) -> np.ndarray:
    """Inverse relative-frequency weights of the sorted base classes, from
    training occurrences, normalized to mean one by a left-to-right sum."""
    counts = class_counts(clouds, split.base_order)
    total = sum(counts.values())
    if total == 0:
        return np.ones(len(counts))
    # absent base classes fall back to the strongest reweighting present
    inv = {c: total / cnt for c, cnt in counts.items() if cnt > 0}
    fallback = max(inv.values())
    inv = [inv.get(c, fallback) for c in counts]
    mean = sum(inv) / len(inv)
    return np.array([v / mean for v in inv])


def weighted_ce(pred, target, weights) -> "ad.Tensor":
    """Mean over points of -sum_c w_c t_c log q_c, log clamped at 1e-12.

    ``pred`` may be an autodiff tensor (columns are predicted
    distributions) so the loss can be differentiated; ``target`` and
    ``weights`` are constants.
    """
    pred_t = pred if isinstance(pred, ad.Tensor) else ad.constant(np.asarray(pred, dtype=np.float64))
    target = np.asarray(target, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if target.shape != pred_t.data.shape:
        raise ad.ShapeError(
            f"weighted_ce: prediction {pred_t.data.shape} vs target {target.shape}"
        )
    if weights.shape[0] != target.shape[0]:
        raise ad.ShapeError("weighted_ce: one weight per class required")
    m = target.shape[1]
    if m == 0:
        return ad.constant(0.0)
    wt = ad.constant(weights[:, None] * target)
    return ad.mul(ad.sum_all(ad.mul(wt, ad.log(pred_t, floor=LOG_FLOOR))), -1.0 / m)


def tempered_ce(logits, cols, slots, weights, fcols, families, temperature) -> "ad.Tensor":
    """Cross entropy of the column softmax of ``logits / temperature``
    against the weighted one-hot base target (column ``cols[j]`` on base
    row ``slots[j]``, rows weighted by ``weights``) and the head
    ``families`` of ``autodiff.softmax_cross_entropy`` at columns
    ``fcols``, as one fused tape node: a column of one value per head,
    family by family, or a single value over the base rows alone when
    there is no family."""
    return ad.softmax_cross_entropy(
        logits, cols, slots, weights, fcols, families, scale=1.0 / temperature, floor=LOG_FLOOR
    )


def lr_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    """Linear warm-up to lr_max, then cosine annealing to lr_min.

    The warm-up takes ``round(warmup_fraction * total_steps)`` steps. When
    that is at most ``total_steps - 2``, the last step of training
    (``total_steps - 1``) lands exactly on lr_min. Otherwise the last step
    is still warming up, or is the first step after the warm-up, at
    lr_max; a one-step run at the default settings takes its step at lr_max.
    """
    if not (0 <= step <= total_steps):
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = int(round(cfg.warmup_fraction * total_steps))
    if step < warmup:
        return cfg.lr_max * step / warmup
    span = max(1, total_steps - 1 - warmup)
    progress = min(1.0, (step - warmup) / span)
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + np.cos(np.pi * progress))


class SGD:
    """SGD with momentum and decoupled-from-schedule weight decay."""

    def __init__(self, params: dict, momentum: float, weight_decay: float):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr: float):
        for name, p in self.params.items():
            g = p.grad + self.weight_decay * p.data
            v = self.velocity[name]
            v *= self.momentum
            v += g
            p.data -= lr * v
            if not np.isfinite(p.data).all():
                raise ValueError(f"SGD step at lr {lr:g} left parameter {name} non-finite")

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def fit(model, n_scenes: int, cfg: TrainConfig, epochs: int, rng: np.random.Generator,
        batch_loss, end_epoch=None):
    """Train ``model`` for ``epochs`` shuffled passes over ``n_scenes`` scenes.

    Each epoch draws one permutation of the scene indices from ``rng`` and
    cuts it into batches of ``cfg.batch_size``; the batches of all epochs
    follow one ``lr_at`` schedule. ``batch_loss(scene_ids, last_lr)``
    builds the batch's scalar loss, ``last_lr`` being the previous batch's
    rate (0 before the first); the driver backpropagates it and takes one
    SGD step. A None loss takes no step, but its batch still uses up its
    rate. ``end_epoch(epoch, lr)``, when given, runs after each epoch's
    last batch, ``lr`` being that batch's rate.
    """
    opt = SGD(model.parameters(), cfg.momentum, cfg.weight_decay)
    n_batches = -(-n_scenes // cfg.batch_size)
    total_steps = epochs * n_batches
    lr = 0.0
    for epoch in range(epochs):
        order = rng.permutation(n_scenes)
        for b in range(n_batches):
            last_lr, lr = lr, lr_at(cfg, epoch * n_batches + b, total_steps)
            loss = batch_loss(order[b * cfg.batch_size:(b + 1) * cfg.batch_size], last_lr)
            if loss is not None:
                opt.zero_grad()
                ad.backward(loss)
                opt.step(lr)
        if end_epoch is not None:
            end_epoch(epoch, lr)
