"""Weighted and tempered cross entropy, base-class loss weights, LR
schedule, optimizer and the epoch-and-batch driver both training methods
step through.

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
    """Softmax cross entropy of ``logits / temperature`` against a
    weighted one-hot base target and head families, as one tape node.

    The base rows are the first ``len(weights)`` rows of ``logits``:
    column ``cols[j]`` targets base row ``slots[j]`` with weight
    ``weights[slots[j]]``. Each family is ``(start, target, kept)``: H
    heads of K rows each, head by head from row ``start``, with targets
    ``target`` (H, K, c) at the c columns ``fcols`` that all families
    share, of which head h scores those that ``kept[h]`` (H, c) marks.
    Head h's column softmax q runs over the base rows and its own K rows
    of ``logits / temperature``, and its value is the mean over its
    ``len(cols) + kept[h].sum()`` scored columns of
    -sum_r t_rj log max(q_rj, LOG_FLOOR): the base target counts in every
    head. The result is a column of one value per head, family by
    family; without families, one value of the softmax over the base
    rows alone. A head with no scored column scores 0 and passes no
    gradient; neither ``cols`` nor ``fcols`` may repeat a column.

    The node is fused: each family takes one column shift over the base
    rows and all of its rows, so one exponential of the base rows serves
    its every head, and log q is the shifted logit less the log of its
    head's normaliser. Backward is the closed form
    (q T - t) / (m temperature) per head, T being each column's target
    mass over the entries with q >= LOG_FLOOR: below the floor the log
    is constant and passes no gradient.
    """
    scale = 1.0 / temperature
    data = logits.data
    n_rows, n_cols = data.shape

    def distinct(index, what):
        """``index`` as distinct indices of the logits' columns."""
        index = np.asarray(index, dtype=np.intp).reshape(-1)
        if not index.size:
            return index
        if index.min() < 0 or index.max() >= n_cols:
            problem = f"columns outside [0, {n_cols})"
        else:
            seen = np.zeros(n_cols, dtype=bool)
            seen[index] = True
            if np.count_nonzero(seen) == index.size:
                return index
            problem = "repeats a column"
        raise ad.ShapeError(f"tempered_ce {logits.label()}: {what} {problem}")

    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    n_base = weights.size
    cols = distinct(cols, "the base target")
    slots = np.asarray(slots, dtype=np.intp).reshape(-1)
    if (n_base > n_rows or slots.size != cols.size
            or slots.size and (slots.min() < 0 or slots.max() >= n_base)):
        raise ad.ShapeError(
            f"tempered_ce {logits.label()}: {slots.size} base slots in "
            f"[0, {n_base}) for {cols.size} columns of {n_rows} rows"
        )
    if families:
        fcols = distinct(fcols, "the head target")
    log_floor = np.log(LOG_FLOOR)
    base = data[:n_base] * scale
    base_max = base.max(axis=0, initial=-np.inf)
    w_labels = weights[slots]
    values, scored = [], []
    # without families, one head of no rows: the softmax over the base rows
    for f, family in enumerate(families or [None]):
        heads, rows_part = 1, None
        shift, z = base_max, 0.0
        if family is not None:
            start, target, kept = family
            target = np.asarray(target, dtype=np.float64)
            kept = np.asarray(kept, dtype=bool)
            heads, k = target.shape[:2] if target.ndim == 3 else (0, 0)
            if (target.shape != (heads, k, fcols.size) or kept.shape != (heads, fcols.size)
                    or not n_base <= start <= n_rows - heads * k):
                raise ad.ShapeError(
                    f"tempered_ce {logits.label()}: family {f} has target "
                    f"{target.shape} and kept {kept.shape} for {fcols.size} columns from row "
                    f"{start} of {n_rows}, past {n_base} base rows"
                )
            rows = data[start:start + heads * k].reshape(heads, k, n_cols) * scale
            shift = np.maximum(base_max, rows.max(axis=(0, 1), initial=-np.inf))
            rows -= shift
            # log q at the scored entries: the shifted logit less log z
            log_q_rows = np.take(rows, fcols, axis=2)
            e_rows = np.exp(rows, out=rows)
            z = e_rows.sum(axis=1)
        x_base = base - shift
        log_q_base = x_base[slots, cols]
        e_base = np.exp(x_base, out=x_base)
        z = e_base.sum(axis=0, keepdims=True) + z
        log_z = np.log(z)
        log_q_base = log_q_base - log_z[:, cols]
        logs = np.maximum(log_q_base, log_floor) @ w_labels
        counts = np.full(heads, cols.size)
        if family is not None:
            log_q_rows -= log_z[:, None, fcols]
            t_rows = target * kept[:, None, :]
            counts += np.count_nonzero(kept, axis=1)
            logs += (t_rows * np.maximum(log_q_rows, log_floor)).reshape(heads, -1).sum(axis=1)
            # each head's targets where q >= floor, the only entries whose log moves
            t_rows *= log_q_rows >= log_floor
            rows_part = (start, e_rows, t_rows)
        values.append(np.where(counts > 0, -logs / np.maximum(counts, 1), 0.0))
        if counts.any():
            t_base = w_labels * (log_q_base >= log_floor)
            scored.append((f, e_base, z, t_base, counts, rows_part))
    out = np.concatenate(values)[:, None]
    if not scored:
        return ad.Tensor(out)
    first = np.cumsum([0] + [v.size for v in values]).tolist()

    def backward(grad, acc):
        g = np.zeros_like(data)
        for f, e_base, z, t_base, counts, rows_part in scored:
            coef = (scale / np.maximum(counts, 1)) * grad[first[f]:first[f + 1], 0]
            t_base *= coef[:, None]
            # q T summed over heads: each column's target mass over its normaliser
            mass = np.zeros(z.shape)
            mass[:, cols] = t_base
            if rows_part is not None:
                start, e_rows, t_rows = rows_part
                heads, k = e_rows.shape[:2]
                t_rows *= coef[:, None, None]
                mass[:, fcols] += t_rows.sum(axis=1)
            mass /= z
            g[:n_base] += e_base * mass.sum(axis=0)
            g[slots, cols] -= t_base.sum(axis=0)
            if rows_part is not None:
                e_rows *= mass[:, None, :]
                g_rows = g[start:start + heads * k]
                g_rows += e_rows.reshape(heads * k, n_cols)
                g_rows[:, fcols] -= t_rows.reshape(heads * k, fcols.size)
        acc(logits, g)

    return ad.record(out, (logits,), backward)


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
