"""Flat key=value configuration for runs.

Every tunable lives under a module prefix (``sk.iters``,
``queue.capacity``, ...). A run resolves defaults, then an optional
config file, then command-line overrides, and writes the result to
``config.resolved`` so any run can be reproduced from that file alone.
Both the file and the overrides go through ``data.parse_key_values``,
which strips keys and values and refuses an unknown or repeated key.
Every key is a field of a config dataclass: ``FIELDS`` maps each key to
its field, whose default gives the key's default text and its value's
type, and whose dataclass checks the value. A value the dataclass
refuses is reported with the keys set under it, before a run reads a
scan or writes anything.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

from .baseline import BaselineConfig
from .data import DataConfig, parse_key_values, read_key_values
from .train import ExperimentConfig

# flat key -> (root config class, dotted field path under it)
FIELDS = {
    "aug.rot": (ExperimentConfig, "augment.rotate"),
    "aug.scale_lo": (ExperimentConfig, "augment.scale_lo"),
    "aug.scale_hi": (ExperimentConfig, "augment.scale_hi"),
    "aug.jitter_sigma": (ExperimentConfig, "augment.jitter_sigma"),
    "model.D": (ExperimentConfig, "model.feature_dim"),
    "model.hidden": (ExperimentConfig, "model.hidden"),
    "model.k": (ExperimentConfig, "model.knn"),
    "model.heads": (ExperimentConfig, "model.heads"),
    "model.overcluster_factor": (ExperimentConfig, "model.overcluster_factor"),
    "model.eval_head": (ExperimentConfig, "model.eval_head"),
    "sk.iters": (ExperimentConfig, "sinkhorn.iters"),
    "sk.eps_start": (ExperimentConfig, "sinkhorn.eps_start"),
    "sk.eps_end": (ExperimentConfig, "sinkhorn.eps_end"),
    "queue.capacity": (ExperimentConfig, "queue.capacity"),
    "queue.insert_fraction": (ExperimentConfig, "queue.insert_fraction"),
    "queue.sample_per_class": (ExperimentConfig, "queue.sample_per_class"),
    "unc.p": (ExperimentConfig, "discovery.percentile"),
    "train.epochs": (ExperimentConfig, "train.epochs"),
    "train.batch_size": (ExperimentConfig, "train.batch_size"),
    "train.momentum": (ExperimentConfig, "train.momentum"),
    "train.weight_decay": (ExperimentConfig, "train.weight_decay"),
    "train.lr_max": (ExperimentConfig, "train.lr_max"),
    "train.lr_min": (ExperimentConfig, "train.lr_min"),
    "train.warmup_fraction": (ExperimentConfig, "train.warmup_fraction"),
    "train.temperature": (ExperimentConfig, "train.temperature"),
    "train.seed": (ExperimentConfig, "train.seed"),
    "disc.use_queue": (ExperimentConfig, "discovery.use_queue"),
    "disc.phi_queue": (ExperimentConfig, "discovery.phi_queue"),
    "disc.tau_train": (ExperimentConfig, "discovery.tau_train"),
    "disc.overcluster": (ExperimentConfig, "discovery.overcluster"),
    "offline.pretrain_epochs": (BaselineConfig, "pretrain_epochs"),
    "offline.finetune_epochs": (BaselineConfig, "finetune_epochs"),
    "offline.ratio": (BaselineConfig, "subsample.ratio"),
    "offline.cap": (BaselineConfig, "subsample.cap"),
    "offline.overcluster": (BaselineConfig, "overcluster"),
    "offline.overcluster_factor": (BaselineConfig, "overcluster_factor"),
    "data.scenes": (DataConfig, "scenes"),
    "data.val_scenes": (DataConfig, "val_scenes"),
    "data.points": (DataConfig, "points"),
    "data.archetypes": (DataConfig, "archetypes"),
    "data.classes": (DataConfig, "classes"),
    "data.novel": (DataConfig, "novel"),
    "data.dropout": (DataConfig, "dropout"),
}


def _field_default(root, path):
    value = root()
    for name in path.split("."):
        value = getattr(value, name)
    return value


def _text(value) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    return str(value)


DEFAULTS = {key: _text(_field_default(root, path)) for key, (root, path) in FIELDS.items()}


def resolve(file_path=None, overrides=()) -> dict:
    cfg = dict(DEFAULTS)
    if file_path is not None:
        cfg.update(read_key_values(file_path, DEFAULTS))
    # an override replaces a file's or a default value, but is given once
    cfg.update(parse_key_values((("override", item) for item in overrides), DEFAULTS))
    return cfg


def write_resolved(path, cfg: dict):
    Path(path).write_text("".join(f"{k}={cfg[k]}\n" for k in sorted(cfg)))


def _flag(key, text) -> bool:
    value = text.lower()
    if value in ("on", "true", "1", "yes"):
        return True
    if value in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"{key}: expected on/off, got {text!r}")


def _parse(key, text, default):
    """``text`` as the type of the field's ``default``; a float must be finite."""
    if isinstance(default, bool):
        return _flag(key, text)
    try:
        value = type(default)(text)
    except ValueError:
        raise ValueError(f"{key}: expected {type(default).__name__}, got {text!r}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key}: expected a finite float, got {text!r}")
    return value


def _build(root, cfg: dict):
    """``root()`` with every field in ``FIELDS`` set from ``cfg``; a value
    a dataclass rejects is reported with the keys set away from their
    defaults under it."""
    keys = {path: key for key, (r, path) in FIELDS.items() if r is root}

    def fill(obj, prefix):
        changes, moved = {}, []
        for f in fields(obj):
            value, path = getattr(obj, f.name), prefix + f.name
            if is_dataclass(value):
                changes[f.name] = fill(value, path + ".")
            elif path in keys:
                changes[f.name] = _parse(keys[path], cfg[keys[path]], value)
                if changes[f.name] != value:
                    moved.append(keys[path])
        try:
            return replace(obj, **changes)
        except ValueError as exc:
            raise ValueError(f"{', '.join(f'{k}={cfg[k]}' for k in moved)}: {exc}") from None

    return fill(root(), "")


def experiment_config(cfg: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, cfg)


def baseline_config(cfg: dict) -> BaselineConfig:
    return _build(BaselineConfig, cfg)


def data_config(cfg: dict) -> DataConfig:
    return _build(DataConfig, cfg)


def check(cfg: dict) -> ExperimentConfig:
    """Build every config, so a bad value fails before a run writes anything."""
    exp = experiment_config(cfg)
    baseline_config(cfg)
    data_config(cfg)
    return exp
