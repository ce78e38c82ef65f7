"""Command-line entry point.

Subcommands: ``gen-data`` (synthetic scan trees), ``train`` (online
discovery), ``eval`` (report table), ``baseline`` (offline pipeline),
``ablate`` (component grid and percentile sweep). Every run writes a
``config.resolved`` capturing the effective settings; passing that file
back via ``--config`` reproduces the run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import data as datamod
from .baseline import run_baseline, write_pseudo_labels
from .evaluate import evaluate
from .model import SegmentationModel
from .train import DiscoveryConfig, train

ABLATION_GRID = {
    # name: (pretrain, overcluster, use_queue, phi_queue, tau_train)
    "P": (True, False, False, False, False),
    "OC": (True, True, False, False, False),
    "Q": (True, True, True, False, False),
    "NP": (False, True, True, False, False),
    "NP+": (False, True, True, True, False),
    "NP++": (False, True, True, False, True),
    "Full": (False, True, True, True, True),
}

PERCENTILE_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9)


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file overriding defaults")
    sub.add_argument("--seed", type=int, help="overrides train.seed")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("overrides", nargs="*", metavar="key=value",
                     help="inline config overrides")


def _resolve(args) -> dict:
    cfg = cfgmod.resolve(args.config, args.overrides)
    if getattr(args, "seed", None) is not None:
        cfg["train.seed"] = str(args.seed)
    return cfg


def _synthetic_config(cfg: dict, seed: int) -> datamod.SyntheticConfig:
    def data(key):
        return cfgmod.literal(cfg, f"data.{key}")

    scenes, points, dropout = data("scenes"), data("points"), data("dropout")
    if data("archetypes") == "toy":
        base = datamod.toy_discovery_config(seed=seed, n_scenes=scenes, points_per_scene=points)
        return replace(base, scene_dropout=dropout)
    n_classes, n_novel = data("classes"), data("novel")
    if not (0 < n_novel < n_classes):
        raise ValueError("data.novel must be positive and below data.classes")
    return datamod.SyntheticConfig(
        archetypes=datamod.make_archetypes(n_classes, seed=seed),
        n_scenes=scenes,
        points_per_scene=points,
        seed=seed,
        scene_dropout=dropout,
        novel_classes=tuple(range(n_classes - n_novel, n_classes)),
    )


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    if args.scenes is not None:
        cfg["data.scenes"] = str(args.scenes)
    if args.points is not None:
        cfg["data.points"] = str(args.points)
    out = Path(args.out)
    syn = _synthetic_config(cfg, cfgmod.check(cfg).train.seed)
    split = syn.split()
    names = syn.class_names()

    train_clouds = datamod.generate_synthetic(syn)
    val_cfg = replace(syn, n_scenes=cfgmod.literal(cfg, "data.val_scenes"), seed=syn.seed + 10_000)
    val_clouds = datamod.generate_synthetic(val_cfg)
    datamod.write_scan_dir(out / "train", train_clouds)
    datamod.write_scan_dir(out / "val", val_clouds)
    datamod.write_class_names(out / "classes.txt", names)
    datamod.write_split_file(out / "split.txt", split, names)
    cfgmod.write_resolved(out / "config.resolved", cfg)
    print(f"wrote {len(train_clouds)} train and {len(val_clouds)} val scenes under {out}")
    return 0


def _load_split(data_dir, split_path=None):
    data_dir = Path(data_dir)
    names = datamod.read_class_names(data_dir / "classes.txt")
    split_file = Path(split_path) if split_path else data_dir / "split.txt"
    return datamod.read_split_file(split_file, names), names


def _load_val(data_dir):
    """The validation scans, or None when the dataset has none."""
    val_dir = Path(data_dir) / "val"
    return datamod.load_scan_dir(val_dir) if (val_dir / "scans").exists() else None


def _load_dataset(data_dir, split_path=None):
    split, names = _load_split(data_dir, split_path)
    train_clouds = datamod.load_scan_dir(Path(data_dir) / "train")
    return train_clouds, _load_val(data_dir), split, names


def cmd_train(args) -> int:
    cfg = _resolve(args)
    exp = cfgmod.experiment_config(cfg)
    train_clouds, val_clouds, split, _names = _load_dataset(args.data, args.split)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = train(train_clouds, split, exp, val_clouds=val_clouds, log=sys.stderr)
    result.model.save(out / "checkpoint.ckpt")
    (out / "metrics.tsv").write_text(result.metrics_tsv())
    cfgmod.write_resolved(out / "config.resolved", cfg)
    last = result.metrics[-1]
    print(
        f"trained {cfg['train.epochs']} epochs; novel mIoU {last['novel_mIoU']:.3f}, "
        f"base mIoU {last['base_mIoU']:.3f} (head {result.selected_head})"
    )
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    exp = cfgmod.experiment_config(cfg)
    head = cfgmod.eval_head(cfg, exp.model.heads)
    split, names = _load_split(args.data, args.split)
    # the validation split, or the training split when there is none
    clouds = _load_val(args.data) or datamod.load_scan_dir(Path(args.data) / "train")
    rng = np.random.default_rng(exp.train.seed)
    model = SegmentationModel(exp.model, len(split.base_classes), split.n_novel, rng)
    model.load(args.checkpoint)
    if head is not None:
        model.selected_head = head
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = evaluate(model, clouds, split, class_names=names)
    (out / "report.tsv").write_text(report.to_tsv())
    (out / "report_wide.tsv").write_text(
        report.wide_header() + "\n" + report.wide_row(Path(args.checkpoint).stem) + "\n"
    )
    cfgmod.write_resolved(out / "config.resolved", cfg)
    print(report.to_tsv(), end="")
    return 0


def cmd_baseline(args) -> int:
    cfg = _resolve(args)
    exp = cfgmod.experiment_config(cfg)
    bl = cfgmod.baseline_config(cfg)
    train_clouds, val_clouds, split, names = _load_dataset(args.data, args.split)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model, pseudo = run_baseline(train_clouds, split, exp.model, exp.train, bl, exp.augment)
    model.save(out / "baseline.ckpt")
    write_pseudo_labels(out / "pseudo", pseudo)
    report = evaluate(model, val_clouds or train_clouds, split, class_names=names)
    (out / "report.tsv").write_text(report.to_tsv())
    cfgmod.write_resolved(out / "config.resolved", cfg)
    print(report.to_tsv(), end="")
    return 0


def _grid_discovery(base: DiscoveryConfig, flags) -> DiscoveryConfig:
    _pre, oc, queue, phi_q, tau = flags
    return replace(base, use_queue=queue, phi_queue=phi_q, tau_train=tau, overcluster=oc)


def cmd_ablate(args) -> int:
    from .baseline import pretrain_base

    cfg = _resolve(args)
    exp = cfgmod.experiment_config(cfg)
    bl = cfgmod.baseline_config(cfg)
    train_clouds, val_clouds, split, _names = _load_dataset(args.data, args.split)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    eval_set = val_clouds or train_clouds

    def scores(run_cfg, init_state=None):
        # train has already scored its final model on the evaluation set
        last = train(train_clouds, split, run_cfg, val_clouds=eval_set,
                     init_state=init_state).metrics[-1]
        return f"{last['novel_mIoU']:.4f}\t{last['base_mIoU']:.4f}\t{last['all_mIoU']:.4f}"

    pretrained_state = None
    grid = {}
    for name, flags in ABLATION_GRID.items():
        pretrain = flags[0]
        if pretrain and pretrained_state is None:
            pre = pretrain_base(train_clouds, split, exp.model, exp.train, bl, exp.augment)
            pretrained_state = pre.state()
        run_cfg = replace(exp, discovery=_grid_discovery(exp.discovery, flags))
        grid[name] = scores(run_cfg, pretrained_state if pretrain else None)
        print(f"{name}\t{grid[name]}")
    lines = ["config\tnovel_mIoU\tbase_mIoU\tall_mIoU"] + [f"{n}\t{r}" for n, r in grid.items()]
    (out / "ablation.tsv").write_text("\n".join(lines) + "\n")

    sweep_lines = ["p\tnovel_mIoU\tbase_mIoU\tall_mIoU"]
    full = _grid_discovery(exp.discovery, ABLATION_GRID["Full"])
    for p in PERCENTILE_SWEEP:
        # at Full's own percentile this is the grid's Full training again
        if p == full.percentile:
            cells = grid["Full"]
        else:
            cells = scores(replace(exp, discovery=replace(full, percentile=p)))
        sweep_lines.append(f"{p}\t{cells}")
        print(sweep_lines[-1])
    (out / "sweep.tsv").write_text("\n".join(sweep_lines) + "\n")
    cfgmod.write_resolved(out / "config.resolved", cfg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segdiscover",
        description="Novel-class discovery for point cloud segmentation at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic scan tree")
    p.add_argument("--scenes", type=int, help="training scene count")
    p.add_argument("--points", type=int, help="points per scene")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="run online discovery training")
    p.add_argument("--dataset", "--data", dest="data", required=True,
                   help="dataset directory from gen-data")
    p.add_argument("--split", help="split file (defaults to <dataset>/split.txt)")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--dataset", "--data", dest="data", required=True)
    p.add_argument("--split")
    p.add_argument("--checkpoint", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("baseline", help="run the offline clustering baseline")
    p.add_argument("--dataset", "--data", dest="data", required=True)
    p.add_argument("--split")
    _add_common(p)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("ablate", help="component grid and percentile sweep")
    p.add_argument("--dataset", "--data", dest="data", required=True)
    p.add_argument("--split")
    _add_common(p)
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
