"""Command-line entry point.

Subcommands: ``gen-data`` (synthetic scan trees), ``train`` (online
discovery), ``eval`` (report table), ``baseline`` (offline pipeline),
``ablate`` (component grid and percentile sweep). Every run writes a
``config.resolved`` capturing the effective settings; passing that file
back via ``--config`` reproduces the run.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import data as datamod
from .baseline import run_baseline, write_pseudo_labels
from .evaluate import evaluate
from .model import CombinedHeadModel, load_model
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


# flags that set a config key, passed on as inline overrides of that key
FLAG_KEYS = {"seed": "train.seed", "scenes": "data.scenes", "points": "data.points"}


def _add_common(sub):
    sub.add_argument("--config", help="key=value config file overriding defaults")
    sub.add_argument("--seed", type=int, help="sets train.seed")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("overrides", nargs="*", metavar="key=value",
                     help="inline config overrides")


def _resolve(args) -> dict:
    """Defaults, then ``--config``, then the inline overrides and the flags
    in ``FLAG_KEYS``: a key given both inline and by its flag is refused."""
    flags = [f"{key}={getattr(args, flag)}" for flag, key in FLAG_KEYS.items()
             if getattr(args, flag, None) is not None]
    return cfgmod.resolve(args.config, [*args.overrides, *flags])


@contextlib.contextmanager
def _output(args, cfg: dict):
    """Create ``--out`` for the body to write into; ``config.resolved`` is
    written last, once the body has finished."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    yield out
    cfgmod.write_resolved(out / "config.resolved", cfg)


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    seed = cfgmod.check(cfg).train.seed
    data = cfgmod.data_config(cfg)
    syn = data.synthetic(seed)
    split = syn.split()
    names = syn.class_names()

    train_clouds = datamod.generate_synthetic(syn)
    val_clouds = datamod.validation_scenes(syn, data.val_scenes)
    with _output(args, cfg) as out:
        datamod.write_scan_dir(out / "train", train_clouds)
        datamod.write_scan_dir(out / "val", val_clouds)
        datamod.write_class_names(out / "classes.txt", names)
        datamod.write_split_file(out / "split.txt", split, names)
    print(f"wrote {len(train_clouds)} train and {len(val_clouds)} val scenes under {out}")
    return 0


def _prologue(args, trains: bool):
    """Check every config key, then read the dataset of a dataset command.

    Returns the resolved config, the experiment config, the split, the
    class names, the training scans and the scored scans: the validation
    split when the dataset has one, else the training split. Training
    scans are read only when the command trains or has nothing else to
    score, so ``eval`` reads just the split it scores. Every scan read
    has its labels checked against the split before anything runs.
    """
    cfg = _resolve(args)
    exp = cfgmod.check(cfg)
    root = Path(args.data)
    names = datamod.read_class_names(root / "classes.txt")
    split = datamod.read_split_file(Path(args.split or root / "split.txt"), names)
    val = datamod.load_scan_dir(root / "val") if (root / "val" / "scans").exists() else None
    train_clouds = datamod.load_scan_dir(root / "train") if trains or not val else None
    datamod.check_labels((val or []) + (train_clouds or []), split)
    return cfg, exp, split, names, train_clouds, val or train_clouds


def cmd_train(args) -> int:
    cfg, exp, split, _names, train_clouds, scored = _prologue(args, trains=True)
    with _output(args, cfg) as out:
        result = train(train_clouds, split, exp, val_clouds=scored, log=sys.stderr)
        result.model.save(out / "checkpoint.ckpt")
        (out / "metrics.tsv").write_text(result.metrics_tsv())
    last = result.metrics[-1]
    print(
        f"trained {cfg['train.epochs']} epochs; novel mIoU {last['novel_mIoU']:.3f}, "
        f"base mIoU {last['base_mIoU']:.3f} (head {result.model.selected_head})"
    )
    return 0


def cmd_eval(args) -> int:
    cfg, exp, split, names, _train, scored = _prologue(args, trains=False)
    rng = np.random.default_rng(exp.train.seed)
    model = load_model(args.checkpoint, exp.model, len(split.base_classes), split.n_novel, rng)
    head = exp.model.eval_head
    if head != "auto":
        if isinstance(model, CombinedHeadModel):
            raise ValueError(f"model.eval_head={head}: {args.checkpoint} is a "
                             "baseline checkpoint, whose one joint head has no index")
        model.selected_head = int(head)
    with _output(args, cfg) as out:
        report = evaluate(model, scored, split, class_names=names)
        (out / "report.tsv").write_text(report.to_tsv())
        (out / "report_wide.tsv").write_text(
            report.wide_header() + "\n" + report.wide_row(Path(args.checkpoint).stem) + "\n"
        )
    print(report.to_tsv(), end="")
    return 0


def cmd_baseline(args) -> int:
    cfg, exp, split, names, train_clouds, scored = _prologue(args, trains=True)
    bl = cfgmod.baseline_config(cfg)
    with _output(args, cfg) as out:
        model, pseudo = run_baseline(train_clouds, split, exp.model, exp.train, bl, exp.augment)
        model.save(out / "baseline.ckpt")
        write_pseudo_labels(out / "pseudo", pseudo)
        # with no validation split the scored scenes are the training scenes
        report = evaluate(model, scored, split, class_names=names,
                          neighbours=[c.neighbours(exp.model.knn) for c in scored])
        (out / "report.tsv").write_text(report.to_tsv())
    print(report.to_tsv(), end="")
    return 0


def _grid_discovery(base: DiscoveryConfig, flags) -> DiscoveryConfig:
    _pre, oc, queue, phi_q, tau = flags
    return replace(base, use_queue=queue, phi_queue=phi_q, tau_train=tau, overcluster=oc)


def cmd_ablate(args) -> int:
    from .baseline import pretrain_base

    cfg, exp, split, _names, train_clouds, scored = _prologue(args, trains=True)
    bl = cfgmod.baseline_config(cfg)

    def scores(run_cfg, init_state=None):
        # train has already scored its final model on the evaluation set
        last = train(train_clouds, split, run_cfg, val_clouds=scored,
                     init_state=init_state).metrics[-1]
        return f"{last['novel_mIoU']:.4f}\t{last['base_mIoU']:.4f}\t{last['all_mIoU']:.4f}"

    with _output(args, cfg) as out:
        pretrained_state = None
        grid = {}
        for name, flags in ABLATION_GRID.items():
            pretrain = flags[0]
            if pretrain and pretrained_state is None:
                masked = datamod.mask_novel(train_clouds, split)
                pre = pretrain_base(masked, split, exp.model, exp.train, bl, exp.augment)
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
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segdiscover",
        description="Novel-class discovery for point cloud segmentation at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic scan tree")
    p.add_argument("--scenes", type=int, help="sets data.scenes, the training scene count")
    p.add_argument("--points", type=int, help="sets data.points, the points per scene")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_data)

    for name, fn, text in (
        ("train", cmd_train, "run online discovery training"),
        ("eval", cmd_eval, "evaluate a checkpoint"),
        ("baseline", cmd_baseline, "run the offline clustering baseline"),
        ("ablate", cmd_ablate, "component grid and percentile sweep"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--dataset", "--data", dest="data", required=True,
                       help="dataset directory from gen-data")
        p.add_argument("--split", help="split file (defaults to <dataset>/split.txt)")
        if fn is cmd_eval:
            p.add_argument("--checkpoint", required=True)
        _add_common(p)
        p.set_defaults(fn=fn)

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
