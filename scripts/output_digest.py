#!/usr/bin/env python3
"""SHA-256 digests of every file a fixed set of CLI runs writes.

Per seed, runs in-process through ``segdiscover.cli.main`` and into a
temporary directory: ``gen-data`` with the toy archetypes, with the
generic ones and with ``data.dropout=0.25``; ``train`` at the defaults
and with each ``disc.*`` toggle off; ``baseline`` with over-clustering
off and on; ``eval`` of the default training's checkpoint, by its
selected head and by head ``EVAL_HEAD``; and ``ablate``. At ``SIZES``
the two ``eval`` reports differ at seeds 0 and 1, so the digests tell
an evaluated head from the selected one. Prints
``sha256  relative/path`` for every file written, each run's exit
code, stdout and stderr included (as ``logs/<run>.stdout`` and
``logs/<run>.stderr``, the temporary root replaced by ``<root>``). Two source trees print the
same lines exactly when their outputs are byte-identical, so an
identity check is

    PYTHONPATH=old/src python scripts/output_digest.py > old.txt
    PYTHONPATH=new/src python scripts/output_digest.py > new.txt
    diff old.txt new.txt

The run sizes are the module constant ``SIZES``. The package the
digests come from is named on stderr.

Usage: python scripts/output_digest.py [--seeds 0 1]
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# single-threaded BLAS before numpy loads: outputs are deterministic only
# with single-threaded reductions
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import segdiscover  # noqa: E402
from segdiscover import cli  # noqa: E402

TOGGLES = ("use_queue", "phi_queue", "tau_train", "overcluster")

# scenes and points per training scene, validation scenes, training
# epochs, baseline pretrain and finetune epochs, and the epochs of each
# ablation run (online training and baseline pretraining alike)
SIZES = {
    "scenes": 24, "points": 64, "val_scenes": 6, "epochs": 6,
    "baseline_epochs": (3, 2), "ablate_epochs": 1,
}
# the head the second ``eval`` scores; after 3 epochs every head of the
# default training predicts alike, after 6 this one differs from the selected
EVAL_HEAD = 2


def runs(seed):
    """(run name, cli arguments) in order; ``{root}`` stands for the
    seed's directory."""
    data = ["--data", "{root}/data", "--seed", str(seed)]
    epochs = f"train.epochs={SIZES['epochs']}"
    gen = ["--seed", str(seed), "--scenes", str(SIZES["scenes"]), "--points", str(SIZES["points"]),
           f"data.val_scenes={SIZES['val_scenes']}"]
    out = [
        ("data", ["gen-data", "--out", "{root}/data", *gen]),
        ("data-generic", ["gen-data", "--out", "{root}/data-generic", *gen,
                          "data.archetypes=generic"]),
        ("data-dropout", ["gen-data", "--out", "{root}/data-dropout", *gen, "data.dropout=0.25"]),
        ("train", ["train", *data, "--out", "{root}/train", epochs]),
    ]
    out += [
        (f"train-no-{key}", ["train", *data, "--out", f"{{root}}/train-no-{key}", epochs,
                             f"disc.{key}=false"])
        for key in TOGGLES
    ]
    pre, fine = SIZES["baseline_epochs"]
    offline = [f"offline.pretrain_epochs={pre}", f"offline.finetune_epochs={fine}"]
    out += [
        ("baseline", ["baseline", *data, "--out", "{root}/baseline", *offline]),
        ("baseline-overcluster", ["baseline", *data, "--out", "{root}/baseline-overcluster",
                                  *offline, "offline.overcluster=on"]),
        ("eval", ["eval", *data, "--out", "{root}/eval",
                  "--checkpoint", "{root}/train/checkpoint.ckpt"]),
        (f"eval-head{EVAL_HEAD}", ["eval", *data, "--out", f"{{root}}/eval-head{EVAL_HEAD}",
                                   "--checkpoint", "{root}/train/checkpoint.ckpt",
                                   f"model.eval_head={EVAL_HEAD}"]),
        ("ablate", ["ablate", *data, "--out", "{root}/ablate",
                    f"train.epochs={SIZES['ablate_epochs']}",
                    f"offline.pretrain_epochs={SIZES['ablate_epochs']}"]),
    ]
    return out


def run_and_capture(argv, root: Path, name: str):
    """Run one command; its exit code, stdout and stderr go to
    ``root/logs/<name>.stdout`` and ``.stderr``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    logs = root / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
        (logs / f"{name}.{stream}").write_text(f"exit {code}\n" + text.replace(str(root), "<root>"))
    return code


def digests(top: Path):
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        yield hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(top).as_posix()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args(argv)

    print(f"segdiscover from {Path(segdiscover.__file__).parent}", file=sys.stderr)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        top = Path(tmp)
        for seed in args.seeds:
            root = top / f"seed{seed}"
            for name, template in runs(seed):
                argv = [a.replace("{root}", str(root)) for a in template]
                if run_and_capture(argv, root, name) != 0:
                    failed.append(f"seed {seed} {name}")
        for digest, rel in digests(top):
            print(f"{digest}  {rel}")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
