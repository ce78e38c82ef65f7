#!/usr/bin/env python3
"""Component ablation on the synthetic benchmark.

Runs the seven-rung configuration ladder (P, OC, Q, NP, NP+, NP++, Full)
and the percentile sweep through the CLI machinery, on a dataset sized
for a coffee-break rather than a cluster.

Usage: python scripts/run_component_ablation.py --out runs/ablation
"""

import argparse
import sys
from pathlib import Path

from segdiscover.cli import main as cli_main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scenes", type=int, default=60)
    parser.add_argument("--points", type=int, default=192)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    out = Path(args.out)
    data = out / "data"
    code = cli_main([
        "gen-data", "--scenes", str(args.scenes), "--points", str(args.points),
        "--seed", str(args.seed), "--out", str(data), "data.val_scenes=20",
    ])
    if code != 0:
        return code
    return cli_main([
        "ablate", "--data", str(data), "--out", str(out), "--seed", str(args.seed),
        f"train.epochs={args.epochs}",
        "offline.pretrain_epochs=4",
    ])


if __name__ == "__main__":
    sys.exit(main())
