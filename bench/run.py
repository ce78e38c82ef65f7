"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload online-toy --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. BLAS is
pinned to one thread and freed memory stays in the process (see
``PINNED_ENV``). The run sets up ``setups`` times (reporting the
median set-up time), then repeats whole rounds of the workload's
operation until ``--seconds`` have passed and at least ``min_rounds``
rounds ran, and checks the outputs. ``--trace 1`` wraps the package's public functions in spans and
reports the per-layer metrics instead of the end-to-end ones. Outputs
go to ``.bench_out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# The process runs with this environment; it re-executes itself to get it.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    # Freed arrays stay in the process heap and are reused, instead of
    # going back to the kernel and coming back as fresh zeroed pages,
    # whose cost swings with the host's memory state (0.8 to 2.2 s of
    # system time for one 8,192-point k-NN on a 2-core VM).
    "MALLOC_MMAP_THRESHOLD_": str(1 << 32),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 36),
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("train_pts_per_s", "1/s", "higher"),
    ("step_s_p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import segdiscover
    except ImportError as exc:
        sys.exit(f"error: cannot import segdiscover from {SRC}: {exc}")
    if Path(segdiscover.__file__).resolve().parent != (SRC / "segdiscover").resolve():
        sys.exit(f"error: segdiscover was imported from {segdiscover.__file__}, not {SRC}")


def end_to_end(workload, setup_s, round_s, probe):
    """The end-to-end metrics: medians over rounds, and the median step."""
    steps = probe.steps if workload.steps_from == "optimizer" else probe.scans
    per_round = [[(p, s) for r, p, s in steps if r == i] for i in range(len(round_s))]
    return {
        "wall_s": statistics.median(round_s),
        "setup_s": statistics.median(setup_s),
        "train_pts_per_s": statistics.median(
            sum(p for p, _ in samples) / sum(s for _, s in samples) for samples in per_round
        ),
        "step_s_p50": statistics.median(s for _, _, s in steps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(workload, seed: int, seconds: float, trace: bool, out: Path):
    from layers import install as install_tracing
    from probe import Probe
    from tracer import RUN, Hooks, Tracer

    hooks = Hooks()
    tracer = Tracer() if trace else None
    if tracer is not None:
        install_tracing(hooks, tracer)
    probe = Probe(tracer)
    probe.keep_knn = workload.keep_knn
    probe.install(hooks)

    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        setup_s = []
        for i in range(workload.setups):
            root = work / f"setup{i}"
            t = time.perf_counter()
            state = workload.setup(seed, root)
            setup_s.append(time.perf_counter() - t)
            shutil.rmtree(work / f"setup{i - 1}", ignore_errors=True)

        probe.set_phase(RUN)
        round_s, outputs = [], []
        started = time.perf_counter()
        while len(round_s) < workload.min_rounds or time.perf_counter() - started < seconds:
            probe.round = len(round_s)
            t = time.perf_counter()
            outputs.append(workload.run(state))
            round_s.append(time.perf_counter() - t)
        probe.stop()

        problems = workload.check(state, outputs, probe, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        hooks.restore()
    return setup_s, round_s, probe, tracer, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)

    setup_s, round_s, probe, tracer, problems = run(
        workload, args.seed, args.seconds, bool(args.trace), out
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is None:
        values = end_to_end(workload, setup_s, round_s, probe)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        import layers

        values = layers.metrics(tracer, len(setup_s), len(round_s), statistics.median(round_s))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        tracer.save(out / "spans.npz")
        table = [f"{name}\t{values[name]:.6g}\t{unit}" for name, unit, _ in layers.PER_LAYER]
        (out / "layers.tsv").write_text("\n".join(table) + "\n")
        print(f"per-layer metrics, {workload.name}, seed {args.seed} "
              f"(one set-up plus one round; {tracer.n_spans()} spans)")
        print("\n".join(table))

    result = {
        "correct": not problems,
        "attempted": len(round_s),
        "failed": 0,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (out / "result.json").write_text(json.dumps(
        {**result, "setup_s": setup_s, "round_s": round_s,
         "steps": probe.steps, "scans": probe.scans}, indent=1
    ) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})
    sys.exit(main())
