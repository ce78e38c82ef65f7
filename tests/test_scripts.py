"""Smoke runs of the experiment scripts at toy sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# the digest lines of ``output_digest.py --seeds 3`` at ``DIGEST_SIZES``,
# after a ``numpy <version>`` header; rewritten by
# ``PYTHONPATH=src python tests/test_scripts.py``
PINNED_DIGEST = Path(__file__).resolve().parent / "data" / "output_digest_seed3.txt"
DIGEST_SIZES = {
    "scenes": 6, "points": 32, "val_scenes": 2, "epochs": 1,
    "baseline_epochs": (1, 1), "ablate_epochs": 1,
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_toy_script(monkeypatch):
    """The toy discovery script at 6 scenes of 32 points and one epoch."""
    import functools

    script = load_script("run_toy_discovery")
    monkeypatch.setattr(script, "DataConfig", functools.partial(
        script.DataConfig, scenes=6, points=32))
    monkeypatch.setattr(script, "TrainConfig", functools.partial(script.TrainConfig, epochs=1))
    return script


def test_the_toy_shape_is_the_toy_discovery_config():
    from segdiscover.data import toy_discovery_config

    script = load_script("run_toy_discovery")
    for seed in range(5):
        assert script.synthetic_config("toy", seed) == toy_discovery_config(seed=seed)


def test_toy_discovery_reports_the_mean_over_seeds(capsys, monkeypatch):
    script = small_toy_script(monkeypatch)
    code = script.main(["--seeds", "0", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["seed 0", "seed 1"]
    assert "(chance bound " in lines[0]
    assert lines[-1].startswith("mean novel mIoU over 2 seeds: ")


def test_output_digest_lists_every_output_and_repeats_itself(monkeypatch, capsys):
    script = load_script("output_digest")
    monkeypatch.setattr(script, "SIZES", DIGEST_SIZES)
    argv = ["--seeds", "3"]
    assert script.main(argv) == 0
    first = capsys.readouterr().out.splitlines()
    check_pinned_digest(first)
    digests = dict(reversed(line.split("  ", 1)) for line in first)
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())
    for path in (
        "data/split.txt", "data/train/scans/0000.bin", "train/checkpoint.ckpt",
        "train/metrics.tsv", "train-no-overcluster/metrics.tsv", "baseline/baseline.ckpt",
        "eval/report.tsv", "ablate/ablation.tsv", "ablate/sweep.tsv", "logs/train.stderr",
        "data-generic/split.txt", "baseline-overcluster/baseline.ckpt",
        "baseline-overcluster/pseudo/0000.plabel", "data-dropout/split.txt",
        "eval-head2/report.tsv",
    ):
        assert f"seed3/{path}" in digests, path
    assert digests["seed3/train/checkpoint.ckpt"] != digests["seed3/train-no-use_queue/checkpoint.ckpt"]
    assert digests["seed3/data/classes.txt"] != digests["seed3/data-generic/classes.txt"]
    scans = [sorted(d for p, d in digests.items() if p.startswith(f"seed3/{run}/train/"))
             for run in ("data", "data-dropout")]
    assert scans[0] != scans[1]
    assert digests["seed3/baseline/baseline.ckpt"] != digests[
        "seed3/baseline-overcluster/baseline.ckpt"]
    # head 2 is not the selected head, and here it predicts differently
    assert digests["seed3/eval/report.tsv"] != digests["seed3/eval-head2/report.tsv"]
    # a second run in another temporary directory prints the same lines
    assert script.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == first


def check_pinned_digest(lines):
    """Fail unless ``lines`` are the pinned digest lines, naming both numpy
    versions when they differ, else the first line that differs."""
    import numpy as np

    header, *pinned = PINNED_DIGEST.read_text().splitlines()
    here = f"numpy {np.__version__}"
    assert header == here, (
        f"{PINNED_DIGEST.name} was written under {header}, this run has {here}; "
        f"rewrite it with `PYTHONPATH=src python tests/test_scripts.py` and check the diff")
    for i, (want, got) in enumerate(zip(pinned, lines)):
        assert got == want, f"digest line {i + 1} differs: pinned {want!r}, now {got!r}"
    unmatched = lines[len(pinned):] or pinned[len(lines):]
    assert not unmatched, (f"{len(lines)} digest lines against {len(pinned)} pinned; "
                           f"first unmatched {unmatched[0]!r}")


def write_pinned_digest():
    """Rewrite ``PINNED_DIGEST`` from this tree's outputs."""
    import contextlib
    import io

    # loaded before numpy: the script pins BLAS to one thread first
    script = load_script("output_digest")
    import numpy as np

    script.SIZES = DIGEST_SIZES
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if script.main(["--seeds", "3"]) != 0:
            raise SystemExit(f"a digest run failed; {PINNED_DIGEST.name} is unchanged")
    PINNED_DIGEST.parent.mkdir(exist_ok=True)
    PINNED_DIGEST.write_text(f"numpy {np.__version__}\n" + out.getvalue())


def test_toy_discovery_with_the_baseline_appends_a_quality_record(tmp_path, capsys, monkeypatch):
    import functools
    import json

    script = small_toy_script(monkeypatch)
    # one epoch of each baseline stage keeps the smoke run short
    monkeypatch.setattr(script, "BaselineConfig", functools.partial(
        script.BaselineConfig, pretrain_epochs=1, finetune_epochs=1))
    out = tmp_path / "quality.json"
    argv = ["--seeds", "0", "1", "--baseline", "--json", str(out)]
    assert script.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" novel")[0] for line in lines[:4]] == [
        "seed 0:", "seed 0: baseline", "seed 1:", "seed 1: baseline"]
    assert lines[-2].startswith("baseline mean novel mIoU over 2 seeds: ")
    (record,) = json.loads(out.read_text())["runs"]
    assert record["seeds"] == [0, 1] and len(record["chance_bound"]) == 2
    # the sizes the runs had
    assert record["sizes"] == {"scenes": 6, "points": 32, "epochs": 1}
    for method in ("online", "baseline"):
        for score in ("novel", "base", "all"):
            values = record["per_seed"][method][score]
            assert len(values) == 2 and all(0.0 <= v <= 1.0 for v in values)
            assert record["medians"][method][score] == sum(values) / 2
    assert set(record["host"]) == {"nproc", "machine", "python", "numpy"}
    # a second run adds its record after the first
    assert script.main(argv[:-2] + ["--json", str(out)]) == 0
    assert len(json.loads(out.read_text())["runs"]) == 2


def test_toy_discovery_on_a_paper_split_shape_records_the_shape(tmp_path, monkeypatch):
    import functools
    import json

    script = small_toy_script(monkeypatch)
    monkeypatch.setattr(script, "BaselineConfig", functools.partial(
        script.BaselineConfig, pretrain_epochs=1, finetune_epochs=1))
    out = tmp_path / "quality.json"
    argv = ["--seeds", "0", "--split", "kitti-5-0", "--baseline", "--json", str(out)]
    assert script.main(argv) == 0
    (record,) = json.loads(out.read_text())["runs"]
    assert record["split"] == {"shape": "kitti-5-0", "classes": 19, "novel": 5}
    assert record["sizes"] == {"scenes": 6, "points": 32, "epochs": 1}
    (per_class,) = record["points_per_class_per_scene"]
    assert len(per_class) == 19 and sum(per_class.values()) == pytest.approx(32)
    assert set(record["per_seed"]) == {"online", "baseline"}
    assert script.split_shapes()["poss-4-0"] == (13, 4)


if __name__ == "__main__":
    write_pinned_digest()
