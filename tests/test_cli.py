"""Command-line workflows on miniature datasets."""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from segdiscover import config as cfgmod
from segdiscover import data as datamod
from segdiscover.cli import ABLATION_GRID, PERCENTILE_SWEEP, main

FAST = [
    "train.epochs=1",
    "train.batch_size=2",
    "model.D=8",
    "model.hidden=16",
    "model.k=4",
    "model.heads=2",
    "model.overcluster_factor=2",
    "queue.capacity=32",
    "queue.sample_per_class=4",
    "offline.pretrain_epochs=1",
    "offline.finetune_epochs=1",
]


def gen_tiny(out, seed=1):
    code = main([
        "gen-data", "--scenes", "4", "--points", "40", "--seed", str(seed),
        "--out", str(out), "data.val_scenes=2",
    ])
    assert code == 0
    return out


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


class TestGenData:
    def test_writes_expected_tree(self, tmp_path, capsys):
        out = gen_tiny(tmp_path / "d")
        assert capsys.readouterr().out == f"wrote 4 train and 2 val scenes under {out}\n"
        assert (out / "train" / "scans").is_dir()
        assert (out / "val" / "labels").is_dir()
        assert (out / "classes.txt").exists()
        assert (out / "split.txt").exists()
        assert (out / "config.resolved").exists()
        assert len(list((out / "train" / "scans").glob("*.bin"))) == 4

    def test_same_seed_identical_trees(self, tmp_path):
        a = gen_tiny(tmp_path / "a", seed=1)
        b = gen_tiny(tmp_path / "b", seed=1)
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert set(ta) == set(tb)
        assert all(ta[k] == tb[k] for k in ta)

    def test_split_file_contents(self, tmp_path):
        out = gen_tiny(tmp_path / "d")
        text = (out / "split.txt").read_text()
        assert "dataset=synthetic" in text
        assert "novel=mast,crown" in text


class TestTrainEval:
    def test_train_writes_artifacts(self, tmp_path):
        data = gen_tiny(tmp_path / "d")
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--out", str(out), "--seed", "0", *FAST])
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()
        metrics = (out / "metrics.tsv").read_text().strip().splitlines()
        assert metrics[0].split("\t") == [
            "epoch", "loss", "lr", "eps", "novel_mIoU", "base_mIoU", "all_mIoU",
        ]
        assert len(metrics) == 2

    def test_rerun_from_resolved_config_is_bitwise_identical(self, tmp_path):
        data = gen_tiny(tmp_path / "d")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--data", str(data), "--out", str(out1), "--seed", "3", *FAST]) == 0
        assert main([
            "train", "--data", str(data), "--out", str(out2),
            "--config", str(out1 / "config.resolved"),
        ]) == 0
        assert filecmp.cmp(out1 / "metrics.tsv", out2 / "metrics.tsv", shallow=False)
        assert filecmp.cmp(out1 / "checkpoint.ckpt", out2 / "checkpoint.ckpt", shallow=False)
        assert filecmp.cmp(out1 / "config.resolved", out2 / "config.resolved", shallow=False)

    def test_eval_round_trip(self, tmp_path):
        data = gen_tiny(tmp_path / "d")
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), "--seed", "0", *FAST]) == 0
        out = tmp_path / "eval"
        code = main([
            "eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.ckpt"),
            "--out", str(out), *FAST,
        ])
        assert code == 0
        report = (out / "report.tsv").read_text().strip().splitlines()
        assert len(report) == 5 + 3  # per-class rows plus aggregates
        assert report[-1].startswith("All mIoU")


    def test_eval_reads_only_the_split_it_evaluates(self, tmp_path):
        import shutil

        data = gen_tiny(tmp_path / "d")
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), "--seed", "0", *FAST]) == 0
        shutil.rmtree(data / "train")
        out = tmp_path / "eval"
        code = main([
            "eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.ckpt"),
            "--out", str(out), *FAST,
        ])
        assert code == 0
        assert (out / "report.tsv").read_text().strip().splitlines()[-1].startswith("All mIoU")


class TestBaselineCommand:
    def test_baseline_writes_artifacts(self, tmp_path):
        data = gen_tiny(tmp_path / "d")
        out = tmp_path / "bl"
        code = main([
            "baseline", "--data", str(data), "--out", str(out), "--seed", "0", *FAST,
        ])
        assert code == 0
        assert (out / "baseline.ckpt").exists()
        assert (out / "report.tsv").exists()
        assert list((out / "pseudo").glob("*.plabel"))

    def test_eval_scores_the_baseline_checkpoint_as_the_baseline_did(self, tmp_path):
        data = gen_tiny(tmp_path / "d")
        run = tmp_path / "bl"
        assert main(["baseline", "--data", str(data), "--out", str(run), "--seed", "0", *FAST]) == 0
        out = tmp_path / "eval"
        assert main(["eval", "--data", str(data), "--checkpoint", str(run / "baseline.ckpt"),
                     "--out", str(out), *FAST]) == 0
        # both score the validation scenes: every per-class row and aggregate agrees
        rows = (out / "report.tsv").read_text().splitlines()
        assert len(rows) == 5 + 3
        assert rows == (run / "report.tsv").read_text().splitlines()

    def test_eval_refuses_a_head_index_for_a_baseline_checkpoint(self, tmp_path, capsys):
        data = gen_tiny(tmp_path / "d")
        run = tmp_path / "bl"
        assert main(["baseline", "--data", str(data), "--out", str(run), *FAST]) == 0
        capsys.readouterr()
        code = main(["eval", "--data", str(data), "--checkpoint", str(run / "baseline.ckpt"),
                     "--out", str(tmp_path / "eval"), *FAST, "model.eval_head=1"])
        assert code == 1
        assert "model.eval_head=1: " in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_eval_names_a_parameter_neither_model_holds(self, tmp_path, capsys):
        from segdiscover import autodiff as ad

        data = gen_tiny(tmp_path / "d")
        run = tmp_path / "bl"
        assert main(["baseline", "--data", str(data), "--out", str(run), *FAST]) == 0
        state = ad.load_checkpoint(run / "baseline.ckpt")
        state["extra.w"] = np.zeros((1, 1))
        ad.save_checkpoint(tmp_path / "odd.ckpt", state)
        capsys.readouterr()
        code = main(["eval", "--data", str(data), "--checkpoint", str(tmp_path / "odd.ckpt"),
                     "--out", str(tmp_path / "eval"), *FAST])
        assert code == 1
        assert "holds parameters the model lacks: extra.w" in capsys.readouterr().err

    def test_scoring_the_training_scenes_reuses_their_graphs(self, tmp_path, monkeypatch):
        import shutil

        from segdiscover import baseline, model

        data = gen_tiny(tmp_path / "d")
        shutil.rmtree(data / "val")  # the training scenes are scored instead
        real, graphs = model.knn_indices, []
        for module in (baseline, model):
            monkeypatch.setattr(module, "knn_indices", lambda c, k: graphs.append(c) or real(c, k))
        assert main(["baseline", "--data", str(data), "--out", str(tmp_path / "bl"), *FAST]) == 0
        assert len(graphs) == 4


class TestAblate:
    def test_grid_names_and_sweep_values(self, tmp_path, monkeypatch, capsys):
        from segdiscover import baseline, model, train

        assert list(ABLATION_GRID) == ["P", "OC", "Q", "NP", "NP+", "NP++", "Full"]
        assert PERCENTILE_SWEEP == (0.1, 0.3, 0.5, 0.7, 0.9)
        data = gen_tiny(tmp_path / "d")
        capsys.readouterr()
        out = tmp_path / "ab"
        real, graphs = model.knn_indices, []
        for module in (baseline, model, train):
            monkeypatch.setattr(module, "knn_indices", lambda c, k: graphs.append(c) or real(c, k))
        code = main(["ablate", "--data", str(data), "--out", str(out), "--seed", "0", *FAST])
        assert code == 0
        # one graph per distinct scene (4 training, 2 validation) across all 11 trainings
        assert len(graphs) == 6
        assert len({c.tobytes() for c in graphs}) == 6
        grid = (out / "ablation.tsv").read_text().strip().splitlines()
        assert [line.split("\t")[0] for line in grid[1:]] == list(ABLATION_GRID)
        sweep = (out / "sweep.tsv").read_text().strip().splitlines()
        assert [line.split("\t")[0] for line in sweep[1:]] == ["0.1", "0.3", "0.5", "0.7", "0.9"]
        assert grid[0] == "config\tnovel_mIoU\tbase_mIoU\tall_mIoU"
        assert sweep[0] == "p\tnovel_mIoU\tbase_mIoU\tall_mIoU"
        for row in grid[1:] + sweep[1:]:
            assert all(0.0 <= float(cell) <= 1.0 for cell in row.split("\t")[1:])
        # the rows printed as they finish are the rows written
        assert capsys.readouterr().out.splitlines() == grid[1:] + sweep[1:]


class TestErrors:
    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus", "x"])
        assert exc.value.code == 2

    def test_unknown_config_key_reports_error(self, tmp_path):
        data = gen_tiny(tmp_path / "d")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "r"), "no.such=1"])
        assert code == 1

    def test_missing_data_dir_reports_error(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "r")])
        assert code == 1

    @pytest.mark.parametrize("command, bad", [
        (command, bad)
        for command in ("train", "eval", "baseline", "ablate")
        for bad in ("model.D=0", "absent dataset")
    ] + [("baseline", "offline.ratio=2"), ("ablate", "offline.ratio=2")])
    def test_a_rejected_input_leaves_no_output_directory(self, tmp_path, command, bad):
        data = gen_tiny(tmp_path / "d")
        args = [command, "--out", str(tmp_path / "runs" / "x")]
        if command == "eval":
            args += ["--checkpoint", str(tmp_path / "absent.ckpt")]
        if bad == "absent dataset":
            args += ["--data", str(tmp_path / "absent")]
        else:
            args += ["--data", str(data), bad]
        assert main(args) == 1
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, part", [
        ("train", "val"), ("train", "train"), ("baseline", "val"), ("eval", "val"),
    ])
    def test_a_label_outside_the_split_names_its_scene_before_any_output(
            self, tmp_path, capsys, command, part):
        data = gen_tiny(tmp_path / "d")
        label_path = sorted((data / part / "labels").glob("*.label"))[-1]
        labels = np.fromfile(label_path, dtype="<u4")
        labels[3] = 9
        labels.tofile(label_path)
        args = [command, "--data", str(data), "--out", str(tmp_path / "runs" / "x"), *FAST]
        if command == "eval":
            args += ["--checkpoint", str(tmp_path / "absent.ckpt")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"scene '{label_path.stem}': label ids [9] are neither base nor novel" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "baseline", "ablate"])
    def test_a_split_with_no_base_class_names_its_file_before_any_output(
            self, tmp_path, capsys, command):
        data = gen_tiny(tmp_path / "d")
        names = datamod.read_class_names(data / "classes.txt")
        split = data / "split.txt"
        split.write_text(split.read_text().replace(
            "novel=mast,crown", "novel=" + ",".join(names[c] for c in sorted(names))))
        args = [command, "--data", str(data), "--out", str(tmp_path / "runs" / "x"), *FAST]
        if command == "eval":
            args += ["--checkpoint", str(tmp_path / "absent.ckpt")]
        assert main(args) == 1
        assert f"error: {split}: synthetic: need at least one base class" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name", ["classes.txt", "split.txt", "run.cfg"])
    def test_a_byte_that_is_not_utf8_names_its_file(self, tmp_path, capsys, name):
        data = gen_tiny(tmp_path / "d")
        path = (tmp_path if name == "run.cfg" else data) / name
        if name == "run.cfg":
            path.write_text("train.epochs=1\n")
        raw = path.read_bytes()
        path.write_bytes(raw[:3] + b"\xff" + raw[3:])
        args = ["train", "--data", str(data), "--out", str(tmp_path / "runs" / "x"), *FAST]
        if name == "run.cfg":
            args += ["--config", str(path)]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {path}: byte 3 is not UTF-8\n"
        assert not (tmp_path / "runs").exists()

    def test_eval_refuses_a_checkpoint_with_heads_the_model_lacks(self, tmp_path, capsys):
        data = gen_tiny(tmp_path / "d")
        fast = [a for a in FAST if not a.startswith("model.heads=")]
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *fast,
                     "model.heads=5"]) == 0
        code = main(["eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--out", str(tmp_path / "runs" / "x"), *fast, "model.heads=4"])
        assert code == 1
        err = capsys.readouterr().err
        assert "checkpoint holds parameters the model lacks: novel4.p, over4.p" in err
        assert not (tmp_path / "runs").exists()

    def test_eval_of_a_missing_checkpoint_leaves_no_output_directory(self, tmp_path):
        data = gen_tiny(tmp_path / "d")
        code = main(["eval", "--data", str(data), "--checkpoint", str(tmp_path / "absent.ckpt"),
                     "--out", str(tmp_path / "r")])
        assert code == 1
        assert not (tmp_path / "r").exists()


class TestFlagsAreOverrides:
    """``--seed``, ``--scenes`` and ``--points`` set their config keys as
    inline overrides do, so a key given both ways is refused by name."""

    @pytest.mark.parametrize("flag, override", [
        (["--seed", "1"], "train.seed=5"),
        (["--scenes", "3"], "data.scenes=7"),
        (["--points", "40"], "data.points=30"),
    ])
    def test_gen_data_refuses_a_key_set_by_flag_and_inline(self, tmp_path, capsys, flag,
                                                           override):
        out = tmp_path / "d"
        assert main(["gen-data", *flag, "--out", str(out), "data.val_scenes=1", override]) == 1
        key = override.split("=")[0]
        assert capsys.readouterr().err == f"error: override: key '{key}' set again\n"
        assert not out.exists()

    def test_seed_overrides_a_config_file(self, tmp_path):
        settings = tmp_path / "settings.cfg"
        settings.write_text("train.seed=5\ndata.scenes=2\ndata.val_scenes=1\n")
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(settings), "--seed", "1", "--points", "20",
                     "--out", str(out)]) == 0
        assert cfgmod.resolve(out / "config.resolved")["train.seed"] == "1"


class TestEveryKeyChecked:
    """Each dataset command parses every config key, read by it or not,
    before it reads a scan or creates its output directory."""

    COMMANDS = ("train", "eval", "baseline", "ablate")

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("keys")
        data = gen_tiny(root / "d")
        assert main(["train", "--data", str(data), "--out", str(root / "run"), *FAST]) == 0
        return data, root / "run" / "checkpoint.ckpt"

    def args(self, command, dataset, out):
        data, checkpoint = dataset
        args = [command, "--data", str(data), "--out", str(out), "--seed", "0"]
        if command == "eval":
            args += ["--checkpoint", str(checkpoint)]
        return args + FAST

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "bad", ["offline.ratio=abc", "data.points=zz", "model.eval_head=99", "data.archetypes=tyo"]
    )
    def test_a_bad_value_is_rejected_before_any_scan_is_read(
        self, dataset, tmp_path, monkeypatch, capsys, command, bad
    ):
        reads = []
        monkeypatch.setattr(datamod, "load_scan_dir", lambda root: reads.append(root))
        out = tmp_path / "runs" / "x"
        assert main(self.args(command, dataset, out) + [bad]) == 1
        assert bad.split("=")[0] in capsys.readouterr().err
        assert reads == []
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("bad", [
        "data.scenes=0",
        "sk.eps_end=0",
        "sk.iters=-2",
        "unc.p=1.5",
        "queue.sample_per_class=-1",
        "aug.jitter_sigma=-1",
        "aug.jitter_sigma=nan",
        "aug.scale_lo=nan",
        "train.lr_max=nan",
        "train.temperature=nan",
        "sk.eps_start=inf",
        "offline.finetune_epochs=-2",
        "offline.overcluster=on offline.overcluster_factor=0",
        "aug.scale_lo=0 aug.scale_hi=0",
        "aug.scale_lo=-1",
        "train.momentum=5",
        "train.lr_min=1 train.lr_max=0.5",
    ])
    def test_train_refuses_an_out_of_range_value_by_name_before_out_exists(
        self, dataset, tmp_path, capsys, bad
    ):
        data, _ = dataset
        keys = {kv.split("=")[0] for kv in bad.split()}
        settings = [kv for kv in FAST if kv.split("=")[0] not in keys] + bad.split()
        out = tmp_path / "runs" / "x"
        assert main(["train", "--data", str(data), "--out", str(out), *settings]) == 1
        assert bad.split()[-1].split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_eval_scores_the_head_eval_head_names(self, dataset, tmp_path, monkeypatch):
        import segdiscover.cli as cli

        heads, evaluate = [], cli.evaluate
        monkeypatch.setattr(cli, "evaluate", lambda model, *args, **kwargs: (
            heads.append(model.selected_head), evaluate(model, *args, **kwargs))[1])
        for head in ("0", "1"):
            args = self.args("eval", dataset, tmp_path / head) + [f"model.eval_head={head}"]
            assert main(args) == 0
        assert heads == [0, 1]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_resolved_passes_the_check(self, dataset, tmp_path, command):
        good = ["offline.ratio=0.5", "data.points=64", "model.eval_head=1"]
        out = tmp_path / "x"
        assert main(self.args(command, dataset, out) + good) == 0
        cfg = cfgmod.resolve(out / "config.resolved")
        cfgmod.check(cfg)
        assert [f"{key}={cfg[key]}" for key in ("offline.ratio", "data.points",
                                                "model.eval_head")] == good


class TestAblateReuse:
    def _count(self, monkeypatch):
        import segdiscover.cli as cli

        runs, evals = [], []
        real_train = cli.train

        def counted_train(*args, **kw):
            runs.append(real_train(*args, **kw))
            return runs[-1]

        monkeypatch.setattr(cli, "train", counted_train)
        monkeypatch.setattr(cli, "evaluate", lambda *a, **kw: evals.append(a))
        return runs, evals

    def _rows(self, path):
        return [line.split("\t", 1)[1] for line in path.read_text().splitlines()[1:]]

    def test_rows_are_the_final_evaluation_and_full_is_reused(self, tmp_path, monkeypatch):
        from segdiscover import data as datamod
        from segdiscover.evaluate import evaluate

        data = gen_tiny(tmp_path / "d")
        runs, evals = self._count(monkeypatch)
        out = tmp_path / "ab"
        fast = [kv for kv in FAST if not kv.startswith("train.epochs=")] + ["train.epochs=2"]
        assert main(["ablate", "--data", str(data), "--out", str(out), "--seed", "0", *fast]) == 0
        assert len(runs) == len(ABLATION_GRID) + len(PERCENTILE_SWEEP) - 1
        assert evals == []
        val = datamod.load_scan_dir(data / "val")
        split = datamod.read_split_file(
            data / "split.txt", datamod.read_class_names(data / "classes.txt")
        )
        scored = []
        for result in runs:
            report = evaluate(result.model, val, split)
            scored.append(f"{report.novel_miou:.4f}\t{report.base_miou:.4f}\t{report.all_miou:.4f}")
        grid, sweep = self._rows(out / "ablation.tsv"), self._rows(out / "sweep.tsv")
        assert grid == scored[:len(ABLATION_GRID)]
        # the default unc.p=0.5 sweep row is the grid's Full run
        assert sweep == scored[len(ABLATION_GRID):][:2] + [grid[-1]] + scored[-2:]

    def test_a_percentile_outside_the_sweep_trains_every_row(self, tmp_path, monkeypatch):
        data = gen_tiny(tmp_path / "d")
        runs, _ = self._count(monkeypatch)
        out = tmp_path / "ab"
        assert main(["ablate", "--data", str(data), "--out", str(out), *FAST, "unc.p=0.25"]) == 0
        assert len(runs) == len(ABLATION_GRID) + len(PERCENTILE_SWEEP)
