"""Flat run settings: defaults, key-to-field mapping and boundary errors."""

import dataclasses
import re

import pytest

from segdiscover import config
from segdiscover import data as datamod
from segdiscover.baseline import BaselineConfig
from segdiscover.cli import main
from segdiscover.train import ExperimentConfig

# the settings file a default run wrote before defaults moved onto the
# config dataclasses; such files must keep loading to the same values
LEGACY_DEFAULTS = """\
aug.jitter_sigma=0.01
aug.rot=on
aug.scale_hi=1.05
aug.scale_lo=0.95
data.archetypes=toy
data.classes=5
data.dropout=0.0
data.novel=2
data.points=512
data.scenes=200
data.val_scenes=50
disc.overcluster=on
disc.phi_queue=on
disc.tau_train=on
disc.use_queue=on
model.D=32
model.eval_head=auto
model.heads=5
model.hidden=64
model.k=16
model.overcluster_factor=3
offline.cap=1000
offline.finetune_epochs=10
offline.overcluster=off
offline.overcluster_factor=3
offline.pretrain_epochs=20
offline.ratio=0.3
queue.capacity=1024
queue.insert_fraction=0.1
queue.sample_per_class=64
sk.eps_end=0.05
sk.eps_start=0.3
sk.iters=3
train.batch_size=4
train.epochs=10
train.lr_max=0.01
train.lr_min=0.00001
train.momentum=0.9
train.seed=0
train.temperature=0.2
train.warmup_fraction=0.1
train.weight_decay=0.0001
unc.p=0.5
"""

# where each key's value lands, written independently of config.FIELDS:
# the key's section names a sub-config and its suffix the field, except
# for the keys renamed below
SECTIONS = {"aug": "augment", "model": "model", "sk": "sinkhorn", "queue": "queue",
            "unc": "discovery", "train": "train", "disc": "discovery"}
RENAMED = {"aug.rot": "rotate", "model.D": "feature_dim", "model.k": "knn",
           "unc.p": "percentile", "offline.ratio": "subsample.ratio",
           "offline.cap": "subsample.cap"}


def expected_field(key):
    section, name = key.split(".", 1)
    name = RENAMED.get(key, name)
    if section == "offline":
        return f"baseline.{name}"
    if section == "data":
        return f"data.{name}"
    return f"experiment.{SECTIONS[section]}.{name}"


def leaves(obj, prefix):
    """Every non-dataclass field of a nested config, by dotted path."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(leaves(value, f"{prefix}{f.name}."))
        else:
            out[f"{prefix}{f.name}"] = value
    return out


def built(cfg):
    return {**leaves(config.experiment_config(cfg), "experiment."),
            **leaves(config.baseline_config(cfg), "baseline."),
            **leaves(config.data_config(cfg), "data.")}


# keys whose other value is valid only beside another setting, and that setting
CONTEXT = {"data.classes": "data.archetypes=generic", "data.novel": "data.archetypes=generic"}


def other_value(default):
    """A valid value unlike ``default``, as config text."""
    if isinstance(default, bool):
        return "off" if default else "on"
    if isinstance(default, str):
        return {"auto": "1", "toy": "generic"}[default]
    if isinstance(default, int):
        return str(default + 1)
    return str(default * 1.02 or 0.25)  # a small step keeps scale_lo <= scale_hi


def test_defaults_build_the_default_dataclasses():
    cfg = config.resolve()
    assert config.experiment_config(cfg) == ExperimentConfig()
    assert config.baseline_config(cfg) == BaselineConfig()


def test_key_set_is_unchanged():
    legacy = {line.split("=")[0] for line in LEGACY_DEFAULTS.splitlines()}
    assert set(config.resolve()) == legacy
    assert len(legacy) == 43


def test_defaults_text_matches_the_dataclasses():
    cfg = config.resolve()
    assert cfg["aug.rot"] == "on" and cfg["offline.overcluster"] == "off"
    assert cfg["model.D"] == "32" and cfg["train.weight_decay"] == "0.0001"
    assert cfg["train.lr_min"] == "1e-05"


def test_each_key_sets_its_own_field_and_no_other():
    reached = set()
    for key in config.FIELDS:
        context = [CONTEXT[key]] if key in CONTEXT else []
        defaults = built(config.resolve(overrides=context))
        field = expected_field(key)
        default = defaults[field]
        text = other_value(default)
        got = built(config.resolve(overrides=[*context, f"{key}={text}"]))
        changed = {path for path in got if got[path] != defaults[path]}
        assert changed == {field}, key
        want = text == "on" if isinstance(default, bool) else type(default)(text)
        assert got[field] == want, key
        reached.add(field)
    assert reached == set(built(config.resolve()))


def test_every_key_is_a_dataclass_field():
    assert set(config.DEFAULTS) == set(config.FIELDS)


def test_legacy_defaults_file_loads_to_the_same_settings(tmp_path):
    path = tmp_path / "config.resolved"
    path.write_text(LEGACY_DEFAULTS)
    cfg = config.resolve(path)
    assert config.experiment_config(cfg) == ExperimentConfig()
    assert config.baseline_config(cfg) == BaselineConfig()


class TestBoundaryErrors:
    @pytest.mark.parametrize("text, message", [
        ("sk.iters=3\n# again\nsk.iters=7\n", r"run\.cfg:3: key 'sk\.iters' set again"),
        ("train.epochs=2\nsk.itres=3\n", r"run\.cfg:2: unknown key 'sk\.itres'"),
        ("train.epochs 2\n", r"run\.cfg:1: expected key=value, got 'train\.epochs 2'"),
    ])
    def test_a_config_file_line_is_refused_by_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            config.resolve(path)

    @pytest.mark.parametrize("overrides, message", [
        (["sk.iters=3", "sk.iters=7"], r"override: key 'sk\.iters' set again"),
        (["sk.iters=3", " sk.iters =7"], r"override: key 'sk\.iters' set again"),
        (["sk.itres=3"], r"override: unknown key 'sk\.itres'"),
    ])
    def test_an_override_is_refused_as_a_config_file_line_is(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            config.resolve(overrides=overrides)

    def test_an_override_key_and_value_are_stripped_and_replace_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sk.iters=3\n")
        assert config.resolve(path, [" sk.iters = 7 "])["sk.iters"] == "7"

    def test_override_without_equals_names_the_key(self):
        with pytest.raises(ValueError, match="train.epochs"):
            config.experiment_config(config.resolve(overrides=["train.epochs"]))

    def test_unparsable_value_names_key_and_value(self):
        cfg = config.resolve(overrides=["sk.iters=abc"])
        with pytest.raises(ValueError, match=r"sk\.iters.*'abc'"):
            config.experiment_config(cfg)
        cfg = config.resolve(overrides=["offline.ratio=lots"])
        with pytest.raises(ValueError, match=r"offline\.ratio.*'lots'"):
            config.baseline_config(cfg)
        cfg = config.resolve(overrides=["disc.use_queue=maybe"])
        with pytest.raises(ValueError, match=r"disc\.use_queue.*'maybe'"):
            config.experiment_config(cfg)

    @pytest.mark.parametrize("overrides, message", [
        (["model.D=0"], "model.D=0: model dimensions must be positive"),
        (["train.epochs=0"], "train.epochs=0: epochs and batch_size must be positive"),
        (["queue.capacity=0"], "queue.capacity=0: capacity must be positive"),
        (["aug.scale_lo=1.2", "aug.scale_hi=1.1"],
         "aug.scale_lo=1.2, aug.scale_hi=1.1: scale_lo must not exceed scale_hi"),
        (["offline.ratio=2", "offline.cap=1000"], "offline.ratio=2: ratio must be in (0, 1]"),
    ])
    def test_a_rejected_value_names_the_keys_set_under_its_dataclass(self, overrides, message):
        cfg = config.resolve(overrides=overrides)
        offline = overrides[0].startswith("offline")
        with pytest.raises(ValueError) as err:
            (config.baseline_config if offline else config.experiment_config)(cfg)
        assert str(err.value) == message

    def test_gen_data_names_a_rejected_key(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "offline.ratio=2"]) == 1
        assert capsys.readouterr().err == "error: offline.ratio=2: ratio must be in (0, 1]\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", "-1", "two"])
    def test_eval_head_outside_the_heads_rejected(self, text):
        cfg = config.resolve(overrides=[f"model.eval_head={text}"])
        with pytest.raises(ValueError, match="model.eval_head"):
            config.check(cfg)

    def test_eval_head_values(self):
        assert config.experiment_config(config.resolve()).model.eval_head == "auto"
        cfg = config.resolve(overrides=["model.eval_head=4"])
        assert config.experiment_config(cfg).model.eval_head == "4"

    def test_eval_command_names_a_bad_eval_head(self, tmp_path, capsys):
        fast = ["train.epochs=1", "model.D=8", "model.hidden=16", "model.k=4",
                "model.heads=2", "queue.capacity=32", "queue.sample_per_class=4"]
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--scenes", "2", "--points", "40", "--out", str(data),
                     "data.val_scenes=1"]) == 0
        assert main(["train", "--data", str(data), "--out", str(run), *fast]) == 0
        capsys.readouterr()
        code = main(["eval", "--data", str(data), "--checkpoint", str(run / "checkpoint.ckpt"),
                     "--out", str(tmp_path / "eval"), *fast, "model.eval_head=9"])
        assert code == 1
        assert "model.eval_head" in capsys.readouterr().err


class TestGenDataChecksEveryKey:
    @pytest.mark.parametrize("override, message", [
        ("data.scenes=abc", r"data\.scenes.*'abc'"),
        ("data.dropout=x", r"data\.dropout.*'x'"),
        ("data.val_scenes=1.5", r"data\.val_scenes.*'1\.5'"),
        ("sk.iters=abc", r"sk\.iters.*'abc'"),
        ("offline.cap=many", r"offline\.cap.*'many'"),
        ("data.archetypes=tyo", r"data\.archetypes.*'tyo'"),
        ("data.classes=9 data.novel=0", r"data\.novel.*got 0"),
        ("data.classes=9", r"data\.classes.*toy.*got 9"),
    ])
    def test_bad_value_named_and_nothing_written(self, tmp_path, capsys, override, message):
        out = tmp_path / "data"
        # small sizes, unless the case sets that key itself (a key is given once)
        small = [kv for kv in ("data.scenes=2", "data.val_scenes=1")
                 if kv.split("=")[0] + "=" not in override]
        assert main(["gen-data", "--points", "20", "--out", str(out), *small,
                     *override.split()]) == 1
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    def test_generic_archetypes_write_their_classes_and_split(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen-data", "--points", "20", "--out", str(out), "data.scenes=2",
                     "data.val_scenes=1", "data.archetypes=generic", "data.classes=7",
                     "data.novel=3"]) == 0
        names = datamod.read_class_names(out / "classes.txt")
        assert len(names) == 7
        assert datamod.read_split_file(out / "split.txt", names).n_novel == 3

    def test_data_keys_parse_as_their_default_types(self):
        data = config.data_config(config.resolve(overrides=["data.points=64", "data.dropout=0.25"]))
        assert data.points == 64
        assert data.dropout == 0.25
        assert data.archetypes == "toy"
