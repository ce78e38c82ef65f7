"""Synthetic generation, scan-format IO, splits, and masking."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from segdiscover import data as D


def small_config(**kw):
    defaults = dict(
        archetypes=(
            D.ClassArchetype("ground", 0.5, 0.2, 8.0, 0.0, planar=True),
            D.ClassArchetype("a", 0.3, 0.5, 4.0, 2.0),
            D.ClassArchetype("b", 0.2, 0.5, 6.0, 4.0),
        ),
        n_scenes=10,
        points_per_scene=1000,
        seed=7,
        novel_classes=(2,),
    )
    defaults.update(kw)
    return D.SyntheticConfig(**defaults)


class TestSyntheticGeneration:
    def test_single_class_uniform_labels(self):
        cfg = D.SyntheticConfig(
            archetypes=(D.ClassArchetype("only", 1.0, 0.3, 2.0, 1.0),),
            n_scenes=1,
            points_per_scene=10,
            novel_classes=(0,),
        )
        (cloud,) = D.generate_synthetic(cfg)
        assert cloud.n_points == 10
        assert np.all(cloud.labels == 0)

    def test_seed_reproducibility_bitwise(self):
        a = D.generate_synthetic(small_config())
        b = D.generate_synthetic(small_config())
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.coords, cb.coords)
            assert np.array_equal(ca.labels, cb.labels)

    def test_empirical_frequencies_match_shares(self):
        cfg = small_config(scene_dropout=0.0)
        clouds = D.generate_synthetic(cfg)
        labels = np.concatenate([c.labels for c in clouds])
        for cls, share in enumerate([0.5, 0.3, 0.2]):
            freq = np.mean(labels == cls)
            assert abs(freq - share) < 0.05

    def test_dropout_omits_classes_in_some_scenes_but_not_overall(self):
        cfg = small_config(n_scenes=30, scene_dropout=0.4)
        clouds = D.generate_synthetic(cfg)
        per_scene = [set(np.unique(c.labels)) for c in clouds]
        assert any(len(s) < 3 for s in per_scene[1:])
        assert set().union(*per_scene) == {0, 1, 2}

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            small_config(archetypes=(D.ClassArchetype("x", 0.5, 0.1, 1.0, 0.0),))
        with pytest.raises(ValueError):
            small_config(n_scenes=0)
        with pytest.raises(ValueError):
            small_config(points_per_scene=0)

    def test_archetype_geometry_is_signature(self):
        # blob classes should sit near their configured radius/height
        cfg = small_config(scene_dropout=0.0)
        clouds = D.generate_synthetic(cfg)
        xyz = np.concatenate([c.coords for c in clouds])
        lab = np.concatenate([c.labels for c in clouds])
        r = np.sqrt(xyz[:, 0] ** 2 + xyz[:, 1] ** 2)
        assert abs(np.median(r[lab == 1]) - 4.0) < 1.0
        assert abs(np.median(xyz[lab == 2, 2]) - 4.0) < 1.0


class TestScanIO:
    def test_format_definition(self, tmp_path):
        bin_path = tmp_path / "s.bin"
        label_path = tmp_path / "s.label"
        bin_path.write_bytes(np.array([1.0, 2.0, 3.0, 0.5], dtype="<f4").tobytes())
        label_path.write_bytes(np.array([0x00010009], dtype="<u4").tobytes())
        cloud = D.read_kitti_scan(bin_path, label_path)
        np.testing.assert_array_equal(cloud.coords, [[1.0, 2.0, 3.0]])
        assert cloud.labels.tolist() == [9]  # lower 16 bits only

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "e.bin").write_bytes(b"")
        (tmp_path / "e.label").write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            D.read_kitti_scan(tmp_path / "e.bin", tmp_path / "e.label")

    def test_truncated_scan_rejected(self, tmp_path):
        (tmp_path / "t.bin").write_bytes(b"\x00" * 20)
        (tmp_path / "t.label").write_bytes(b"\x00" * 4)
        with pytest.raises(ValueError, match="multiple of 16"):
            D.read_kitti_scan(tmp_path / "t.bin", tmp_path / "t.label")

    def test_count_mismatch_rejected(self, tmp_path):
        (tmp_path / "m.bin").write_bytes(b"\x00" * 32)
        (tmp_path / "m.label").write_bytes(b"\x00" * 4)
        with pytest.raises(ValueError, match="labels for"):
            D.read_kitti_scan(tmp_path / "m.bin", tmp_path / "m.label")

    def test_non_finite_coordinate_names_the_file(self, tmp_path):
        pts = np.array([[1.0, 2.0, 3.0, 0.0], [np.nan, 0.0, 0.0, 0.0]], dtype="<f4")
        (tmp_path / "n.bin").write_bytes(pts.tobytes())
        (tmp_path / "n.label").write_bytes(np.zeros(2, dtype="<u4").tobytes())
        with pytest.raises(ValueError, match=r"n\.bin: record 1 has a non-finite coordinate"):
            D.read_kitti_scan(tmp_path / "n.bin", tmp_path / "n.label")

    def test_a_cloud_refuses_a_non_finite_coordinate_by_scene_and_point(self):
        coords = np.array([[1.0, 2.0, 3.0], [0.0, np.inf, 0.0]])
        with pytest.raises(ValueError, match=r"scene 'a7': point 1 has a non-finite coordinate"):
            D.LabelledCloud(coords, np.zeros(2, dtype=int), scene_id="a7")

    def test_write_read_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        coords = rng.normal(size=(3, 3)).astype("<f4").astype(np.float64)
        cloud = D.LabelledCloud(coords, np.array([1, 2, 3]), scene_id="0000")
        D.write_kitti_scan(tmp_path / "r.bin", tmp_path / "r.label", cloud)
        back = D.read_kitti_scan(tmp_path / "r.bin", tmp_path / "r.label")
        assert np.array_equal(back.coords, cloud.coords)
        assert np.array_equal(back.labels, cloud.labels)

    def test_point_order_preserved(self, tmp_path):
        coords = np.array([[float(i), 0.0, 0.0] for i in range(5)])
        cloud = D.LabelledCloud(coords, np.arange(5), scene_id="0001")
        D.write_kitti_scan(tmp_path / "o.bin", tmp_path / "o.label", cloud)
        back = D.read_kitti_scan(tmp_path / "o.bin", tmp_path / "o.label")
        for i in range(5):
            assert back.coords[i, 0] == float(i)
            assert back.labels[i] == i

    def test_scan_dir_round_trip(self, tmp_path):
        clouds = D.generate_synthetic(small_config(n_scenes=3, points_per_scene=50))
        D.write_scan_dir(tmp_path, clouds)
        back = D.load_scan_dir(tmp_path)
        assert len(back) == 3
        for a, b in zip(clouds, back):
            assert np.array_equal(a.labels, b.labels)
            np.testing.assert_allclose(a.coords, b.coords, atol=1e-6)  # f32 storage


    @pytest.mark.parametrize("ids, match", [
        (["", "", ""], "3 empty"),
        (["0000", "0001", "0000", "0002", "0001"], r"repeated \['0000', '0001'\]"),
        (["0000", ""], "1 empty"),
    ], ids=["all-empty", "repeated", "one-empty"])
    def test_scan_dir_refuses_ids_that_cannot_name_distinct_files(self, tmp_path, ids, match):
        clouds = [D.LabelledCloud(np.full((5, 3), float(i)), np.zeros(5, dtype=int), scene_id=s)
                  for i, s in enumerate(ids)]
        with pytest.raises(ValueError, match=match):
            D.write_scan_dir(tmp_path / "tree", clouds)
        assert not (tmp_path / "tree").exists()  # nothing was written

    def test_labels_past_16_bits_are_refused_before_any_file_is_written(self, tmp_path):
        split = D.SplitSpec("x", "s", frozenset({1}), frozenset({2}))
        good = D.LabelledCloud(np.zeros((3, 3)), np.array([1, 1, 2]), scene_id="a")
        (masked,) = D.mask_novel([D.LabelledCloud(good.coords, good.labels, "b")], split)
        wide = D.LabelledCloud(np.zeros((2, 3)), np.array([1, 0x10000]), scene_id="c")
        with pytest.raises(ValueError, match=r"scene 'b': labels \[-1\] do not fit in 16 bits"):
            D.write_scan_dir(tmp_path / "tree", [good, masked])
        assert not (tmp_path / "tree").exists()
        with pytest.raises(ValueError, match=r"scene 'c': labels \[65536\]"):
            D.write_kitti_scan(tmp_path / "c.bin", tmp_path / "c.label", wide)
        assert list(tmp_path.iterdir()) == []

    def test_coordinates_past_the_float32_range_are_refused_before_any_file_is_written(
        self, tmp_path
    ):
        good = D.LabelledCloud(np.zeros((2, 3)), np.zeros(2, dtype=int), scene_id="a")
        far = D.LabelledCloud(np.array([[0.0, 0, 0], [1e39, 0, 0], [0, 0, -1e39]]),
                              np.zeros(3, dtype=int), scene_id="b")
        with pytest.raises(ValueError, match=r"scene 'b': point 1 has a coordinate past the "
                                             r"float32 range \[1e\+39, 0\.0, 0\.0\]"):
            D.write_scan_dir(tmp_path / "tree", [good, far])
        assert not (tmp_path / "tree").exists()
        with pytest.raises(ValueError, match=r"scene 'b': point 1 "):
            D.write_kitti_scan(tmp_path / "b.bin", tmp_path / "b.label", far)
        assert list(tmp_path.iterdir()) == []
        # the largest float32 and values that round down to it still fit
        top = float(np.finfo(np.float32).max)
        edge = D.LabelledCloud(np.array([[top, -top, np.nextafter(top, np.inf)]]),
                               np.zeros(1, dtype=int), scene_id="c")
        D.write_scan_dir(tmp_path / "tree", [edge])
        (back,) = D.load_scan_dir(tmp_path / "tree")
        assert back.coords.tolist() == [[top, -top, top]]


def mutate(raw: bytes, kind: str, pos: int, bit: int, extra: bytes) -> bytes:
    """``raw`` with bit ``bit`` flipped, cut or ``extra`` inserted at ``pos``
    taken modulo one past its length, so positions spread over the file."""
    pos = pos % (len(raw) + 1)
    if kind == "flip" and pos < len(raw):
        return raw[:pos] + bytes([raw[pos] ^ (1 << bit)]) + raw[pos + 1:]
    if kind == "truncate":
        return raw[:pos]
    return raw[:pos] + extra + raw[pos:]


# one to four edits of a text file; inserts are random bytes or the
# separators and names the readers split on, so some edits still parse
TEXT_EDITS = st.lists(st.tuples(
    st.sampled_from(["flip", "truncate", "insert"]), st.integers(0, 2**16), st.integers(0, 7),
    st.one_of(st.binary(min_size=1, max_size=20), st.sampled_from([
        b"\n", b"\r\n", b"\t", b"=", b",", b"#", b" ", b"novel=", b"dataset=", b"split_name=",
        b"mast", b"crown", b"hub", b"7\t", b"0", b"\xff",
    ])),
), min_size=1, max_size=4)
TOY_NAMES = dict(enumerate(["ground", "hub", "ring", "mast", "crown"]))


class TestScanReaderMutations:
    """Flipped bits, truncations and inserted bytes in a valid scan/label
    pair: the reader returns a cloud or raises a ValueError naming the file."""

    # 300 examples at positions spread over the file (~1 s) caught a
    # reader that skips its non-finite check in each of 6 runs
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(
        st.sampled_from(["bin", "label"]),
        st.sampled_from(["flip", "truncate", "insert"]),
        st.integers(0, 2**16), st.integers(0, 7), st.binary(min_size=1, max_size=20),
    ), min_size=1, max_size=4))
    def test_a_mutated_pair_is_read_or_refused_by_file(self, tmp_path, mutations):
        rng = np.random.default_rng(3)
        # magnitudes in [1, 2): one flipped exponent bit makes a coordinate inf or NaN
        xyz = rng.uniform(1.0, 2.0, size=(6, 3)) * rng.choice([-1.0, 1.0], size=(6, 3))
        pts = np.column_stack([xyz, np.zeros(6)]).astype("<f4")
        files = {"bin": pts.tobytes(), "label": rng.integers(0, 2**32, 6, dtype="<u4").tobytes()}
        for which, kind, pos, bit, extra in mutations:
            files[which] = mutate(files[which], kind, pos, bit, extra)
        bin_path, label_path = tmp_path / "s.bin", tmp_path / "s.label"
        bin_path.write_bytes(files["bin"])
        label_path.write_bytes(files["label"])
        try:
            cloud = D.read_kitti_scan(bin_path, label_path)
        except ValueError as exc:
            assert str(exc).startswith((f"{bin_path}: ", f"{label_path}: ")), str(exc)
            return
        n = len(files["bin"]) // 16
        assert cloud.coords.shape == (n, 3) and np.isfinite(cloud.coords).all()
        assert cloud.labels.shape == (n,) and cloud.labels.min() >= 0
        assert cloud.labels.max() <= 0xFFFF


class TestTextReaderMutations:
    """Flipped bits, truncations and inserted bytes in a valid split file
    or class-name file: the reader parses it or raises a ValueError that
    names the file. 200 examples each take about half a second."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(TEXT_EDITS)
    def test_a_mutated_split_file_is_read_or_refused_by_file(self, tmp_path, edits):
        raw = b"dataset=toy\nsplit_name=s\nnovel=mast,crown\n"
        for kind, pos, bit, extra in edits:
            raw = mutate(raw, kind, pos, bit, extra)
        path = tmp_path / "split.txt"
        path.write_bytes(raw)
        try:
            split = D.read_split_file(path, TOY_NAMES)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            return
        assert split.base_classes | split.novel_classes == frozenset(TOY_NAMES)
        assert split.novel_classes and split.ignore_id is None
        D.write_split_file(path, split, TOY_NAMES)
        assert D.read_split_file(path, TOY_NAMES) == split

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(TEXT_EDITS)
    def test_a_mutated_class_name_file_is_read_or_refused_by_file(self, tmp_path, edits):
        raw = "".join(f"{cid}\t{name}\n" for cid, name in TOY_NAMES.items()).encode()
        for kind, pos, bit, extra in edits:
            raw = mutate(raw, kind, pos, bit, extra)
        path = tmp_path / "classes.txt"
        path.write_bytes(raw)
        try:
            names = D.read_class_names(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            return
        assert all(name and "\t" not in name for name in names.values())
        assert len(set(names.values())) == len(names)
        D.write_class_names(path, names)
        assert D.read_class_names(path) == names


class TestSplits:
    def test_kitti_4_3_novel_set(self):
        splits = {s.name: s for s in D.builtin_splits("semantickitti")}
        classes = D.load_class_table("semantickitti")
        novel_names = {classes.names[c] for c in splits["kitti-4-3"].novel_classes}
        assert novel_names == {"bicycle", "bicyclist", "motorcyclist", "person"}

    def test_poss_3_3_novel_set(self):
        splits = {s.name: s for s in D.builtin_splits("semanticposs")}
        classes = D.load_class_table("semanticposs")
        novel_names = {classes.names[c] for c in splits["poss-3-3"].novel_classes}
        assert novel_names == {"cone-stone", "rider", "trashcan"}

    def test_all_splits_partition_the_class_set(self):
        for dataset in ("semantickitti", "semanticposs"):
            classes = D.load_class_table(dataset)
            for split in D.builtin_splits(dataset):
                assert not (split.base_classes & split.novel_classes)
                assert split.base_classes | split.novel_classes == frozenset(classes.names)

    def test_expected_class_counts(self):
        assert len(D.load_class_table("semantickitti").names) == 19
        assert len(D.load_class_table("semanticposs").names) == 13

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            D.builtin_splits("nuscenes")

    def test_a_synthetic_split_comes_from_its_config_not_the_builtins(self):
        with pytest.raises(ValueError, match="unknown dataset 'synthetic'"):
            D.builtin_splits("synthetic")
        assert small_config().split().novel_classes == frozenset({2})

    def test_split_file_round_trip(self, tmp_path):
        cfg = small_config()
        split = cfg.split()
        names = cfg.class_names()
        D.write_split_file(tmp_path / "split.txt", split, names)
        back = D.read_split_file(tmp_path / "split.txt", names)
        assert back.novel_classes == split.novel_classes
        assert back.base_classes == split.base_classes

    @pytest.mark.parametrize("cid", [0, 3])  # the toy's base ground, its novel mast
    def test_an_ignore_id_that_is_a_class_is_refused_by_id_and_split(self, cid):
        split = D.toy_discovery_config().split()
        with pytest.raises(ValueError,
                           match=rf"^split 'synthetic': ignore id {cid} is also a class$"):
            dataclasses.replace(split, ignore_id=cid)

    def test_every_builtin_split_ignores_its_tables_unlabelled_id(self):
        for dataset in ("semantickitti", "semanticposs"):
            assert D.load_class_table(dataset).ignore_id == 0
            assert {s.ignore_id for s in D.builtin_splits(dataset)} == {0}
        # the synthetic classes start at 0, so their split ignores no id
        assert small_config().split().ignore_id is None

    def test_a_split_with_no_base_class_is_refused(self):
        with pytest.raises(ValueError, match="s: need at least one base class"):
            D.SplitSpec("x", "s", frozenset(), frozenset({1, 2}))

    def test_unknown_novel_class_names_the_file_and_the_class(self, tmp_path):
        cfg = small_config()
        names = cfg.class_names()
        path = tmp_path / "split.txt"
        path.write_text("dataset=toy\nsplit_name=s\nnovel=banana\n")
        with pytest.raises(ValueError, match=r"split\.txt: novel classes \['banana'\] are not in"):
            D.read_split_file(path, names)

    @pytest.mark.parametrize("text, message", [
        ("dataset=toy\nsplit_name=s\nnovel=mast\nnovel=crown\n",
         r"split\.txt:4: key 'novel' set again"),
        ("dataset=toy\nsplit_name=s\nnovel=crown\nnovle=hub\n",
         r"split\.txt:4: unknown key 'novle'"),
        ("dataset=toy\n# comment\nsplit_name s\nnovel=crown\n",
         r"split\.txt:3: expected key=value, got 'split_name s'"),
    ])
    def test_a_repeated_unknown_or_malformed_line_names_the_file_and_line(
            self, tmp_path, text, message):
        path = tmp_path / "split.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            D.read_split_file(path, dict(enumerate(["ground", "hub", "ring", "mast", "crown"])))

    @pytest.mark.parametrize("text, message", [
        ("dataset=\nsplit_name=s\nnovel=crown\n", "split file key 'dataset' is empty"),
        ("dataset=toy\nsplit_name= \nnovel=crown\n", "split file key 'split_name' is empty"),
        ("dataset=toy\nsplit_name=s\nnovel=\n", "split file key 'novel' is empty"),
        ("dataset=toy\nsplit_name=s\nnovel=mast,,crown\n",
         "split file key 'novel' has an empty entry"),
        ("dataset=toy\nsplit_name=s\nnovel=mast, ,crown\n",
         "split file key 'novel' has an empty entry"),
        ("dataset=toy\nsplit_name=s\nnovel=crown,\n", "split file key 'novel' has an empty entry"),
        ("dataset=toy\nsplit_name=s\nnovel=mast,crown, mast\n",
         r"split file key 'novel' repeats \['mast'\]"),
        ("dataset=\nsplit_name=\nnovel=mast,mast,,crown\n", "split file key 'dataset' is empty"),
    ])
    def test_an_empty_key_or_entry_or_a_repeated_entry_is_refused_by_file(
            self, tmp_path, text, message):
        path = tmp_path / "split.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            D.read_split_file(path, dict(enumerate(["ground", "hub", "ring", "mast", "crown"])))

    def test_class_names_round_trip(self, tmp_path):
        names = {0: "ground", 1: "hub", 7: "ring"}
        D.write_class_names(tmp_path / "classes.txt", names)
        assert D.read_class_names(tmp_path / "classes.txt") == names

    @pytest.mark.parametrize("text, message", [
        ("0\tground\n1\thub\n1\tring\n", r"classes\.txt:3: class id 1 already named 'hub'"),
        ("0\tground\n\n1\thub\n2\thub\n", r"classes\.txt:4: class name 'hub' already used"),
        ("0\tground\n1 hub\n", r"classes\.txt:2: expected <id><tab><name>, got '1 hub'"),
        ("x\tground\n", r"classes\.txt:1: expected <id><tab><name>"),
        ("0\tground\tplane\n", r"classes\.txt:1: expected <id><tab><name>"),
    ])
    def test_class_names_refuse_a_repeat_or_a_malformed_line(self, tmp_path, text, message):
        path = tmp_path / "classes.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            D.read_class_names(path)

    def test_key_values_refuse_a_byte_that_is_not_utf8_by_file_and_offset(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_bytes(b"dataset=toy\nsplit_name=s\xff\nnovel=crown\n")
        with pytest.raises(ValueError, match=r"^\S*split\.txt: byte 24 is not UTF-8$"):
            D.read_key_values(path, ("dataset", "split_name", "novel"))

    def test_class_names_refuse_a_byte_that_is_not_utf8_by_file_and_offset(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_bytes(b"0\tground\n1\th\xffb\n")
        with pytest.raises(ValueError, match=r"^\S*classes\.txt: byte 12 is not UTF-8$"):
            D.read_class_names(path)

    @pytest.mark.parametrize("dataset", ["semantickitti", "semanticposs"])
    def test_every_listed_raw_id_maps_as_its_table_row(self, dataset):
        classes = D.load_class_table(dataset)
        raw = np.array(sorted(classes.raw_map) * 2, dtype=np.uint32).reshape(2, -1)
        out = classes.remap_raw(raw)
        assert out.dtype == np.int64 and out.shape == raw.shape
        assert out.tolist() == [[classes.raw_map[int(r)] for r in row] for row in raw]

    def test_an_unlisted_raw_id_is_refused_by_id_and_dataset(self):
        classes = D.load_class_table("semantickitti")
        with pytest.raises(ValueError, match=r"^semantickitti: raw labels \[12345\] are not in "
                                             r"the class table$"):
            classes.remap_raw(np.array([10, 12345, 40]))
        with pytest.raises(ValueError, match=r"raw labels \[-1, 2, 300\] are not"):
            classes.remap_raw(np.array([300, 2, 10, -1, 300]))
        assert classes.remap_raw(np.array([], dtype=np.uint32)).shape == (0,)

    def test_raw_label_remap(self):
        classes = D.load_class_table("semantickitti")
        raw = np.array([10, 252, 0, 81])
        out = classes.remap_raw(raw)
        assert out[0] == out[1]  # moving-car folds into car
        assert out[2] == classes.ignore_id
        assert classes.names[out[3]] == "traffic-sign"


class TestBaseSlots:
    def test_matches_the_per_point_loop(self):
        split = D.SplitSpec("x", "s", frozenset({9, 2, 5}), frozenset({4}))
        order = [2, 5, 9]
        labels = np.random.default_rng(2).choice(order, size=40)
        expected = [order.index(lab) for lab in labels.tolist()]
        slots = split.base_slots(labels)
        assert slots.dtype == np.intp and slots.tolist() == expected

    def test_a_label_with_no_base_slot_is_named(self):
        split = D.SplitSpec("x", "s", frozenset({0, 1, 2}), frozenset({3, 4}))
        with pytest.raises(ValueError,
                           match=r"^labels \[3, 4\] are not in the class order \[0, 1, 2\]$"):
            split.base_slots(np.array([4, 0, 3, 2, 4]))
        with pytest.raises(ValueError, match=rf"labels \[{D.UNLABELLED}\]"):
            split.base_slots(np.array([1, D.UNLABELLED]))

    def test_no_labels_gives_no_slots(self):
        split = D.SplitSpec("x", "s", frozenset({0, 1}), frozenset({2}))
        assert split.base_slots(np.array([], dtype=np.int64)).shape == (0,)


    def test_base_order_inverts_the_slots(self):
        split = D.SplitSpec("x", "s", frozenset({9, 2, 5}), frozenset({4}))
        assert split.base_order == [2, 5, 9]
        labels = np.random.default_rng(3).choice([2, 5, 9], size=40)
        np.testing.assert_array_equal(np.asarray(split.base_order)[split.base_slots(labels)],
                                      labels)

class TestMasking:
    def test_novel_labels_hidden(self):
        cfg = small_config()
        clouds = D.generate_synthetic(cfg)
        masked = D.mask_novel(clouds, cfg.split())
        for m in masked:
            assert set(np.unique(m.labels)) <= {0, 1, D.UNLABELLED}

    def test_masking_is_permutation_invariant(self):
        # shuffling labels among novel points cannot change the masked view
        cfg = small_config()
        clouds = D.generate_synthetic(cfg)
        split = cfg.split()
        rng = np.random.default_rng(0)
        shuffled = []
        for c in clouds:
            labels = c.labels.copy()
            novel = np.flatnonzero(labels == 2)
            labels[rng.permutation(novel)] = labels[novel]
            shuffled.append(D.LabelledCloud(c.coords, labels, c.scene_id))
        for a, b in zip(D.mask_novel(clouds, split), D.mask_novel(shuffled, split)):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.coords, b.coords)

    def test_ignore_points_dropped(self):
        coords = np.zeros((4, 3))
        cloud = D.LabelledCloud(coords, np.array([0, 1, 2, 0]))
        split = D.SplitSpec("x", "s", frozenset({1}), frozenset({2}), ignore_id=0)
        (masked,) = D.mask_novel([cloud], split)
        assert masked.n_points == 2
        assert masked.labels.tolist() == [1, D.UNLABELLED]

    def test_an_id_outside_the_split_is_named_not_relabelled(self):
        cloud = D.LabelledCloud(np.zeros((4, 3)), np.array([1, 2, 40, 0]), scene_id="0007")
        split = D.SplitSpec("x", "s", frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError, match=r"scene '0007': label ids \[0, 40\] are neither"):
            D.mask_novel([cloud], split)
        with pytest.raises(ValueError, match=r"scene '0007': label ids \[40\] are neither"):
            D.mask_novel([cloud], dataclasses.replace(split, ignore_id=0))

    def test_an_ignored_id_passes_the_label_check_and_only_it(self):
        cloud = D.LabelledCloud(np.zeros((3, 3)), np.array([1, 2, 0]), scene_id="s")
        split = D.SplitSpec("x", "s", frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError, match=r"scene 's': label ids \[0\] are neither"):
            D.check_labels([cloud], split)
        D.check_labels([cloud], dataclasses.replace(split, ignore_id=0))
        with pytest.raises(ValueError, match=r"scene 's': label ids \[0\] are neither"):
            D.check_labels([cloud], dataclasses.replace(split, ignore_id=7))


class TestSceneGraph:
    def _count(self, monkeypatch):
        from segdiscover import model

        real, calls = model.knn_indices, []

        def counted(coords, k):
            calls.append((len(coords), k))
            return real(coords, k)

        monkeypatch.setattr(model, "knn_indices", counted)
        return calls

    def test_a_graph_is_built_once_per_k(self, monkeypatch):
        from segdiscover.model import knn_indices

        calls = self._count(monkeypatch)
        cloud = D.generate_synthetic(small_config(n_scenes=1, points_per_scene=40))[0]
        first = cloud.neighbours(4)
        assert cloud.neighbours(4) is first
        np.testing.assert_array_equal(first.index, knn_indices(cloud.coords, 4))
        assert cloud.neighbours(6).index.shape == (40, 6)
        assert calls == [(40, 4), (40, 6)]
        # a replaced copy starts with no graphs, and graphs take no part in equality
        copy = dataclasses.replace(cloud)
        assert copy == cloud
        copy.neighbours(4)
        assert calls == [(40, 4), (40, 6), (40, 4)]

    def test_a_scene_that_goes_frees_its_graph_and_its_kept_transpose(self):
        import gc
        import weakref

        from segdiscover import autodiff as ad
        from segdiscover.model import ModelConfig, SegmentationModel

        cloud = D.generate_synthetic(small_config(n_scenes=1, points_per_scene=40))[0]
        model = SegmentationModel(ModelConfig(knn=4), 3, 2, np.random.default_rng(0))
        graph = cloud.neighbours(4)
        ad.backward(ad.sum_all(model.extract_features(cloud.coords, graph)))
        order, flat, _ = graph.reverse
        refs = [weakref.ref(x) for x in (graph, graph.index, order, flat)]
        del cloud, graph, order, flat
        gc.collect()
        assert [r() for r in refs] == [None] * 4

    def test_a_masked_scene_shares_its_graph_unless_it_lost_points(self, monkeypatch):
        calls = self._count(monkeypatch)
        split = D.SplitSpec("x", "s", frozenset({1}), frozenset({2}), ignore_id=0)
        rng = np.random.default_rng(0)
        whole = D.LabelledCloud(rng.normal(size=(12, 3)), np.tile([1, 2], 6), scene_id="w")
        holed = D.LabelledCloud(rng.normal(size=(12, 3)), np.tile([1, 2, 0], 4), scene_id="h")
        graphs = [whole.neighbours(3), holed.neighbours(3)]
        kept, dropped = D.mask_novel([whole, holed], split)
        assert kept.coords is whole.coords
        assert kept.neighbours(3) is graphs[0]
        assert dropped.n_points == 8
        assert dropped.neighbours(3) is not graphs[1]
        assert holed.neighbours(3) is graphs[1]
        assert calls == [(12, 3), (12, 3), (8, 3)]
        # without an ignore id every scene keeps its points and its graph
        with_zero = D.SplitSpec("x", "s", frozenset({0, 1}), frozenset({2}))
        for m, graph in zip(D.mask_novel([whole, holed], with_zero), graphs):
            assert m.neighbours(3) is graph
        assert len(calls) == 3
