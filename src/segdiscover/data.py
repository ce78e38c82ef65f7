"""Scene data: synthetic cloud generation, scan-format IO, class splits.

Synthetic scenes stand in for LiDAR captures at desk scale. Every class
is an archetype with a rotation-invariant geometric signature (distance
from the vertical axis, height band, spread), so classes stay separable
under the augmentations used for the swapped prediction task. Scenes can
randomly omit classes to exercise the missing-class condition the queue
exists for.
"""

from __future__ import annotations

import importlib.resources
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import model
from .autodiff import NeighbourGraph

# Label value a point carries once its (novel) ground truth is hidden.
UNLABELLED = -1

VAL_SCENES = 50  # default size of a synthetic validation set (``validation_scenes``)


@dataclass
class LabelledCloud:
    """One scene: point coordinates in meters with per-point class ids.

    Coordinates are not changed after construction: the scene keeps the
    k-NN graphs built over them, and a masked copy may share both."""

    coords: np.ndarray  # (m, 3) float64
    labels: np.ndarray  # (m,) int64
    scene_id: str = ""
    _graphs: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError(f"coords must be (m, 3), got {self.coords.shape}")
        if self.labels.shape != (self.coords.shape[0],):
            raise ValueError("labels length must match point count")
        if self.coords.shape[0] < 1:
            raise ValueError("a cloud needs at least one point")
        model.check_coords(self.coords, f"scene {self.scene_id!r}")

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]

    def neighbours(self, k: int) -> NeighbourGraph:
        """The scene's ``model.knn_indices`` graph for ``k``, built on first
        use and kept, with the transpose the first backward pass builds."""
        if k not in self._graphs:
            # looked up on the module, so a wrapped knn_indices is the one called
            self._graphs[k] = NeighbourGraph(model.knn_indices(self.coords, k))
        return self._graphs[k]


@dataclass(frozen=True)
class SplitSpec:
    """Partition of a dataset's class ids into base (labelled) and novel.

    The split also owns the training layout of the base classes: slot j
    trains base class ``base_order[j]``, the j-th smallest base id, and no
    other id has a slot (``base_slots``). Points labelled ``ignore_id``
    are neither trained nor scored, so it may be no class of the split."""

    dataset: str
    name: str
    base_classes: frozenset
    novel_classes: frozenset
    ignore_id: int | None = None

    def __post_init__(self):
        if self.base_classes & self.novel_classes:
            raise ValueError(f"{self.name}: base and novel classes overlap")
        if not self.novel_classes:
            raise ValueError(f"{self.name}: need at least one novel class")
        if not self.base_classes:
            raise ValueError(f"{self.name}: need at least one base class")
        if self.ignore_id in self.base_classes | self.novel_classes:
            raise ValueError(f"split {self.name!r}: ignore id {self.ignore_id} is also a class")

    @property
    def n_novel(self) -> int:
        return len(self.novel_classes)

    @property
    def base_order(self) -> list[int]:
        """The base class ids in slot order, ascending: ``base_slots``' inverse."""
        return sorted(self.base_classes)

    def base_slots(self, labels) -> np.ndarray:
        """Each label's slot: its index in ``base_order``. A novel,
        unlabelled or unknown id has none and is refused by value."""
        order = self.base_order
        values, inverse = np.unique(np.asarray(labels), return_inverse=True)
        outside = [v for v in values.tolist() if v not in self.base_classes]
        if outside:
            raise ValueError(f"labels {outside} are not in the class order {order}")
        return np.searchsorted(order, values)[inverse.reshape(-1)]


@dataclass(frozen=True)
class ClassArchetype:
    """Geometry of one synthetic class.

    Blob classes scatter Gaussian clusters at a fixed distance from the
    vertical axis and a fixed height, with a random azimuth per scene.
    A planar archetype fills a horizontal disc (ground). ``presence``
    is the chance the class appears in a given scene at all; rare
    classes are what the class-balanced queue exists for.
    """

    name: str
    share: float
    spread: float
    radius: float
    height: float
    n_blobs: int = 1
    planar: bool = False
    presence: float = 1.0


@dataclass(frozen=True)
class SyntheticConfig:
    archetypes: tuple
    n_scenes: int
    points_per_scene: int
    seed: int = 0
    scene_dropout: float = 0.0  # chance a class is absent from a scene
    novel_classes: tuple = ()

    def __post_init__(self):
        if self.n_scenes < 1 or self.points_per_scene < 1:
            raise ValueError("need at least one scene and one point per scene")
        if not self.archetypes:
            raise ValueError("need at least one class archetype")
        shares = sum(a.share for a in self.archetypes)
        if abs(shares - 1.0) > 1e-9:
            raise ValueError(f"class shares must sum to 1, got {shares}")
        if any(a.spread <= 0 for a in self.archetypes):
            raise ValueError("spreads must be positive")
        if not (0.0 <= self.scene_dropout < 1.0):
            raise ValueError("scene_dropout must be in [0, 1)")
        for c in self.novel_classes:
            if not (0 <= c < len(self.archetypes)):
                raise ValueError(f"novel class id {c} out of range")

    @property
    def n_classes(self) -> int:
        return len(self.archetypes)

    def split(self) -> SplitSpec:
        novel = frozenset(self.novel_classes)
        base = frozenset(range(self.n_classes)) - novel
        return SplitSpec("synthetic", "synthetic", base, novel)

    def class_names(self) -> dict:
        return {i: a.name for i, a in enumerate(self.archetypes)}


def _sample_class_points(arch: ClassArchetype, count: int, rng: np.random.Generator) -> np.ndarray:
    if arch.planar:
        r = arch.radius * np.sqrt(rng.random(count))
        theta = rng.uniform(0.0, 2.0 * np.pi, count)
        z = rng.normal(arch.height, arch.spread, count)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    per_blob = np.full(arch.n_blobs, count // arch.n_blobs)
    per_blob[: count % arch.n_blobs] += 1
    chunks = []
    for n in per_blob:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        center = np.array([arch.radius * np.cos(theta), arch.radius * np.sin(theta), arch.height])
        chunks.append(center + rng.normal(0.0, arch.spread, (n, 3)))
    return np.concatenate(chunks, axis=0)


def generate_synthetic(cfg: SyntheticConfig) -> list[LabelledCloud]:
    """Reproducible scene list; scene 0 always contains every class so the
    dataset as a whole covers the label set even under dropout."""
    rng = np.random.default_rng(cfg.seed)
    shares = np.array([a.share for a in cfg.archetypes])
    appear = np.array([a.presence * (1.0 - cfg.scene_dropout) for a in cfg.archetypes])
    clouds = []
    for i in range(cfg.n_scenes):
        present = np.ones(cfg.n_classes, dtype=bool)
        if np.any(appear < 1.0) and i > 0:
            present = rng.random(cfg.n_classes) < appear
            if not present.any():
                present[int(np.argmax(shares))] = True
        p = shares * present
        counts = rng.multinomial(cfg.points_per_scene, p / p.sum())
        coords, labels = [], []
        for cls, count in enumerate(counts):
            if count == 0:
                continue
            coords.append(_sample_class_points(cfg.archetypes[cls], int(count), rng))
            labels.append(np.full(int(count), cls, dtype=np.int64))
        xyz = np.concatenate(coords, axis=0)
        lab = np.concatenate(labels)
        order = rng.permutation(xyz.shape[0])
        clouds.append(LabelledCloud(xyz[order], lab[order], scene_id=f"{i:04d}"))
    return clouds


def validation_scenes(train_cfg: SyntheticConfig, n_scenes: int) -> list[LabelledCloud]:
    """``n_scenes`` scenes drawn like ``train_cfg``'s, seeded 10,000 past it."""
    return generate_synthetic(replace(train_cfg, n_scenes=n_scenes, seed=train_cfg.seed + 10_000))


def toy_discovery_config(seed: int = 0, n_scenes: int = 200, points_per_scene: int = 512) -> SyntheticConfig:
    """Five classes, three base plus two novel, separable by radius/height."""
    archetypes = (
        ClassArchetype("ground", share=0.30, spread=0.1, radius=10.0, height=0.0, planar=True),
        ClassArchetype("hub", share=0.18, spread=0.4, radius=3.0, height=2.5),
        ClassArchetype("ring", share=0.16, spread=0.5, radius=7.0, height=2.0, n_blobs=2),
        # novel classes are imbalanced and often missing from a scene,
        # the regime the queue and equipartition interact in
        ClassArchetype("mast", share=0.22, spread=0.45, radius=5.0, height=5.0, presence=0.85),
        ClassArchetype("crown", share=0.14, spread=0.45, radius=1.5, height=7.5, presence=0.45),
    )
    return SyntheticConfig(
        archetypes=archetypes,
        n_scenes=n_scenes,
        points_per_scene=points_per_scene,
        seed=seed,
        novel_classes=(3, 4),
    )


def make_archetypes(n_classes: int, seed: int = 0) -> tuple:
    """Programmatic archetype set: one ground plane plus separated blobs."""
    if n_classes < 1:
        raise ValueError("need at least one class")
    rng = np.random.default_rng(seed)
    archetypes = [ClassArchetype("ground", 0.0, 0.2, 9.0, 0.0, planar=True)]
    for i in range(1, n_classes):
        archetypes.append(
            ClassArchetype(
                f"blob{i}",
                0.0,
                spread=float(rng.uniform(0.4, 0.8)),
                radius=float(2.0 + (i * 2.7) % 7.0),
                height=float(1.5 + 1.4 * i),
                n_blobs=int(rng.integers(1, 3)),
            )
        )
    # Unequal shares, ground heaviest, mimicking LiDAR class imbalance.
    weights = np.array([2.5] + [1.0 + 0.5 * ((i * 7) % 3) for i in range(1, n_classes)])
    shares = weights / weights.sum()
    return tuple(replace(a, share=float(s)) for a, s in zip(archetypes, shares))


_TOY = toy_discovery_config()  # its sizes are the ``DataConfig`` defaults


@dataclass(frozen=True)
class DataConfig:
    """The ``data.*`` settings of ``gen-data``'s synthetic set: ``toy``
    (``toy_discovery_config``, fixed class counts) or ``generic``
    (``make_archetypes``) archetypes. The generator config's own checks
    refuse the counts and the dropout; the check builds no archetype
    past the toy ones and generates no scene."""

    scenes: int = _TOY.n_scenes
    val_scenes: int = VAL_SCENES
    points: int = _TOY.points_per_scene
    archetypes: str = "toy"
    classes: int = _TOY.n_classes
    novel: int = len(_TOY.novel_classes)
    dropout: float = _TOY.scene_dropout

    def __post_init__(self):
        if self.archetypes not in ("toy", "generic"):
            raise ValueError(f"archetypes must be toy or generic, got {self.archetypes!r}")
        if not 0 < self.novel < self.classes:
            raise ValueError(f"novel must be in 1..classes-1 = {self.classes - 1}, got {self.novel}")
        toy = (_TOY.n_classes, len(_TOY.novel_classes))
        if self.archetypes == "toy" and (self.classes, self.novel) != toy:
            raise ValueError(f"the toy archetypes fix classes/novel at {toy[0]}/{toy[1]}, "
                             f"got {self.classes}/{self.novel}")
        syn = toy_discovery_config(n_scenes=self.scenes, points_per_scene=self.points)
        replace(syn, n_scenes=self.val_scenes, scene_dropout=self.dropout)

    def synthetic(self, seed: int) -> SyntheticConfig:
        """The generator config of the training scenes, seeded ``seed``."""
        if self.archetypes == "toy":
            syn = toy_discovery_config(seed=seed, n_scenes=self.scenes, points_per_scene=self.points)
        else:
            syn = SyntheticConfig(
                archetypes=make_archetypes(self.classes, seed=seed),
                n_scenes=self.scenes,
                points_per_scene=self.points,
                seed=seed,
                novel_classes=tuple(range(self.classes - self.novel, self.classes)),
            )
        return replace(syn, scene_dropout=self.dropout)


# ---------------------------------------------------------------------------
# Scan-format IO (SemanticKITTI layout: xyz+remission f32, label u32)
# ---------------------------------------------------------------------------

def read_kitti_scan(bin_path, label_path) -> LabelledCloud:
    """Read one scan/label pair.

    A scan record is four little-endian f32 (x, y, z, remission); the
    remission is discarded. A label is a little-endian u32 whose lower
    16 bits are the class id.
    """
    raw = Path(bin_path).read_bytes()
    if len(raw) == 0:
        raise ValueError(f"{bin_path}: empty scan file")
    if len(raw) % 16 != 0:
        raise ValueError(f"{bin_path}: truncated scan, {len(raw)} bytes is not a multiple of 16")
    pts = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    finite = np.isfinite(pts[:, :3]).all(axis=1)
    if not finite.all():
        raise ValueError(f"{bin_path}: record {np.argmin(finite)} has a non-finite coordinate")
    lab_raw = Path(label_path).read_bytes()
    if len(lab_raw) % 4 != 0:
        raise ValueError(f"{label_path}: truncated label file")
    labels = np.frombuffer(lab_raw, dtype="<u4")
    if labels.shape[0] != pts.shape[0]:
        raise ValueError(
            f"{label_path}: {labels.shape[0]} labels for {pts.shape[0]} points"
        )
    return LabelledCloud(
        pts[:, :3].astype(np.float64),
        (labels & 0xFFFF).astype(np.int64),
        scene_id=Path(bin_path).stem,
    )


def _check_writable(cloud: LabelledCloud):
    """Refuse, by its scene, a cloud the scan format cannot hold: labels
    outside 16 bits, or a point with a coordinate that float32 rounds to
    infinity, which ``read_kitti_scan`` would refuse."""
    bad = np.unique(cloud.labels[(cloud.labels < 0) | (cloud.labels > 0xFFFF)])
    if bad.size:
        raise ValueError(f"scene {cloud.scene_id!r}: labels {bad.tolist()} do not fit in 16 bits")
    with np.errstate(over="ignore"):
        far = np.flatnonzero(np.isinf(cloud.coords.astype(np.float32)).any(axis=1))
    if far.size:
        raise ValueError(
            f"scene {cloud.scene_id!r}: point {far[0]} has a coordinate past the float32 "
            f"range {cloud.coords[far[0]].tolist()}"
        )


def write_kitti_scan(bin_path, label_path, cloud: LabelledCloud):
    """Inverse of ``read_kitti_scan``; remission written as zero. A cloud
    the format cannot hold is refused before the files are written."""
    _check_writable(cloud)
    pts = np.zeros((cloud.n_points, 4), dtype="<f4")
    pts[:, :3] = cloud.coords
    Path(bin_path).write_bytes(pts.tobytes())
    Path(label_path).write_bytes(cloud.labels.astype("<u4").tobytes())


def load_scan_dir(root) -> list[LabelledCloud]:
    """Read every scan/label pair under ``root``/scans and ``root``/labels."""
    root = Path(root)
    clouds = []
    for bin_path in sorted((root / "scans").glob("*.bin")):
        label_path = root / "labels" / (bin_path.stem + ".label")
        clouds.append(read_kitti_scan(bin_path, label_path))
    if not clouds:
        raise ValueError(f"{root}: no scan files found")
    return clouds


def write_scan_dir(root, clouds):
    """Write each cloud as ``scans/<scene_id>.bin`` plus
    ``labels/<scene_id>.label`` under ``root``.

    File names come from the scene ids, so an empty or repeated id is
    refused, naming the ids, before any file is written; so is a label
    outside 16 bits or a coordinate past the float32 range.
    """
    counts = Counter(c.scene_id for c in clouds)
    repeated = sorted(i for i, n in counts.items() if n > 1 and i)
    if counts[""] or repeated:
        raise ValueError(
            f"scene ids name the scan files, so they must be non-empty and distinct: "
            f"{counts['']} empty, repeated {repeated}"
        )
    for cloud in clouds:
        _check_writable(cloud)
    root = Path(root)
    (root / "scans").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(parents=True, exist_ok=True)
    for cloud in clouds:
        write_kitti_scan(
            root / "scans" / f"{cloud.scene_id}.bin",
            root / "labels" / f"{cloud.scene_id}.label",
            cloud,
        )


# ---------------------------------------------------------------------------
# Class tables and builtin splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetClasses:
    """Evaluated classes of a dataset plus the raw-label mapping."""

    dataset: str
    names: dict  # train id -> name, ignore id excluded
    ignore_id: int = 0
    raw_map: dict = field(default_factory=dict)  # raw label -> train id

    def id_of(self, name: str) -> int:
        for cid, cname in self.names.items():
            if cname == name:
                return cid
        raise KeyError(f"{self.dataset}: unknown class name {name!r}")

    def remap_raw(self, labels: np.ndarray) -> np.ndarray:
        """Train ids (int64) of raw labels, in one lookup; a raw id the
        table does not list is refused by id and dataset."""
        raw = np.array(sorted(self.raw_map), dtype=np.int64)
        train = np.array([self.raw_map[r] for r in raw], dtype=np.int64)
        labels = np.asarray(labels)
        pos = np.minimum(np.searchsorted(raw, labels), max(raw.size - 1, 0))
        unlisted = labels != raw[pos] if raw.size else np.ones(labels.shape, dtype=bool)
        if unlisted.any():
            raise ValueError(f"{self.dataset}: raw labels {np.unique(labels[unlisted]).tolist()} "
                             "are not in the class table")
        return train[pos]


def load_class_table(dataset_name: str) -> DatasetClasses:
    """Class-id mapping table shipped with the package."""
    path = importlib.resources.files("segdiscover.tables") / f"{dataset_name}.tsv"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ValueError(f"no class table for dataset {dataset_name!r}") from None
    names: dict = {}
    raw_map: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        raw_id, _raw_name, train_id, train_name = line.split("\t")
        raw_map[int(raw_id)] = int(train_id)
        if int(train_id) != 0:
            names.setdefault(int(train_id), train_name)
    return DatasetClasses(dataset_name, names, ignore_id=0, raw_map=raw_map)


_KITTI_SPLITS = {
    "kitti-5-0": ["building", "road", "sidewalk", "terrain", "vegetation"],
    "kitti-5-1": ["car", "fence", "other-ground", "parking", "trunk"],
    "kitti-5-2": ["motorcycle", "other-vehicle", "pole", "traffic-sign", "truck"],
    "kitti-4-3": ["bicycle", "bicyclist", "motorcyclist", "person"],
}

_POSS_SPLITS = {
    "poss-4-0": ["building", "car", "ground", "plants"],
    "poss-3-1": ["bike", "fence", "person"],
    "poss-3-2": ["pole", "traffic-sign", "trunk"],
    "poss-3-3": ["cone-stone", "rider", "trashcan"],
}


def builtin_splits(dataset_name: str, synthetic_cfg: SyntheticConfig | None = None) -> list[SplitSpec]:
    """The benchmark splits for the real datasets; config-derived for synthetic."""
    if dataset_name == "synthetic":
        if synthetic_cfg is None:
            raise ValueError("synthetic splits are defined by the generation config")
        return [synthetic_cfg.split()]
    if dataset_name == "semantickitti":
        table = _KITTI_SPLITS
    elif dataset_name == "semanticposs":
        table = _POSS_SPLITS
    else:
        raise ValueError(f"unknown dataset {dataset_name!r}")
    classes = load_class_table(dataset_name)
    novel = {name: frozenset(map(classes.id_of, names)) for name, names in table.items()}
    return [SplitSpec(dataset_name, name, frozenset(classes.names) - ids, ids, classes.ignore_id)
            for name, ids in novel.items()]


def write_split_file(path, split: SplitSpec, names: dict):
    novel_names = ",".join(names[c] for c in sorted(split.novel_classes))
    Path(path).write_text(
        f"dataset={split.dataset}\nsplit_name={split.name}\nnovel={novel_names}\n"
    )


def parse_key_values(items, keys) -> dict:
    """``key=value`` texts as a dict, key and value stripped. ``items`` are
    ``(where, text)`` pairs; a text without ``=``, a key not in ``keys`` or
    a repeated key is refused, named by its ``where``."""
    out = {}
    for where, text in items:
        key, eq, value = map(str.strip, text.partition("="))
        if not eq:
            raise ValueError(f"{where}: expected key=value, got {text!r}")
        if key not in keys:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"{where}: key {key!r} set again")
        out[key] = value
    return out


def read_text(path) -> str:
    """A UTF-8 file's text; a byte that is not UTF-8 is refused by file and offset."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not UTF-8") from None


def read_key_values(path, keys) -> dict:
    """A ``read_text`` file's ``key=value`` lines, ``#`` comments skipped; a line
    without ``=``, a key not in ``keys`` or a repeat is refused by file and line."""
    lines = [(f"{path}:{lineno}", line.strip())
             for lineno, line in enumerate(read_text(path).splitlines(), 1)]
    return parse_key_values([(where, line) for where, line in lines
                             if line and not line.startswith("#")], keys)


def read_split_file(path, names: dict) -> SplitSpec:
    """Parse the plain-text split format against a known class table; the
    format names no ignore id, so the split has none. A missing or empty
    key, and an empty or repeated ``novel`` entry, are refused by file."""
    keys = ("dataset", "split_name", "novel")
    fields = read_key_values(path, keys)
    for key in keys:
        if key not in fields:
            raise ValueError(f"{path}: split file missing {key!r}")
        if not fields[key]:
            raise ValueError(f"{path}: split file key {key!r} is empty")
    by_name = {v: k for k, v in names.items()}
    listed = [n.strip() for n in fields["novel"].split(",")]
    if "" in listed:
        raise ValueError(f"{path}: split file key 'novel' has an empty entry")
    repeated = sorted({n for n in listed if listed.count(n) > 1})
    if repeated:
        raise ValueError(f"{path}: split file key 'novel' repeats {repeated}")
    unknown = [n for n in listed if n not in by_name]
    if unknown:
        raise ValueError(f"{path}: novel classes {unknown} are not in the class table")
    novel = frozenset(by_name[n] for n in listed)
    try:
        return SplitSpec(fields["dataset"], fields["split_name"], frozenset(names) - novel, novel)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_class_names(path, names: dict):
    Path(path).write_text("".join(f"{cid}\t{name}\n" for cid, name in sorted(names.items())))


def read_class_names(path) -> dict:
    """Inverse of ``write_class_names`` (through ``read_text``); a malformed or
    repeated line is refused by line."""
    names = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        cid, tab, name = line.partition("\t")
        if not (tab and cid.isdecimal() and name and "\t" not in name):
            raise ValueError(f"{path}:{lineno}: expected <id><tab><name>, got {line!r}")
        if int(cid) in names:
            raise ValueError(f"{path}:{lineno}: class id {cid} already named {names[int(cid)]!r}")
        if name in names.values():
            raise ValueError(f"{path}:{lineno}: class name {name!r} already used")
        names[int(cid)] = name
    return names


def mask_novel(clouds, split: SplitSpec) -> list[LabelledCloud]:
    """Hide novel ground truth: novel labels become UNLABELLED, points of
    ``split.ignore_id`` are dropped. Training code only sees the result.

    A scene that keeps every point shares its coordinates and k-NN graphs.
    An id that is neither base, novel nor ignored is an error."""
    base = np.array(split.base_order, dtype=np.int64)
    check_labels(clouds, split)
    masked = []
    for cloud in clouds:
        coords, labels = cloud.coords, cloud.labels
        if split.ignore_id is not None and np.any(labels == split.ignore_id):
            keep = labels != split.ignore_id
            coords, labels = coords[keep], labels[keep]
        if coords.shape[0] == 0:
            continue  # scene was entirely ignore-labelled
        out = LabelledCloud(coords, np.where(np.isin(labels, base), labels, UNLABELLED),
                            scene_id=cloud.scene_id)
        if coords is cloud.coords:
            out._graphs = cloud._graphs
        masked.append(out)
    return masked


def check_labels(clouds, split: SplitSpec):
    """Refuse, by name, the first scene with an id neither base, novel nor ignored."""
    known = split.base_classes | split.novel_classes | {split.ignore_id}
    for cloud in clouds:
        unknown = [v for v in np.unique(cloud.labels).tolist() if v not in known]
        if unknown:
            raise ValueError(f"scene {cloud.scene_id!r}: label ids {unknown} are neither base "
                             f"nor novel in split {split.name!r}, nor ignored")


def class_counts(clouds, classes) -> dict:
    """Points per class id in ``classes`` (in that order) over ``clouds``, as ints."""
    counts = {c: 0 for c in classes}
    for cloud in clouds:
        ids, n = np.unique(cloud.labels, return_counts=True)
        for cid, cnt in zip(ids.tolist(), n.tolist()):
            if cid in counts:
                counts[cid] += cnt
    return counts
