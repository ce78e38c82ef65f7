"""Output checks computed apart from the package, with numpy alone.

Each check returns a list of problems; an empty list means it passed.
Near-ties in floating point (a k-th neighbour distance or a top-two
logit gap within rounding of each other) are skipped and counted, since
either answer is then right.
"""

from __future__ import annotations

import itertools
import struct
from pathlib import Path

import numpy as np

MATCH_TOL = 1e-9  # relative tolerance on the summed IoU of a matching


def read_scan(bin_path, label_path):
    """Coordinates (float64) and class ids of one scan/label file pair."""
    pts = np.fromfile(bin_path, dtype="<f4").reshape(-1, 4)
    labels = np.fromfile(label_path, dtype="<u4") & 0xFFFF
    return pts[:, :3].astype(np.float64), labels.astype(np.int64)


def read_checkpoint(path) -> dict:
    """Parameter arrays from the binary checkpoint layout: magic, u32
    version, then per entry name length, name, rank, dims, f64 values."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"NOPS":
        raise ValueError(f"{path}: not a checkpoint")
    pos, out = 8, {}
    while pos < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + nlen].decode()
        pos += 4 + nlen
        (ndim,) = struct.unpack_from("<I", blob, pos)
        dims = struct.unpack_from(f"<{ndim}I", blob, pos + 4)
        pos += 4 + 4 * ndim
        count = int(np.prod(dims))
        out[name] = np.frombuffer(blob, "<f8", count, pos).reshape(dims)
        pos += 8 * count
    return out


# --- k nearest neighbours ------------------------------------------------

def brute_knn(coords, i, k, tie_tol):
    """Sorted indices of point i's k nearest others by direct distance;
    None when the k-th and (k+1)-th distances are a near-tie, where the
    program's lower-index rule and rounding decide between them."""
    d2 = ((coords - coords[i]) ** 2).sum(axis=1)
    d2[i] = np.inf
    order = np.lexsort((np.arange(len(d2)), d2))
    k = min(k, len(d2) - 1)
    if k < len(d2) - 1 and d2[order[k]] - d2[order[k - 1]] <= tie_tol:
        return None
    return np.sort(order[:k])


def check_knn(coords, neighbours, k, sample):
    """The program's neighbour rows against brute force on sampled points."""
    problems, skipped = [], 0
    tie_tol = 1e-9 * (1.0 + float((coords ** 2).sum(axis=1).max()))
    if neighbours.shape != (len(coords), min(k, len(coords) - 1)):
        return [f"k-NN shape {neighbours.shape} for {len(coords)} points"], 0
    for i in sample:
        want = brute_knn(coords, i, k, tie_tol)
        if want is None:
            skipped += 1
        elif not np.array_equal(np.sort(neighbours[i]), want):
            problems.append(f"point {i}: k-NN {np.sort(neighbours[i]).tolist()} != {want.tolist()}")
    return problems, skipped


# --- forward pass ------------------------------------------------------------

def forward_logits(params, coords, i, neighbours, head):
    """Base then novel-head logits of point i, from checkpoint arrays:
    two ReLU layers on xyz, the mean of the neighbours' hidden features,
    a projection normalised to unit length, then the heads."""
    def hidden(x):
        h1 = np.maximum(params["enc1.w"] @ x.T + params["enc1.b"], 0.0)
        return np.maximum(params["enc2.w"] @ h1 + params["enc2.b"], 0.0)

    own = hidden(coords[i:i + 1])[:, 0]
    agg = hidden(coords[neighbours]).mean(axis=1)
    z = params["proj.w"] @ np.concatenate([own, agg]) + params["proj.b"][:, 0]
    z = z / max(np.linalg.norm(z), 1e-12)
    base = params["base.w"] @ z + params["base.b"][:, 0]
    novel = params[f"novel{head}.p"].T @ z
    return np.concatenate([base, novel])


def check_forward(params, coords, slots, k, head, sample):
    """Predicted slots against a plain forward on sampled points."""
    problems, skipped = [], 0
    tie_tol = 1e-9 * (1.0 + float((coords ** 2).sum(axis=1).max()))
    for i in sample:
        neigh = brute_knn(coords, i, k, tie_tol)
        if neigh is None:
            skipped += 1
            continue
        logits = forward_logits(params, coords, i, neigh, head)
        top2 = np.sort(logits)[-2:]
        if top2[1] - top2[0] <= 1e-9:
            skipped += 1
        elif int(logits.argmax()) != int(slots[i]):
            problems.append(f"point {i}: slot {int(slots[i])}, plain forward {int(logits.argmax())}")
    return problems, skipped


# --- evaluation ----------------------------------------------------------

def match_by_permutation(block):
    """Head slot -> novel row maximising summed IoU within the block,
    the first maximiser in lexicographic order of row -> slot."""
    block = np.asarray(block, dtype=np.float64)
    n = block.shape[0]
    denom = block.sum(axis=1, keepdims=True) + block.sum(axis=0, keepdims=True) - block
    iou = np.divide(block, denom, out=np.zeros_like(block), where=denom > 0)
    perms = list(itertools.permutations(range(n)))
    values = [sum(iou[r, p[r]] for r in range(n)) for p in perms]
    best = max(values)
    row_to_slot = next(
        p for p, v in zip(perms, values) if v >= best - MATCH_TOL * max(1.0, abs(best))
    )
    slot_to_row = [0] * n
    for row, slot in enumerate(row_to_slot):
        slot_to_row[slot] = row
    return slot_to_row


def recompute_report(labels, slots, base_order, novel_order):
    """Per-class IoU, the three means and the slot matching, rebuilt
    with ``np.bincount`` from ground truth and predicted slots."""
    classes = list(base_order) + list(novel_order)
    n, n_base = len(classes), len(base_order)
    row_of = np.full(max(classes) + 1, -1)
    row_of[classes] = np.arange(n)
    gt = row_of[np.concatenate(labels)]
    pr = np.concatenate(slots).astype(np.int64)
    counts = np.bincount(gt * n + pr, minlength=n * n).reshape(n, n)
    slot_to_row = match_by_permutation(counts[n_base:, n_base:])
    row_to_slot = np.argsort(slot_to_row)
    counts = counts[:, list(range(n_base)) + [n_base + s for s in row_to_slot]]
    tp = np.diag(counts)
    denom = counts.sum(axis=0) + counts.sum(axis=1) - tp
    iou = {c: (float(tp[j]) / float(denom[j]) if denom[j] else None) for j, c in enumerate(classes)}

    def mean(subset):
        vals = [iou[c] for c in subset if iou[c] is not None]
        return float(np.mean(vals)) if vals else 0.0

    return {
        "per_class_iou": iou,
        "novel_miou": mean(novel_order),
        "base_miou": mean(base_order),
        "all_miou": mean(classes),
        "mapping": {s: novel_order[r] for s, r in enumerate(slot_to_row)},
    }


def compare_report(report, expected, tol=1e-12):
    """An ``EvalReport`` (or a dict with its fields) against a recomputation."""
    get = report.get if isinstance(report, dict) else lambda key: getattr(report, key)
    problems = []
    if dict(get("mapping")) != expected["mapping"]:
        problems.append(f"mapping {dict(get('mapping'))} != {expected['mapping']}")
    got_iou = get("per_class_iou")
    for cls, want in expected["per_class_iou"].items():
        got = got_iou.get(cls)
        if (got is None) != (want is None) or (want is not None and abs(got - want) > tol):
            problems.append(f"class {cls}: IoU {got} != {want}")
    for key in ("novel_miou", "base_miou", "all_miou"):
        if abs(get(key) - expected[key]) > tol:
            problems.append(f"{key} {get(key)} != {expected[key]}")
    return problems


def parse_report_tsv(text, names):
    """The per-class rows and the means of ``report.tsv`` as a report dict."""
    ids = {name: cid for cid, name in names.items()}
    rows = dict(line.split("\t") for line in text.splitlines() if line)
    value = lambda cell: float(cell) if cell else None  # noqa: E731
    return {
        "per_class_iou": {ids[k]: value(v) for k, v in rows.items() if k in ids},
        "novel_miou": value(rows["Novel mIoU"]),
        "base_miou": value(rows["Base mIoU"]),
        "all_miou": value(rows["All mIoU"]),
    }


def chance_bound(labels, novel_order):
    """Novel mIoU of the best constant predictor: max_c freq(c) / |novel|."""
    counts = np.bincount(np.concatenate(labels), minlength=max(novel_order) + 1)
    total = sum(len(l) for l in labels)
    return float(counts[list(novel_order)].max()) / total / len(novel_order)


# --- offline baseline ----------------------------------------------------

def check_kmeans(features, centroids, assignments):
    """Every point sits with its nearest centroid (near-ties skipped)."""
    d2 = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    best = d2.min(axis=1)
    own = d2[np.arange(len(features)), assignments]
    wrong = np.flatnonzero(own - best > 1e-9 * (1.0 + best))
    if wrong.size:
        return [f"{wrong.size} points not at their nearest centroid (first: {int(wrong[0])})"]
    return []


def check_pseudo_labels(pseudo, labels_by_scene, novel_order, n_novel):
    """Pseudo-labels land only on points whose hidden class is novel."""
    problems = []
    novel = np.asarray(sorted(novel_order))
    for scene, (idx, slots) in pseudo.items():
        labels = labels_by_scene[scene]
        if idx.size and (idx.min() < 0 or idx.max() >= labels.size):
            problems.append(f"scene {scene}: index outside the scene")
            continue
        on_base = np.flatnonzero(~np.isin(labels[idx], novel))
        if on_base.size:
            problems.append(f"scene {scene}: {on_base.size} pseudo-labels on unmasked points")
        if slots.size and (slots.min() < 0 or slots.max() >= n_novel):
            problems.append(f"scene {scene}: slot outside 0..{n_novel - 1}")
        if np.unique(idx).size != idx.size:
            problems.append(f"scene {scene}: a point is pseudo-labelled twice")
    return problems


# --- gradients ------------------------------------------------------------

def check_gradient(loss, grads, arrays, picks, h=1e-6, rtol=1e-4, atol=1e-7, kink=1e-3):
    """Central differences of ``loss()`` against analytic gradients.

    ``arrays[name]`` is mutated in place and restored; ``grads[name]``
    holds the analytic gradient; ``picks`` lists (name, flat index).
    An entry whose one-sided differences disagree by more than ``kink``
    of the slope sits on a kink of ReLU or of the log floor and is
    skipped.
    """
    problems, skipped = [], 0
    for name, flat in picks:
        arr = arrays[name].reshape(-1)
        keep = arr[flat]
        f0 = loss()
        arr[flat] = keep + h
        fp = loss()
        arr[flat] = keep - h
        fm = loss()
        arr[flat] = keep
        fd = (fp - fm) / (2 * h)
        an = float(grads[name].reshape(-1)[flat])
        if abs((fp - f0) / h - (f0 - fm) / h) > atol + kink * abs(fd):
            skipped += 1
        elif abs(fd - an) > atol + rtol * abs(an):
            problems.append(f"{name}[{flat}]: analytic {an:.9g} vs central difference {fd:.9g}")
    return problems, skipped
