"""Which package functions the traced run wraps, and the per-layer metrics.

Every entry names a function by the module (or class) it is defined in;
``Hooks`` then replaces it under every name callers use, so
``knn_indices`` is caught whether ``train``, ``baseline`` or
``model.knn_mean_matrix`` calls it.

Per-layer figures are for one set-up plus one round of the operation:
set-up totals are divided by the number of set-ups and run totals by
the number of rounds. Per-step figures count only calls made inside an
optimizer step of the measured rounds, and read 0 on a workload that
takes none. Stage figures (``baseline.*_s``, ``evaluate.eval_s``,
``evaluate.predict_s``, ``data.generate_s``,
``assignment.hungarian_s``) are whole span time; all other times are
self time.
"""

from __future__ import annotations

import numpy as np

from tracer import RUN, SETUP, STEP

AUTODIFF_OPS = (
    "matmul", "transpose", "add", "mul", "relu", "log", "softmax_cols",
    "l2_normalize_cols", "sum_all", "mean_all", "concat_cols", "concat_rows",
    "gather_cols", "constant", "parameter",
)
FORWARD = (
    "model.SegmentationModel.extract_features",
    "model.SegmentationModel.base_logits",
    "model.SegmentationModel.novel_logits",
    "model.SegmentationModel.over_logits",
    "model.SegmentationModel.head_logits",
    "model.SegmentationModel.predict_slots",
    "model.CombinedHeadModel.logits",
    "model.CombinedHeadModel.predict_slots",
)
PREDICT = ("model.SegmentationModel.predict_slots", "model.CombinedHeadModel.predict_slots")
SGD_STEP = "losses.SGD.step"
EVALUATE_FUNCS = (
    "evaluate.evaluate", "evaluate.match_novel", "evaluate.miou",
    "evaluate.ConfusionMatrix.iou",
)
SCAN_IO = (
    "data.write_scan_dir", "data.write_kitti_scan", "data.load_scan_dir",
    "data.read_kitti_scan",
)


def _shape(x):
    return np.shape(getattr(x, "data", x))


def _after_op(tr, args, kwargs, out):
    if out._backward is not None:
        tr.count("tape_nodes", 1, step_only=True)


def _after_matmul(tr, args, kwargs, out):
    (m, k), (_, n) = _shape(args[0]), _shape(args[1])
    tr.count("matmul_flop", 2 * m * k * n, step_only=True)
    _after_op(tr, args, kwargs, out)


def _after_knn(tr, args, kwargs, out):
    tr.count("knn_points", np.shape(args[0])[0])


def _after_assign(tr, args, kwargs, out):
    tr.count("assign_cols", np.shape(args[0])[1])


def _after_sample(tr, args, kwargs, out):
    queue = args[0]
    sizes = queue.sizes()
    tr.count("queue_fill", queue.total() / (queue.capacity * len(sizes)))


def _after_kmeans(tr, args, kwargs, out):
    tr.count("kmeans_points", np.shape(args[0])[0])


def _after_baseline(tr, args, kwargs, out):
    tr.count("pseudo_labels", sum(idx.size for idx, _ in out[1].values()))


def _after_read_scan(tr, args, kwargs, out):
    tr.count("scan_bytes", 20 * out.n_points)  # 16 B of xyzr + 4 B of label


def _after_write_scan(tr, args, kwargs, out):
    tr.count("scan_bytes", 20 * args[2].n_points)


def install(hooks, tracer):
    """Wrap every traced function of the package in a span."""
    from segdiscover import (
        assignment, augment, autodiff, baseline, cli, data, evaluate, losses,
        model, queueing, sinkhorn, train,
    )

    def fn(module, attr, after=None):
        layer = module.__name__.rsplit(".", 1)[1]
        hooks.function(module, attr, tracer.span(f"{layer}.{attr}", after))

    def meth(cls, attr, after=None):
        layer = cls.__module__.rsplit(".", 1)[1]
        hooks.method(cls, attr, tracer.span(f"{layer}.{cls.__name__}.{attr}", after))

    for op in AUTODIFF_OPS:
        fn(autodiff, op, _after_matmul if op == "matmul" else _after_op)
    fn(autodiff, "backward")
    fn(autodiff, "save_checkpoint")
    fn(autodiff, "load_checkpoint")

    fn(model, "knn_indices", _after_knn)
    fn(model, "knn_mean_matrix")
    for name in FORWARD:
        _, cls, attr = name.split(".")
        meth(getattr(model, cls), attr)

    fn(sinkhorn, "sinkhorn_assign", _after_assign)
    fn(sinkhorn, "pseudo_labels_from")
    fn(sinkhorn, "epsilon_at")
    fn(queueing, "select_phi")
    meth(queueing.FeatureQueue, "insert")
    meth(queueing.FeatureQueue, "sample", _after_sample)
    fn(losses, "weighted_ce")
    fn(losses, "compute_loss_weights")
    fn(losses, "lr_at")
    meth(losses.SGD, "step")
    meth(losses.SGD, "zero_grad")
    fn(augment, "make_views")
    fn(train, "train")

    fn(baseline, "run_baseline", _after_baseline)
    fn(baseline, "pretrain_base")
    fn(baseline, "finetune")
    fn(baseline, "kmeans", _after_kmeans)
    fn(baseline, "subsample_psi")
    fn(baseline, "propagate_nn")

    fn(evaluate, "evaluate")
    fn(evaluate, "match_novel")
    fn(evaluate, "miou")
    meth(evaluate.ConfusionMatrix, "iou")
    fn(assignment, "hungarian_max")

    fn(data, "generate_synthetic")
    fn(data, "write_scan_dir")
    fn(data, "write_kitti_scan", _after_write_scan)
    fn(data, "load_scan_dir")
    fn(data, "read_kitti_scan", _after_read_scan)
    fn(cli, "main")


# name, unit, better
PER_LAYER = [
    ("model.knn_s", "s", "lower"),
    ("model.knn_calls", "count", "lower"),
    ("model.knn_points", "count", "lower"),
    ("model.knn_mean_s", "s", "lower"),
    ("model.forward_s", "s", "lower"),
    ("model.forward_calls", "count", "lower"),
    ("autodiff.backward_s", "s", "lower"),
    ("autodiff.ops_per_step", "count", "lower"),
    ("autodiff.tape_nodes_per_step", "count", "lower"),
    ("autodiff.matmul_per_step", "count", "lower"),
    ("autodiff.matmul_gflop_per_step", "GFLOP", "lower"),
    ("autodiff.op_s", "s", "lower"),
    ("autodiff.checkpoint_s", "s", "lower"),
    ("sinkhorn.assign_s", "s", "lower"),
    ("sinkhorn.assign_per_step", "count", "lower"),
    ("sinkhorn.cols_per_assign", "count", "lower"),
    ("queueing.select_s", "s", "lower"),
    ("queueing.select_per_step", "count", "lower"),
    ("queueing.insert_s", "s", "lower"),
    ("queueing.sample_s", "s", "lower"),
    ("queueing.fill", "frac", "higher"),
    ("losses.ce_s", "s", "lower"),
    ("losses.ce_per_step", "count", "lower"),
    ("losses.sgd_s", "s", "lower"),
    ("augment.views_s", "s", "lower"),
    ("train.step_self_s", "s", "lower"),
    ("train.steps", "count", "lower"),
    ("evaluate.eval_s", "s", "lower"),
    ("evaluate.predict_s", "s", "lower"),
    ("evaluate.self_s", "s", "lower"),
    ("assignment.hungarian_s", "s", "lower"),
    ("baseline.pretrain_s", "s", "lower"),
    ("baseline.finetune_s", "s", "lower"),
    ("baseline.kmeans_s", "s", "lower"),
    ("baseline.kmeans_points", "count", "lower"),
    ("baseline.propagate_s", "s", "lower"),
    ("baseline.pseudo_labels", "count", "higher"),
    ("data.generate_s", "s", "lower"),
    ("data.scan_io_s", "s", "lower"),
    ("data.scan_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
]


def metrics(tracer, n_setups: int, n_rounds: int, traced_wall_s: float) -> dict:
    """Per-layer values by name, for one set-up plus one round."""

    def norm(counter, *names):
        return sum(
            counter[(SETUP, n)] / n_setups + counter[(RUN, n)] / n_rounds for n in names
        )

    self_s, total_s, calls = tracer.self_s, tracer.total_s, tracer.calls
    steps = calls[(RUN, SGD_STEP)]

    def per_step(*names):
        if not steps:
            return 0.0
        return sum(tracer.step_calls[(RUN, n)] for n in names) / steps

    def count_per_step(name):
        return tracer.counts[(RUN, name)] / steps if steps else 0.0

    def run_mean(count_name, call_name):
        n = calls[(RUN, call_name)]
        return tracer.counts[(RUN, count_name)] / n if n else 0.0

    ops = [f"autodiff.{op}" for op in AUTODIFF_OPS]
    values = {
        "model.knn_s": norm(self_s, "model.knn_indices"),
        "model.knn_mean_s": norm(self_s, "model.knn_mean_matrix"),
        "model.knn_calls": norm(calls, "model.knn_indices"),
        "model.knn_points": norm(tracer.counts, "knn_points"),
        "model.forward_s": norm(self_s, *FORWARD),
        "model.forward_calls": norm(calls, "model.SegmentationModel.extract_features"),
        "autodiff.backward_s": norm(self_s, "autodiff.backward"),
        "autodiff.ops_per_step": per_step(*ops),
        "autodiff.tape_nodes_per_step": count_per_step("tape_nodes"),
        "autodiff.matmul_per_step": per_step("autodiff.matmul"),
        "autodiff.matmul_gflop_per_step": count_per_step("matmul_flop") / 1e9,
        "autodiff.op_s": norm(self_s, *ops),
        "autodiff.checkpoint_s": norm(
            self_s, "autodiff.save_checkpoint", "autodiff.load_checkpoint"
        ),
        "sinkhorn.assign_s": norm(
            self_s, "sinkhorn.sinkhorn_assign", "sinkhorn.pseudo_labels_from",
            "sinkhorn.epsilon_at",
        ),
        "sinkhorn.assign_per_step": per_step("sinkhorn.sinkhorn_assign"),
        "sinkhorn.cols_per_assign": run_mean("assign_cols", "sinkhorn.sinkhorn_assign"),
        "queueing.select_s": norm(self_s, "queueing.select_phi"),
        "queueing.select_per_step": per_step("queueing.select_phi"),
        "queueing.insert_s": norm(self_s, "queueing.FeatureQueue.insert"),
        "queueing.sample_s": norm(self_s, "queueing.FeatureQueue.sample"),
        "queueing.fill": run_mean("queue_fill", "queueing.FeatureQueue.sample"),
        "losses.ce_s": norm(self_s, "losses.weighted_ce", "losses.compute_loss_weights"),
        "losses.ce_per_step": per_step("losses.weighted_ce"),
        "losses.sgd_s": norm(self_s, SGD_STEP, "losses.SGD.zero_grad", "losses.lr_at"),
        "augment.views_s": norm(self_s, "augment.make_views"),
        "train.step_self_s": norm(self_s, STEP),
        "train.steps": steps / n_rounds,
        "evaluate.eval_s": norm(total_s, "evaluate.evaluate"),
        "evaluate.predict_s": norm(total_s, *PREDICT),
        "evaluate.self_s": norm(self_s, *EVALUATE_FUNCS),
        "assignment.hungarian_s": norm(total_s, "assignment.hungarian_max"),
        "baseline.pretrain_s": norm(total_s, "baseline.pretrain_base"),
        "baseline.finetune_s": norm(total_s, "baseline.finetune"),
        "baseline.kmeans_s": norm(total_s, "baseline.kmeans"),
        "baseline.kmeans_points": norm(tracer.counts, "kmeans_points"),
        "baseline.propagate_s": norm(total_s, "baseline.propagate_nn"),
        "baseline.pseudo_labels": norm(tracer.counts, "pseudo_labels"),
        "data.generate_s": norm(total_s, "data.generate_synthetic"),
        "data.scan_io_s": norm(self_s, *SCAN_IO),
        "data.scan_bytes": norm(tracer.counts, "scan_bytes"),
        "cli.self_s": norm(self_s, "cli.main"),
        "trace.wall_s": traced_wall_s,
    }
    return values
