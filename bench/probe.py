"""The few coarse hooks every run carries, traced or not.

They read the clock around optimizer steps and scans scored, and keep
references to what the checks need (predictions, k-NN results,
the k-means fit). Each costs two clock reads per call, at most a few
hundred calls per second, so untraced runs stay untraced in effect.

A step runs from the first ``make_views`` call after the previous
``SGD.step`` returned to the return of the next ``SGD.step``; that
interval holds the whole batch (views, forward, transport, queue, loss
graph, backward, update) and nothing else (no k-NN precompute, no
per-epoch evaluation, no clustering stage).
"""

from __future__ import annotations

import time

from tracer import RUN, SETUP, STEP


class Probe:
    def __init__(self, tracer=None):
        self.tracer = tracer
        self.phase = SETUP
        self.active = True
        self.keep_knn = False
        self.round = 0  # set by the runner before each round
        # (round, points, seconds) per optimizer step and per scan scored
        # in evaluate, measured rounds only
        self.steps: list[tuple[int, int, float]] = []
        self.scans: list[tuple[int, int, float]] = []
        self._step_start = None
        self._step_points = 0
        self.evaluations = []  # (clouds, report, [slots per cloud])
        self._predictions = None
        self.knn = []  # (coords, k, neighbours)
        self.kmeans = []  # (features, k, centroids, assignments)

    def set_phase(self, phase):
        self.phase = phase
        if self.tracer is not None:
            self.tracer.phase = phase

    def stop(self):
        """Stop recording; the checks then call the package freely."""
        self.active = False
        if self.tracer is not None:
            self.tracer.enabled = False

    def install(self, hooks):
        from segdiscover import augment, baseline, evaluate, losses, model

        hooks.function(augment, "make_views", self._wrap_views)
        hooks.method(losses.SGD, "step", self._wrap_sgd_step)
        hooks.function(evaluate, "evaluate", self._wrap_evaluate)
        hooks.method(model.SegmentationModel, "predict_slots", self._wrap_predict)
        hooks.method(model.CombinedHeadModel, "predict_slots", self._wrap_predict)
        hooks.function(model, "knn_indices", self._wrap_knn)
        hooks.function(baseline, "kmeans", self._wrap_kmeans)

    def _wrap_views(self, fn):
        def make_views(cloud, *args, **kwargs):
            if self.active:
                if self._step_start is None:
                    if self.tracer is not None:
                        self.tracer.begin(STEP)
                        self.tracer.in_step = True
                    self._step_start = time.perf_counter()
                self._step_points += cloud.n_points
            return fn(cloud, *args, **kwargs)

        return make_views

    def _wrap_sgd_step(self, fn):
        def step(opt, *args, **kwargs):
            out = fn(opt, *args, **kwargs)
            if self.active and self._step_start is not None:
                t = time.perf_counter()
                if self.tracer is not None:
                    self.tracer.end()
                    self.tracer.in_step = False
                if self.phase == RUN:
                    self.steps.append((self.round, self._step_points, t - self._step_start))
                self._step_start = None
                self._step_points = 0
            return out

        return step

    def _wrap_evaluate(self, fn):
        def evaluate(model, clouds, *args, **kwargs):
            if not self.active:
                return fn(model, clouds, *args, **kwargs)
            self._predictions = []
            report = fn(model, clouds, *args, **kwargs)
            if self.phase == RUN:
                self.evaluations.append((clouds, report, self._predictions))
            self._predictions = None
            return report

        return evaluate

    def _wrap_predict(self, fn):
        def predict_slots(model, coords, *args, **kwargs):
            t = time.perf_counter()
            slots = fn(model, coords, *args, **kwargs)
            dt = time.perf_counter() - t
            if self.active and self._predictions is not None:
                self._predictions.append(slots)
                if self.phase == RUN:
                    self.scans.append((self.round, len(slots), dt))
            return slots

        return predict_slots

    def _wrap_knn(self, fn):
        def knn_indices(coords, k, *args, **kwargs):
            out = fn(coords, k, *args, **kwargs)
            if self.active and self.keep_knn and self.phase == RUN:
                self.knn.append((coords, k, out))
            return out

        return knn_indices

    def _wrap_kmeans(self, fn):
        def kmeans(features, k, *args, **kwargs):
            km, assignments = fn(features, k, *args, **kwargs)
            if self.active and self.phase == RUN:
                self.kmeans.append((features, k, km.centroids, assignments))
            return km, assignments

        return kmeans
