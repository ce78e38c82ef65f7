"""Feature queue and the percentile selection function."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdiscover.queueing import FeatureQueue, select_phi


def distributions(rng, n_classes, m):
    p = rng.random((n_classes, m))
    return p / p.sum(axis=0)


class TestSelectPhi:
    def test_p_zero_keeps_everything(self):
        rng = np.random.default_rng(0)
        probs = distributions(rng, 3, 40)
        result = select_phi(probs, 0.0)
        assert np.flatnonzero(result.kept).tolist() == list(range(40))

    def test_nearest_rank_example(self):
        # class-0 max-probabilities {0.9, 0.8, 0.6, 0.4}; p=0.5 -> tau=0.6
        probs = np.array([[0.9, 0.8, 0.6, 0.4], [0.1, 0.2, 0.4, 0.6]])
        probs[:, 3] = [0.4, 0.6]  # point 3 belongs to class 1
        probs = np.array([
            [0.9, 0.8, 0.6, 0.6, 0.4],
            [0.1, 0.2, 0.4, 0.4, 0.6],
        ])
        # class 0 members: columns 0-3 with confidences .9 .8 .6 .6
        result = select_phi(probs, 0.5)
        assert result.thresholds[0] == pytest.approx(0.6)
        assert {0, 1, 2, 3} <= set(np.flatnonzero(result.kept).tolist())

    def test_documented_percentile_case(self):
        # direct nearest-rank check on the four-value set
        values = np.array([0.9, 0.8, 0.6, 0.4])
        probs = np.vstack([values, 1.0 - values])
        probs = probs / probs.sum(axis=0)
        # rebuild such that argmax class is 0 exactly for all four points
        probs = np.array([
            [0.9, 0.8, 0.6, 0.4],
            [0.1, 0.2, 0.4, 0.6],
        ])
        result = select_phi(probs[:, :3], 0.5)  # only class-0 points
        assert result.thresholds[0] == pytest.approx(0.8)
        values_all = select_phi(probs, 0.5)
        # class 0 has members {0.9, 0.8, 0.6}: tau = 0.8, kept = 2 of them
        assert values_all.thresholds[0] == pytest.approx(0.8)
        kept0 = [i for i in np.flatnonzero(values_all.kept) if probs[:, i].argmax() == 0]
        assert kept0 == [0, 1]

    def test_empty_classes_contribute_nothing(self):
        probs = np.array([[0.9, 0.8], [0.1, 0.2], [0.0, 0.0]])
        result = select_phi(probs, 0.5)
        assert np.isnan(result.thresholds).tolist() == [False, True, True]

    def test_malformed_distributions_rejected(self):
        with pytest.raises(ValueError, match="distributions"):
            select_phi(np.array([[0.5, 0.5], [0.9, 0.5]]), 0.3)
        with pytest.raises(ValueError, match="percentile"):
            select_phi(np.array([[1.0], [0.0]]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_column_is_refused_by_its_row_and_column(self, bad):
        # a NaN column passed both checks and came back unkept, at threshold NaN
        probs = distributions(np.random.default_rng(3), 4, 6)
        probs[2, 5] = bad
        with pytest.raises(ValueError, match=rf"distributions .*; column 5 holds {bad} at row 2$"):
            select_phi(probs, 0.3)
        heads = np.stack([distributions(np.random.default_rng(4), 4, 6), probs])
        with pytest.raises(ValueError, match=rf"column 5 of head 1 holds {bad} at row 2$"):
            select_phi(heads, 0.3)

    def test_a_column_off_the_simplex_is_refused_by_its_sum(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.4]])
        with pytest.raises(ValueError, match=r"column 1 sums to 0\.9 with least entry 0\.4$"):
            select_phi(probs, 0.3)

    def test_threshold_point_itself_kept(self):
        probs = np.array([[0.6, 0.7, 0.8], [0.4, 0.3, 0.2]])
        result = select_phi(probs, 0.5)
        # tau = 0.7 (nearest rank of 3 values at p=0.5); 0.7 stays
        assert result.thresholds[0] == pytest.approx(0.7)
        assert set(np.flatnonzero(result.kept).tolist()) == {1, 2}

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(1, 60))
    def test_monotone_in_p(self, seed, m):
        probs = distributions(np.random.default_rng(seed), 4, m)
        kept_03 = set(np.flatnonzero(select_phi(probs, 0.3).kept).tolist())
        kept_07 = set(np.flatnonzero(select_phi(probs, 0.7).kept).tolist())
        assert kept_07 <= kept_03
        assert len(np.flatnonzero(select_phi(probs, 0.0).kept)) == m

    def test_non_empty_class_always_keeps_a_point(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            probs = distributions(rng, 3, 20)
            result = select_phi(probs, 0.9)
            winners = probs.argmax(axis=0)
            for c in np.unique(winners):
                kept_c = [i for i in np.flatnonzero(result.kept) if winners[i] == c]
                assert kept_c


class TestFeatureQueue:
    def test_empty_insert_is_noop(self, rng):
        q = FeatureQueue((0, 1), capacity=4)
        q.insert(np.zeros((3, 0)), np.array([]), 0.5, rng)
        assert q.total() == 0

    def test_fifo_eviction(self, rng):
        q = FeatureQueue((0,), capacity=2)
        feats = np.arange(9, dtype=float).reshape(3, 3)  # columns 0,1,2
        q.insert(feats, np.zeros(3, dtype=int), 1.0, rng)
        kept = q.sample(10, rng)
        assert kept.shape == (3, 2)
        cols = {tuple(kept[:, i]) for i in range(2)}
        assert tuple(feats[:, 0]) not in cols  # oldest evicted

    def test_insert_fraction_exact_count(self, rng):
        q = FeatureQueue((0,), capacity=2000)
        feats = np.random.default_rng(1).normal(size=(4, 1000))
        q.insert(feats, np.zeros(1000, dtype=int), 0.5, rng)
        assert q.total() == 500

    def test_balanced_sampling(self, rng):
        q = FeatureQueue((0, 1, 2), capacity=64)
        for cls in (0, 1, 2):
            feats = np.random.default_rng(cls).normal(size=(4, 10))
            q.insert(feats, np.full(10, cls), 1.0, rng)
        out = q.sample(4, rng)
        assert out.shape == (4, 12)

    def test_skewed_buckets_capped_by_availability(self, rng):
        q = FeatureQueue((0, 1), capacity=256)
        q.insert(np.random.default_rng(2).normal(size=(4, 100)), np.zeros(100, int), 1.0, rng)
        q.insert(np.random.default_rng(3).normal(size=(4, 2)), np.ones(2, int), 1.0, rng)
        out = q.sample(4, rng)
        assert out.shape == (4, 6)  # 4 from the big bucket, 2 from the small

    def test_empty_queue_samples_nothing(self, rng):
        q = FeatureQueue((0, 1), capacity=8)
        assert q.sample(4, rng).size == 0

    def test_capacity_never_exceeded_under_random_ops(self):
        rng = np.random.default_rng(7)
        q = FeatureQueue((0, 1, 2), capacity=16)
        for _ in range(3000):
            n = int(rng.integers(0, 12))
            feats = rng.normal(size=(4, n))
            classes = rng.integers(0, 3, size=n)
            q.insert(feats, classes, float(rng.random()), rng)
            if rng.random() < 0.3:
                q.sample(int(rng.integers(1, 8)), rng)
            assert all(size <= 16 for size in q.sizes().values())

    def test_unbalanced_mode_single_bucket(self, rng):
        q = FeatureQueue((0, 1), capacity=100, balanced=False)
        feats = np.random.default_rng(4).normal(size=(4, 30))
        q.insert(feats, np.zeros(30, int), 1.0, rng)
        assert set(q.sizes()) == {None}
        out = q.sample(4, rng)  # budget = per_class * n_classes = 8
        assert out.shape == (4, 8)


class DequeQueue:
    """The queue as it was before its buckets became row arrays: one
    ``deque`` of column copies per bucket, kept as ``FeatureQueue``'s
    reference."""

    def __init__(self, class_ids, capacity, balanced=True):
        self.class_ids, self.balanced = class_ids, balanced
        keys = tuple(sorted(class_ids)) if balanced else (None,)
        self.buckets = {key: deque(maxlen=capacity) for key in keys}

    def sizes(self):
        return {key: len(bucket) for key, bucket in self.buckets.items()}

    def insert(self, features, predicted_classes, insert_fraction, rng):
        features = np.asarray(features, dtype=np.float64)
        if features.size == 0 or insert_fraction <= 0.0:
            return
        for key, bucket in self.buckets.items():
            members = (np.flatnonzero(predicted_classes == key) if self.balanced
                       else np.arange(features.shape[1]))
            if members.size == 0:
                continue
            count = min(members.size, int(np.ceil(insert_fraction * members.size)))
            for idx in np.sort(rng.choice(members, size=count, replace=False)):
                bucket.append(features[:, idx].copy())

    def sample(self, per_class_count, rng):
        columns = []
        budget = per_class_count if self.balanced else per_class_count * max(1, len(self.class_ids))
        for bucket in self.buckets.values():
            if not bucket:
                continue
            chosen = rng.choice(len(bucket), size=min(budget, len(bucket)), replace=False)
            columns.extend(bucket[i] for i in sorted(chosen))
        if not columns:
            return np.zeros((0, 0))
        return np.stack(columns, axis=1)


class TestFeatureQueueMatchesTheDequeReference:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), capacity=st.integers(1, 6), balanced=st.booleans(),
           ops=st.lists(st.tuples(st.booleans(), st.integers(0, 9), st.floats(0.0, 1.0),
                                  st.integers(1, 4)), max_size=12))
    def test_equal_samples_sizes_and_rng_state(self, seed, capacity, balanced, ops):
        # class 5 is never predicted, so its bucket stays empty; class 1
        # is predicted but has no bucket
        class_ids = (5, 0, 2)
        data = np.random.default_rng(seed + 1)
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        queues = (FeatureQueue(class_ids, capacity, balanced),
                  DequeQueue(class_ids, capacity, balanced))
        for is_insert, n, fraction, per_class in ops + [(False, 0, 0.0, 3)]:
            if is_insert:
                features = data.normal(size=(3, n))
                classes = data.choice([0, 1, 2], size=n)
                for q, rng in zip(queues, rngs):
                    q.insert(features, classes, fraction, rng)
            else:
                got, want = (q.sample(per_class, rng) for q, rng in zip(queues, rngs))
                assert got.shape == want.shape
                assert np.array_equal(got, want)
                assert got.flags.c_contiguous
            assert queues[0].sizes() == queues[1].sizes()
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
