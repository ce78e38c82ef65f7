"""Transport pseudo-labelling: marginals, convergence, schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdiscover.sinkhorn import (
    SinkhornConfig,
    epsilon_at,
    pseudo_labels_from,
    sinkhorn_assign,
)


def converged_transport(scores, eps, tol=1e-12, max_iter=100_000):
    """Independent oracle: alternate exact normalizations until both
    marginals are within tolerance (the limit is order-independent)."""
    rho, m = scores.shape
    q = np.exp((scores - scores.max(axis=0, keepdims=True)) / eps)
    q /= q.sum()
    for _ in range(max_iter):
        q *= (1.0 / m) / q.sum(axis=0, keepdims=True)
        q *= (1.0 / rho) / q.sum(axis=1, keepdims=True)
        if (
            np.abs(q.sum(axis=0) - 1.0 / m).max() < tol
            and np.abs(q.sum(axis=1) - 1.0 / rho).max() < tol
        ):
            break
    return q


def _similarity_scores(rng, rho, m, dim=32):
    protos = rng.normal(size=(dim, rho))
    feats = rng.normal(size=(dim, m))
    protos /= np.linalg.norm(protos, axis=0)
    feats /= np.linalg.norm(feats, axis=0)
    return protos.T @ feats


class TestEpsilonSchedule:
    CFG = SinkhornConfig(eps_start=0.3, eps_end=0.05)

    def test_start_value(self):
        assert epsilon_at(self.CFG, 0, 10) == 0.3

    def test_end_value(self):
        assert epsilon_at(self.CFG, 9, 10) == pytest.approx(0.05, abs=0)

    def test_midpoint_interpolation(self):
        expected = 0.3 - 4 * (0.25 / 9)
        assert epsilon_at(self.CFG, 4, 10) == pytest.approx(expected, rel=1e-12)

    def test_clamped_inside_range(self):
        for epoch in range(10):
            assert 0.05 <= epsilon_at(self.CFG, epoch, 10) <= 0.3

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            SinkhornConfig(eps_start=0.05, eps_end=0.3)
        with pytest.raises(ValueError):
            SinkhornConfig(eps_start=0.3, eps_end=0.0)


class TestSinkhornAssign:
    def test_zero_scores_give_uniform(self):
        q = sinkhorn_assign(np.zeros((2, 2)), eps=0.1, n_iters=3)
        np.testing.assert_allclose(q, np.full((2, 2), 0.25), atol=1e-12)

    def test_strong_diagonal_reaches_identity_pattern(self):
        q = sinkhorn_assign(10.0 * np.eye(2), eps=0.05, n_iters=200)
        oracle = converged_transport(10.0 * np.eye(2), eps=0.05)
        np.testing.assert_allclose(q, oracle, atol=1e-12)
        np.testing.assert_allclose(q, [[0.5, 0.0], [0.0, 0.5]], atol=1e-6)

    def test_three_iterations_near_oracle(self):
        # instances with the statistics the solver actually sees: cosine
        # similarities of random unit feature/prototype vectors
        rng = np.random.default_rng(0)
        worst = {0.3: 0.0, 0.05: 0.0}
        for _ in range(20):
            scores = _similarity_scores(rng, 3, 8)
            for eps in worst:
                fast = sinkhorn_assign(scores, eps=eps, n_iters=3)
                slow = converged_transport(scores, eps=eps)
                worst[eps] = max(worst[eps], float(np.abs(fast - slow).max()))
        assert worst[0.3] < 1e-2
        assert worst[0.05] < 0.1  # truncation at 3 iterations is visible here

    def test_marginals_at_convergence(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(4, 32))
        q = sinkhorn_assign(scores, eps=0.1, n_iters=200)
        np.testing.assert_allclose(q.sum(axis=1), 0.25, atol=1e-6)
        np.testing.assert_allclose(q.sum(axis=0), 1.0 / 32, atol=1e-6)

    def test_three_iteration_marginals_soft_bound(self):
        # at the schedule's smooth end both marginals are already close
        # after the default three iterations; the small-eps truncation is
        # bounded separately against the converged oracle
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            rho = int(rng.integers(2, 9))
            m = int(rng.integers(8, 65))
            q = sinkhorn_assign(_similarity_scores(rng, rho, m), eps=0.3, n_iters=3)
            worst = max(worst, float(np.abs(q.sum(axis=1) - 1.0 / rho).max()))
            worst = max(worst, float(np.abs(q.sum(axis=0) - 1.0 / m).max()))
        assert worst < 1e-2

    def test_large_eps_approaches_uniform(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(4, 16))
        q = sinkhorn_assign(scores, eps=100.0, n_iters=200)
        assert np.abs(q - 1.0 / (4 * 16)).max() < 1e-3

    def test_entropy_sharpens_as_eps_decays(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(3, 12))
        entropies = []
        for eps in (0.3, 0.2, 0.1, 0.05):
            q = sinkhorn_assign(scores, eps=eps, n_iters=500)
            entropies.append(float(-(q * np.log(np.maximum(q, 1e-300))).sum()))
        assert all(a >= b - 1e-9 for a, b in zip(entropies, entropies[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="eps"):
            sinkhorn_assign(np.zeros((2, 2)), eps=0.0, n_iters=3)
        with pytest.raises(ValueError, match="NaN"):
            sinkhorn_assign(np.array([[np.nan, 0.0]]), eps=0.1, n_iters=3)

    @settings(max_examples=30, deadline=None)
    @given(
        rho=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_entries_stay_in_unit_interval(self, rho, m, seed):
        scores = np.random.default_rng(seed).normal(size=(rho, m))
        q = sinkhorn_assign(scores, eps=0.1, n_iters=50)
        assert np.all(q >= 0.0)
        assert np.all(q <= 1.0 + 1e-12)


class TestPseudoLabels:
    def test_single_column_rescaled(self):
        q = np.array([[0.3], [0.2]])
        labels = pseudo_labels_from(q, 1)
        np.testing.assert_allclose(labels, [[0.6], [0.4]])

    def test_full_width_drops_nothing(self):
        q = sinkhorn_assign(np.random.default_rng(4).normal(size=(3, 6)), 0.2, 3)
        labels = pseudo_labels_from(q, 6)
        assert labels.shape == (3, 6)
        np.testing.assert_allclose(labels.sum(axis=0), 1.0, atol=1e-12)

    def test_queue_columns_do_not_change_kept_prefix(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=(2, 8))  # batch of 4 + queue of 4
        q = sinkhorn_assign(scores, eps=0.2, n_iters=3)
        labels = pseudo_labels_from(q, 4)
        assert labels.shape == (2, 4)
        # dropping queue columns only rescales per point; recompute directly
        prefix = q[:, :4] / q[:, :4].sum(axis=0, keepdims=True)
        np.testing.assert_allclose(labels, prefix, atol=1e-15)

    def test_m_batch_too_large_rejected(self):
        with pytest.raises(ValueError):
            pseudo_labels_from(np.ones((2, 3)), 4)
