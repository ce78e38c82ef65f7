"""View pairs: coordinate arrays, isometry, analytic rotation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from segdiscover.augment import AugmentConfig, make_views
from segdiscover.data import LabelledCloud


def cloud_of(coords, labels=None):
    coords = np.asarray(coords, dtype=np.float64)
    if labels is None:
        labels = np.zeros(coords.shape[0], dtype=np.int64)
    return LabelledCloud(coords, labels)


def test_identity_config_returns_input():
    cfg = AugmentConfig(rotate=False, scale_lo=1.0, scale_hi=1.0, jitter_sigma=0.0)
    cloud = cloud_of([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], np.array([3, 4]))
    view_a, view_b = make_views(cloud, np.random.default_rng(0), cfg, 2)
    np.testing.assert_allclose(view_a, cloud.coords, atol=0)
    np.testing.assert_allclose(view_b, cloud.coords, atol=0)


def test_half_turn_rotation_is_analytic():
    # force theta = pi by inverting through the rng: instead, apply the
    # rotation matrix directly via a seeded search for a near-pi draw
    from segdiscover.augment import _augment_once

    cfg = AugmentConfig(rotate=True, scale_lo=1.0, scale_hi=1.0, jitter_sigma=0.0)

    class FixedRng:
        def uniform(self, lo, hi, size=None):
            if hi > 6.0:  # the rotation draw
                return np.pi
            return 1.0

        def normal(self, *a, **k):  # pragma: no cover - jitter disabled
            raise AssertionError("jitter should be off")

    view = _augment_once(np.array([[1.0, 0.0, 0.0]]), cfg, FixedRng())
    np.testing.assert_allclose(view, [[-1.0, 0.0, 0.0]], atol=1e-12)


def test_rotation_preserves_pairwise_distances():
    rng = np.random.default_rng(3)
    cloud = cloud_of(rng.normal(size=(15, 3)))
    cfg = AugmentConfig(rotate=True, scale_lo=1.0, scale_hi=1.0, jitter_sigma=0.0)
    view_a, view_b = make_views(cloud, rng, cfg, 2)

    def dist_matrix(xyz):
        return np.sqrt(((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(axis=2))

    np.testing.assert_allclose(dist_matrix(view_a), dist_matrix(cloud.coords), atol=1e-9)
    np.testing.assert_allclose(dist_matrix(view_b), dist_matrix(cloud.coords), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), m=st.integers(min_value=1, max_value=30))
def test_scaled_views_are_isometries_up_to_scale(seed, m):
    rng = np.random.default_rng(seed)
    cloud = cloud_of(rng.normal(size=(m, 3)))
    cfg = AugmentConfig(rotate=True, scale_lo=0.9, scale_hi=1.1, jitter_sigma=0.0)
    view, = make_views(cloud, rng, cfg, 1)
    norms_in = np.linalg.norm(cloud.coords, axis=1)
    norms_out = np.linalg.norm(view, axis=1)
    nonzero = norms_in > 1e-12
    if nonzero.any():
        ratios = norms_out[nonzero] / norms_in[nonzero]
        assert ratios.max() - ratios.min() < 1e-9
        assert 0.9 - 1e-12 <= ratios[0] <= 1.1 + 1e-12
