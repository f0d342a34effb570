"""Augmentation families on (N, T, C, V) batches: shape, determinism, identities, per-clip draws."""

import numpy as np
import pytest

from skelcl.augment import (
    AugmentPipeline,
    EXTREME_TRANSFORMS,
    NORMAL_TRANSFORMS,
    axis_mask,
    gaussian_blur,
    rotate,
    shear,
    spatial_flip,
    temporal_crop,
    temporal_flip,
)
from skelcl.config import RunConfig
from skelcl.rng import RngStream


DEFAULTS = RunConfig()


def _make_batch(seed=0, frames=16, clips=4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(clips, frames, 3, 9)).astype(np.float32)


def test_family_membership():
    assert NORMAL_TRANSFORMS == ("shear", "crop")
    assert EXTREME_TRANSFORMS == (
        "shear", "spatial_flip", "rotate", "axis_mask",
        "crop", "temporal_flip", "gaussian_noise", "gaussian_blur",
    )


def test_normal_identity_parameters():
    data = _make_batch()
    config = RunConfig(shear_beta=0.0, crop_min_ratio=1.0)
    out = AugmentPipeline("normal", config).apply_array(data, RngStream(1).split("aug"))
    np.testing.assert_array_equal(out, data)


def test_shapes_preserved_and_finite():
    data = _make_batch()
    for seed in range(10):
        rng = RngStream(seed).split("x")
        for family in ("normal", "extreme"):
            out = AugmentPipeline(family, DEFAULTS).apply_array(data, rng)
            assert out.shape == data.shape and out.dtype == data.dtype
            assert np.all(np.isfinite(out))


def test_deterministic_given_stream():
    data = _make_batch()
    rng = RngStream(42).split("aug").split("sample3")
    for family in ("normal", "extreme"):
        pipeline = AugmentPipeline(family, DEFAULTS)
        np.testing.assert_array_equal(
            pipeline.apply_array(data, rng), pipeline.apply_array(data, rng)
        )


def test_input_left_untouched():
    data = _make_batch()
    before = data.copy()
    for family in ("normal", "extreme"):
        AugmentPipeline(family, RunConfig(extreme_prob=1.0)).apply_array(data, RngStream(3))
    np.testing.assert_array_equal(data, before)


@pytest.mark.parametrize("family", ["normal", "extreme"])
def test_each_clip_gets_its_own_draw(family):
    clips = 6
    data = np.repeat(_make_batch(clips=1), clips, axis=0)
    out = AugmentPipeline(family, DEFAULTS).apply_array(data, RngStream(5).split("aug"))
    for i in range(clips):
        for j in range(i + 1, clips):
            assert not np.array_equal(out[i], out[j]), (i, j)


def test_extreme_prob_zero_returns_input():
    data = _make_batch()
    out = AugmentPipeline("extreme", RunConfig(extreme_prob=0.0)).apply_array(data, RngStream(4))
    np.testing.assert_array_equal(out, data)


def test_temporal_flip_involution():
    data = _make_batch()
    gen = np.random.default_rng(0)
    once = temporal_flip(data, gen, DEFAULTS)
    np.testing.assert_array_equal(once[:, 0], data[:, -1])
    np.testing.assert_array_equal(temporal_flip(once, gen, DEFAULTS), data)


def test_spatial_flip_involution():
    data = _make_batch()
    once = spatial_flip(data, np.random.default_rng(9), DEFAULTS)
    twice = spatial_flip(once, np.random.default_rng(9), DEFAULTS)  # same axis draws
    np.testing.assert_array_equal(twice, data)


def test_rotate_zero_angle_identity():
    data = _make_batch()
    out = rotate(data, np.random.default_rng(2), RunConfig(rotate_max_deg=0.0))
    np.testing.assert_allclose(out, data, atol=1e-6)


def test_rotate_preserves_lengths():
    data = _make_batch()
    out = rotate(data, np.random.default_rng(2), DEFAULTS)
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=2), np.linalg.norm(data, axis=2), rtol=1e-5
    )


def test_shear_zero_beta_identity():
    data = _make_batch()
    out = shear(data, np.random.default_rng(3), RunConfig(shear_beta=0.0))
    np.testing.assert_array_equal(out, data)


def test_axis_mask_zeroes_one_channel():
    data = _make_batch()
    expected_axes = np.random.default_rng(4).integers(0, 3, size=len(data))
    out = axis_mask(data, np.random.default_rng(4), DEFAULTS)
    for clip, axis in enumerate(expected_axes):
        np.testing.assert_array_equal(out[clip, :, axis, :], 0.0)
        other = [a for a in range(3) if a != axis]
        np.testing.assert_array_equal(out[clip, :, other, :], data[clip, :, other, :])


def test_crop_resizes_back_to_t():
    data = _make_batch(frames=20)
    out = temporal_crop(data, np.random.default_rng(5), RunConfig(crop_min_ratio=0.5))
    assert out.shape == data.shape


def test_crop_matches_per_clip_window_reference():
    # the per-clip form: draw a window, then resample it linearly to T frames
    data = _make_batch(frames=20, clips=8)
    config = RunConfig(crop_min_ratio=0.3)
    out = temporal_crop(data, np.random.default_rng(6), config)
    gen = np.random.default_rng(6)
    t = data.shape[1]
    ratio = gen.uniform(config.crop_min_ratio, 1.0, size=len(data))
    length = np.maximum(2, np.round(ratio * t).astype(int))
    start = gen.integers(0, t - length + 1)
    for clip in range(len(data)):
        window = data[clip, start[clip] : start[clip] + length[clip]]
        positions = np.linspace(0.0, length[clip] - 1.0, t)
        idx = np.floor(positions).astype(int)
        idx_next = np.minimum(idx + 1, length[clip] - 1)
        frac = (positions - idx)[:, None, None]
        expected = (1.0 - frac) * window[idx] + frac * window[idx_next]
        np.testing.assert_allclose(out[clip], expected, rtol=1e-5, atol=1e-6)


def test_blur_preserves_constant():
    data = np.full((2, 12, 3, 9), 2.5, dtype=np.float32)
    out = gaussian_blur(data, np.random.default_rng(0), DEFAULTS)
    np.testing.assert_allclose(out, data, atol=1e-6)


def test_pipeline_families():
    normal = AugmentPipeline("normal", DEFAULTS)
    extreme = AugmentPipeline("extreme", DEFAULTS)
    assert normal.transforms == NORMAL_TRANSFORMS
    assert extreme.transforms == EXTREME_TRANSFORMS
    data = _make_batch()
    out = extreme.apply_array(data, RngStream(0).split("e"))
    assert out.shape == data.shape
