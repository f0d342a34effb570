"""Augmentation families: shape/finiteness, determinism, identities."""

import numpy as np

from skelcl.augment import (
    AugmentPipeline,
    EXTREME_TRANSFORMS,
    NORMAL_TRANSFORMS,
    apply_extreme_array,
    apply_normal_array,
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
from skelcl.skeleton import SkeletonSequence, build_star_tree


DEFAULTS = RunConfig()


def _make_seq(seed=0, frames=16):
    rng = np.random.default_rng(seed)
    graph = build_star_tree(9)
    data = rng.normal(size=(frames, 3, 9)).astype(np.float32)
    return SkeletonSequence(data=data, graph=graph, label=0)


def test_family_membership():
    assert NORMAL_TRANSFORMS == ("shear", "crop")
    assert EXTREME_TRANSFORMS == (
        "shear", "spatial_flip", "rotate", "axis_mask",
        "crop", "temporal_flip", "gaussian_noise", "gaussian_blur",
    )


def test_normal_identity_parameters():
    seq = _make_seq()
    config = RunConfig(shear_beta=0.0, crop_min_ratio=1.0)
    out = apply_normal_array(seq.data, RngStream(1).split("aug"), config)
    np.testing.assert_array_equal(out, seq.data)


def test_shapes_preserved_and_finite():
    seq = _make_seq()
    for seed in range(10):
        rng = RngStream(seed).split("x")
        a = apply_normal_array(seq.data, rng, DEFAULTS)
        b = apply_extreme_array(seq.data, rng, DEFAULTS)
        assert a.shape == seq.data.shape
        assert b.shape == seq.data.shape
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(b))


def test_deterministic_given_stream():
    seq = _make_seq()
    rng = RngStream(42).split("aug").split("sample3")
    for family in ("normal", "extreme"):
        pipeline = AugmentPipeline(family, DEFAULTS)
        np.testing.assert_array_equal(
            pipeline.apply_array(seq.data, rng), pipeline.apply_array(seq.data, rng)
        )


def test_temporal_flip_involution():
    seq = _make_seq()
    np.testing.assert_array_equal(temporal_flip(temporal_flip(seq.data)), seq.data)


def test_spatial_flip_involution():
    data = _make_seq().data
    gen_state = np.random.default_rng(9)
    once = spatial_flip(data, np.random.default_rng(9))
    twice = spatial_flip(once, np.random.default_rng(9))  # same axis draw
    np.testing.assert_array_equal(twice, data)
    del gen_state


def test_rotate_zero_angle_identity():
    data = _make_seq().data
    out = rotate(data, 0.0, np.random.default_rng(2))
    np.testing.assert_allclose(out, data, atol=1e-6)


def test_shear_zero_beta_identity():
    data = _make_seq().data
    out = shear(data, 0.0, np.random.default_rng(3))
    np.testing.assert_array_equal(out, data)


def test_axis_mask_zeroes_one_channel():
    data = _make_seq().data
    gen = np.random.default_rng(4)
    expected_axis = int(np.random.default_rng(4).integers(0, 3))
    out = axis_mask(data, gen)
    np.testing.assert_array_equal(out[:, expected_axis, :], 0.0)
    other = [a for a in range(3) if a != expected_axis]
    np.testing.assert_array_equal(out[:, other, :], data[:, other, :])


def test_crop_resizes_back_to_t():
    data = _make_seq(frames=20).data
    out = temporal_crop(data, 0.5, np.random.default_rng(5))
    assert out.shape == data.shape


def test_blur_preserves_constant():
    data = np.full((12, 3, 9), 2.5, dtype=np.float32)
    np.testing.assert_allclose(gaussian_blur(data), data, atol=1e-6)


def test_pipeline_families():
    normal = AugmentPipeline("normal", DEFAULTS)
    extreme = AugmentPipeline("extreme", DEFAULTS)
    assert normal.transforms == NORMAL_TRANSFORMS
    assert extreme.transforms == EXTREME_TRANSFORMS
    seq = _make_seq()
    out = extreme.apply_array(seq.data, RngStream(0).split("e"))
    assert out.shape == seq.data.shape
