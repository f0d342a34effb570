"""Normal and extreme augmentation families for skeleton tensors.

The normal family is exactly {Shear, Crop}; the extreme family is
exactly {Shear, Spatial Flip, Rotate, Axis Mask, Crop, Temporal Flip,
Gaussian Noise, Gaussian Blur}, applied independently with probability
`extreme_prob` each, in that order.  The five magnitudes (`shear_beta`,
`crop_min_ratio`, `rotate_max_deg`, `aug_noise_sigma`, `extreme_prob`)
are read from the `RunConfig`, so they are hashed with the run; every
transform preserves the (T, C, V) shape and is a pure function of
(input, rng).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .rng import RngStream

NORMAL_TRANSFORMS = ("shear", "crop")
EXTREME_TRANSFORMS = (
    "shear",
    "spatial_flip",
    "rotate",
    "axis_mask",
    "crop",
    "temporal_flip",
    "gaussian_noise",
    "gaussian_blur",
)


def shear(data: np.ndarray, beta: float, gen: np.random.Generator) -> np.ndarray:
    """Left-multiply every frame's coordinates by a unit-diagonal 3x3."""
    c = data.shape[1]
    m = np.eye(c, dtype=data.dtype)
    off = gen.uniform(-beta, beta, size=(c, c)).astype(data.dtype)
    m = m + off - np.diag(np.diag(off))
    return np.einsum("ij,tjv->tiv", m, data)


def temporal_crop(data: np.ndarray, min_ratio: float, gen: np.random.Generator) -> np.ndarray:
    """Select a contiguous window, then resize back to T frames linearly."""
    t = data.shape[0]
    ratio = gen.uniform(min_ratio, 1.0)
    length = max(2, int(round(ratio * t)))
    start = int(gen.integers(0, t - length + 1)) if length < t else 0
    window = data[start : start + length]
    positions = np.linspace(0.0, length - 1.0, t)
    idx = np.floor(positions).astype(int)
    idx_next = np.minimum(idx + 1, length - 1)
    frac = (positions - idx).astype(data.dtype)[:, None, None]
    return (1.0 - frac) * window[idx] + frac * window[idx_next]


def rotate(data: np.ndarray, max_deg: float, gen: np.random.Generator) -> np.ndarray:
    """Random axis-angle rotation with angle up to `max_deg`."""
    axis = gen.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = gen.uniform(0.0, math.radians(max_deg))
    x, y, z = axis
    k = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]])
    m = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    return np.einsum("ij,tjv->tiv", m.astype(data.dtype), data)


def spatial_flip(data: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    axis = int(gen.integers(0, data.shape[1]))
    out = data.copy()
    out[:, axis, :] = -out[:, axis, :]
    return out


def axis_mask(data: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    axis = int(gen.integers(0, data.shape[1]))
    out = data.copy()
    out[:, axis, :] = 0.0
    return out


def temporal_flip(data: np.ndarray) -> np.ndarray:
    return data[::-1].copy()


def gaussian_noise(data: np.ndarray, sigma: float, gen: np.random.Generator) -> np.ndarray:
    return data + gen.normal(0.0, sigma, size=data.shape).astype(data.dtype)


_BLUR_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def gaussian_blur(data: np.ndarray) -> np.ndarray:
    """5-tap binomial smoothing along T with reflected boundaries."""
    padded = np.pad(data, ((2, 2), (0, 0), (0, 0)), mode="reflect")
    out = np.zeros_like(data)
    t = data.shape[0]
    for j, w in enumerate(_BLUR_KERNEL):
        out += w.astype(data.dtype) * padded[j : j + t]
    return out


def apply_normal_array(data: np.ndarray, rng: RngStream, config: RunConfig) -> np.ndarray:
    gen = rng.generator()
    out = shear(data, config.shear_beta, gen)
    out = temporal_crop(out, config.crop_min_ratio, gen)
    return out


def apply_extreme_array(data: np.ndarray, rng: RngStream, config: RunConfig) -> np.ndarray:
    gen = rng.generator()
    out = data
    for name in EXTREME_TRANSFORMS:
        if gen.uniform() >= config.extreme_prob:
            continue
        if name == "shear":
            out = shear(out, config.shear_beta, gen)
        elif name == "spatial_flip":
            out = spatial_flip(out, gen)
        elif name == "rotate":
            out = rotate(out, config.rotate_max_deg, gen)
        elif name == "axis_mask":
            out = axis_mask(out, gen)
        elif name == "crop":
            out = temporal_crop(out, config.crop_min_ratio, gen)
        elif name == "temporal_flip":
            out = temporal_flip(out)
        elif name == "gaussian_noise":
            out = gaussian_noise(out, config.aug_noise_sigma, gen)
        elif name == "gaussian_blur":
            out = gaussian_blur(out)
    return out


@dataclass(frozen=True)
class AugmentPipeline:
    """A named family with the run's magnitude parameters."""

    family: str
    config: RunConfig

    @property
    def transforms(self) -> tuple[str, ...]:
        return NORMAL_TRANSFORMS if self.family == "normal" else EXTREME_TRANSFORMS

    def apply_array(self, data: np.ndarray, rng: RngStream) -> np.ndarray:
        if self.family == "normal":
            return apply_normal_array(data, rng, self.config)
        return apply_extreme_array(data, rng, self.config)
