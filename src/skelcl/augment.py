"""Normal and extreme augmentation families over (N, T, C, V) batches of clips.

The normal family is exactly {Shear, Crop}; the extreme family is
exactly {Shear, Spatial Flip, Rotate, Axis Mask, Crop, Temporal Flip,
Gaussian Noise, Gaussian Blur}, in that order, each applied to each clip
independently with probability `extreme_prob`.  `apply_array` draws every
clip's parameters as arrays from one generator; the magnitudes are read
from the `RunConfig`, so they are hashed with the run.

`apply_array` writes the view over the batch it is given: a caller that
must keep its input passes in a copy, as `train.branch_views` does for
the query branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .rng import RngStream

def _mix_channels(m: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Left-multiply every frame of clip n by its (C, C) matrix m[n]."""
    return np.einsum("nij,ntjv->ntiv", m.astype(data.dtype), data)


def shear(data: np.ndarray, gen: np.random.Generator, config: RunConfig) -> np.ndarray:
    """A unit-diagonal 3x3 per clip, off-diagonals uniform in ±`shear_beta`."""
    n, c = data.shape[0], data.shape[2]
    off = gen.uniform(-config.shear_beta, config.shear_beta, size=(n, c, c))
    off[:, np.arange(c), np.arange(c)] = 0.0
    return _mix_channels(np.eye(c) + off, data)


def temporal_crop(data: np.ndarray, gen: np.random.Generator, config: RunConfig) -> np.ndarray:
    """A window of each clip resized back to T frames linearly; a whole-clip window is exact."""
    n, t = data.shape[:2]
    ratio = gen.uniform(config.crop_min_ratio, 1.0, size=n)
    length = np.maximum(2, np.round(ratio * t).astype(np.int64))
    start = gen.integers(0, t - length + 1)
    positions = start[:, None] + np.arange(t) * (length[:, None] - 1) / (t - 1)
    idx = np.floor(positions).astype(np.int64)
    idx_next = np.minimum(idx + 1, (start + length - 1)[:, None])
    frac = (positions - idx).astype(data.dtype)[:, :, None, None]
    rows = np.arange(n)[:, None]
    return (1.0 - frac) * data[rows, idx] + frac * data[rows, idx_next]


def rotate(data: np.ndarray, gen: np.random.Generator, config: RunConfig) -> np.ndarray:
    """A random axis-angle rotation per clip, angle up to `rotate_max_deg`."""
    n = data.shape[0]
    axis = gen.normal(size=(n, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    angle = gen.uniform(0.0, math.radians(config.rotate_max_deg), size=n)[:, None, None]
    x, y, z = axis.T
    zero = np.zeros(n)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(n, 3, 3)
    m = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
    return _mix_channels(m, data)


def _channel_scale(data: np.ndarray, gen: np.random.Generator, value: float) -> np.ndarray:
    """Multiply one random coordinate axis per clip by `value`."""
    n, c = data.shape[0], data.shape[2]
    scale = np.ones((n, c), dtype=data.dtype)
    scale[np.arange(n), gen.integers(0, c, size=n)] = value
    return data * scale[:, None, :, None]


def spatial_flip(data: np.ndarray, gen: np.random.Generator, config: RunConfig) -> np.ndarray:
    """Negate one random coordinate axis per clip."""
    return _channel_scale(data, gen, -1.0)


def axis_mask(data: np.ndarray, gen: np.random.Generator, config: RunConfig) -> np.ndarray:
    """Zero one random coordinate axis per clip."""
    return _channel_scale(data, gen, 0.0)


def temporal_flip(data: np.ndarray, gen: np.random.Generator, config: RunConfig) -> np.ndarray:
    return data[:, ::-1].copy()


def gaussian_noise(data: np.ndarray, gen: np.random.Generator, config: RunConfig) -> np.ndarray:
    return data + gen.normal(0.0, config.aug_noise_sigma, size=data.shape).astype(data.dtype)


_BLUR_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def gaussian_blur(data: np.ndarray, gen: np.random.Generator, config: RunConfig) -> np.ndarray:
    """5-tap binomial smoothing along T with reflected boundaries."""
    padded = np.pad(data, ((0, 0), (2, 2), (0, 0), (0, 0)), mode="reflect")
    t = data.shape[1]
    return sum(w.astype(data.dtype) * padded[:, j : j + t] for j, w in enumerate(_BLUR_KERNEL))


# name -> batched transform, in the extreme family's order
TRANSFORMS = {
    "shear": shear, "spatial_flip": spatial_flip, "rotate": rotate, "axis_mask": axis_mask,
    "crop": temporal_crop, "temporal_flip": temporal_flip, "gaussian_noise": gaussian_noise,
    "gaussian_blur": gaussian_blur,
}
NORMAL_TRANSFORMS = ("shear", "crop")
EXTREME_TRANSFORMS = tuple(TRANSFORMS)


@dataclass(frozen=True)
class AugmentPipeline:
    """A named family with the run's magnitude parameters."""

    family: str
    config: RunConfig

    @property
    def transforms(self) -> tuple[str, ...]:
        return NORMAL_TRANSFORMS if self.family == "normal" else EXTREME_TRANSFORMS

    def apply_array(self, data: np.ndarray, rng: RngStream) -> np.ndarray:
        """Augment an (N, T, C, V) batch in place and return it; every draw
        comes from `rng`'s one generator."""
        gen = rng.generator()
        for name in self.transforms:
            picked = slice(None)
            if self.family == "extreme":
                picked = gen.uniform(size=len(data)) < self.config.extreme_prob
            data[picked] = TRANSFORMS[name](data[picked], gen, self.config)
        return data
