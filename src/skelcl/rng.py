"""Seedable, splittable random streams.

A stream is identified by a 64-bit seed plus a path of string labels.
Identical (seed, path) pairs always produce identical draw sequences;
streams split at different labels are statistically independent.  This
lets every stochastic decision in the pipeline (augmentation draws,
init, shuffling, mixing coefficients) be re-derived from the run seed
alone, which is what makes checkpoint resume bit-exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


def _label_words(label: str) -> tuple[int, ...]:
    # 128 bits of the label digest, folded into four uint32 words
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


@dataclass(frozen=True)
class RngStream:
    """An immutable handle on a reproducible random sequence."""

    seed: int
    path: tuple[str, ...] = field(default_factory=tuple)

    def split(self, label: str) -> "RngStream":
        """Derive an independent child stream named by `label`."""
        return RngStream(self.seed, self.path + (str(label),))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream.

        Each call restarts the sequence; hold the returned generator to
        draw consecutively.
        """
        entropy: list[int] = [self.seed & 0xFFFFFFFFFFFFFFFF]
        for label in self.path:
            entropy.extend(_label_words(label))
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

