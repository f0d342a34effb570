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


def _label_bytes(label: str) -> bytes:
    # 128 bits of the label digest: four little-endian uint32 words
    return hashlib.sha256(label.encode("utf-8")).digest()[:16]


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
        draw consecutively.  The entropy is the list
        [seed mod 2**64, *words of each label] given as the uint32 array
        NumPy's `SeedSequence` would build from it: an int becomes its
        little-endian 32-bit words, one for a value below 2**32 (0
        included) and two above, and each label's four digest words are
        below 2**32.  So the seed's one or two words, then each label's
        first 16 digest bytes read as little-endian words, seed the same
        pool as the list, without converting each int in Python.
        """
        seed = self.seed & 0xFFFFFFFFFFFFFFFF
        words = b"".join([seed.to_bytes(8 if seed >> 32 else 4, "little"),
                          *map(_label_bytes, self.path)])
        entropy = np.frombuffer(words, dtype="<u4").astype(np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
