"""Reproducibility contracts of the splittable random streams."""

import hashlib

import numpy as np
import pytest

from skelcl.rng import RngStream


def test_same_seed_path_same_sequence():
    a = RngStream(42).split("aug").split("epoch3")
    b = RngStream(42).split("aug").split("epoch3")
    ga, gb = a.generator(), b.generator()
    np.testing.assert_array_equal(ga.uniform(size=100), gb.uniform(size=100))


def test_generator_restarts_sequence():
    s = RngStream(7, ("x",))
    first = s.generator().normal(size=10)
    second = s.generator().normal(size=10)
    np.testing.assert_array_equal(first, second)


def test_split_streams_differ():
    root = RngStream(42)
    a = root.split("a").generator().uniform(0, 1, 50)
    b = root.split("b").generator().uniform(0, 1, 50)
    assert not np.array_equal(a, b)


def test_sibling_streams_uncorrelated():
    root = RngStream(1234)
    draws = np.stack([root.split(f"s{i}").generator().normal(0, 1, 2000) for i in range(8)])
    corr = np.corrcoef(draws)
    off_diag = corr[~np.eye(8, dtype=bool)]
    assert np.abs(off_diag).max() < 0.1


def test_path_order_matters():
    assert not np.array_equal(
        RngStream(5).split("a").split("b").generator().uniform(0, 1, 20),
        RngStream(5).split("b").split("a").generator().uniform(0, 1, 20),
    )


def test_immutable_value_semantics():
    root = RngStream(9)
    child = root.split("x")
    assert root.path == ()
    assert child.path == ("x",)
    assert child == RngStream(9, ("x",))


def list_seeded(seed, path):
    """A generator seeded the list way: the seed mod 2**64, then each
    label's first four little-endian uint32 words of its SHA-256 digest."""
    entropy = [seed & (2**64 - 1)]
    for label in path:
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        entropy.extend(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**63, -1, 2**64 + 5])
@pytest.mark.parametrize("path", [(), ("a",), ("linear_probe", "e5"), ("ü",)])
def test_generator_draws_as_the_list_seeded_one(seed, path):
    # the uint32-array entropy is the array SeedSequence builds from the list
    got, want = RngStream(seed, path).generator(), list_seeded(seed, path)
    assert got.integers(0, 2**63, size=4).tolist() == want.integers(0, 2**63, size=4).tolist()
    assert got.random(3).tolist() == want.random(3).tolist()
    assert got.permutation(17).tolist() == want.permutation(17).tolist()
