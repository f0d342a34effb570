"""Reproducibility contracts of the splittable random streams."""

import numpy as np

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
