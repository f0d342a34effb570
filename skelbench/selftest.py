"""Tests of the benchmark's own code.

    python3 skelbench/selftest.py

Kept out of the package's pytest suite on purpose: they patch skelcl
module attributes, which must never leak into the package's tests.
"""

from __future__ import annotations

import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import skelcl.contrast  # noqa: E402
import skelcl.tensor as T  # noqa: E402
import skelcl.train  # noqa: E402
from stats import Reference, tail_percentile  # noqa: E402
from tracing import (  # noqa: E402
    ORIGINALS, Span, Tracer, leftover_wrappers, self_times, step_breakdown,
)
from workloads import BackwardClock, brute_force_knn  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_keeps_ten_samples_beyond(self):
        rng = np.random.default_rng(0)
        for n in (11, 23, 67, 83, 100, 104, 149, 500, 2000):
            samples = rng.exponential(size=n)
            p, value = tail_percentile(samples)
            self.assertGreaterEqual(np.count_nonzero(samples > value), 10, n)
            if p < 99:
                above = np.percentile(samples, p + 1)
                self.assertLess(np.count_nonzero(samples > above), 10, n)

    def test_known_counts(self):
        samples = np.arange(1, 101, dtype=float)  # p90 is 90.1, leaving 91..100 above
        p, value = tail_percentile(samples)
        self.assertEqual(p, 90)
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual(tail_percentile(np.arange(1, 1002, dtype=float))[0], 99)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            tail_percentile(np.ones(10))


def _span(name, layer, start, end, parent, step=0):
    s = Span(name, layer, start, parent, step)
    s.end = end
    return s


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            _span("encoder.query_fwd", "encoder", 0.0, 10.0, None),
            _span("tensor.matmul.fwd", "encoder", 1.0, 4.0, 0),
            _span("tensor.l2_normalize.fwd", "encoder", 5.0, 9.0, 0),
            _span("tensor.mul.fwd", "encoder", 5.5, 6.5, 2),
        ]
        self.assertEqual(self_times(spans), [3.0, 3.0, 3.0, 1.0])

    def test_layers_and_remainder_account_for_the_step(self):
        tracer = Tracer()
        tracer.spans = [
            _span("augment.batch", "augment", 0.000, 0.010, None),
            _span("rng.generator", "rng", 0.001, 0.003, 0),
            _span("encoder.query_fwd", "encoder", 0.010, 0.040, None),
            _span("tensor.matmul.fwd", "encoder", 0.012, 0.020, 2),
            _span("tensor.backward", "tensor", 0.050, 0.080, None),
            _span("tensor.matmul.bwd", "encoder", 0.055, 0.070, 4),
            _span("encoder.query_fwd", "encoder", 1.0, 2.0, None, step=1),  # other step
        ]
        out = step_breakdown(tracer, {0: 0.100})
        self.assertAlmostEqual(out["layer.augment_ms"], 8.0)
        self.assertAlmostEqual(out["layer.rng_ms"], 2.0)
        self.assertAlmostEqual(out["layer.encoder_ms"], 45.0)
        self.assertAlmostEqual(out["layer.tensor_ms"], 15.0)
        self.assertAlmostEqual(out["train.step_other_ms"], 30.0)
        layers = sum(v for k, v in out.items() if k.startswith("layer."))
        self.assertAlmostEqual(layers + out["train.step_other_ms"], 100.0)
        self.assertAlmostEqual(out["tensor.matmul.fwd_ms"], 8.0)
        self.assertAlmostEqual(out["encoder.bwd_ms"], 15.0)
        self.assertEqual(out["tensor.matmul.calls"], 1)


class PatchTest(unittest.TestCase):
    def tearDown(self):
        self.assertEqual(leftover_wrappers(), [])

    def test_uninstall_restores_every_original(self):
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(skelcl.train.stgcn_forward, ORIGINALS[(skelcl.train, "stgcn_forward")])
        self.assertIsNot(T.matmul, ORIGINALS[(T, "matmul")])
        self.assertEqual(len(leftover_wrappers()), len(ORIGINALS))
        tracer.uninstall()
        for (owner, attr), original in ORIGINALS.items():
            self.assertIs(owner.__dict__[attr], original, attr)

    def test_traced_ops_compute_the_same_gradients(self):
        w = T.parameter(np.arange(6, dtype=np.float32).reshape(2, 3))
        x = np.ones((4, 2), dtype=np.float32)

        def grads():
            with T.Tape():
                loss = T.mean_(T.relu(T.matmul(T.Tensor(x), w)))
                return T.backward(loss)[w].data

        plain = grads()
        tracer = Tracer()
        tracer.install()
        try:
            traced = grads()
        finally:
            tracer.uninstall()
        np.testing.assert_array_equal(plain, traced)
        names = {s.name for s in tracer.spans}
        self.assertTrue({"tensor.matmul.fwd", "tensor.matmul.bwd", "tensor.backward"} <= names)

    def test_stacked_patches_unwind_in_order(self):
        tracer = Tracer()
        tracer.install()
        wrapped = T.backward
        with BackwardClock(Reference(time.perf_counter)):
            self.assertIsNot(T.backward, wrapped)
        self.assertIs(T.backward, wrapped)
        tracer.uninstall()

    def test_class_attributes_are_restored(self):
        original = skelcl.contrast.MemoryQueue.__dict__["contents"]
        tracer = Tracer()
        tracer.install()
        queue = skelcl.contrast.MemoryQueue(4, 2)
        queue.push(np.array([[1.0, 0.0]], dtype=np.float32))
        self.assertEqual(queue.contents().shape, (1, 2))
        tracer.uninstall()
        self.assertIs(skelcl.contrast.MemoryQueue.__dict__["contents"], original)


class BruteForceKnnTest(unittest.TestCase):
    def test_exact_when_no_ties(self):
        z_train = np.eye(4, dtype=np.float32)
        y_train = np.array([0, 1, 1, 2])
        z_val = np.array([[0.9, 0.1, 0, 0], [0, 0.2, 0.9, 0]], dtype=np.float32)
        self.assertEqual(brute_force_knn(z_train, y_train, z_val, np.array([0, 1]), 1), (1.0, 1.0))
        self.assertEqual(brute_force_knn(z_train, y_train, z_val, np.array([1, 2]), 1), (0.0, 0.0))

    def test_ties_widen_the_range(self):
        z_train = np.ones((3, 2), dtype=np.float32) / np.sqrt(2)
        low, high = brute_force_knn(z_train, np.array([0, 1, 1]), z_train[:1], np.array([0]), 1)
        self.assertEqual((low, high), (0.0, 1.0))


if __name__ == "__main__":
    unittest.main()
