"""Tests of the exact checker on matrices whose answers are known by hand.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
from __future__ import annotations

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import exact  # noqa: E402

# Gamma(2) on the thrice-punctured sphere: c1 c2 c3 = 1, all parabolic,
# all positive (the Fuchsian, Euler class 1 component)
C1 = (1.0, 2.0, 0.0, 1.0)
C2 = (1.0, 0.0, -2.0, 1.0)
C3 = (1.0, -2.0, 2.0, -3.0)   # (c1 c2)^-1, canonical sign


class IntegerMatrices(unittest.TestCase):
    def test_common_power_of_two(self):
        self.assertEqual(exact.int_matrix((0.5, 0.25, 3.0, 1.0)), (2, 1, 12, 4))

    def test_scale_invariance(self):
        m = exact.int_matrix((2.0, 1.0, 1.0, 1.0))     # tr 3, det 1
        self.assertEqual(exact.trace_margin(m), 1.0)
        self.assertEqual(exact.trace_margin(tuple(4 * v for v in m)), 1.0)
        self.assertEqual(exact.trace_margin(tuple(-3 * v for v in m)), 1.0)


class Margins(unittest.TestCase):
    def test_hyperbolic_parabolic_elliptic(self):
        self.assertEqual(exact.trace_margin((1, 1, 0, 1)), 0.0)
        self.assertEqual(exact.trace_margin((0, 1, -1, 0)), -2.0)  # rotation
        self.assertEqual(exact.trace_margin((-2, -1, -1, -1)), 1.0)

    def test_nearly_parabolic_is_exact(self):
        eps = 2.0 ** -40
        # det = (1 + eps) - eps = 1 exactly, |tr| = 2 + eps
        m = exact.int_matrix((1.0, 1.0, eps, 1.0 + eps))
        self.assertEqual(exact.trace_margin(m), eps)

    def test_cancellation_beyond_double_precision(self):
        # A P A^-1 with A = diag(2^30, 2^-30) and P = [[1, 1], [2^-70, 1]]:
        # the conjugate is [[1, 2^60], [2^-130, 1]], margin 2^-70 (the float
        # product rounds the trace to 2 and loses it)
        a = exact.int_matrix((2.0 ** 30, 0.0, 0.0, 2.0 ** -30))
        p = exact.int_matrix((1.0, 1.0, 2.0 ** -70, 1.0))
        m = exact.mul(exact.mul(a, p), exact.adj(a))
        # det P = 1 - 2^-70, so |tr|/sqrt(det) - 2 = 2/sqrt(1 - 2^-70) - 2
        self.assertAlmostEqual(exact.trace_margin(m) / 2.0 ** -70, 1.0,
                               places=12)

    def test_huge_trace(self):
        # |tr| = 2^600: tr^2/det is past the float range
        m = exact.int_matrix((2.0 ** 600, 0.0, 0.0, 2.0 ** -600))
        self.assertEqual(exact.trace_margin(m), 2.0 ** 600)
        self.assertEqual(exact.unit_entries(m), (2.0 ** 600, 0.0, 0.0, 0.0))

    def test_parabolic_signs(self):
        self.assertEqual(exact.parabolic_sign((1, 1, 0, 1)), 1)
        self.assertEqual(exact.parabolic_sign((1, -1, 0, 1)), -1)
        self.assertEqual(exact.parabolic_sign((1, 0, 1, 1)), -1)
        self.assertEqual(exact.parabolic_sign((1, 0, -1, 1)), 1)
        # trace -2: the sign is read off the negated (trace +2) lift
        self.assertEqual(exact.parabolic_sign((-1, 1, 0, -1)), -1)


class Representations(unittest.TestCase):
    def rep(self):
        return exact.ExactRep(0, 3, {"c1": C1, "c2": C2})

    def test_implied_last_peripheral(self):
        er = self.rep()
        self.assertEqual(exact.canonical_unit(er.peripheral(3)), C3)

    def test_health_of_gamma2(self):
        h = exact.rep_health(self.rep(), C3)
        self.assertEqual(h["relator_residual"], 0.0)
        self.assertEqual(h["last_gap"], 0.0)
        self.assertEqual(h["trace_defects"], [0.0, 0.0, 0.0])
        self.assertEqual(h["signs"], [1, 1, 1])

    def test_health_sees_a_wrong_last_peripheral(self):
        h = exact.rep_health(self.rep(), (1.0, -2.0, 2.0, -3.0 + 2.0 ** -20))
        self.assertGreater(h["last_gap"], 2.0 ** -22)
        self.assertGreater(h["relator_residual"], 2.0 ** -22)

    def test_shared_prefixes_match_separate_products(self):
        rng = random.Random(5)
        er = exact.ExactRep(1, 2, {
            "a1": (2.0, 1.0, 1.0, 1.0), "b1": (1.0, 0.5, 0.0, 1.0),
            "c1": (1.0, 0.0, -0.75, 1.0)})
        letters = [(g, e) for g in ("a1", "b1", "c1", "c2") for e in (1, -1)]
        words = sorted(tuple(rng.choice(letters) for _ in range(rng.randint(1, 9)))
                       for _ in range(60))
        want = [exact.trace_margin(er.product(w)) for w in words]
        self.assertEqual(er.margins(words), want)


class Verdicts(unittest.TestCase):
    def test_threshold_and_undecided(self):
        names = ["x", "y", "z"]
        margins = [0.5, 1e-6 * (1 + 1e-9), 1e-7]   # y sits on the threshold
        problems, undecided = checks.check_margins(margins, 1e-6, 1e-7,
                                                   ["z"], names)
        self.assertEqual((problems, undecided), ([], 1))
        problems, _ = checks.check_margins(margins, 1e-6, 1e-7, [], names)
        self.assertTrue(problems)                   # z is certainly violating
        problems, _ = checks.check_margins(margins, 1e-6, 1e-7, 2, names)
        self.assertEqual(problems, [])              # z, and y either way
        problems, _ = checks.check_margins(margins, 1e-6, 2e-7, 1, names)
        self.assertTrue(problems)                   # wrong minimum

    def test_sphere_homology(self):
        good = [(("c1", 1), ("c2", 1)), (("c2", -1), ("c3", -1)),
                (("c1", 1), ("c4", 1))]             # c1 c4 ~ -(c2 + c3)
        self.assertEqual(checks.check_curve_homology(good, 0, 4), [])
        bad = [(("c1", 1), ("c2", -1))]
        self.assertTrue(checks.check_curve_homology(bad, 0, 4))

    def test_genus_homology(self):
        good = [(("a1", 1),), (("a1", 1), ("b1", 1), ("c1", 1)),
                (("a1", 1), ("b1", 1), ("a1", -1), ("b1", -1))]
        self.assertEqual(checks.check_curve_homology(good, 1, 3), [])
        bad = [(("a1", 1), ("a1", 1), ("c1", 1))]
        self.assertTrue(checks.check_curve_homology(bad, 1, 3))


if __name__ == "__main__":
    unittest.main()
