"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured numbers. Tolerances are pinned here, not
deferred."""
import random
import time
from decimal import Decimal

import fraction_reference

from psltilde import selftest
from psltilde.audit import audit_rep, check_restrictions
from psltilde.constructors import (
    PRODUCT_IMAGE,
    BuildRequest,
    build_boundary_extremal,
    build_negative_control,
    build_rep,
    pgl_flip,
)
from psltilde.curves import Curves
from psltilde.mobius import Matrix2, normalize
from psltilde.sampling import derive_seed, random_hyperbolic, random_psl
from psltilde.surface import (
    Representation,
    SurfacePresentation,
    euler_class,
    eval_word,
    restrict,
    sign_vector,
    standard_splits,
)
from psltilde.words import parse_word

AUDIT_DEPTHS = {(0, 4): 6, (1, 2): 8}  # smallest depths with >= 500 curves


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_cover_laws():
    t0 = time.time()
    selftest.check_cover_laws(10_000, 1001)
    selftest.check_cover_composition(20_000, 1001)
    selftest.check_central_shifts(1000, 1001)
    selftest.check_conjugation_invariance(1000, 1001)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(1, f"homomorphism/associativity/inverse on 1e4 triples, "
               f"composition with the homeomorphisms on 2e4 pairs, shift "
               f"and conjugation laws on 1e3 elements in {elapsed:.1f} s")


def test_criterion_2_image_theorems():
    t0 = time.time()
    selftest.check_commutator_image(10_000, 1002)
    attained = selftest.check_product_image(1000, 1002)
    assert attained == PRODUCT_IMAGE, "a product-image class never attained"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, f"commutator image on 1e4 pairs and {len(PRODUCT_IMAGE)} "
               "product/evaluation items x 1e3 conditioned samples, every "
               f"class attained, in {elapsed:.1f} s")


def test_criterion_3_sign_lemmas():
    selftest.check_offdiag(1000, 1003)
    selftest.check_offdiag_elliptic(1000, 1003)
    _report(3, "parabolic and elliptic off-diagonal sign rules exact on "
               "1e3 samples per component, indices in [-2, 2]")


def test_criterion_4_euler_checks():
    rep1 = Representation(
        SurfacePresentation(0, 3),
        {"c1": normalize(Matrix2(1, 1, 0, 1)),
         "c2": normalize(Matrix2(1, 0, -5, 1))})
    assert euler_class(rep1) == 1
    assert tuple(sign_vector(rep1)) == (1, 1, 0)
    rep0 = Representation(
        SurfacePresentation(0, 3),
        {"c1": normalize(Matrix2(1, 1, 0, 1)),
         "c2": normalize(Matrix2(1, 0, 5, 1))})
    assert euler_class(rep0) == 0
    assert tuple(sign_vector(rep0)) == (1, -1, 0)

    rng = random.Random(1004)
    rep = build_rep(BuildRequest(1, 2, 1, (1, -1), 19))
    for _ in range(1000):
        shifts = {"a1": rng.randint(-3, 3), "b1": rng.randint(-3, 3)}
        assert euler_class(rep, ab_lift_shifts=shifts) == 1

    for seed in range(50):
        r = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), seed))
        f = pgl_flip(r)
        assert euler_class(f) == -1
        assert tuple(sign_vector(f)) == (-1, -1, -1, 1)
        g = random_psl(rng)
        c = r.conjugate(g)
        assert euler_class(c) == 1
        assert tuple(sign_vector(c)) == (1, 1, 1, -1)

    splits_checked = 0
    for k in range(100):
        g, p = rng.choice([(0, 4), (1, 2), (2, 1)])
        if rng.random() < 0.5:
            rep = build_boundary_extremal(
                g, p, random_hyperbolic(rng, 2.3, 5.0), rng)
        elif (g, p) == (2, 1):
            rep = build_rep(BuildRequest(2, 1, 3, (1,), rng.randrange(10**6)))
        else:
            signs = (1,) * (p - 1) + (-1,)
            rep = build_rep(BuildRequest(g, p, 2 * g + p - 3, signs,
                                         rng.randrange(10**6)))
        total = euler_class(rep)
        for split in standard_splits(rep.surface):
            left, right = restrict(rep, split)
            assert euler_class(left) + euler_class(right) == total
            splits_checked += 1
    selftest.check_euler_composition(1000, 1004)
    _report(4, "forced sphere values e=1/(+,+,0) and e=0/(+,-,0); lift-shift "
               "invariance and PGL flip exact on 1e3 trials; additivity on "
               f"100 built representations ({splits_checked} splittings); "
               "the relator walk equals the composed homeomorphisms on 1e3 "
               "random representations")


def test_criterion_5_extremal_builders():
    rng = random.Random(1005)
    for (g, p) in ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1)):
        for _ in range(3):
            boundary = random_hyperbolic(rng, 2.2, 6.0)
            rep = build_boundary_extremal(g, p, boundary, rng)
            assert euler_class(rep) == 2 * g + p - 2
            err = rep.peripheral_image(p).rep.maxdiff(boundary.rep)
            assert err < 1e-8
    _report(5, "extremal e = -chi with boundary matched within 1e-8 on "
               "(0,3),(1,1),(0,4),(1,2),(2,1), three boundaries each")


def test_criterion_6_counterexample_components():
    t0 = time.time()
    results = []
    for (g, p), signs in (((0, 4), (1, 1, 1, -1)), ((1, 2), (1, -1))):
        depth = AUDIT_DEPTHS[(g, p)]
        surf = SurfacePresentation(g, p)
        curves = Curves.enumerated(surf, depth)
        assert depth >= 4 and len(curves) >= 500
        worst = float("inf")
        for i in range(50):
            rep = build_rep(BuildRequest(g, p, 1, signs,
                                         derive_seed(2026, i + 1)))
            report = audit_rep(rep, depth, curves=curves)
            assert report.violations == ()
            assert report.min_trace_margin > 0.0
            worst = min(worst, report.min_trace_margin)
        results.append(f"({g},{p}): depth {depth}, {len(curves)} curves, "
                       f"50 samples, min margin {worst:.2e}")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(6, "; ".join(results) + f"; total {elapsed:.0f} s")


def test_criterion_7_fuchsian_oracle():
    for (g, p), signs in (((0, 4), (1, 1, 1, 1)), ((1, 2), (1, 1))):
        depth = AUDIT_DEPTHS[(g, p)]
        surf = SurfacePresentation(g, p)
        curves = Curves.enumerated(surf, depth)
        for seed in range(5):
            rep = build_rep(BuildRequest(g, p, 2, signs, seed))
            report = audit_rep(rep, depth, curves=curves)
            assert report.violations == ()
    _report(7, "extremal all-plus builds on (0,4) and (1,2) audited clean at "
               "the criterion-6 depths, five seeds each")


def test_criterion_8_negative_control():
    rep = build_negative_control()
    assert eval_word(rep, parse_word("c1 c2")).rep.trace() == 0.0
    report = audit_rep(rep, 0)
    assert len(report.violations) >= 1
    hit = [v for v in report.violations if v.curve == "c1 c2"]
    assert hit and hit[0].trace == 0.0 and hit[0].psl_type == "Elliptic"
    _report(8, f"depth-0 audit flags {len(report.violations)} violation(s) "
               "including the exact-trace-0 pair curve")


def test_criterion_9_restriction_certificates():
    for (g, p), signs in (((0, 4), (1, 1, 1, -1)), ((1, 2), (1, -1))):
        for seed in (11, 12, 13):
            rep = build_rep(BuildRequest(g, p, 1, signs, seed))
            r = check_restrictions(rep)
            assert r.mode == "counterexample"
            assert r.pants_euler == 0
            assert all(e == -c for e, c in zip(r.piece_eulers, r.piece_chis))
            assert r.passed
    _report(9, "pants-side e = 0 and extremal complements exact on both "
               "counterexample families, three seeds each")


def test_criterion_10_np_probe_reported():
    # the pass fraction is reported, not asserted: the full-measure statement
    # is out of scope. Each flagged curve's trace and type are asserted
    # against an exact rational recomputation.
    t0 = time.time()
    depth = 4
    surf = SurfacePresentation(0, 4)
    curves = Curves.enumerated(surf, depth)
    passes = flagged = 0
    count = 1000
    for i in range(count):
        rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1),
                                     derive_seed(88, i + 1)))
        report = audit_rep(rep, depth, curves=curves)
        if not report.violations:
            passes += 1
        for v in report.violations:
            x = fraction_reference.image(rep, parse_word(v.curve))
            exact = fraction_reference.abs_trace(x)
            assert abs(Decimal(v.trace) - exact) <= Decimal(2.0 ** -50) * exact
            assert fraction_reference.near_band_edge(x) or \
                v.psl_type == fraction_reference.psl_type(x)
            flagged += 1
    elapsed = time.time() - t0
    _report(10, f"NP probe: {passes}/{count} depth-{depth} clean samples "
                f"(fraction {passes / count:.4f}) in {elapsed:.0f} s "
                "[reported, not asserted]; the traces and types of all "
                f"{flagged} flagged curves agree with exact arithmetic")
