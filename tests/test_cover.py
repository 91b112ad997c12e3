import math
import random

import pytest

from psltilde.cover import (
    Center,
    CoverClass,
    CoverElement,
    Ell,
    Hyp,
    ParMinus,
    ParPlus,
    Z,
    angle_lift,
    central_index,
    cover_classify,
    cover_equal,
    cover_inv,
    cover_mul,
    exact_product,
    identity_cover,
    lift_in_class,
    sl_projection,
    sl_trace,
    special_lift,
    z_power,
)
from psltilde.errors import EllipticHasNoHyp0Lift, NonUnitDeterminant
from psltilde.mobius import (
    Matrix2,
    ProjectiveMatrix,
    PslType,
    classify_psl,
    diag,
    fixed_directions,
    normalize,
    rotation,
)
from psltilde.sampling import (
    random_cover,
    random_elliptic,
    random_hyperbolic,
    random_parabolic,
    random_psl,
)
from psltilde.selftest import (
    _lift_value,
    _near_horizontal,
    check_central_shifts,
    check_commutator_image,
    check_conjugation_invariance,
    check_cover_composition,
    check_cover_laws,
    check_offdiag,
    check_offdiag_elliptic,
    check_trace_parity,
)
from psltilde.surface import Representation, SurfacePresentation, evaluation_map

PI = math.pi


def test_angle_lift_identity():
    ident = normalize(Matrix2(1, 0, 0, 1))
    for x in (0.0, 0.4, 2.0, 5.0, -3.3):
        assert abs(angle_lift(ident, x) - x) < 1e-12


def test_angle_lift_rotation_translates():
    # the standard elliptic one-parameter family translates the angle line
    theta = 0.7
    p = normalize(rotation(theta).inv())
    for x in (0.0, 1.0, 2.8):
        assert abs(angle_lift(p, x) - (x + theta)) < 1e-12


def test_angle_lift_diag_example():
    # image direction of (cos pi/4, sin pi/4) under diag(2, 1/2) is (2c, s/2)
    p = normalize(diag(2.0))
    assert abs(angle_lift(p, PI / 4) - math.atan(0.25)) < 1e-12


def test_angle_lift_equivariance_and_monotone():
    rng = random.Random(5)
    for _ in range(200):
        p = random_psl(rng)
        x = rng.uniform(-4, 4)
        assert abs(angle_lift(p, x + PI) - angle_lift(p, x) - PI) < 1e-9
        assert angle_lift(p, x + 0.1) > angle_lift(p, x)
    g0 = angle_lift(p, 0.0)
    assert 0 <= g0 < PI


def test_calibration_anchor():
    assert cover_classify(CoverElement(normalize(Matrix2(1, 1, 0, 1)), 0)) \
        == ParPlus(0)


def test_center_powers():
    assert cover_classify(cover_mul(Z, Z)) == Center(2)
    assert cover_classify(cover_inv(Z)) == Center(-1)
    assert cover_classify(z_power(-3)) == Center(-3)
    assert central_index(z_power(5)) == 5


def test_rotation_translation_classes():
    rot = normalize(rotation(1.0))
    cls0 = cover_classify(CoverElement(rot, 0))
    assert cls0.tag == "Ell" and abs(cls0.n) == 1
    # shifting the lift index by one crosses the center and skips zero
    cls1 = cover_classify(CoverElement(rot, -1))
    assert cls1.tag == "Ell" and cls1.n == -cls0.n


def test_one_parameter_hyperbolic_is_hyp0():
    assert cover_classify(CoverElement(normalize(diag(math.e)), 0)) == Hyp(0)


def test_par_shift_classes():
    a = normalize(Matrix2(1, 1, 0, 1))
    assert cover_classify(lift_in_class(a, ParPlus(2))) == ParPlus(2)
    assert cover_classify(cover_mul(z_power(2), special_lift(a))) == ParPlus(2)


def test_product_of_positive_parabolic_lifts():
    a = special_lift(normalize(Matrix2(1, 1, 0, 1)))
    b = special_lift(normalize(Matrix2(1, 0, -5, 1)))
    prod = cover_mul(a, b)
    assert prod.base.rep.maxdiff(normalize(Matrix2(-4, 1, -5, 1)).rep) < 1e-12
    assert abs(sl_trace(prod)) == pytest.approx(3.0)
    assert cover_classify(prod) == Hyp(1)


def test_translations_add():
    t1 = normalize(rotation(0.5).inv())
    t2 = normalize(rotation(0.9).inv())
    prod = cover_mul(CoverElement(t1, 0), CoverElement(t2, 0))
    assert prod.lift_index == 0
    assert abs(angle_lift(prod.base, 0.0) - 1.4) < 1e-12


def test_inverse_round_trip():
    check_cover_laws(1000, 11)


def test_inverse_of_hyp1_is_hyp_minus1():
    x = lift_in_class(random_hyperbolic(random.Random(2)), Hyp(1))
    assert cover_classify(cover_inv(x)) == Hyp(-1)


def test_special_lift_hyperbolic():
    p = normalize(diag(2.0))
    assert cover_classify(special_lift(p)) == Hyp(0)


def test_special_lift_eval_elliptic():
    # the evaluation map lifts an elliptic peripheral at Ell(1), and the
    # others at their special lifts
    rot = normalize(rotation(0.8))
    par = normalize(Matrix2(1.0, 1.0, 0.0, 1.0))
    rep = Representation(SurfacePresentation(0, 3), {"c1": rot, "c2": par})
    ell = lift_in_class(rot, Ell(1))
    assert cover_classify(ell) == Ell(1)
    assert evaluation_map(rep) == exact_product((ell, 1),
                                                (special_lift(par), 1))


def test_special_lift_rejects_elliptic_in_closure_mode():
    with pytest.raises(EllipticHasNoHyp0Lift):
        special_lift(normalize(rotation(0.8)))


def test_exact_product_is_the_canonical_exact_product():
    assert exact_product() == identity_cover()
    # det 2 and det 1/2: the exact product has det 1
    m = CoverElement(ProjectiveMatrix(Matrix2(1.0, 0.0, -0.5, 2.0)), 0)
    n = CoverElement(ProjectiveMatrix(Matrix2(0.5, 0.0, 0.0, 1.0)), 0)
    got = exact_product((m, 1), (n, 1))
    assert (got.base.rep.entries(), got.lift_index) == \
        ((0.5, 0.0, -0.25, 2.0), 0)
    # (0 1 / -1 0)^2 is -I exactly: its canonical representative negates
    # the leading -1, and the squared quarter turn is central
    r = CoverElement(ProjectiveMatrix(Matrix2(0.0, 1.0, -1.0, 0.0)), 0)
    got = exact_product((r, 1), (r, 1))
    assert (got.base.rep.entries(), got.lift_index) == \
        ((1.0, 0.0, 0.0, 1.0), 1)
    assert cover_classify(got) == Center(-1)
    # the exact determinant is 0: no unit-determinant multiple exists
    with pytest.raises(NonUnitDeterminant):
        exact_product((CoverElement(
            ProjectiveMatrix(Matrix2(1.0, 1.0, 1.0, 1.0)), 0), 1))


def test_special_lift_identity():
    assert cover_classify(special_lift(normalize(Matrix2(1, 0, 0, 1)))) \
        == Center(0)


def test_special_lift_is_the_lift_in_component_zero():
    rng = random.Random(31)
    bases = [random_hyperbolic(rng) for _ in range(300)]
    bases += [random_parabolic(rng, sign) for sign in (1, -1)
              for _ in range(200)]
    bases.append(normalize(Matrix2(1, 0, 0, 1)))
    bases += [_near_horizontal(rng).base for _ in range(400)]
    for p in bases:
        tag = cover_classify(CoverElement(p, 0)).tag
        assert special_lift(p) == lift_in_class(p, CoverClass(tag, 0))
    for _ in range(50):
        with pytest.raises(EllipticHasNoHyp0Lift):
            special_lift(random_elliptic(rng))


def test_lift_in_class_refuses_another_type():
    with pytest.raises(ValueError,
                       match="^base has Hyp lifts, requested Ell$"):
        lift_in_class(normalize(diag(2.0)), Ell(1))


def test_cover_equal_needs_equal_bases():
    x = CoverElement(normalize(diag(2.0)), 0)
    assert cover_equal(x, CoverElement(normalize(diag(2.0)), 0))
    assert not cover_equal(x, CoverElement(normalize(diag(3.0)), 0))


def test_homomorphism_and_associativity():
    check_cover_laws(2000, 3)


def test_classification_conjugation_invariant():
    check_conjugation_invariance(500, 17)


def test_central_shift_laws():
    check_central_shifts(300, 23)


def test_sl_projection_is_homomorphism_mod_center():
    rng = random.Random(31)
    for _ in range(300):
        x, y = random_cover(rng), random_cover(rng)
        lhs = sl_projection(cover_mul(x, y))
        rhs = sl_projection(x) @ sl_projection(y)
        assert min(lhs.maxdiff(rhs), lhs.maxdiff(-rhs)) < 1e-9
        # equality on the nose, not just up to sign
        assert lhs.maxdiff(rhs) < 1e-9


def test_sl_projection_of_z_is_minus_identity():
    assert sl_projection(Z).maxdiff(Matrix2(-1, 0, 0, -1)) < 1e-15


def test_trace_parity():
    check_trace_parity(500, 37)


def test_offdiag_parabolic_sign_rules():
    check_offdiag(1000, 41)


def test_offdiag_elliptic_sign_rules():
    check_offdiag_elliptic(1000, 43)


def test_commutator_image_membership():
    check_commutator_image(3000, 47)


def test_product_across_the_horizontal_axis_composes():
    # y's first column lies 1e-17 above the horizontal axis, where angles
    # rounded near 0 can misplace g_x(g_y(0)) by a half-turn (Hyp(-2))
    x = CoverElement(normalize(Matrix2(3.8861913968863506, -13.019626978787677,
                                       2.1327710113398264, -6.887947675521834)), 0)
    y = CoverElement(normalize(Matrix2(0.3, 0.7, 1e-17, 1 / 0.3)), 0)
    xy = cover_mul(x, y)
    for t in (0.3, 1.0, 2.0):
        assert abs(_lift_value(xy, t) - _lift_value(x, _lift_value(y, t))) < 1e-9
    assert xy.lift_index == 0 and cover_classify(xy) == Hyp(-1)


def test_composition_with_the_homeomorphisms():
    check_cover_composition(3000, 53)


def test_exact_product_composes_the_homeomorphisms():
    # up to five factors, each inverted or not, a third of them across the
    # horizontal axis; the product's homeomorphism is the composition
    rng = random.Random(67)
    for _ in range(500):
        factors = [(_near_horizontal(rng) if rng.random() < 0.3
                    else random_cover(rng), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 5))]
        got = exact_product(*factors)
        for t in (0.3, 1.0, 2.0):
            value = t
            for x, e in reversed(factors):
                value = _lift_value(x if e > 0 else cover_inv(x), value)
            assert abs(_lift_value(got, t) - value) < 1e-6, factors
    assert exact_product() == identity_cover()


def _displacement_class(x):
    """The component by its definition: the displacement g(t) + k*pi - t
    sampled on a 400-point grid over [0, pi), and 1e-9 to either side of
    each fixed direction, where a near-parabolic hyperbolic crosses its
    multiple of pi between two grid points."""
    ts = [i * PI / 400 for i in range(400)]
    ts += [t + e for t in fixed_directions(x.base) for e in (-1e-9, 1e-9)]
    ds = [(angle_lift(x.base, t) - t) / PI + x.lift_index for t in ts]
    lo, hi = min(ds), max(ds)
    kind = classify_psl(x.base)
    if kind is PslType.HYPERBOLIC:
        inside = [m for m in range(math.floor(lo), math.ceil(hi) + 1)
                  if lo < m < hi]
        assert len(inside) == 1
        return Hyp(-inside[0])
    if kind is PslType.PARABOLIC_PLUS:
        return ParPlus(-round(hi))
    if kind is PslType.PARABOLIC_MINUS:
        return ParMinus(-round(lo))
    m = math.floor(lo)
    assert kind is PslType.ELLIPTIC and math.floor(hi) == m
    return Ell(-m) if m <= -1 else Ell(-(m + 1))


def test_classify_agrees_with_the_displacement():
    rng = random.Random(59)
    elements = [random_cover(rng) for _ in range(100)]
    for draw in (random_hyperbolic, random_parabolic, random_elliptic,
                 lambda r: random_parabolic(r, -1)):
        elements += [CoverElement(draw(rng), rng.randint(-3, 3))
                     for _ in range(25)]
    elements += [_near_horizontal(rng) for _ in range(150)]
    for x in elements:
        assert cover_classify(x) == _displacement_class(x), x
