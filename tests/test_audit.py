import dataclasses

import pytest

from psltilde.audit import RestrictionReport, audit_rep, check_restrictions
from psltilde.constructors import (
    BuildRequest,
    build_boundary_extremal,
    build_negative_control,
    build_rep,
    pgl_flip,
)
from psltilde.curves import enumerate_scc
from psltilde.errors import BoundaryElliptic, NotSupported, NotTypePreserving
from psltilde.mobius import Matrix2, normalize, rotation
from psltilde.sampling import random_hyperbolic
from psltilde.surface import Representation, SurfacePresentation
import random


def _thrice_punctured(c1, c2):
    return Representation(SurfacePresentation(0, 3), {"c1": c1, "c2": c2})


def test_audit_requires_type_preserving():
    rng = random.Random(1)
    rep = build_boundary_extremal(0, 3, random_hyperbolic(rng), rng)
    with pytest.raises(NotTypePreserving,
                       match="^peripheral image 3 is Hyperbolic, not parabolic$"):
        audit_rep(rep, 1)
    par = normalize(Matrix2(1.0, 1.0, 0.0, 1.0))
    ell = normalize(rotation(1.0))
    with pytest.raises(NotTypePreserving,
                       match="^peripheral image 1 is Elliptic, not parabolic$"):
        audit_rep(_thrice_punctured(ell, par), 1)
    # hyperbolic image 1 is named, not the elliptic image 2 after it
    with pytest.raises(NotTypePreserving,
                       match="^peripheral image 1 is Hyperbolic, not parabolic$"):
        audit_rep(_thrice_punctured(random_hyperbolic(rng), ell), 1)


def test_build_and_audit_walk_each_relator_once(monkeypatch):
    from psltilde import constructors, surface

    walked, walk = [], surface._invariants
    monkeypatch.setattr(surface, "_invariants",
                        lambda rep, shifts: walked.append(rep) or
                        walk(rep, shifts))
    attempts, once = [], constructors._build_rep_once
    monkeypatch.setattr(constructors, "_build_rep_once",
                        lambda *args: attempts.append(1) or once(*args))
    # (1,4) extremal seed 2 builds at its third attempt
    for req in (BuildRequest(0, 4, 1, (1, 1, 1, -1), 42),
                BuildRequest(1, 4, 4, (1, 1, 1, 1), 2)):
        walked.clear()
        attempts.clear()
        rep = build_rep(req)
        # each attempt walks its relator once, in the final request check;
        # the twists inside an attempt walk nothing
        assert len(walked) == len(attempts)
        assert walked[-1] is rep
        # the audit shares the returned object's one walk
        audit_rep(rep, 1)
        assert len(walked) == len(attempts)
    assert len(attempts) == 3


def test_audit_counterexample_zero_violations():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    report = audit_rep(rep, 4)
    assert report.violations == ()
    assert report.min_trace_margin > 0
    assert report.euler == 1
    assert report.passed


def test_audit_fuchsian_zero_violations():
    rep = build_rep(BuildRequest(1, 2, 2, (1, 1), 3))
    report = audit_rep(rep, 5)
    assert report.violations == ()
    assert report.min_trace_margin > 0


def test_audit_negative_control_depth_zero():
    rep = build_negative_control()
    report = audit_rep(rep, 0)
    assert len(report.violations) >= 1
    hit = [v for v in report.violations if v.curve == "c1 c2"]
    assert hit and hit[0].trace == 0.0
    assert hit[0].psl_type == "Elliptic"
    assert not report.passed


def test_audit_margin_violations_are_typed():
    rep = build_negative_control()
    report = audit_rep(rep, 0, margin=1e-6)
    kinds = {v.psl_type for v in report.violations}
    assert "Elliptic" in kinds


def test_audit_invariant_margin_vs_violations():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 8))
    report = audit_rep(rep, 4)
    assert (not report.violations) == (report.min_trace_margin > report.margin)


def test_audit_deterministic():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 9))
    a = audit_rep(rep, 3)
    b = audit_rep(rep, 3)
    assert a == b


def test_audit_reuses_curve_list():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 10))
    curves = enumerate_scc(rep.surface, 3)
    report = audit_rep(rep, 3, curves=curves)
    assert report.curves_checked == len(curves)


def test_check_restrictions_sphere():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    r = check_restrictions(rep)
    assert r.mode == "counterexample"
    assert r.pants_euler == 0
    assert r.piece_eulers == (1,)
    assert r.piece_chis == (-1,)
    assert r.passed


def test_check_restrictions_torus():
    rep = build_rep(BuildRequest(1, 2, 1, (1, -1), 7))
    r = check_restrictions(rep)
    assert r.pants_euler == 0
    assert all(e == -c for e, c in zip(r.piece_eulers, r.piece_chis))
    assert r.passed


def test_audit_refuses_a_negative_depth_first():
    # checked before the peripherals, which would raise NotTypePreserving
    rep = _thrice_punctured(normalize(Matrix2(2.0, 0.0, 0.0, 0.5)),
                            normalize(Matrix2(1.0, 1.0, 0.0, 1.0)))
    with pytest.raises(ValueError, match="^depth -1 must be non-negative$"):
        audit_rep(rep, -1)


def test_check_restrictions_negative_anywhere():
    for signs in ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1)):
        rep = build_rep(BuildRequest(0, 4, 1, signs, 6))
        r = check_restrictions(rep)
        assert r.negative_puncture == signs.index(-1) + 1
        assert r.passed


@pytest.mark.parametrize("g, p, e, signs", [
    (0, 4, -1, (-1, -1, -1, 1)), (0, 4, -1, (1, -1, -1, -1)),
    (0, 4, -1, (-1, 1, -1, -1)), (1, 2, -1, (-1, 1)), (2, 1, -2, (1,))])
def test_check_restrictions_of_a_mirror_match_its_flip(g, p, e, signs):
    # the mirrored counterexample components, e = chi + 1 with one positive
    # puncture: the report is that of the flip with the piece Euler
    # classes negated, the odd-sign puncture named as negative_puncture
    for seed in (3, 5):
        mirror = build_rep(BuildRequest(g, p, e, signs, seed))
        r = check_restrictions(mirror)
        flip = check_restrictions(pgl_flip(mirror))
        assert flip.mode == "counterexample" and flip.passed
        assert r == dataclasses.replace(
            flip, piece_eulers=tuple(-n for n in flip.piece_eulers))
        assert r.negative_puncture == signs.index(1) + 1
        assert all(n == c for n, c in zip(r.piece_eulers, r.piece_chis))


def test_check_restrictions_names_the_odd_sign_puncture(monkeypatch):
    # an elliptic splitting curve is reported around the odd-sign puncture,
    # which on a mirrored component is the positive one
    from psltilde import audit

    def elliptic(rep, puncture):
        raise BoundaryElliptic("elliptic boundary")

    rep = build_rep(BuildRequest(1, 2, 1, (1, -1), 3))
    monkeypatch.setattr(audit, "_split_off_pants_with", elliptic)
    for r in (rep, pgl_flip(rep)):
        with pytest.raises(BoundaryElliptic,
                           match="^splitting curve around the odd-sign "
                                 "puncture has elliptic image: "):
            check_restrictions(r)


@pytest.mark.parametrize("genus, counterexample, extremal", [
    (2, (1, 1), (1, 1, 1)), (3, (1, 3), (1, 1, 3))])
def test_check_restrictions_one_puncture(genus, counterexample, extremal):
    # one puncture: the pants around it is cut off after the first handle,
    # which leaves two complementary pieces
    chi = 1 - 2 * genus
    for sign in (1, -1):
        cases = ((sign * (-chi - 1), (-sign,), "counterexample", 1, 0,
                  counterexample),
                 (-sign * chi, (sign,), "extremal", None, None, extremal))
        for e, signs, mode, odd, pants, pieces in cases:
            rep = build_rep(BuildRequest(genus, 1, e, signs, 1))
            r = check_restrictions(rep)
            assert (r.mode, r.negative_puncture, r.pants_euler) == \
                (mode, odd, pants)
            assert r.piece_eulers == tuple(sign * n for n in pieces)
            assert r.piece_chis == tuple(-n for n in pieces)
            assert r.passed


@pytest.mark.parametrize("genus, punctures", [(0, 3), (1, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_check_restrictions_chi_minus_one(genus, punctures, sign):
    # no standard curve splits a chi = -1 surface: it is its one piece
    rep = build_rep(BuildRequest(genus, punctures, sign, (sign,) * punctures,
                                 1))
    assert check_restrictions(rep) == RestrictionReport(
        "extremal", None, None, (sign,), (-1,), True)


def test_check_restrictions_fuchsian_degenerate():
    rep = build_rep(BuildRequest(0, 4, 2, (1, 1, 1, 1), 2))
    r = check_restrictions(rep)
    assert r.mode == "extremal"
    assert r.passed


def test_check_restrictions_rejects_midrange():
    rep = Representation(
        SurfacePresentation(0, 3),
        {"c1": normalize(Matrix2(1, 1, 0, 1)),
         "c2": normalize(Matrix2(1, 0, 5, 1))})  # e = 0, signs (+,-,0)
    with pytest.raises(NotSupported):
        check_restrictions(rep)
