import pytest

from psltilde.audit import audit_rep, check_restrictions
from psltilde.constructors import (
    BuildRequest,
    build_boundary_extremal,
    build_negative_control,
    build_rep,
)
from psltilde.curves import enumerate_scc
from psltilde.errors import NotSupported, NotTypePreserving
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


def test_audit_evaluates_each_peripheral_once(monkeypatch):
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    calls = []
    original = Representation.peripheral_image
    monkeypatch.setattr(Representation, "peripheral_image",
                        lambda self, i: calls.append(i) or original(self, i))
    audit_rep(rep, 1)
    assert calls == [1, 2, 3, 4]


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


def test_check_restrictions_negative_anywhere():
    for signs in ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1)):
        rep = build_rep(BuildRequest(0, 4, 1, signs, 6))
        r = check_restrictions(rep)
        assert r.negative_puncture == signs.index(-1) + 1
        assert r.passed


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
