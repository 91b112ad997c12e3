import math
import random

import pytest
from hypothesis import given, strategies as st

from psltilde.cover import Center, CoverElement, cover_classify
from psltilde.errors import NonUnitDeterminant, NotConjugate, NotHyperbolic
from psltilde.mobius import (
    ALL_DIRECTIONS,
    IDENTITY,
    Matrix2,
    ProjectiveMatrix,
    PslType,
    axes_cross,
    classify_psl,
    conjugator,
    diag,
    fixed_directions,
    normalize,
    rotation,
)
from psltilde.sampling import random_elliptic, random_hyperbolic, random_parabolic, random_psl


def test_normalize_identity_class():
    p = normalize(Matrix2(-1, 0, 0, -1))
    assert p.rep.entries() == (1, 0, 0, 1)


def test_normalize_sign_scan_hits_a12():
    p = normalize(Matrix2(0, -2, 0.5, 0))
    assert p.rep.entries() == (0, 2, -0.5, 0)


def test_constructor_enforces_the_canonical_sign():
    minus_i = ProjectiveMatrix(Matrix2(-1.0, 0.0, 0.0, -1.0))
    assert minus_i == normalize(IDENTITY)
    assert classify_psl(minus_i) is PslType.IDENTITY
    assert cover_classify(CoverElement(minus_i, 0)) == Center(0)
    rng = random.Random(7)
    ms = [random_psl(rng).rep for _ in range(1000)]
    for _ in range(100):
        x, d = rng.choice((-1, 1)) * rng.uniform(0.2, 5.0), rng.uniform(-3, 3)
        ms += [Matrix2(0.0, x, -1.0 / x, d), Matrix2(x, 0.0, d, 1.0 / x)]
    for m in ms:
        got = ProjectiveMatrix(-m)
        assert got == ProjectiveMatrix(m)
        assert next(v for v in got.rep.entries() if v != 0.0) > 0.0


def test_value_types_are_immutable_and_compare_by_value():
    m = Matrix2(1.0, 2.0, 3.0, 4.0)
    x = CoverElement(normalize(IDENTITY), -1)
    for obj, name in ((m, "a"), (m, "d"), (m, "extra"), (x, "base"),
                      (x, "lift_index"), (x, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
    assert m == Matrix2(1.0, 2.0, 3.0, 4.0) and m != Matrix2(1.0, 2.0, 3.0, 5.0)
    assert hash(m) == hash(Matrix2(1.0, 2.0, 3.0, 4.0))
    assert x == CoverElement(ProjectiveMatrix(IDENTITY), -1)
    assert x != CoverElement(normalize(IDENTITY), 0)
    assert hash(x) == hash(CoverElement(ProjectiveMatrix(IDENTITY), -1))
    assert len({m, Matrix2(1.0, 2.0, 3.0, 4.0), x,
                CoverElement(normalize(IDENTITY), -1)}) == 2
    assert repr(m) == "Matrix2(a=1.0, b=2.0, c=3.0, d=4.0)"
    assert repr(x) == ("CoverElement(base=ProjectiveMatrix(rep=Matrix2("
                       "a=1.0, b=0.0, c=0.0, d=1.0)), lift_index=-1)")
    assert (m.a, m.b, m.c, m.d, m.entries()) == (1.0, 2.0, 3.0, 4.0,
                                                 (1.0, 2.0, 3.0, 4.0))
    assert (x.base, x.lift_index) == (normalize(IDENTITY), -1)


def test_normalize_rejects_det_2():
    with pytest.raises(NonUnitDeterminant):
        normalize(Matrix2(1, 0, 0, 2))


def test_normalize_rejects_negative_det():
    with pytest.raises(NonUnitDeterminant):
        normalize(Matrix2(0, 1, 1, 0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", range(4))
def test_normalize_rejects_non_finite_entries(slot, value):
    entries = [1.0, 0.0, 0.0, 1.0]
    entries[slot] = value
    with pytest.raises(NonUnitDeterminant):
        normalize(Matrix2(*entries))


def test_normalize_rescales_drift():
    eps = 1e-8
    p = normalize(Matrix2(1 + eps, 0, 0, 1 + eps))
    assert abs(p.rep.det() - 1) < 1e-12


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_normalize_idempotent_and_quotient_consistent(a, b, c):
    if abs(a) < 0.1:
        return
    d = (1 + b * c) / a
    m = Matrix2(a, b, c, d)
    if abs(m.det() - 1) >= 1e-7:
        return
    p = normalize(m)
    assert normalize(p.rep).rep.maxdiff(p.rep) < 1e-14
    assert normalize(-m).rep.maxdiff(p.rep) < 1e-14


def test_classify_parabolic_plus():
    assert classify_psl(normalize(Matrix2(1, 1, 0, 1))) is PslType.PARABOLIC_PLUS


def test_classify_parabolic_minus_via_a21():
    assert classify_psl(normalize(Matrix2(1, 0, 2, 1))) is PslType.PARABOLIC_MINUS


def test_classify_hyperbolic():
    assert classify_psl(normalize(Matrix2(2, 0, 0, 0.5))) is PslType.HYPERBOLIC


def test_classify_elliptic_rotation():
    assert classify_psl(normalize(rotation(math.pi / 3))) is PslType.ELLIPTIC


def test_classify_identity():
    assert classify_psl(normalize(Matrix2(-1.0, 0, 0, -1.0))) is PslType.IDENTITY


def test_classify_conjugation_invariant():
    rng = random.Random(7)
    samples = [random_hyperbolic(rng), random_parabolic(rng, 1),
               random_parabolic(rng, -1), random_elliptic(rng)]
    for _ in range(1000):
        g = random_psl(rng)
        for p in samples:
            q = g @ p @ g.inv()
            assert classify_psl(q) is classify_psl(p)


def test_fixed_directions_diagonal():
    dirs = fixed_directions(normalize(diag(2.0)))
    assert len(dirs) == 2
    assert abs(dirs[0] - 0.0) < 1e-12
    assert abs(dirs[1] - math.pi / 2) < 1e-12


def test_fixed_directions_parabolic():
    dirs = fixed_directions(normalize(Matrix2(1, 1, 0, 1)))
    assert len(dirs) == 1 and abs(dirs[0]) < 1e-12


def test_fixed_directions_elliptic_empty():
    assert fixed_directions(normalize(rotation(math.pi / 3))) == []


def test_fixed_directions_identity_sentinel():
    assert fixed_directions(normalize(Matrix2(1, 0, 0, 1))) == ALL_DIRECTIONS


def _conj_by_rotation(p, theta):
    r = rotation(theta)
    return normalize(r @ p.rep @ r.inv())


def test_axes_cross_rotated_conjugate():
    p = normalize(diag(2.0))
    q = _conj_by_rotation(p, math.pi / 4)
    assert axes_cross(p, q)
    comm = p.rep @ q.rep @ p.rep.inv() @ q.rep.inv()
    assert comm.trace() < 2


def test_axes_disjoint():
    p = normalize(diag(2.0))
    f = Matrix2(math.cos(0.1), math.cos(0.3), math.sin(0.1), math.sin(0.3))
    f = f.scale(1 / math.sqrt(f.det()))
    q = normalize(f @ diag(3.0) @ f.inv())
    assert not axes_cross(p, q)
    comm = p.rep @ q.rep @ p.rep.inv() @ q.rep.inv()
    assert comm.trace() >= 2


def test_axes_cross_equal_axes_false():
    p = normalize(diag(2.0))
    assert not axes_cross(p, p)


def test_axes_cross_requires_hyperbolic():
    with pytest.raises(NotHyperbolic):
        axes_cross(normalize(rotation(1.0)), normalize(diag(2.0)))


def test_torus_lemma_both_directions():
    # crossing axes <=> commutator trace < 2, away from the boundary value
    rng = random.Random(13)
    checked = 0
    while checked < 10_000:
        p = random_hyperbolic(rng)
        q = random_hyperbolic(rng)
        comm = p.rep @ q.rep @ p.rep.inv() @ q.rep.inv()
        t = comm.trace()
        if abs(t - 2) < 1e-8:
            continue
        assert axes_cross(p, q) == (t < 2)
        checked += 1


def test_conjugator_identity_pair():
    ident = normalize(Matrix2(1, 0, 0, 1))
    g = conjugator(ident, ident)
    assert g.rep.maxdiff(Matrix2(1, 0, 0, 1)) < 1e-12


def test_conjugator_hyperbolic_rotated():
    p = normalize(diag(2.0))
    q = _conj_by_rotation(p, math.pi / 4)
    g = conjugator(p, q)
    assert (g @ p @ g.inv()).rep.maxdiff(q.rep) < 1e-10


def test_conjugator_trace_mismatch():
    with pytest.raises(NotConjugate):
        conjugator(normalize(diag(2.0)), normalize(diag(3.0)))


def test_conjugator_parabolic_sign_mismatch():
    with pytest.raises(NotConjugate):
        conjugator(normalize(Matrix2(1, 1, 0, 1)), normalize(Matrix2(1, -1, 0, 1)))


def test_conjugator_elliptic_sense_mismatch():
    p = normalize(rotation(1.0))
    q = normalize(rotation(-1.0))
    with pytest.raises(NotConjugate):
        conjugator(p, q)


def test_conjugator_random_pairs():
    rng = random.Random(99)
    makers = [lambda: random_hyperbolic(rng), lambda: random_parabolic(rng, 1),
              lambda: random_parabolic(rng, -1), lambda: random_elliptic(rng)]
    for _ in range(200):
        p = rng.choice(makers)()
        g0 = random_psl(rng)
        q = g0 @ p @ g0.inv()
        g = conjugator(p, q)
        assert (g @ p @ g.inv()).rep.maxdiff(q.rep) < 1e-8
