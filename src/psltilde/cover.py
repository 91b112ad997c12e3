"""Arithmetic and classification in the universal cover of PSL(2,R).

Model: a cover element is a pair (base, lift_index). The base acts on the
direction circle R/piZ; its canonical lift g is the strictly increasing map
with g(x + pi) = g(x) + pi and g(0) in [0, pi). The pair denotes the
homeomorphism g + lift_index * pi of the real line.

The upper representative U of a base is its unit-determinant matrix whose
first column lies at an angle in [0, pi): second entry positive, or zero with
a positive first entry. g is the lift of U's action on the angles of unit
vectors that starts at the angle of that column, and g + pi lifts -U. So
every deck index and class below is a sign rule on the stored entries,
exact relative to the stored bases; angle_lift evaluates the model itself.

The deck generator z (the standard generator of the center, the endpoint of
the elliptic one-parameter path through rotation(pi)) is the translation by
-pi, i.e. CoverElement(identity, -1); central powers z^n therefore carry lift
index -n, and the component index of a class is read off the *negated*
displacement d(t) = g(t) + k*pi - t. The canonical lift of (1 1 / 0 1) at
index 0 classifies ParPlus(0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EllipticHasNoHyp0Lift
from .mobius import (
    IDENTITY,
    Matrix2,
    ProjectiveMatrix,
    PslType,
    _positive_trace_rep,
    classify_psl,
    normalize,
    unit_product,
)

PI = math.pi

EQUAL_TOL = 1e-8        # entrywise base tolerance of cover_equal


@dataclass(frozen=True)
class CoverElement:
    base: ProjectiveMatrix
    lift_index: int


@dataclass(frozen=True)
class CoverClass:
    """Tagged component: Hyp(n) | ParPlus(n) | ParMinus(n) | Ell(n) | Center(n)."""

    tag: str
    n: int

    def __str__(self) -> str:
        return f"{self.tag}({self.n})"


def Hyp(n: int) -> CoverClass:
    return CoverClass("Hyp", n)


def ParPlus(n: int) -> CoverClass:
    return CoverClass("ParPlus", n)


def ParMinus(n: int) -> CoverClass:
    return CoverClass("ParMinus", n)


def Ell(n: int) -> CoverClass:
    return CoverClass("Ell", n)


def Center(n: int) -> CoverClass:
    return CoverClass("Center", n)


def _image_angle(m: Matrix2, x: float) -> float:
    """Angle mod pi of the image of the direction x."""
    wx, wy = m.apply(math.cos(x), math.sin(x))
    return math.atan2(wy, wx) % PI


def angle_lift(p: ProjectiveMatrix, x: float) -> float:
    """Value of the canonical lift g_p at x.

    Strictly increasing, g(x + pi) = g(x) + pi, g(0) in [0, pi). For x in
    [0, pi) the value is the representative of the image angle in the
    half-open window [g(0), g(0) + pi).
    """
    q, x0 = divmod(x, PI)
    g0 = _image_angle(p.rep, 0.0)
    gx = _image_angle(p.rep, x0)
    if gx < g0:
        gx += PI
    return q * PI + gx


def _up(a: float, c: float) -> int:
    """+1 when the vector (a, c) lies at an angle in [0, pi), else -1."""
    return 1 if c > 0 or (c == 0 and a > 0) else -1


def cover_mul(x: CoverElement, y: CoverElement) -> CoverElement:
    """Group law. g_x g_y lifts the action of U_x U_y = +-X @ Y and starts
    at an angle in [0, 2*pi); the deck correction is 1 exactly when that
    product is minus the upper representative of the product base, and 0
    when g_y(0) = 0, that is, when Y.c = 0.

    The rule reads the rounded product. Where rounding moves its first
    column across the horizontal axis, the orientation of U_x e1 and
    U_x U_y e1 puts that column near angle pi (unless |X.a * X.d| nears
    2**53), and the rule then picks the lift nearest g_x g_y."""
    X, Y = x.base.rep, y.base.rep
    P = X @ Y
    d = Y.c != 0.0 and _up(Y.a, Y.c) * _up(P.a, P.c) != _up(X.a, X.c)
    return CoverElement(normalize(P), x.lift_index + y.lift_index + int(d))


def cover_inv(x: CoverElement) -> CoverElement:
    """Inverse: U_x times the upper representative of the adjugate is -I
    exactly when c != 0."""
    return CoverElement(x.base.inv(), -x.lift_index - (x.base.rep.c != 0.0))


def cover_conj(g: CoverElement, x: CoverElement) -> CoverElement:
    return cover_mul(cover_mul(g, x), cover_inv(g))


Z = CoverElement(normalize(IDENTITY), -1)  # the deck generator


def z_power(n: int) -> CoverElement:
    return CoverElement(normalize(IDENTITY), -n)


def identity_cover() -> CoverElement:
    return CoverElement(normalize(IDENTITY), 0)


def _down(p: ProjectiveMatrix) -> int:
    """1 when the stored representative is minus the upper one, so that
    g_p(0) is near pi for a base near the identity; else 0."""
    return int(_up(p.rep.a, p.rep.c) < 0)


def central_index(x: CoverElement) -> int:
    """n with x = z^n, for x over (approximately) the identity.

    A base within tolerance of the identity can have its first column just
    below the horizontal axis, where g(0) is near pi, so the deck count reads
    that sign as well as the lift index."""
    return -(x.lift_index + _down(x.base))


def _shift(p: ProjectiveMatrix, q: ProjectiveMatrix) -> int:
    """k with g_q + k*pi close to g_p, for projectively nearby bases: 0
    when their upper first columns point the same way (positive dot
    product); otherwise one lies near angle 0 and the other near pi."""
    u, v = p.rep, q.rep
    su, sv = _up(u.a, u.c), _up(v.a, v.c)
    if su * sv * (u.a * v.a + u.c * v.c) >= 0.0:
        return 0
    return -1 if su * u.a > 0.0 else 1


def cover_equal(x: CoverElement, y: CoverElement) -> bool:
    """Whether two cover elements denote the same lift: projectively equal
    bases and equal homeomorphisms, also across the canonical-branch wrap
    at bases fixing the direction 0."""
    if x.base.rep.maxdiff(y.base.rep) >= EQUAL_TOL:
        return False
    return x.lift_index + _shift(x.base, y.base) == y.lift_index


def with_base(x: CoverElement, base: ProjectiveMatrix) -> CoverElement:
    """Re-home a cover element on a nearby (e.g. recomputed more accurately)
    base, keeping the same homeomorphism; adjusts the lift index if the
    canonical branch wrapped between the two bases."""
    return CoverElement(base, x.lift_index + _shift(x.base, base))


def cover_commutator(x: CoverElement, y: CoverElement) -> CoverElement:
    """Commutator x y x^-1 y^-1. The deck index comes from the float cover
    chain; the base is recomputed exactly (unit_product), because commutator
    intermediates are exactly the cancellation-heavy products that leak
    float noise."""
    rough = cover_mul(cover_mul(x, y), cover_mul(cover_inv(x), cover_inv(y)))
    a, b = x.base.rep, y.base.rep
    return with_base(rough, unit_product(a, b, a.inv(), b.inv()))


_FIXING_CLASS = {PslType.HYPERBOLIC: Hyp, PslType.PARABOLIC_PLUS: ParPlus,
                 PslType.PARABOLIC_MINUS: ParMinus}


def cover_classify(x: CoverElement) -> CoverClass:
    """Component of a cover element, from the displacement range of
    g + k*pi over one period.

    Hyp(n): -n*pi is the unique multiple of pi inside the open range.
    Par(n): the touched endpoint is -n*pi; Plus iff the range touches its max.
    Ell(n): range strictly inside (m*pi, (m+1)*pi); n = -m for m <= -1 and
    n = -(m+1) for m >= 0 (the zero-skip).
    Center(n): identity base with lift index -n.

    A hyperbolic or parabolic base's positive-trace representative T has
    the lift that fixes a direction; g is that lift when T is the upper
    representative, and that lift plus pi when T.c < 0. An elliptic g moves
    every direction forward by less than pi, so m = k. The type comes from
    classify_psl, whose parabolic band is the only tolerance.
    """
    kind = classify_psl(x.base)
    k = x.lift_index
    if kind is PslType.IDENTITY:
        return Center(central_index(x))
    if kind is PslType.ELLIPTIC:
        return Ell(-k) if k <= -1 else Ell(-(k + 1))
    return _FIXING_CLASS[kind](-(k + (_positive_trace_rep(x.base).c < 0.0)))


def special_lift(p: ProjectiveMatrix, mode: str = "closure_hyp0") -> CoverElement:
    """The distinguished lift of p.

    mode "closure_hyp0": the unique lift with component index 0 (Hyp(0),
    Par(0) or Center(0)); elliptic input raises EllipticHasNoHyp0Lift.
    mode "eval": same, except elliptic input gets its unique Ell(1) lift.
    """
    if mode not in ("closure_hyp0", "eval"):
        raise ValueError(f"unknown lift mode {mode!r}")
    kind = classify_psl(p)
    if kind is PslType.IDENTITY:
        return CoverElement(p, -_down(p))
    if kind is PslType.ELLIPTIC:
        if mode == "closure_hyp0":
            raise EllipticHasNoHyp0Lift(
                "elliptic elements have no lift with component index 0")
        return lift_in_class(p, Ell(1))
    probe = CoverElement(p, 0)
    cls = cover_classify(probe)
    return CoverElement(p, probe.lift_index + cls.n)


def lift_in_class(p: ProjectiveMatrix, cls: CoverClass) -> CoverElement:
    """The lift of p lying in the requested component (classes of a given
    base differ by central shifts, so this is a single index adjustment)."""
    probe = CoverElement(p, 0)
    got = cover_classify(probe)
    if got.tag != cls.tag:
        raise ValueError(f"base has {got.tag} lifts, requested {cls.tag}")
    if got.tag == "Ell" and (got.n > 0) != (cls.n > 0):
        shift = cls.n - got.n - (1 if cls.n > 0 else -1)
    else:
        shift = cls.n - got.n
    return CoverElement(p, probe.lift_index - shift)


def sl_projection(x: CoverElement) -> Matrix2:
    """Image of the cover element under the covering onto SL(2,R).

    The upper representative, negated once per odd lift index. Group
    homomorphism; z maps to -identity.
    """
    m = x.base.rep
    if _down(x.base):
        m = -m
    if x.lift_index % 2:
        m = -m
    return m


def sl_trace(x: CoverElement) -> float:
    return sl_projection(x).trace()
