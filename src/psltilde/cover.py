"""Arithmetic and classification in the universal cover of PSL(2,R).

Model: a cover element is a pair (base, lift_index). The base acts on the
direction circle R/piZ; its canonical lift g is the strictly increasing map
with g(x + pi) = g(x) + pi and g(0) in [0, pi). The pair denotes the
homeomorphism g + lift_index * pi of the real line.

Classification reads the displacement d(t) = g(t) + k*pi - t over one period.
The deck generator z (the standard generator of the center, the endpoint of
the elliptic one-parameter path through rotation(pi)) is the translation by
-pi, i.e. CoverElement(identity, -1); central powers z^n therefore carry lift
index -n, and the component index of a class is read off the *negated*
displacement window. The parabolic sign convention (Plus = displacement range
touches its maximum) is pinned by the requirement that the canonical lift of
(1 1 / 0 1) at index 0 classifies ParPlus(0); a self-check at import asserts
this.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .dd import unit_product
from .errors import (
    DegenerateRange,
    EllipticHasNoHyp0Lift,
    IndexRoundingUnstable,
)
from .mobius import (
    IDENTITY,
    Matrix2,
    ProjectiveMatrix,
    PslType,
    classify_psl,
    is_parabolic,
    normalize,
)

PI = math.pi

INDEX_GUARD = 1e-6      # deck-index rounding residual
CLASS_GUARD = 1e-9      # extremum-near-multiple-of-pi guard
EQUAL_TOL = 1e-8        # entrywise base tolerance of cover_equal
ROTATION_EPS = 1e-13    # below this the displacement is treated as constant


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


def _lift_at_zero(p: ProjectiveMatrix) -> float:
    return _image_angle(p.rep, 0.0)


def cover_mul(x: CoverElement, y: CoverElement) -> CoverElement:
    """Group law: compose lifts; the deck correction is the integer
    (g_x(g_y(0)) - g_xy(0)) / pi, guarded against rounding instability."""
    base = x.base @ y.base
    raw = (angle_lift(x.base, _lift_at_zero(y.base)) - _lift_at_zero(base)) / PI
    d = round(raw)
    if abs(raw - d) >= INDEX_GUARD:
        raise IndexRoundingUnstable(f"deck index residual {abs(raw - d):.3e}")
    return CoverElement(base, x.lift_index + y.lift_index + d)


def cover_inv(x: CoverElement) -> CoverElement:
    base_inv = x.base.inv()
    raw = angle_lift(x.base, _lift_at_zero(base_inv)) / PI
    d = round(raw)
    if abs(raw - d) >= INDEX_GUARD:
        raise IndexRoundingUnstable(f"deck index residual {abs(raw - d):.3e}")
    return CoverElement(base_inv, -x.lift_index - d)


def cover_conj(g: CoverElement, x: CoverElement) -> CoverElement:
    return cover_mul(cover_mul(g, x), cover_inv(g))


Z = CoverElement(normalize(IDENTITY), -1)  # the deck generator


def z_power(n: int) -> CoverElement:
    return CoverElement(normalize(IDENTITY), -n)


def identity_cover() -> CoverElement:
    return CoverElement(normalize(IDENTITY), 0)


def central_index(x: CoverElement) -> int:
    """n with x = z^n, for x over (approximately) the identity.

    The canonical branch g(0) of a base within tolerance of the identity can
    sit near either 0 or pi, so the deck count must read the homeomorphism,
    not the raw lift index.
    """
    return -(x.lift_index + round(_lift_at_zero(x.base) / PI))


_PROBE_POINT = 0.5615528128088303  # fixed generic direction for comparisons


def cover_equal(x: CoverElement, y: CoverElement) -> bool:
    """Whether two cover elements denote the same lift: projectively equal
    bases and equal homeomorphisms. Robust against the canonical-branch wrap
    at bases fixing the direction 0."""
    if x.base.rep.maxdiff(y.base.rep) >= EQUAL_TOL:
        return False
    hx = angle_lift(x.base, _PROBE_POINT) + x.lift_index * PI
    hy = angle_lift(y.base, _PROBE_POINT) + y.lift_index * PI
    return abs(hx - hy) < 0.5


def with_base(x: CoverElement, base: ProjectiveMatrix) -> CoverElement:
    """Re-home a cover element on a nearby (e.g. recomputed more accurately)
    base, keeping the same homeomorphism; adjusts the lift index if the
    canonical branch wrapped between the two bases."""
    target = angle_lift(x.base, _PROBE_POINT) + x.lift_index * PI
    raw = (target - angle_lift(base, _PROBE_POINT)) / PI
    k = round(raw)
    if abs(raw - k) > 0.2:
        raise IndexRoundingUnstable(
            f"base replacement shifted the homeomorphism by {raw - k:.3f} pi")
    return CoverElement(base, k)


def cover_commutator(x: CoverElement, y: CoverElement) -> CoverElement:
    """Commutator x y x^-1 y^-1. The deck index comes from the float cover
    chain, whose guards tolerate far more noise than entrywise base
    comparisons do; the base is recomputed in compensated arithmetic, because
    commutator intermediates are exactly the cancellation-heavy products
    that leak float noise."""
    rough = cover_mul(cover_mul(x, y), cover_mul(cover_inv(x), cover_inv(y)))
    a, b = x.base.rep, y.base.rep
    return with_base(rough, unit_product(a, b, a.inv(), b.inv()))


def _displacement_extrema(p: ProjectiveMatrix, k: int) -> tuple[float, float]:
    """Closed-form extrema of d(t) = g(t) + k*pi - t over t in [0, pi].

    d'(t) = 1/|rep.(cos t, sin t)|^2 - 1, so interior extrema solve
    alpha + beta cos 2t + gamma sin 2t = 1 with the coefficients below. For
    unit-determinant matrices the min and max of the squared norm multiply to
    1, so solutions always exist; the degenerate R ~ 0 case is a rotation with
    constant displacement. Raises DegenerateRange when the base is too far
    from unit determinant for that to hold.
    """
    a, b, c, d = p.rep.entries()
    alpha = (a * a + b * b + c * c + d * d) / 2.0
    beta = (a * a + c * c - b * b - d * d) / 2.0
    gamma = a * b + c * d
    r = math.hypot(beta, gamma)
    shift = k * PI
    if r < ROTATION_EPS:
        v = _lift_at_zero(p) + shift
        return (v, v)
    u = (1.0 - alpha) / r
    if abs(u) > 1.0 + 1e-9:
        # alpha^2 - r^2 = det^2, so |u| <= 1 for unit-determinant bases
        raise DegenerateRange(
            f"displacement extrema equation has no solution (u = {u!r}); "
            "base is not unit-determinant")
    u = max(-1.0, min(1.0, u))
    psi = math.atan2(gamma, beta)
    phi = math.acos(u)
    values = []
    for tc in ((psi + phi) / 2.0, (psi - phi) / 2.0):
        t = tc % PI
        values.append(angle_lift(p, t) + shift - t)
    return (min(values), max(values))


def _psl_parabolic_sign(p: ProjectiveMatrix) -> int:
    kind = classify_psl(p)
    return 1 if kind is PslType.PARABOLIC_PLUS else -1


def cover_classify(x: CoverElement) -> CoverClass:
    """Component of a cover element, from the displacement range.

    Hyp(n): -n*pi is the unique multiple of pi inside the open range.
    Par(n): the touched endpoint is -n*pi; Plus iff the range touches its max.
    Ell(n): range strictly inside (m*pi, (m+1)*pi); n = -m for m <= -1 and
    n = -(m+1) for m >= 0 (the zero-skip).
    Center(n): identity base with lift index -n.
    """
    if x.base.is_identity():
        return Center(central_index(x))
    kind = classify_psl(x.base)
    rmin, rmax = _displacement_extrema(x.base, x.lift_index)
    if is_parabolic(kind):
        # touched-endpoint offset scales like sqrt of the trace defect, so
        # in-band near-parabolics sit within ~1e-4 of the multiple
        if _psl_parabolic_sign(x.base) > 0:
            m = round(rmax / PI)
            if abs(rmax - m * PI) > 1e-3:
                raise DegenerateRange(
                    f"parabolic range max {rmax!r} off multiple of pi")
            return ParPlus(-m)
        m = round(rmin / PI)
        if abs(rmin - m * PI) > 1e-3:
            raise DegenerateRange(
                f"parabolic range min {rmin!r} off multiple of pi")
        return ParMinus(-m)
    for endpoint in (rmin, rmax):
        if abs(endpoint - PI * round(endpoint / PI)) < CLASS_GUARD:
            raise DegenerateRange(
                f"extremum {endpoint!r} within {CLASS_GUARD} of a multiple "
                f"of pi for a {kind.value} base")
    if kind is PslType.HYPERBOLIC:
        lo = math.ceil(rmin / PI)
        hi = math.floor(rmax / PI)
        if lo != hi:
            raise DegenerateRange(
                f"hyperbolic range ({rmin}, {rmax}) straddles {hi - lo + 1} "
                "multiples of pi")
        return Hyp(-lo)
    # elliptic
    m = math.floor(rmin / PI)
    if math.floor(rmax / PI) != m:
        raise DegenerateRange(
            f"elliptic range ({rmin}, {rmax}) crosses a multiple of pi")
    return Ell(-m) if m <= -1 else Ell(-(m + 1))


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
        return CoverElement(p, -round(_lift_at_zero(p) / PI))
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

    The representative whose first column sits at the unit-circle angle g(0)
    (second entry positive, or zero with positive first entry), negated once
    per odd lift index. Group homomorphism; z maps to -identity.
    """
    m = x.base.rep
    if not (m.c > 0.0 or (m.c == 0.0 and m.a > 0.0)):
        m = -m
    if x.lift_index % 2:
        m = -m
    return m


def sl_trace(x: CoverElement) -> float:
    return sl_projection(x).trace()


def _import_self_check() -> None:
    anchor = cover_classify(CoverElement(normalize(Matrix2(1, 1, 0, 1)), 0))
    if anchor != ParPlus(0):
        raise AssertionError(
            f"orientation self-check failed: canonical unipotent lift "
            f"classified {anchor}")
    if cover_classify(z_power(2)) != Center(2):
        raise AssertionError("central power self-check failed")


_import_self_check()
