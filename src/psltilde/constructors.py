"""Constructive solvers: products and commutators with prescribed cover
components, extremal builders with a prescribed boundary, full (euler, sign)
builders for the supported component families, twist deformations, and seeded
sampling.

All constructors self-verify in the cover before returning. A builder
(build_rep, build_boundary_extremal) verifies each finished attempt once, in
its one relator walk; its gluing twists go unchecked, while twist_deform
asserts on every call. The builders retry every numerical failure with fresh
draws, a failed self-verification included, and raise SolveFailed after
MAX_ATTEMPTS; the solvers raise SelfVerificationError when their own check
fails.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

from .audit import DEFAULT_MARGIN, _check_depth_and_margin, audit_rep
from .cover import (
    EQUAL_TOL,
    Center,
    CoverClass,
    CoverElement,
    Ell,
    Hyp,
    ParMinus,
    ParPlus,
    Z,
    cover_classify,
    cover_commutator,
    cover_conj,
    cover_equal,
    cover_inv,
    cover_mul,
    identity_cover,
    lift_in_class,
    sl_trace,
    special_lift,
)
from .curves import Curves, _braid_images
from .errors import (
    BoundaryElliptic,
    InfeasibleRequest,
    NonUnitDeterminant,
    NotConjugate,
    NotHP,
    NotHyperbolic,
    NotSupported,
    SelfVerificationError,
    SolveFailed,
    TargetOutsideImage,
    UnreachableTarget,
)
from .mobius import (
    Matrix2,
    ProjectiveMatrix,
    PslType,
    _eigenvalues,
    classify_psl,
    conjugator,
    diag,
    normalize,
    rotation,
)
from .sampling import derive_seed, random_hyperbolic, random_parabolic, random_psl
from .surface import (
    Feasibility,
    Representation,
    SignVector,
    SurfacePresentation,
    _one_parameter_power,
    _power_entries,
    _power_frame,
    _twist,
    eval_word,
    invariants,
    mw_bounds,
    sign_vector,
    standard_splits,
)
from .words import CurveWord

BISECT_TOL = 1e-12

# the builders' retries: every numerical failure of one attempt, after which
# a fresh attempt draws new parameters from the same generator; NotConjugate
# comes from a float product that lands at the edge of the parabolic band
MAX_ATTEMPTS = 10
RETRIED = (SolveFailed, NonUnitDeterminant, NotConjugate, NotHP,
           SelfVerificationError)

# the seed of the generator a solver or an extremal build draws from when
# called without one
DEFAULT_SEED = 7 ** 9


def _retried(attempt, what: str) -> Representation:
    """attempt() until it returns, retrying RETRIED failures; after
    MAX_ATTEMPTS, SolveFailed naming what failed and the last error."""
    last_err: Exception | None = None
    for _ in range(MAX_ATTEMPTS):
        try:
            return attempt()
        except RETRIED as e:
            last_err = e
    raise SolveFailed(f"{what} failed repeatedly: {last_err}")


class FactorKind(Enum):
    HYP0 = "Hyp0"
    PAR_PLUS0 = "ParPlus0"
    PAR_MINUS0 = "ParMinus0"
    ELL1 = "Ell1"
    ELL_MINUS1 = "EllMinus1"


_KIND_CLASS = {
    FactorKind.HYP0: Hyp(0),
    FactorKind.PAR_PLUS0: ParPlus(0),
    FactorKind.PAR_MINUS0: ParMinus(0),
    FactorKind.ELL1: Ell(1),
    FactorKind.ELL_MINUS1: Ell(-1),
}


def _product_image_table() -> dict:
    F, H, E = FactorKind, PslType.HYPERBOLIC, PslType.ELLIPTIC
    rows = [
        (F.HYP0, F.HYP0, H, {Hyp(-1), Hyp(0), Hyp(1)}),
        (F.PAR_PLUS0, F.HYP0, H, {Hyp(0), Hyp(1)}),
        (F.PAR_MINUS0, F.HYP0, H, {Hyp(0), Hyp(-1)}),
        (F.PAR_PLUS0, F.PAR_PLUS0, H, {Hyp(1)}),
        (F.PAR_MINUS0, F.PAR_MINUS0, H, {Hyp(-1)}),
        (F.PAR_PLUS0, F.PAR_MINUS0, H, {Hyp(0)}),
        (F.PAR_PLUS0, F.PAR_PLUS0, E, {Ell(1)}),
        (F.PAR_MINUS0, F.PAR_MINUS0, E, {Ell(-1)}),
        (F.PAR_PLUS0, F.ELL1, E, {Ell(1)}),
        (F.PAR_MINUS0, F.ELL1, E, {Ell(1)}),
        (F.HYP0, F.HYP0, E, {Ell(-1), Ell(1)}),
        (F.HYP0, F.PAR_PLUS0, E, {Ell(1)}),
        (F.HYP0, F.PAR_MINUS0, E, {Ell(-1)}),
        (F.HYP0, F.ELL1, E, {Ell(1)}),
        (F.ELL_MINUS1, F.ELL1, E, {Ell(-1), Ell(1)}),
    ]
    return {(frozenset((k1, k2)), want): frozenset(allowed)
            for k1, k2, want, allowed in rows}


# The product-image theorems: for each unordered pair of factor kinds and
# each PSL type of the product, the components that product can land in.
PRODUCT_IMAGE: dict[tuple[frozenset[FactorKind], PslType],
                    frozenset[CoverClass]] = _product_image_table()


# The commutator image: the components a commutator [x, y] can land in.
COMMUTATOR_IMAGE = frozenset({
    Hyp(-1), ParPlus(-1), Ell(-1), ParPlus(0), ParMinus(0), Center(0),
    Hyp(0), Ell(1), ParMinus(1), Hyp(1),
})


def _reachable_table() -> dict[frozenset[FactorKind], frozenset[CoverClass]]:
    # Hyp0 x Hyp0 also reaches, by trace shooting, the parabolic classes in
    # the closure of Hyp(-1), Hyp(0) and Hyp(1)
    table = {frozenset((FactorKind.HYP0,)):
             {ParPlus(-1), ParPlus(0), ParMinus(0), ParMinus(1)}}
    for (pair, _), allowed in PRODUCT_IMAGE.items():
        table.setdefault(pair, set()).update(allowed)
    return {pair: frozenset(classes) for pair, classes in table.items()}


_REACHABLE = _reachable_table()


def _reachable_classes(k1: FactorKind, k2: FactorKind) -> frozenset[CoverClass]:
    """Components a product of the two factor kinds can land in: the
    PRODUCT_IMAGE entries of the pair, plus the parabolic targets the
    Hyp0 x Hyp0 family reaches by trace shooting: ParPlus(-1), ParPlus(0),
    ParMinus(0) and ParMinus(1), those in the closure of Hyp(-1), Hyp(0)
    and Hyp(1)."""
    return _REACHABLE.get(frozenset((k1, k2)), frozenset())


def _flip_matrix(m: Matrix2) -> Matrix2:
    # conjugation by diag(1, -1): the determinant is kept exactly, so the
    # flip of a stored image needs no rescaling
    return Matrix2(m.a, -m.b, -m.c, m.d)


def cover_flip(x: CoverElement) -> CoverElement:
    """Image of x under the orientation-reversing automorphism induced by
    conjugation with diag(1,-1); sends every component to its mirror."""
    m = x.base.rep
    # g(0) = theta in (0, pi) becomes pi - theta when c != 0, so the
    # reflected lift -g(-t) is the flipped canonical lift minus pi
    return CoverElement(ProjectiveMatrix(_flip_matrix(m)),
                        -x.lift_index - (m.c != 0.0))


def _class_flip(cls: CoverClass) -> CoverClass:
    tag = {"ParPlus": "ParMinus", "ParMinus": "ParPlus"}.get(cls.tag, cls.tag)
    return CoverClass(tag, -cls.n)


_BALANCE_GRID = [(k - 16) * 0.25 for k in range(33)]
_REBALANCE_GRID = [(k - 12) * 0.25 for k in range(25)]
_DIAG_GRID = [math.exp((k - 12) * 0.25) for k in range(25)]


def _conj_probe(h: tuple[float, float, float, float], mats,
                bound: float | None = None, ties: bool = False
                ) -> float | None:
    """The searches' conditioning score: max |entry| of (h @ m) @ h.inv()
    over mats (plain entry 4-tuples, which unpack faster than a Matrix2),
    in the same float operations, bit for bit.

    None, early, once the running maximum shows that the score loses
    against bound: when it passes bound, or reaches it and ties is False.
    A NaN maximum loses too. With bound None the score is always formed."""
    a, b, c, d = h
    best = None
    for ma, mb, mc, md in mats:
        pa, pb = a * ma + b * mc, a * mb + b * md
        pc, pd = c * ma + d * mc, c * mb + d * md
        size = max(abs(pa * d + pb * -c), abs(pa * -b + pb * a),
                   abs(pc * d + pd * -c), abs(pc * -b + pd * a))
        if best is None or size > best:
            best = size
            if bound is not None and not (
                    best < bound or ties and best == bound):
                return None
    return best


def _grid_refine(size, grid, steps, move) -> float:
    """Grid point minimizing size, moved at each step to the best of
    move(best, d * step), d = -2..2; like min, keeps the first minimum.

    size(t, bound, ties) scores t as _conj_probe does, None when t loses
    against the best score so far. Points are visited in min's order: a
    later point wins only with a strictly smaller score, and the points at
    d = -2 and -1, which come before the kept point at d = 0, win ties
    against it. The kept point is not scored again. For scores that are
    not NaN this is min's choice."""
    best, score = grid[0], size(grid[0], None, False)
    for t in grid[1:]:
        got = size(t, score, False)
        if got is not None:
            best, score = t, got
    for step in steps:
        kept, moved = best, False
        for d in (-2, -1, 1, 2):
            t = move(kept, d * step)
            got = size(t, score, d < 0 and not moved)
            if got is not None:
                best, score, moved = t, got, True
    return best


def _centralizer_search(m: ProjectiveMatrix, mats, grid, steps) -> float:
    """Time t whose power of the hyperbolic m best conditions mats."""
    frame, mats = _power_frame(m), [g.entries() for g in mats]
    # every power is formed: its _unit_scale can raise NonUnitDeterminant
    return _grid_refine(
        lambda t, bound, ties: _conj_probe(_power_entries(*frame, t), mats,
                                           bound, ties),
        grid, steps, lambda t, off: t + off)


def _diagonal_search(mats, grid, steps) -> float:
    """Scale s whose diag(s) best conditions mats."""
    mats = [g.entries() for g in mats]
    return _grid_refine(
        lambda s, bound, ties: _conj_probe((s, 0.0, 0.0, 1.0 / s), mats,
                                           bound, ties),
        grid, steps, lambda s, x: s * math.exp(x))


def _balance_on_centralizer(x: CoverElement, y: CoverElement,
                            target: CoverElement,
                            rng: random.Random
                            ) -> tuple[CoverElement, CoverElement]:
    """Slide the pair along the target's centralizer (the twist freedom) to
    the best-conditioned position; a small random offset keeps the solution
    family random without letting matrix entries blow up. The product is
    unchanged."""
    if classify_psl(target.base) is not PslType.HYPERBOLIC:
        return x, y
    if abs(target.base.rep.trace()) < 2.02:
        return x, y  # eigenframe too ill-conditioned to help
    best_t = _centralizer_search(target.base, (x.base.rep, y.base.rep),
                                 _BALANCE_GRID, (0.1, 0.03, 0.01))
    best_t += rng.uniform(-0.3, 0.3)
    if abs(best_t) < 1e-12:
        return x, y
    try:
        h = CoverElement(_one_parameter_power(target.base, best_t), 0)
        return cover_conj(h, x), cover_conj(h, y)
    except NonUnitDeterminant:
        return x, y


def _transport_pair(x: CoverElement, y: CoverElement, got: CoverElement,
                    target: CoverElement, rng: random.Random
                    ) -> tuple[CoverElement, CoverElement]:
    """Conjugate a solved pair so that got, its product or commutator,
    becomes the exact target, then rebalance along the centralizer for
    conditioning (plus seeded twist)."""
    g = CoverElement(conjugator(got.base, target.base), 0)
    return _balance_on_centralizer(cover_conj(g, x), cover_conj(g, y),
                                   target, rng)


def _verify_product(x: CoverElement, y: CoverElement, k1: FactorKind,
                    k2: FactorKind, target: CoverElement) -> None:
    if cover_classify(x) != _KIND_CLASS[k1] or cover_classify(y) != _KIND_CLASS[k2]:
        raise SelfVerificationError(
            f"factor kinds off: {cover_classify(x)}, {cover_classify(y)} "
            f"for requested {k1.value}, {k2.value}")
    got = cover_mul(x, y)
    if not cover_equal(got, target):
        raise SelfVerificationError(
            f"product off target: base residual "
            f"{got.base.rep.maxdiff(target.base.rep):.3e}, "
            f"indices {got.lift_index} vs {target.lift_index}")


def _par_par_pair(s1: int, s2: int, tau: float) -> tuple[CoverElement, CoverElement]:
    """Normal-form Par0^s1 x Par0^s2 pair whose product has SL trace tau;
    mixed signs come as (s1, s2) = (+1, -1)."""
    if s1 < 0 and s2 < 0:
        # the orientation flip mirrors components and preserves the SL trace
        xf, yf = _par_par_pair(1, 1, tau)
        return cover_flip(xf), cover_flip(yf)
    if s1 != s2 and tau <= 2.0:
        raise SolveFailed(f"mixed parabolic pair needs trace > 2, got {tau}")
    # (1 1 / 0 1) (1 0 / tau - 2 1) has trace tau; the entry is written
    # -(2 - tau), which is -0.0 at tau = 2, so seeded outputs keep their bytes
    x = special_lift(normalize(Matrix2(1.0, 1.0, 0.0, 1.0)))
    y = special_lift(normalize(Matrix2(1.0, 0.0, -(2.0 - tau), 1.0)))
    return x, y


def _hyp_par_pair(sign: int, tau: float, rng: random.Random
                  ) -> tuple[CoverElement, CoverElement]:
    """Hyp0 x Par0^sign pair with product SL trace tau (closed form)."""
    # keep the hyperbolic factor away from the parabolic boundary: its base
    # becomes a gluing boundary downstream and conditions later conjugations
    m = rng.uniform(1.7, 3.0)
    if sign > 0:
        u = m + 1.0 / m - tau
        a = normalize(Matrix2(m, 0.0, -u, 1.0 / m))
        b = normalize(Matrix2(1.0, 1.0, 0.0, 1.0))
        return special_lift(a), special_lift(b)
    xf, yf = _hyp_par_pair(1, tau, rng)
    return cover_flip(xf), cover_flip(yf)


def _par_ell_pair(sign: int, tau: float) -> tuple[CoverElement, CoverElement]:
    """Par0^sign x Ell1 pair with product SL trace tau in (-2, 2)."""
    if sign > 0:
        cth = (tau + 2.0) / 4.0
    else:
        cth = (tau - 2.0) / 4.0
    th = math.acos(cth)
    a_mag = abs((2.0 * cth - tau) / math.sin(th))
    par = normalize(Matrix2(1.0, a_mag if sign > 0 else -a_mag, 0.0, 1.0))
    ell = lift_in_class(normalize(rotation(th)), Ell(1))
    return special_lift(par), ell


def _hyp_ell_pair(tau: float, rng: random.Random
                  ) -> tuple[CoverElement, CoverElement]:
    m = rng.uniform(1.4, 3.0)
    th = math.acos(tau / (m + 1.0 / m))
    hyp = special_lift(normalize(diag(m)))
    ell = lift_in_class(normalize(rotation(th)), Ell(1))
    return hyp, ell


def _ell_ell_pair(target_n: int, tau: float) -> tuple[CoverElement, CoverElement]:
    """EllMinus1 x Ell1 pair whose product lies in Ell(target_n)."""
    delta = math.acos(max(-1.0, min(1.0, tau / 2.0)))
    alpha = (math.pi - delta) / 2.0
    if target_n == 1:
        theta = alpha + delta
    else:
        theta = alpha
        alpha = theta + delta
    if not (0.0 < alpha < math.pi and 0.0 < theta < math.pi):
        raise SolveFailed(f"rotation angles out of range for trace {tau}")
    ccw = lift_in_class(normalize(rotation(alpha).inv()), Ell(-1))
    cw = lift_in_class(normalize(rotation(theta)), Ell(1))
    return ccw, cw


def _hyp_hyp_pair(tcls: CoverClass, target: CoverElement,
                  rng: random.Random
                  ) -> tuple[CoverElement, CoverElement]:
    """Hyp0 x Hyp0 pair whose product lies in the target's component with the
    target's SL trace. One-parameter trace shooting: with A = diag(m, 1/m)
    and B = [[w, e],[e q, tb - w]] (det 1), the product trace is linear in w.
    The component within the trace-compatible options is corrected by the
    orientation flip; a handful of family variants guards against landing in
    a non-flip-correctable component for trace-minus-2 targets."""
    tau = sl_trace(target)
    flipped = _class_flip(tcls)
    variants = []
    for m in (2.0, 1.5, 3.0, 1.25, 4.0):
        for tb in (3.0, 2.4, 5.0, 7.5):
            for eps in (1.0, -1.0):
                variants.append((m, tb, eps))
    jitter = rng.uniform(0.0, 0.15)
    for m, tb, eps in variants:
        m = m + jitter
        w = (tau - tb / m) / (m - 1.0 / m)
        q = w * (tb - w) - 1.0
        a = normalize(diag(m))
        b = normalize(Matrix2(w, eps, eps * q, tb - w))
        x, y = special_lift(a), special_lift(b)
        cls = cover_classify(cover_mul(x, y))
        if cls == tcls:
            return x, y
        if cls == flipped and flipped != tcls:
            return cover_flip(x), cover_flip(y)
    raise SolveFailed(
        f"trace-shooting family missed component {tcls} (trace {tau})")


_PAR_SIGN = {FactorKind.PAR_PLUS0: 1, FactorKind.PAR_MINUS0: -1}

# factor order of the normal-form pairs: Hyp before Par before Ell, Par+
# before Par-, Ell(-1) before Ell(1)
_NORMAL_ORDER = (FactorKind.HYP0, FactorKind.PAR_PLUS0, FactorKind.PAR_MINUS0,
                 FactorKind.ELL_MINUS1, FactorKind.ELL1)


def _normal_form_pair(k1: FactorKind, k2: FactorKind, target: CoverElement,
                      tcls: CoverClass, rng: random.Random
                      ) -> tuple[CoverElement, CoverElement]:
    """Closed-form pair of the kinds {k1, k2}, in _NORMAL_ORDER, whose
    product is conjugate to the target."""
    F = FactorKind
    a, b = sorted((k1, k2), key=_NORMAL_ORDER.index)
    tau = sl_trace(target)
    if (a, b) == (F.HYP0, F.HYP0):
        return _hyp_hyp_pair(tcls, target, rng)
    if a in _PAR_SIGN and b in _PAR_SIGN:
        return _par_par_pair(_PAR_SIGN[a], _PAR_SIGN[b], tau)
    if a == F.HYP0 and b in _PAR_SIGN:
        return _hyp_par_pair(_PAR_SIGN[b], tau, rng)
    if a in _PAR_SIGN and b == F.ELL1:
        return _par_ell_pair(_PAR_SIGN[a], tau)
    if (a, b) == (F.HYP0, F.ELL1):
        return _hyp_ell_pair(tau, rng)
    if (a, b) == (F.ELL_MINUS1, F.ELL1):
        return _ell_ell_pair(tcls.n, tau)
    raise UnreachableTarget(f"no solver for ({k1.value}, {k2.value})")


def solve_product(k1: FactorKind, k2: FactorKind, target: CoverElement,
                  rng: random.Random | None = None
                  ) -> tuple[CoverElement, CoverElement]:
    """Pair (x, y) with the requested component kinds and x*y = target
    exactly (base within 1e-8, deck index exact): the normal-form pair
    transported onto the target, swapped to (x y x^-1, x) when the
    requested order reverses the normal form's, and verified.
    UnreachableTarget outside _reachable_classes of the pair. Without rng
    the free parameters come from random.Random(DEFAULT_SEED)."""
    tcls = cover_classify(target)
    if tcls not in _reachable_classes(k1, k2):
        raise UnreachableTarget(
            f"{tcls} not reachable from ({k1.value}, {k2.value})")
    rng = rng or random.Random(DEFAULT_SEED)
    x, y = _normal_form_pair(k1, k2, target, tcls, rng)
    x, y = _transport_pair(x, y, cover_mul(x, y), target, rng)
    if _NORMAL_ORDER.index(k1) > _NORMAL_ORDER.index(k2):
        x, y = cover_conj(x, y), x
    _verify_product(x, y, k1, k2, target)
    return x, y


def _bisect(f, lo: float, hi: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise SolveFailed(f"no bracket on [{lo}, {hi}]: f = ({flo}, {fhi})")
    while hi - lo > BISECT_TOL:
        mid = (lo + hi) / 2.0
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return (lo + hi) / 2.0


def _triple_pair(x: float, y: float, z: float) -> tuple[Matrix2, Matrix2]:
    """Unit-determinant pair with traces (x, y) and product trace z; needs
    the discriminant of the c-slice to be nonnegative (callers arrange it)."""
    a = Matrix2(x, -1.0, 1.0, 0.0)
    # B = [[c, d], [e, f]]: f = y - c, e = x c + d - z, det = 1
    c = math.sqrt(max(z - 2.0, 0.0)) if x == y == z else None
    if c is not None:
        d = 1.0
        e = x * c + d - z
        b = Matrix2(c, d, e, y - c)
    else:
        c = x  # c = x slice: d^2 + (xc - z) d - c(y - c) + 1 = 0
        pcoef = x * c - z
        disc = pcoef * pcoef + 4.0 * (c * (y - c) - 1.0)
        if disc < 0:
            raise SolveFailed(f"triple ({x},{y},{z}) not realizable on the slice")
        d = (-pcoef + math.sqrt(disc)) / 2.0
        e = x * c + d - z
        b = Matrix2(c, d, e, y - c)
    det = b.det()
    if abs(det - 1.0) > 1e-9:
        raise SolveFailed(f"triple realization determinant {det}")
    return a, b


def solve_commutator(target: CoverElement, rng: random.Random | None = None
                     ) -> tuple[CoverElement, CoverElement]:
    """Pair (x, y) with [x, y] = target exactly. TargetOutsideImage for
    components outside the commutator image. Without rng the free
    parameters come from random.Random(DEFAULT_SEED)."""
    tcls = cover_classify(target)
    if tcls not in COMMUTATOR_IMAGE:
        raise TargetOutsideImage(f"{tcls} is outside the commutator image")
    if tcls == Center(0):
        ident = identity_cover()
        return ident, ident
    rng = rng or random.Random(DEFAULT_SEED)
    kappa = sl_trace(target)
    if tcls in (Hyp(1), Hyp(-1)):
        # equal-trace slice: t^3 - 3 t^2 + (2 + kappa) = 0 has a unique root
        # above 3 when kappa < -2
        hi = 4.0
        poly = lambda t: t ** 3 - 3.0 * t ** 2 + (2.0 + kappa)
        while poly(hi) <= 0:
            hi *= 2.0
        t = _bisect(poly, 3.0, hi)
        a, b = _triple_pair(t, t, t)
    elif tcls in (ParPlus(0), ParMinus(0)):
        m = rng.uniform(1.5, 2.5)
        w = -1.0 if tcls == ParPlus(0) else 1.0
        a, b = Matrix2(1.0, w, 0.0, 1.0), diag(m)
    else:
        # generic slice x = y = 3: z^2 - 9 z + (16 - kappa) = 0
        disc = 17.0 + 4.0 * kappa
        if disc < 0:
            raise SolveFailed(f"no generic triple for commutator trace {kappa}")
        zt = (9.0 - math.sqrt(disc)) / 2.0
        a, b = _triple_pair(3.0, 3.0, zt)
    x = CoverElement(normalize(a), 0)
    y = CoverElement(normalize(b), 0)
    comm = cover_commutator(x, y)
    if cover_classify(comm) == _class_flip(tcls) and tcls != _class_flip(tcls):
        x, y = cover_flip(x), cover_flip(y)
        comm = cover_commutator(x, y)
    if cover_classify(comm) != tcls:
        raise SolveFailed(
            f"commutator landed in {cover_classify(comm)}, wanted {tcls}")
    x, y = _transport_pair(x, y, comm, target, rng)
    comm = cover_commutator(x, y)
    if not cover_equal(comm, target):
        raise SelfVerificationError(
            f"commutator off target by {comm.base.rep.maxdiff(target.base.rep):.3e}")
    return x, y


def _check_extremal(rep: Representation, boundary: ProjectiveMatrix) -> None:
    surf = rep.surface
    n, s = invariants(rep)
    if n != -surf.chi:
        raise SelfVerificationError(f"extremal build got e = {n}, chi = {surf.chi}")
    if s.entries[:-1] != (1,) * (surf.punctures - 1) or s.entries[-1] != 0:
        raise SelfVerificationError(f"extremal build got signs {s.entries}")
    got = rep.peripheral_image(surf.punctures)
    if got.rep.maxdiff(boundary.rep) >= EQUAL_TOL:
        raise SelfVerificationError(
            f"boundary image off by {got.rep.maxdiff(boundary.rep):.3e}")


def build_boundary_extremal(genus: int, punctures: int,
                            boundary: ProjectiveMatrix,
                            rng: random.Random | None = None
                            ) -> Representation:
    """Representation with extremal Euler class -chi sending the last
    primitive peripheral to the given hyperbolic element and every other one
    to a positive parabolic. Recursive pants peeling; every level solves a
    product or commutator with a prescribed component, runs against a
    diagonal model of its boundary, and rebalances before conjugating into
    place so conditioning does not chain through the peel depth. Without
    rng the draws come from random.Random(DEFAULT_SEED)."""
    if classify_psl(boundary) is not PslType.HYPERBOLIC:
        raise SolveFailed("extremal boundary must be hyperbolic")
    surf = SurfacePresentation(genus, punctures)
    rng = rng or random.Random(DEFAULT_SEED)

    def attempt() -> Representation:
        rep = _rebalance_along_boundary(
            _extremal_recursive(surf, boundary, rng), boundary)
        _check_extremal(rep, boundary)
        return rep

    return _retried(attempt, "extremal assembly")


def _diagonal_model(boundary: ProjectiveMatrix
                    ) -> tuple[ProjectiveMatrix, ProjectiveMatrix]:
    """(model, g) with g model g^-1 = boundary, model diagonal and g shrunk
    along the model's centralizer."""
    model = normalize(diag(_eigenvalues(boundary.trace_abs())[0]))
    g = conjugator(model, boundary).rep
    s = math.sqrt(math.sqrt(max(abs(g.b), abs(g.d), 1e-300) /
                            max(abs(g.a), abs(g.c), 1e-300)))
    return model, normalize(g @ diag(s))


def _rebalance_along_boundary(rep: Representation,
                              boundary: ProjectiveMatrix) -> Representation:
    """Conjugate by elements of the boundary's one-parameter centralizer to
    minimize generator entry sizes; the boundary image is preserved."""
    if abs(boundary.rep.trace()) < 2.02:
        return rep
    best = _centralizer_search(boundary, [m.rep for m in rep.images.values()],
                               _REBALANCE_GRID, (0.1, 0.03))
    if abs(best) < 1e-12:
        return rep
    return rep.conjugate(_one_parameter_power(boundary, best))


def _rebalance_diag(rep: Representation) -> Representation:
    """Conjugate by a diagonal element minimizing the generator entry sizes;
    preserves any diagonal boundary image exactly."""
    best = _diagonal_search([m.rep for m in rep.images.values()],
                            _DIAG_GRID, (0.1, 0.03))
    if abs(best - 1.0) < 1e-12:
        return rep
    return rep.conjugate(normalize(diag(best)))


def _extremal_recursive(surf: SurfacePresentation,
                        boundary: ProjectiveMatrix,
                        rng: random.Random) -> Representation:
    model, gmove = _diagonal_model(boundary)
    rep = _rebalance_diag(_extremal_core(surf, model, rng))
    return rep.conjugate(gmove)


def _handles(surf: SurfacePresentation, target: CoverElement,
             rng: random.Random) -> Representation:
    """One-punctured genus-g representation whose handle product
    [a1, b1] ... [ag, bg] is the target: a commutator solve for g = 1;
    otherwise a pants with boundaries x^-1, y^-1 for a Hyp0 x Hyp0 product
    x y = target, an extremal one-holed torus bounded by x^-1 carrying the
    first handle and an extremal genus-(g-1) piece bounded by y^-1 the
    others."""
    g = surf.genus
    if g == 1:
        x, y = solve_commutator(target, rng)
        return Representation(surf, {"a1": x.base, "b1": y.base})
    x, y = solve_product(FactorKind.HYP0, FactorKind.HYP0, target, rng)
    sub1 = _extremal_recursive(SurfacePresentation(1, 1), x.base.inv(), rng)
    sub2 = _extremal_recursive(SurfacePresentation(g - 1, 1), y.base.inv(),
                               rng)
    images = {"a1": sub1.images["a1"], "b1": sub1.images["b1"]}
    for j in range(1, g):
        images[surf.a(j + 1)] = sub2.images[sub2.surface.a(j)]
        images[surf.b(j + 1)] = sub2.images[sub2.surface.b(j)]
    return Representation(surf, images)


def _extremal_core(surf: SurfacePresentation,
                   boundary: ProjectiveMatrix,
                   rng: random.Random) -> Representation:
    g, p = surf.genus, surf.punctures
    target = lift_in_class(boundary.inv(), Hyp(1))
    if p == 1:
        return _handles(surf, target, rng)
    if (g, p) == (0, 3):
        x, y = solve_product(FactorKind.PAR_PLUS0, FactorKind.PAR_PLUS0,
                             target, rng)
        return Representation(surf, {"c1": x.base, "c2": y.base})
    x, y = solve_product(FactorKind.HYP0, FactorKind.PAR_PLUS0, target, rng)
    sub = _extremal_recursive(SurfacePresentation(g, p - 1),
                              x.base.inv(), rng)
    images = dict(sub.images)
    images[surf.c(p - 1)] = y.base
    return Representation(surf, images)


def _peel_last(surf: SurfacePresentation, last_sign: int,
               rng: random.Random) -> Representation:
    """Type-preserving representation with every puncture positive except
    the last, which carries last_sign: the pants holding the last puncture
    carries Euler class 1 (last_sign +1, e = -chi, Fuchsian by
    extremality) or 0 (last_sign -1, e = -chi - 1), and its complement is
    extremal."""
    g, p = surf.genus, surf.punctures
    if (g, p) == (0, 3) and last_sign > 0:
        u = rng.uniform(1.0, 3.0)
        rep = Representation(surf, {
            "c1": normalize(Matrix2(1.0, u, 0.0, 1.0)),
            "c2": normalize(Matrix2(1.0, 0.0, -4.0 / u, 1.0)),
        })
        return rep.conjugate(random_psl(rng, spread=0.4))
    if p >= 2:
        d = random_hyperbolic(rng, 2.4, 4.5, spread=0.5)
        rest = _extremal_recursive(SurfacePresentation(g, p - 1), d, rng)
        target = lift_in_class(d, Hyp(1 if last_sign > 0 else 0))
        last = FactorKind.PAR_PLUS0 if last_sign > 0 else FactorKind.PAR_MINUS0
        x, _ = solve_product(FactorKind.PAR_PLUS0, last, target, rng)
        images = dict(rest.images)
        images[surf.c(p - 1)] = x.base
        return Representation(surf, images)
    # p == 1: the handle product is the inverse of the puncture's lift, times
    # z for e = -chi: ParMinus(1) or ParPlus(0)
    ct = special_lift(random_parabolic(rng, last_sign))
    target = cover_inv(ct)
    if last_sign > 0:
        target = cover_mul(Z, target)
    return _handles(surf, target, rng)


def _precompose(rep: Representation, images: dict[str, CurveWord]
                ) -> Representation:
    new_images = {
        gen: eval_word(rep, images[gen]) for gen in rep.surface.free_generators()
    }
    return Representation(rep.surface, new_images)


def pgl_flip(rep: Representation) -> Representation:
    """Conjugate every image by the orientation-reversing diag(1,-1);
    negates the Euler class and the sign vector."""
    return Representation(rep.surface, {
        gen: ProjectiveMatrix(_flip_matrix(m.rep))
        for gen, m in rep.images.items()
    })


@dataclass(frozen=True)
class BuildRequest:
    genus: int
    punctures: int
    euler: int
    signs: tuple[int, ...]
    seed: int = 0

    def surface(self) -> SurfacePresentation:
        return SurfacePresentation(self.genus, self.punctures)

    def sign_vector(self) -> SignVector:
        return SignVector(tuple(self.signs))


def _check_feasible(req: BuildRequest) -> None:
    chi = req.surface().chi  # refuses a surface that does not exist
    sv = req.sign_vector()
    if len(sv) != req.punctures:
        raise InfeasibleRequest("sign vector length != puncture count")
    verdict = mw_bounds(req.genus, req.punctures, req.euler, sv)
    if verdict is Feasibility.INFEASIBLE:
        raise InfeasibleRequest(
            f"euler {req.euler} outside [{chi + sv.p_plus}, {-chi - sv.p_minus}]")
    if verdict is Feasibility.UNKNOWN:
        # type-preserving signs outside the inequality: only the extremal
        # components exist, and their sign is uniform matching sgn(e)
        uniform_plus = sv.p_plus == req.punctures
        uniform_minus = sv.p_minus == req.punctures
        if not ((req.euler == -chi and uniform_plus)
                or (req.euler == chi and uniform_minus)):
            raise InfeasibleRequest(
                f"euler {req.euler} outside the generalized Milnor-Wood "
                f"bounds [{chi + sv.p_plus}, {-chi - sv.p_minus}] and not an "
                "extremal uniform-sign component")


def build_rep(req: BuildRequest) -> Representation:
    """Representation with the requested Euler class and sign vector.

    Supported families: (i) extremal euler = -chi with all-plus signs (and
    the mirrored all-minus at chi), (ii) the counterexample components
    euler = -chi - 1 with exactly one negative puncture (and the mirror at
    chi + 1 with exactly one positive puncture). A mirrored family is built
    as pgl_flip of its positive family's untwisted build, with the same seed
    and the same twists, so it fails exactly when that build fails. The
    finished build is verified once against the requested euler and signs,
    which puts it inside Milnor-Wood; free parameters and gluing twists are
    drawn from the seeded generator. An attempt that fails numerically
    (RETRIED) is followed by a fresh one, and after MAX_ATTEMPTS the request
    raises SolveFailed.
    """
    _check_feasible(req)
    sv = req.sign_vector()
    if sv.p_zero:
        raise NotSupported("signs with hyperbolic punctures are not built here")
    surf = req.surface()
    chi = surf.chi
    rng = random.Random(derive_seed(req.seed, 0))
    return _retried(lambda: _build_rep_once(req, sv, surf, chi, rng),
                    "component build")


def _build_rep_once(req: BuildRequest, sv: SignVector,
                    surf: SurfacePresentation, chi: int,
                    rng: random.Random) -> Representation:
    # the mirrored families (e = chi all minus, e = chi + 1 with one plus)
    # are the orientation flips of the positive ones: build the positive
    # family untwisted, flip it, then twist and check the requested (e, s)
    flip = (req.euler, sv.p_plus) in ((chi, 0), (chi + 1, 1))
    euler = -req.euler if flip else req.euler
    minus = sv.p_plus if flip else sv.p_minus
    if euler == -chi and minus == 0:
        rep = _peel_last(surf, 1, rng)
    elif euler == -chi - 1 and minus == 1:
        if chi > -2:
            raise NotSupported("counterexample components need chi <= -2")
        rep = _peel_last(surf, -1, rng)
        neg = sv.entries.index(1 if flip else -1)
        for slot in range(surf.punctures - 1, neg, -1):
            rep = _precompose(rep, _braid_images(surf, slot))
    else:
        raise NotSupported(
            f"(euler, signs) = ({req.euler}, {req.signs}) is outside the "
            "supported families")
    if flip:
        rep = pgl_flip(rep)
    # twists fix e and the signs, so only the finished build is checked; a
    # request that passed _check_feasible and matches lies in [chi, -chi]
    for split in standard_splits(surf):
        try:
            rep = _twist(rep, split, rng.uniform(-0.4, 0.4))
        except (BoundaryElliptic, NotHyperbolic, NonUnitDeterminant):
            continue  # non-hyperbolic splitting image: no twist along it
    got_e, got_s = invariants(rep)
    if got_e != req.euler or got_s.entries != sv.entries:
        raise SelfVerificationError(
            f"built (e, s) = ({got_e}, {got_s.entries}), requested "
            f"({req.euler}, {sv.entries})")
    return rep


def build_negative_control() -> Representation:
    """Four-punctured-sphere audit sensitivity fixture: type-preserving, but
    the curve around the first two punctures maps to an elliptic element of
    trace exactly zero. The third peripheral is a positive parabolic found by
    bisection on its axis angle so that the implied last peripheral is
    parabolic as well."""
    c1 = normalize(Matrix2(1.0, 1.0, 0.0, 1.0))
    c2 = normalize(Matrix2(1.0, 0.0, -2.0, 1.0))
    m = c1.rep @ c2.rep  # trace exactly 0

    def c3_at(psi: float) -> Matrix2:
        cp, sp = math.cos(psi), math.sin(psi)
        return Matrix2(1.0 - cp * sp, cp * cp, -sp * sp, 1.0 + cp * sp)

    psi = _bisect(lambda psi: (m @ c3_at(psi)).trace() + 2.0, 1.8, 2.2)
    rep = Representation(SurfacePresentation(0, 4),
                         {"c1": c1, "c2": c2, "c3": normalize(c3_at(psi))})
    s = sign_vector(rep)  # also asserts all peripherals parabolic
    if s.p_zero:
        raise SelfVerificationError("negative control must be type-preserving")
    return rep


def sample(req: BuildRequest, count: int, depth: int = 4,
           margin: float = DEFAULT_MARGIN):
    """count independent builds with counter-derived seeds, each audited on
    the enumerated curves at the given depth; returns (reps, reports,
    summary), with reports[i] the AuditReport of reps[i]."""
    if count < 0:
        raise ValueError(f"count {count} must be non-negative")
    _check_depth_and_margin(depth, margin)
    _check_feasible(req)
    reps, reports = [], []
    passes = 0
    curves = None
    for i in range(count):
        child = BuildRequest(req.genus, req.punctures, req.euler, req.signs,
                             derive_seed(req.seed, i + 1))
        rep = build_rep(child)
        reps.append(rep)
        if curves is None:
            curves = Curves.enumerated(rep.surface, depth)
        report = audit_rep(rep, depth, margin, curves=curves)
        reports.append(report)
        if not report.violations:
            passes += 1
    summary = {
        "count": count,
        "np_pass": passes,
        "fraction": (passes / count) if count else None,
        "depth": depth,
        "curves": len(curves) if curves is not None else 0,
    }
    return reps, reports, summary
