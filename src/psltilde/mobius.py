"""Exact-tolerance 2x2 real matrix layer for PSL(2,R).

Matrices act on the projective line of directions through the origin; the
direction with angle x in [0, pi) is the line through (cos x, sin x).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

from .errors import NonUnitDeterminant, NotConjugate, NotHyperbolic

DET_PRE_TOL = 1e-6      # |det - 1| allowed before normalization
PAR_BAND = 1e-8         # |trace| within this of 2 classifies parabolic
IDENTITY_TOL = 1e-9
CONJ_TOL = 1e-8

ALL_DIRECTIONS = "all"  # fixed_directions result for the identity

_SPLITTER = 134217729.0  # 2**27 + 1
_DET_ULPS = 4.0 * 2.0 ** -53  # rescale-skip band, relative to |ad| + |bc|


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Error-free product: a * b == p + err exactly (Dekker)."""
    p = a * b
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


class Matrix2(namedtuple("Matrix2", "a b c d")):
    """Row-major 2x2 real matrix (a b / c d) of floats, an immutable
    4-tuple compared by value."""

    __slots__ = ()

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def trace(self) -> float:
        return self.a + self.d

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Matrix2":
        return Matrix2(-self.a, -self.b, -self.c, -self.d)

    def inv(self) -> "Matrix2":
        # valid for det 1; callers keep matrices unit-determinant
        return Matrix2(self.d, -self.b, -self.c, self.a)

    def scale(self, s: float) -> "Matrix2":
        return Matrix2(self.a * s, self.b * s, self.c * s, self.d * s)

    def apply(self, vx: float, vy: float) -> tuple[float, float]:
        return (self.a * vx + self.b * vy, self.c * vx + self.d * vy)

    def entries(self) -> tuple[float, float, float, float]:
        return tuple(self)

    def maxdiff(self, other: "Matrix2") -> float:
        return max(
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        )


IDENTITY = Matrix2(1.0, 0.0, 0.0, 1.0)


def rotation(theta: float) -> Matrix2:
    """Rotation translating direction angles by -theta (the exponential of
    theta * (0 1 / -1 0), the paper-standard elliptic one-parameter family)."""
    c, s = math.cos(theta), math.sin(theta)
    return Matrix2(c, s, -s, c)


def diag(m: float) -> Matrix2:
    return Matrix2(m, 0.0, 0.0, 1.0 / m)


class _filled_once:
    """A lazy attribute: its first read stores the method's value in the
    instance's __dict__, where every later read finds it without a call.
    functools.cached_property does the same, but takes a lock on each first
    read on CPython 3.11."""

    def __init__(self, method):
        self.method, self.name, self.__doc__ = (method, method.__name__,
                                                method.__doc__)

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


@dataclass(frozen=True)
class ProjectiveMatrix:
    """Canonical-sign unit-determinant representative of a PSL(2,R) element.

    The constructor enforces the sign: rep is negated unless the first
    nonzero entry in scan order (a, b, c, d) is strictly positive, so a
    matrix and its negation construct the same element. It does not
    rescale; normalize() brings a determinant near 1 to 1 first.
    """

    rep: Matrix2

    def __post_init__(self):
        m = self.rep
        if not (m.a or m.b or m.c or m.d) > 0.0:
            object.__setattr__(self, "rep", -m)

    @_filled_once
    def int_rep(self) -> IntMatrix:
        """rep as an exact integer matrix (int_matrix), converted once."""
        return int_matrix(self.rep)

    def trace_abs(self) -> float:
        return abs(self.rep.trace())

    def inv(self) -> "ProjectiveMatrix":
        return normalize(self.rep.inv())

    def __matmul__(self, other: "ProjectiveMatrix") -> "ProjectiveMatrix":
        return normalize(self.rep @ other.rep)

    def is_identity(self) -> bool:
        return self.rep.maxdiff(IDENTITY) < IDENTITY_TOL


class PslType(Enum):
    HYPERBOLIC = "Hyperbolic"
    PARABOLIC_PLUS = "ParabolicPlus"
    PARABOLIC_MINUS = "ParabolicMinus"
    ELLIPTIC = "Elliptic"
    IDENTITY = "Identity"


def _unit_scale(a, b, c, d) -> float:
    """Factor normalize() scales (a b / c d) by, 1.0 when it leaves the
    matrix unscaled; raises NonUnitDeterminant as normalize() does."""
    p1, e1 = _two_prod(a, d)
    p2, e2 = _two_prod(b, c)
    det = (p1 - p2) + (e1 - e2)
    # written so that a NaN determinant (a non-finite entry) fails it too
    if not (det > 0.0 and abs(det - 1.0) < DET_PRE_TOL):
        raise NonUnitDeterminant(f"determinant {det!r} not acceptably close to 1")
    if abs(det - 1.0) > _DET_ULPS * (abs(p1) + abs(p2)):
        return 1.0 / math.sqrt(det)
    return 1.0


def normalize(m: Matrix2) -> ProjectiveMatrix:
    """Rescale to determinant 1; the constructor picks the sign.

    Raises NonUnitDeterminant for det <= 0, |det - 1| >= DET_PRE_TOL or a
    non-finite entry: this layer repairs float drift, not arbitrary GL
    matrices. The determinant is read with compensated products, and a
    matrix whose determinant is 1 to within its rounding error is left
    unscaled, so normalizing is a projection.
    """
    k = _unit_scale(m.a, m.b, m.c, m.d)
    return ProjectiveMatrix(m if k == 1.0 else m.scale(k))


# -- exact integer products ---------------------------------------------------
#
# Every float is an integer times a power of two, so a float matrix is an
# integer matrix over one power of two. The canonical unit-determinant
# representative does not see positive scalars, so products are formed in
# Python integers with the powers of two dropped (an inverse is then the
# adjugate), and only the finished product's entries are rounded.

IntMatrix = tuple[int, int, int, int]  # row-major (a b / c d)


def int_matrix(entries) -> IntMatrix:
    """The four floats (a, b, c, d) as integers over their common power of
    two."""
    a, b, c, d = entries
    na, da = float(a).as_integer_ratio()
    nb, db = float(b).as_integer_ratio()
    nc, dc = float(c).as_integer_ratio()
    nd, dd = float(d).as_integer_ratio()
    den = max(da, db, dc, dd)
    return (na * (den // da), nb * (den // db), nc * (den // dc),
            nd * (den // dd))


def _adjugate(x: IntMatrix) -> IntMatrix:
    a, b, c, d = x
    return (d, -b, -c, a)


def _mul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _trace_det(x: IntMatrix) -> tuple[int, int]:
    a, b, c, d = x
    det = a * d - b * c
    if det <= 0:
        raise NonUnitDeterminant("integer matrix without positive determinant")
    return a + d, det


def _sqrt_ratio(n: int, d: int) -> float:
    """sqrt(n/d) for integers n >= 0, d > 0, to within an ulp in the normal
    float range; inf past it. Far from 1, n/d is first brought near 1 by a
    power of 4, so no quotient overflows or underflows and no big int goes
    through float(). Within 4^500 of 1, n/d and its root are normal floats,
    on which that scaling rounds alike, so the quotient is taken as it is."""
    if not n:
        return 0.0
    s = (d.bit_length() - n.bit_length()) // 2  # n * 4^s / d is in [1/4, 4]
    if -500 < s < 500:
        return math.sqrt(n / d)
    r = math.sqrt((n << 2 * s) / d if s >= 0 else n / (d << -2 * s))
    try:
        return math.ldexp(r, -s)
    except OverflowError:
        return math.inf


def unit_entries(x: IntMatrix) -> tuple[float, float, float, float]:
    """Entries of the canonical unit-determinant representative: x/sqrt(det),
    negated if needed so that the first nonzero of a, b, c is positive.
    Negating the integers, not the floats, keeps a zero entry +0.0."""
    _, det = _trace_det(x)
    a, b, c, d = x
    if (a or b or c or d) < 0:  # the first nonzero of a, b, c, else d
        a, b, c, d = -a, -b, -c, -d
    # each sign is read off the integer, which float() could overflow on
    ra, rb = _sqrt_ratio(a * a, det), _sqrt_ratio(b * b, det)
    rc, rd = _sqrt_ratio(c * c, det), _sqrt_ratio(d * d, det)
    return (ra if a >= 0 else -ra, rb if b >= 0 else -rb,
            rc if c >= 0 else -rc, rd if d >= 0 else -rd)


def _unit_rep(x: IntMatrix) -> ProjectiveMatrix:
    """The canonical representative of x, each entry rounded once."""
    return ProjectiveMatrix(Matrix2(*unit_entries(x)))


def classify_psl(p: ProjectiveMatrix) -> PslType:
    """Type of a PSL(2,R) element, with the parabolic sign read off the
    trace-+2 unit-determinant lift: sign = sgn(a12) if a12 != 0 else -sgn(a21).
    """
    if p.is_identity():
        return PslType.IDENTITY
    tr = p.rep.trace()
    if abs(tr) > 2.0 + PAR_BAND:
        return PslType.HYPERBOLIC
    if abs(tr) < 2.0 - PAR_BAND:
        return PslType.ELLIPTIC
    m = _positive_trace_rep(p)
    if m.b != 0.0:
        sign = 1.0 if m.b > 0 else -1.0
    else:
        sign = -1.0 if m.c > 0 else 1.0
    return PslType.PARABOLIC_PLUS if sign > 0 else PslType.PARABOLIC_MINUS


def is_parabolic(t: PslType) -> bool:
    return t in (PslType.PARABOLIC_PLUS, PslType.PARABOLIC_MINUS)


def _angle_of(vx: float, vy: float) -> float:
    return math.atan2(vy, vx) % math.pi


def _positive_trace_rep(p: ProjectiveMatrix) -> Matrix2:
    return p.rep if p.rep.trace() > 0 else -p.rep


def _eigenvalues(tr: float) -> tuple[float, float]:
    """Expanding and contracting eigenvalues of a hyperbolic of trace
    tr > 2."""
    disc = math.sqrt(tr * tr - 4.0)
    return (tr + disc) / 2.0, (tr - disc) / 2.0


def _eigenvector(m: Matrix2, lam: float) -> tuple[float, float]:
    """Kernel direction of m - lam I, read off its larger row."""
    v1 = (m.b, lam - m.a)
    v2 = (lam - m.d, m.c)
    return v1 if math.hypot(*v1) >= math.hypot(*v2) else v2


def fixed_directions(p: ProjectiveMatrix):
    """Angles t in [0, pi) with p . (cos t, sin t) projectively fixed.

    Two for hyperbolic, one for parabolic, none for elliptic; the identity
    returns the sentinel ALL_DIRECTIONS.
    """
    kind = classify_psl(p)
    if kind is PslType.IDENTITY:
        return ALL_DIRECTIONS
    if kind is PslType.ELLIPTIC:
        return []
    m = _positive_trace_rep(p)
    if kind is PslType.HYPERBOLIC:
        return sorted(_angle_of(*_eigenvector(m, lam))
                      for lam in _eigenvalues(m.trace()))
    return [_angle_of(*_eigenvector(m, 1.0))]


def _strictly_inside_arc(x: float, a: float, b: float) -> bool:
    # circle of circumference pi, going from a towards b in increasing angle
    span = (b - a) % math.pi
    off = (x - a) % math.pi
    return 0.0 < off < span


def axes_cross(p: ProjectiveMatrix, q: ProjectiveMatrix) -> bool:
    """True iff the fixed-direction pairs of two hyperbolics strictly
    interleave on the direction circle."""
    if classify_psl(p) is not PslType.HYPERBOLIC:
        raise NotHyperbolic("first argument is not hyperbolic")
    if classify_psl(q) is not PslType.HYPERBOLIC:
        raise NotHyperbolic("second argument is not hyperbolic")
    a1, a2 = fixed_directions(p)
    b1, b2 = fixed_directions(q)
    inside = sum(1 for x in (b1, b2) if _strictly_inside_arc(x, a1, a2))
    return inside == 1


def _hyperbolic_frame(p: ProjectiveMatrix) -> Matrix2:
    """Unit-determinant matrix whose columns are the expanding and
    contracting eigendirections of p, in that order."""
    m = _positive_trace_rep(p)
    cols = []
    for lam in _eigenvalues(m.trace()):
        v = _eigenvector(m, lam)
        n = math.hypot(*v)
        cols.append((v[0] / n, v[1] / n))
    f = Matrix2(cols[0][0], cols[1][0], cols[0][1], cols[1][1])
    det = f.det()
    if det < 0:
        f = Matrix2(f.a, -f.b, f.c, -f.d)
        det = -det
    return f.scale(1.0 / math.sqrt(det))


def _intertwiner_null_basis(p: Matrix2, q: Matrix2) -> list[tuple[float, ...]]:
    """Two-dimensional null space of G -> G p - q G (vectorized 4x4 system)
    for conjugate or anti-conjugate pairs; empty when the traces genuinely
    differ."""
    rows = [
        [p.a - q.a, p.c, -q.b, 0.0],
        [p.b, p.d - q.a, 0.0, -q.b],
        [-q.c, 0.0, p.a - q.d, p.c],
        [0.0, -q.c, p.b, p.d - q.d],
    ]
    scale = max(max(abs(v) for v in row) for row in rows) or 1.0
    tol = 1e-9 * scale
    m = [row[:] for row in rows]
    pivots = []
    r = 0
    for col in range(4):
        piv = max(range(r, 4), key=lambda i: abs(m[i][col]))
        if abs(m[piv][col]) <= tol:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][col]
        m[r] = [v / lead for v in m[r]]
        for i in range(4):
            if i != r and m[i][col] != 0.0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == 4:
            break
    free = [c for c in range(4) if c not in pivots]
    basis = []
    for fc in free:
        v = [0.0] * 4
        v[fc] = 1.0
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(tuple(v))
    return basis


def conjugator(p: ProjectiveMatrix, q: ProjectiveMatrix) -> ProjectiveMatrix:
    """G with G p G^-1 = q, solved exactly on the intertwiner space.

    The solutions of G p = q G form a two-dimensional space for same-trace
    pairs; conjugacy in PSL(2,R) holds iff the determinant form is positive
    somewhere on it, which also rejects parabolic sign mismatches and
    opposite elliptic rotation senses. Raises NotConjugate otherwise.
    """
    tp, tq = classify_psl(p), classify_psl(q)
    if tp is not tq:
        raise NotConjugate(f"type mismatch: {tp.value} vs {tq.value}")
    if tp is PslType.IDENTITY:
        return normalize(IDENTITY)
    if tp in (PslType.HYPERBOLIC, PslType.ELLIPTIC):
        if abs(p.trace_abs() - q.trace_abs()) >= CONJ_TOL:
            raise NotConjugate(
                f"trace mismatch: {p.trace_abs()} vs {q.trace_abs()}")
    # the intertwining equation is sign-sensitive; try both lifts of q
    for qm in (q.rep, -q.rep):
        basis = _intertwiner_null_basis(p.rep, qm)
        if len(basis) < 2:
            continue
        v1, v2 = basis[0], basis[1]
        det = lambda v: v[0] * v[3] - v[1] * v[2]
        d11, d22 = det(v1), det(v2)
        d12 = (det(tuple(a + b for a, b in zip(v1, v2))) - d11 - d22) / 2.0
        half_tr = (d11 + d22) / 2.0
        lam_max = half_tr + math.hypot((d11 - d22) / 2.0, d12)
        if lam_max <= 1e-12:
            continue
        # eigenvector of the determinant form for its largest eigenvalue
        e1, e2 = (d12, lam_max - d11)
        if math.hypot(e1, e2) < 1e-12 * max(1.0, abs(lam_max)):
            e1, e2 = (lam_max - d22, d12)
        if math.hypot(e1, e2) < 1e-12 * max(1.0, abs(lam_max)):
            e1, e2 = 1.0, 0.0
        nrm = math.hypot(e1, e2)
        c, s = e1 / nrm, e2 / nrm
        g = Matrix2(*(c * a + s * b for a, b in zip(v1, v2)))
        gdet = g.det()
        if gdet <= 1e-12:
            continue
        g = normalize(g.scale(1.0 / math.sqrt(gdet)))
        check = g @ p @ g.inv()
        if check.rep.maxdiff(q.rep) < CONJ_TOL:
            return g
    raise NotConjugate(
        f"no orientation-preserving conjugator exists "
        f"({tp.value}, |tr| {p.trace_abs():.6g})")
