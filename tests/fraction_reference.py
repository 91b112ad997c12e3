"""Exact rational reference for audit figures, independent of the audit's
integer kernel: Fraction products with true inverses, the implied last
peripheral as the inverse of its relator prefix, and classify_psl's
identity and parabolic bands applied to exact values."""
from decimal import Decimal, localcontext
from fractions import Fraction

from psltilde.mobius import IDENTITY_TOL, PAR_BAND

IDENTITY = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inverse(x):
    a, b, c, d = x
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


def power(x, n):
    acc = IDENTITY
    while n:
        if n & 1:
            acc = mul(acc, x)
        x = mul(x, x)
        n >>= 1
    return acc


def generator_images(rep):
    """Fraction image of every generator name, the last peripheral too."""
    surf = rep.surface
    gens = {g: tuple(map(Fraction, rep.image(g).rep.entries()))
            for g in surf.free_generators()}
    prefix = IDENTITY
    for g, e in surf.gamma_word(surf.genus, surf.punctures - 1).letters:
        prefix = mul(prefix, gens[g] if e == 1 else inverse(gens[g]))
    gens[surf.c(surf.punctures)] = inverse(prefix)
    return gens


def image(rep, w, gens=None):
    gens = gens or generator_images(rep)
    acc = IDENTITY
    for g, e in w.letters:
        acc = mul(acc, gens[g] if e == 1 else inverse(gens[g]))
    return acc


def trace_ratio_squared(x) -> Fraction:
    """tr^2/det: the squared |trace| of the unit-determinant multiple."""
    a, b, c, d = x
    return (a + d) ** 2 / (a * d - b * c)


def _decimal(v: Fraction) -> Decimal:
    return Decimal(v.numerator) / Decimal(v.denominator)


def unit_entries(x) -> list[float]:
    """The entries of x/sqrt(det), rounded to floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, c, d = x
        s = _decimal(a * d - b * c).sqrt()
        return [float(_decimal(v) / s) for v in x]


def abs_trace(x) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return _decimal(trace_ratio_squared(x)).sqrt()


def margin(x) -> Decimal:
    """|tr|/sqrt(det) - 2 as (tr^2/det - 4) / (|tr|/sqrt(det) + 2), with no
    cancellation however close to parabolic x is."""
    with localcontext() as ctx:
        ctx.prec = 60
        return _decimal(trace_ratio_squared(x) - 4) / (abs_trace(x) + 2)


def psl_type(x) -> str:
    a, b, c, d = x
    lead = next((v for v in (a, b, c) if v), d)
    unit = unit_entries(x if lead > 0 else tuple(-v for v in x))
    if max(abs(u - i) for u, i in zip(unit, (1, 0, 0, 1))) < IDENTITY_TOL:
        return "Identity"
    r2 = trace_ratio_squared(x)
    band = Fraction(PAR_BAND)
    if r2 > (2 + band) ** 2:
        return "Hyperbolic"
    if r2 < (2 - band) ** 2:
        return "Elliptic"
    if a + d < 0:
        b, c = -b, -c
    plus = b > 0 if b else c <= 0
    return "ParabolicPlus" if plus else "ParabolicMinus"


def near_band_edge(x, rel: float = 1e-12) -> bool:
    """True if |tr|/sqrt(det) lies within rel of 2 +- PAR_BAND, where a
    float classification may fall on either side."""
    r = abs_trace(x)
    return any(abs(r - Decimal(2 + s * PAR_BAND)) <= Decimal(rel) * r
               for s in (1, -1))
