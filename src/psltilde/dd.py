"""Double-double 2x2 matrix products via error-free transformations.

Word evaluation and relator checks compare traces and entries against
tolerances near 1e-8 while intermediate products can be many orders of
magnitude larger than the result; plain float64 products would leak
measurement noise above the tolerances. Each entry is an unevaluated sum
hi + lo with |lo| <= ulp(hi)/2.
"""
from __future__ import annotations

import math

from .mobius import (
    Matrix2,
    ProjectiveMatrix,
    _two_prod,
    normalize,
    normalize_unit,
)


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _dd_add(ahi, alo, bhi, blo):
    s, e = _two_sum(ahi, bhi)
    e += alo + blo
    hi, lo = _two_sum(s, e)
    return hi, lo


def _dd_mul(ahi, alo, bhi, blo):
    p, e = _two_prod(ahi, bhi)
    e += ahi * blo + alo * bhi
    hi, lo = _two_sum(p, e)
    return hi, lo


class DDMatrix:
    """2x2 matrix with double-double entries; row-major (a b / c d)."""

    __slots__ = ("e",)

    def __init__(self, entries):
        # entries: 8 floats (hi, lo interleaved) or 4 floats
        if len(entries) == 4:
            self.e = (entries[0], 0.0, entries[1], 0.0,
                      entries[2], 0.0, entries[3], 0.0)
        else:
            self.e = tuple(entries)

    @staticmethod
    def identity() -> "DDMatrix":
        return DDMatrix((1.0, 0.0, 0.0, 1.0))

    def __matmul__(self, other: "DDMatrix") -> "DDMatrix":
        a = self.e
        b = other.e
        out = []
        for i in (0, 4):
            for j in (0, 2):
                p1 = _dd_mul(a[i], a[i + 1], b[j], b[j + 1])
                p2 = _dd_mul(a[i + 2], a[i + 3], b[j + 4], b[j + 5])
                out.extend(_dd_add(p1[0], p1[1], p2[0], p2[1]))
        return DDMatrix(tuple(out))

    def det(self) -> float:
        a = self.e
        p1 = _dd_mul(a[0], a[1], a[6], a[7])
        p2 = _dd_mul(a[2], a[3], a[4], a[5])
        hi, _ = _dd_add(p1[0], p1[1], -p2[0], -p2[1])
        return hi

    def scale(self, s: float) -> "DDMatrix":
        out = []
        for i in range(0, 8, 2):
            out.extend(_dd_mul(self.e[i], self.e[i + 1], s, 0.0))
        return DDMatrix(tuple(out))

    def renormalized(self) -> "DDMatrix":
        """Rescale to determinant 1 (one float sqrt plus a Newton step)."""
        det = self.det()
        if det <= 0.0:
            return self
        r = 1.0 / math.sqrt(det)
        r *= 1.5 - 0.5 * det * r * r
        return self.scale(r)

    def to_floats(self) -> tuple[float, float, float, float]:
        a = self.e
        return (a[0] + a[1], a[2] + a[3], a[4] + a[5], a[6] + a[7])


def unit_product(*factors: Matrix2) -> ProjectiveMatrix:
    """Left-to-right product of unit-determinant factors, accumulated in
    double-double and returned as its canonical PSL(2,R) representative.

    Past entries of 1e4 the determinant is still exactly 1, but float
    cancellation makes it unmeasurable (error ~ entries^2 * 2^-53), so the
    product is taken as is; below that it is rescaled to determinant 1."""
    acc = DDMatrix(factors[0].entries()) if factors else DDMatrix.identity()
    for m in factors[1:]:
        acc = acc @ DDMatrix(m.entries())
    entries = acc.to_floats()
    if max(abs(v) for v in entries) > 1e4:
        return normalize_unit(Matrix2(*entries))
    return normalize(Matrix2(*acc.renormalized().to_floats()))
