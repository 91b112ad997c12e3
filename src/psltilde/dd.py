"""Double-double 2x2 matrix products via error-free transformations.

Nothing in the package calls this module: every product goes through the
exact integer kernel, mobius.unit_product. It is kept only because the
benchmark's tracer wraps DDMatrix.__matmul__, and it goes with the next
change to the benchmark. Each entry is an unevaluated sum hi + lo with
|lo| <= ulp(hi)/2.
"""
from __future__ import annotations

from .mobius import _two_prod


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
