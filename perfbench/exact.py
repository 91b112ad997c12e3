"""Exact arithmetic for checking psltilde outputs, using only the stdlib.

Every float is an integer multiple of a power of two, so a 2x2 float matrix
is an integer matrix times one power of two. Every quantity checked here is
invariant under scaling a matrix (|tr|/sqrt(det), the unit-determinant
normalization, the parabolic sign), so the power of two is dropped and the
products are carried out in exact Python integers. Inverses are adjugates,
which are also correct up to that scalar.

A representation is given as its free-generator images on the standard
presentation: pi_1 of the genus-g surface with p punctures is free on
a1,b1,..,ag,bg,c1,..,c_{p-1}, and c_p is the inverse of
[a1,b1]..[ag,bg] c1..c_{p-1}.
"""
from __future__ import annotations

import math

IDENTITY = (1, 0, 0, 1)


def int_matrix(entries) -> tuple[int, int, int, int]:
    """The four floats (a, b, c, d) as integers over a common power of two."""
    ratios = [float(x).as_integer_ratio() for x in entries]
    den = max(d for _, d in ratios)
    return tuple(n * (den // d) for n, d in ratios)


def mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def adj(x):
    a, b, c, d = x
    return (d, -b, -c, a)


def trace_det(x) -> tuple[int, int]:
    a, b, c, d = x
    return a + d, a * d - b * c


def _sqrt_ratio(n: int, d: int) -> float:
    """sqrt(n/d) for integers n >= 0, d > 0, also when n/d exceeds the float
    range on its own (traces past 1e154 occur on deep curves)."""
    try:
        return math.sqrt(n / d)
    except OverflowError:
        return math.isqrt((n << 256) // d) / 2.0 ** 128


def trace_margin(x) -> float:
    """|tr|/sqrt(det) - 2, correctly rounded up to a few ulps even when the
    element is nearly parabolic: with q = tr^2/det - 4 (one exact integer
    division), the margin is q / (sqrt(q + 4) + 2)."""
    t, det = trace_det(x)
    if det <= 0:
        raise ValueError("matrix does not have positive determinant")
    try:
        q = (t * t - 4 * det) / det
    except OverflowError:
        return _sqrt_ratio(t * t, det) - 2.0
    return q / (math.sqrt(q + 4.0) + 2.0)


def unit_entries(x) -> tuple[float, float, float, float]:
    """Entries of x/sqrt(det), the determinant-1 representative with the
    sign of x."""
    _, det = trace_det(x)
    return tuple(math.copysign(_sqrt_ratio(v * v, det), 1 if v >= 0 else -1)
                 for v in x)


def canonical_unit(x) -> tuple[float, float, float, float]:
    """Unit-determinant representative whose first nonzero entry in the order
    a, b, c is positive (psltilde's canonical PSL(2,R) sign)."""
    lead = next((v for v in x[:3] if v != 0), x[3])
    return unit_entries(x if lead > 0 else tuple(-v for v in x))


def parabolic_sign(x) -> int:
    """+1 or -1: the sign of the upper-right entry of the trace-positive lift,
    or minus the sign of its lower-left entry when the upper-right one is 0."""
    t, _ = trace_det(x)
    if t < 0:
        x = tuple(-v for v in x)
    b, c = x[1], x[2]
    if b != 0:
        return 1 if b > 0 else -1
    return -1 if c > 0 else 1


def max_gap(x, y) -> float:
    """Largest entry difference of the canonical unit representatives."""
    return max(abs(u - v) for u, v in zip(canonical_unit(x), canonical_unit(y)))


def relator_residual(x) -> float:
    """Distance of x/sqrt(det) from +-identity, entrywise."""
    t, _ = trace_det(x)
    s = 1.0 if t >= 0 else -1.0
    u = unit_entries(x)
    return max(abs(u[0] - s), abs(u[1]), abs(u[2]), abs(u[3] - s))


def relator_prefix(genus: int, punctures: int) -> tuple:
    """[a1,b1]..[ag,bg] c1..c_{p-1}, the inverse of c_p."""
    letters = []
    for j in range(1, genus + 1):
        a, b = f"a{j}", f"b{j}"
        letters += [(a, 1), (b, 1), (a, -1), (b, -1)]
    letters += [(f"c{i}", 1) for i in range(1, punctures)]
    return tuple(letters)


def expand_last(letters, genus: int, punctures: int) -> tuple:
    """Letters with the implied last peripheral c_p written out."""
    last = f"c{punctures}"
    if all(g != last for g, _ in letters):
        return tuple(letters)
    gamma = relator_prefix(genus, punctures)
    inv = tuple((g, -e) for g, e in reversed(gamma))
    out = []
    for gen, exp in letters:
        if gen == last:
            out.extend(inv if exp == 1 else gamma)
        else:
            out.append((gen, exp))
    return tuple(out)


class ExactRep:
    """Free-generator images of a representation, as exact integer matrices."""

    def __init__(self, genus: int, punctures: int, images: dict):
        self.genus = genus
        self.punctures = punctures
        self.free = tuple(
            [n for j in range(1, genus + 1) for n in (f"a{j}", f"b{j}")]
            + [f"c{i}" for i in range(1, punctures)])
        self.mats = {}
        for name in self.free:
            m = int_matrix(images[name])
            self.mats[(name, 1)] = m
            self.mats[(name, -1)] = adj(m)

    def relator_prefix(self) -> tuple:
        return relator_prefix(self.genus, self.punctures)

    def expand(self, letters) -> tuple:
        return expand_last(letters, self.genus, self.punctures)

    def product(self, letters):
        acc = IDENTITY
        for letter in self.expand(letters):
            acc = mul(acc, self.mats[letter])
        return acc

    def peripheral(self, i: int):
        if i < self.punctures:
            return self.mats[(f"c{i}", 1)]
        return self.product(((f"c{self.punctures}", 1),))

    def margins(self, words) -> list[float]:
        """trace_margin of every word, sharing the products of common
        prefixes between consecutive words (sorted input shares most)."""
        out = []
        prefix: list = []          # expanded letters of the previous word
        stack = [IDENTITY]         # stack[k] = product of prefix[:k]
        for w in words:
            letters = self.expand(w)
            k = 0
            n = min(len(prefix), len(letters))
            while k < n and prefix[k] == letters[k]:
                k += 1
            del stack[k + 1:]
            for letter in letters[k:]:
                stack.append(mul(stack[-1], self.mats[letter]))
            prefix = list(letters)
            out.append(trace_margin(stack[-1]))
        return out


def rep_health(er: ExactRep, stored_last) -> dict:
    """Relation and peripheral health of a representation file.

    relator_residual: [a1,b1]..c1..c_{p-1} times the stored c_p, off +-I.
    last_gap: stored c_p against the c_p the relation implies.
    trace_defects: |tr|/sqrt(det) - 2 of each peripheral (implied c_p).
    signs: the parabolic sign of each peripheral.
    """
    stored = int_matrix(stored_last)
    gamma = er.product(er.relator_prefix())
    peris = [er.peripheral(i) for i in range(1, er.punctures + 1)]
    return {
        "relator_residual": relator_residual(mul(gamma, stored)),
        "last_gap": max_gap(stored, peris[-1]),
        "trace_defects": [trace_margin(m) for m in peris],
        "signs": [parabolic_sign(m) for m in peris],
    }


def exponent_sums(letters, gens) -> list[int]:
    sums = dict.fromkeys(gens, 0)
    for g, e in letters:
        if g in sums:
            sums[g] += e
    return [sums[g] for g in gens]
