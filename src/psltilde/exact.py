"""Exact integer 2x2 products: the audit's curve kernel.

Every float is an integer times a power of two, so a float matrix is an
integer matrix over one power of two, and a stored representation is an
exact integer representation of the free group up to positive scalars. The
quantities read here are invariant under positive scaling: the trace ratio
|tr|/sqrt(det), the canonical unit-determinant representative, and the PSL
type. The powers of two are therefore dropped, inverses are adjugates, and
words are multiplied out in Python integers with no rounding at all; only
the numbers read off a finished product are rounded to floats.
"""
from __future__ import annotations

import math

from .mobius import PAR_BAND, Matrix2, PslType, classify_psl, normalize_unit
from .surface import Representation, SurfacePresentation
from .words import Alphabet, CurveWord

IntMatrix = tuple[int, int, int, int]  # row-major (a b / c d)

IDENTITY: IntMatrix = (1, 0, 0, 1)

BLOCK = 4  # letters per multiplication step of the curve walk


def int_matrix(entries) -> IntMatrix:
    """The four floats (a, b, c, d) as integers over their common power of
    two."""
    ratios = [float(v).as_integer_ratio() for v in entries]
    den = max(d for _, d in ratios)
    return tuple(n * (den // d) for n, d in ratios)


def _mul(x: IntMatrix, y: IntMatrix) -> IntMatrix:
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _adjugate(x: IntMatrix) -> IntMatrix:
    a, b, c, d = x
    return (d, -b, -c, a)


def _alphabet(surf: SurfacePresentation) -> Alphabet:
    """Letter codes of the free generators and of the implied c_p."""
    return Alphabet(surf.free_generators() + (surf.c(surf.punctures),))


def letter_matrices(rep: Representation) -> dict[str, IntMatrix]:
    """Integer image of each free generator's letter code; an inverse is
    the adjugate, a positive multiple of the inverse."""
    out = {}
    codes = _alphabet(rep.surface).codes
    for gen in rep.surface.free_generators():
        m = int_matrix(rep.image(gen).rep.entries())
        out[codes[gen, 1]], out[codes[gen, -1]] = m, _adjugate(m)
    return out


def word_product(rep: Representation, w: CurveWord) -> IntMatrix:
    """The image of w, the implied last peripheral written out."""
    mats = letter_matrices(rep)
    acc = IDENTITY
    for code in CurveList(rep.surface, [w]).codes[0]:
        acc = _mul(acc, mats[code])
    return acc


def _common_prefix(u: str, v: str) -> int:
    k, n = 0, min(len(u), len(v))
    while k < n and u[k] == v[k]:
        k += 1
    return k


class CurveList:
    """Curve words prepared once for any number of audits on one surface.

    Each word has its implied last peripheral written out, one character
    per letter, and the words are walked in the sorted order of those
    strings, so that each word shares a prefix with the one before. For
    each word the walk keeps only the prefix products that a later word
    resumes from."""

    def __init__(self, surf: SurfacePresentation, words):
        self.surface = surf
        self.words = list(words)
        alphabet = _alphabet(surf)
        cp = surf.c(surf.punctures)
        expand = alphabet.substitution({cp: surf.last_peripheral_word()})
        coded = [alphabet.substitute(alphabet.encode(w), expand)
                 for w in self.words]
        self.order = sorted(range(len(coded)), key=coded.__getitem__)
        self.codes = [coded[i] for i in self.order]
        # resume[j]: length of the prefix word j shares with word j - 1
        self.resume = [0] + [_common_prefix(u, v)
                             for u, v in zip(self.codes, self.codes[1:])]
        # keep[j]: the resume points of later words inside word j, that is
        # the running minima of resume[j + 1:] above resume[j], ascending
        self.keep = [()] * len(coded)
        minima: list[int] = []  # running minima of resume[j + 1:], ascending
        for j in range(len(coded) - 1, -1, -1):
            r = self.resume[j]
            k = len(minima)
            while k and minima[k - 1] > r:
                k -= 1
            self.keep[j] = tuple(minima[k:])
            del minima[k:]
            if not minima or minima[-1] < r:
                minima.append(r)

    def __len__(self) -> int:
        return len(self.words)


def _run_product(blocks: dict, run: str) -> IntMatrix:
    """The product of a run of letter codes, memoized in blocks, which
    holds every single letter."""
    m = blocks.get(run)
    if m is None:
        m = blocks[run] = _mul(_run_product(blocks, run[:-1]), blocks[run[-1]])
    return m


def curve_products(rep: Representation, curves: CurveList):
    """(index into curves.words, integer image) of every curve, in walk
    order. Each image starts from the product of the prefix it shares with
    the previous word and goes on in steps of up to BLOCK letters, whose
    products are formed once per representation. Fewer, wider steps take a
    third less time than letter by letter on (0,4) at depth 7, as the
    accumulated entries are much longer than a block's."""
    if curves.surface != rep.surface:
        raise ValueError(f"curves on {curves.surface}, representation on "
                         f"{rep.surface}")
    blocks = letter_matrices(rep)  # grows by each run of letters met
    stack = [(0, IDENTITY)]  # (prefix length, product) kept for later words
    for i, codes, r, keep in zip(curves.order, curves.codes, curves.resume,
                                 curves.keep):
        while stack[-1][0] > r:
            stack.pop()
        pos, (a, b, c, d) = stack[-1]
        for stop in keep + (len(codes),):
            while pos < stop:
                run = codes[pos:min(pos + BLOCK, stop)]
                e, f, g, h = _run_product(blocks, run)
                a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, \
                    c * f + d * h
                pos += len(run)
            stack.append((pos, (a, b, c, d)))
        yield i, (a, b, c, d)


def _sqrt_ratio(n: int, d: int) -> float:
    """sqrt(n/d) for integers n >= 0, d > 0, to within an ulp in the normal
    float range; inf past it. n/d is first brought near 1 by a power of 4,
    so no quotient overflows or underflows and no big int goes through
    float()."""
    if not n:
        return 0.0
    s = (d.bit_length() - n.bit_length()) // 2  # n * 4^s / d is in [1/4, 4]
    r = math.sqrt((n << 2 * s) / d if s >= 0 else n / (d << -2 * s))
    try:
        return math.ldexp(r, -s)
    except OverflowError:
        return math.inf


def _trace_det(x: IntMatrix) -> tuple[int, int]:
    a, b, c, d = x
    det = a * d - b * c
    if det <= 0:
        raise ValueError("integer matrix without positive determinant")
    return a + d, det


def trace_margin(x: IntMatrix) -> float:
    """|tr|/sqrt(det) - 2, within a few ulps also when x is nearly parabolic
    or its trace nearly 0: with q = (tr^2 - 4 det)/det and tr^2/det, each
    one correctly rounded integer division, the margin is
    q / (sqrt(tr^2/det) + 2). Past the float range it is inf."""
    t, det = _trace_det(x)
    tt = t * t
    try:
        q = (tt - 4 * det) / det
    except OverflowError:
        return _sqrt_ratio(tt, det) - 2.0
    return q / (_sqrt_ratio(tt, det) + 2.0)


def abs_trace(x: IntMatrix) -> float:
    """|tr|/sqrt(det): |trace| of the unit-determinant representative."""
    t, det = _trace_det(x)
    return _sqrt_ratio(t * t, det)


def unit_entries(x: IntMatrix) -> tuple[float, float, float, float]:
    """Entries of the canonical unit-determinant representative: x/sqrt(det),
    negated if needed so that the first nonzero of a, b, c is positive."""
    _, det = _trace_det(x)
    if next((v for v in x[:3] if v), x[3]) < 0:
        x = tuple(-v for v in x)
    # the sign comes from v >= 0: copysign would convert a big v to float
    return tuple(math.copysign(_sqrt_ratio(v * v, det),
                               1.0 if v >= 0 else -1.0) for v in x)


def psl_type(x: IntMatrix, margin: float) -> PslType:
    """classify_psl of the canonical unit-determinant float representative,
    so the type names and the parabolic band are classify_psl's. margin is
    trace_margin(x). When an entry of the representative is past the float
    range, the bands apply to margin and the parabolic sign is read from
    the integers, by classify_psl's rule."""
    unit = unit_entries(x)
    if all(map(math.isfinite, unit)):
        return classify_psl(normalize_unit(Matrix2(*unit)))
    if margin > PAR_BAND:
        return PslType.HYPERBOLIC
    if margin < -PAR_BAND:
        return PslType.ELLIPTIC
    _, b, c, _ = x if x[0] + x[3] > 0 else tuple(-v for v in x)
    plus = b > 0 if b else c <= 0
    return PslType.PARABOLIC_PLUS if plus else PslType.PARABOLIC_MINUS
