"""Exact integer 2x2 products: the audit's curve kernel.

A stored representation is, through its images' int_rep, an exact integer
representation of the free group up to positive scalars. The quantities
read here are invariant under positive scaling: the trace ratio
|tr|/sqrt(det), the canonical unit-determinant representative, and the PSL
type. So words are multiplied out in Python integers, inverses are
adjugates, and only the numbers read off a finished product are rounded to
floats. Those integers grow with every letter, so each margin is first
bracketed in fixed precision with a proven error bound, by slopes on the
four-punctured sphere and by words elsewhere. The brackets screen out the
curves that cannot be at the audit's minimum or below its bound; only the
rest are rounded exactly, and only those the brackets leave undecided, or
that are flagged, are multiplied out.

This module holds the arithmetic only: the curve lists it reads, and the
choice of list for an enumeration, are psltilde.curves's Curves.
"""
from __future__ import annotations

import math

from .curves import CurveList, Curves, SlopeOrbit
from .mobius import (
    PAR_BAND,
    IntMatrix,
    PslType,
    _adjugate,
    _mul,
    _sqrt_ratio,
    _trace_det,
    _unit_rep,
)
from .surface import Representation
from .words import CurveWord

IDENTITY: IntMatrix = (1, 0, 0, 1)

BLOCK = 8  # letters per multiplication step of the curve walks


def letter_matrices(rep: Representation, curves: CurveList
                    ) -> dict[str, IntMatrix]:
    """Integer image of each free generator's letter code in
    curves.alphabet; an inverse is the adjugate, a positive multiple of
    the inverse."""
    out = {}
    codes = curves.alphabet.codes
    for gen in rep.surface.free_generators():
        m = rep.image(gen).int_rep
        out[codes[gen, 1]], out[codes[gen, -1]] = m, _adjugate(m)
    return out


def word_product(rep: Representation, w: CurveWord) -> IntMatrix:
    """The image of w, the implied last peripheral written out."""
    curves = CurveList(rep.surface, [w])
    mats = letter_matrices(rep, curves)
    acc = IDENTITY
    for code in curves.codes[0]:
        acc = _mul(acc, mats[code])
    return acc


def _run_product(blocks: dict, run: str) -> IntMatrix:
    """The product of a run of letter codes, memoized in blocks, which
    holds every single letter."""
    m = blocks.get(run)
    if m is None:
        m = blocks[run] = _mul(_run_product(blocks, run[:-1]), blocks[run[-1]])
    return m


def _check_surface(rep: Representation, curves: Curves) -> None:
    if curves.surface != rep.surface:
        raise ValueError(f"curves on {curves.surface}, representation on "
                         f"{rep.surface}")


def _walk(curves: CurveList, start, step):
    """(index into curves.words, state) of every word in walk order. The
    state of a word is step(state, run) folded over its runs of up to BLOCK
    letters from start, resumed from the state of the prefix it shares
    with the word before."""
    stack = [(0, start)]  # (prefix length, state) kept for later words
    for i, r, keep in curves.walk:
        codes = curves.codes[i]
        while stack[-1][0] > r:
            stack.pop()
        pos, state = stack[-1]
        for stop in keep + (len(codes),):
            while pos < stop:
                run = codes[pos:min(pos + BLOCK, stop)]
                state = step(state, run)
                pos += len(run)
            stack.append((pos, state))
        yield i, state


def curve_products(rep: Representation, curves: CurveList):
    """(index into curves.words, integer image) of every curve, in walk
    order. Each image starts from the product of the prefix it shares with
    the previous word and goes on in steps of up to BLOCK letters, whose
    products are formed once per representation. Fewer, wider steps take a
    third less time than letter by letter on (0,4) at depth 7, as the
    accumulated entries are much longer than a block's; 8 letters a step
    take about a tenth less than 4 there and on (1,3) at depth 6, and the
    fixed-point walk, whose entries are short, about 40% less."""
    _check_surface(rep, curves)
    if not isinstance(curves, CurveList):
        raise TypeError(f"{type(curves).__name__} holds no words to walk; "
                        "walk its sublist(slots)")
    blocks = letter_matrices(rep, curves)  # grows by each run of letters met
    return _walk(curves, IDENTITY,
                 lambda x, run: _mul(x, _run_product(blocks, run)))


def trace_margin(x: IntMatrix) -> float:
    """|tr|/sqrt(det) - 2, within a few ulps also when x is nearly parabolic
    or its trace nearly 0: with q = (tr^2 - 4 det)/det and tr^2/det, each
    one correctly rounded integer division, the margin is
    q / (sqrt(tr^2/det) + 2). Past the float range it is inf."""
    t, det = _trace_det(x)
    return _margin(*_margin_parts(t * t, det))


def _margin_parts(tt: int, det: int) -> tuple[float | None, float]:
    """(q, r) of trace_margin from tr^2 and det > 0: q = (tt - 4 det)/det,
    None past the float range, and r = sqrt(tt/det). Each is the rounding
    of a function of the rational number tt/det alone that does not
    decrease with it: both divisions are correctly rounded, and _sqrt_ratio
    scales by powers of 4 only."""
    try:
        q = (tt - 4 * det) / det
    except OverflowError:
        q = None
    return q, _sqrt_ratio(tt, det)


def _margin(q: float | None, r: float) -> float:
    return r - 2.0 if q is None else q / (r + 2.0)


def abs_trace(x: IntMatrix) -> float:
    """|tr|/sqrt(det): |trace| of the unit-determinant representative."""
    t, det = _trace_det(x)
    return _sqrt_ratio(t * t, det)


# PAR_BAND as an exact ratio, for the bands on tr^2/det in integers
_BAND_NUM, _BAND_DEN = PAR_BAND.as_integer_ratio()


def psl_type(x: IntMatrix) -> PslType:
    """classify_psl's rule decided exactly: its identity test on the
    canonical unit-determinant representative, its bands applied to the
    exact tr^2/det against (2 +- PAR_BAND)^2, and the parabolic sign read
    from the integers."""
    if _unit_rep(x).is_identity():
        return PslType.IDENTITY
    t, det = _trace_det(x)
    # tr^2/det against (2 +- num/den)^2, both sides times den^2 det > 0
    scaled = t * t * _BAND_DEN ** 2
    if scaled > (2 * _BAND_DEN + _BAND_NUM) ** 2 * det:
        return PslType.HYPERBOLIC
    if scaled < (2 * _BAND_DEN - _BAND_NUM) ** 2 * det:
        return PslType.ELLIPTIC
    _, b, c, _ = x if t > 0 else tuple(-v for v in x)
    plus = b > 0 if b else c <= 0
    return PslType.PARABOLIC_PLUS if plus else PslType.PARABOLIC_MINUS


# -- the four-punctured sphere by the Farey trace recursion -------------------
#
# A simple closed curve is decided by its slope, read off its image under
# the orbifold homomorphism derived in the comment above
# psltilde.curves.SPHERE4 (word_slope, SlopeOrbit). With x(v) the trace of
# the unit-determinant image of slope v, sign kept, Farey neighbours v, w
# satisfy the edge relation x(v + w) + x(v - w) + x(v) x(w) = K_c, with
# c = v + w mod 2 and K_(1,0) = ab + cd, K_(0,1) = bc + ad, K_(1,1) = ac + bd for the traces
# a..d of c1..c4 (Goldman, "Trace coordinates on Fricke spaces of some simple
# hyperbolic surfaces", 2009; Maloni, Palesi and Tan, Groups Geom. Dyn. 2015).
# In integers, with D_A..D_C the determinants of the images A..C of c1..c3
# and t_A..t_D the traces of A..C and D = adj(ABC), a slope of class c has
# x = y / sigma_c, sigma_c^2 = D_A D_B, D_B D_C, D_A D_C for
# c = (1,0), (0,1), (1,1). The roots (1,0) = c1 c2, (0,1) = c2 c3 and
# (1,1) = c3 c1 have y = their trace. Every other slope v of class c is
# l + r for its Farey parents l and r, and
# y(v) = (k_c - y_l y_r) / kappa_c - y_u, u = l - r, with
# (k_c, kappa_c) = (t_A t_B D_C + t_C t_D, D_C), (t_B t_C D_A + t_A t_D, D_A),
# (t_A t_C D_B + t_B t_D, D_B). A slope and its negative are one curve, so
# (1,-1) = (1,0) + (0,-1) has the parents (1,0) and (0,1), and u = (1,1).
# psltilde.curves._farey_plan lists the slopes so that each one's l, r and
# u come before it: one step per slope in list order. y^2 / sigma_c^2 is
# then the same rational number as tr^2/det of the word's integer image, so
# the margin rounds to the same float. y itself is a ratio of integers
# thousands of bits long at depth 6, while a margin needs about 53 bits:
# each slope keeps an integer interval [m - r, m + r] around
# Y = 2^PRECISION y instead, r bounding every rounding that went into it.


PRECISION = 128  # fraction bits of the Farey intervals

# A slot's bracket (a, b, den_lo, den_hi), 0 <= a <= b, puts tr^2/det of its
# image in [a^2 / den_hi, b^2 / den_lo], as _bracket_margin reads it; a
# word whose fixed-point bound fails has None.
Bracket = tuple[int, int, int, int] | None


def _farey_brackets(rep: Representation, plan) -> list[Bracket]:
    """The bracket of each slot's tr^2/det, for plan a SlopeOrbit's farey
    (psltilde.curves._farey_plan): the interval of its slope's node around
    |Y|, over the den of its slope class. Slope classes are numbered 0, 1,
    2 for (1,0), (0,1), (1,1), so that the sum of Farey neighbours of
    classes i and j has class 3 - i - j."""
    A, B, C = (rep.image(g).int_rep for g in ("c1", "c2", "c3"))
    D = _adjugate(_mul(_mul(A, B), C))
    (tA, dA), (tB, dB), (tC, dC) = map(_trace_det, (A, B, C))
    tD = D[0] + D[3]
    p = PRECISION
    dens = (dA * dB << 2 * p, dB * dC << 2 * p, dA * dC << 2 * p)
    # Y(v + w) = (k_c 2^(2p) - Y_v Y_w) / (kappa_c 2^p) - Y_u, kappa_c > 0
    k = (tA * tB * dC + tC * tD << 2 * p, tB * tC * dA + tA * tD << 2 * p,
         tA * tC * dB + tB * tD << 2 * p)
    kappa = (dC << p, dA << p, dB << p)
    # a node is (m, r, class) for Y in [m - r, m + r]; the roots' Y are exact
    y = [(sum(_mul(x, z)[::3]) << p, 0, c)
         for c, (x, z) in enumerate(((A, B), (B, C), (C, A)))]
    nodes, slots = plan
    for l, r, u in nodes:
        ml, rl, cl = y[l]
        mr, rr, cr = y[r]
        c = 3 - cl - cr
        # |Y_l Y_r - ml mr| <= rad; rad // kappa + 1 bounds rad / kappa,
        # and 1 more the floor of the midpoint
        rad = abs(ml) * rr + abs(mr) * rl + rl * rr
        y.append(((k[c] - ml * mr) // kappa[c] - y[u][0],
                  rad // kappa[c] + 2 + y[u][1], c))
    brackets = []
    for n in slots:
        m, r, c = y[n]
        m = abs(m)
        brackets.append((max(m - r, 0), m + r, dens[c], dens[c]))
    return brackets


def _bracket_margin(a: int, b: int, den: int, den_high: int
                    ) -> float | None:
    """The margin of the rational number tt/det for some tt and det with
    a^2 <= tt <= b^2, 0 <= a <= b, and den <= det <= den_high, or None.
    When both extremes of tt/det give the same _margin_parts, so does
    tt/det, as each part is monotone in it, and the margin is exact."""
    parts = _margin_parts(a * a, den_high)
    return _margin(*parts) if parts == _margin_parts(b * b, den) else None


# -- any word in fixed point --------------------------------------------------
#
# The exact integers of a word's image grow by about 130 bits per letter,
# while a margin needs about 53. _fixed_brackets walks the words as
# curve_products does, with the same exact block products M_k = B_k / 4^s_k
# (B_k the integer product of a run of letters, s_k = bitlen(det B_k) // 2,
# so det M_k is in [1/2, 2)), but keeps each prefix as an integer matrix X_k
# near A_k = 2^P M_1 ... M_k: X_0 = 2^P I = A_0, X_k = floor(X_(k-1) B_k /
# 2^s_k) = X_(k-1) M_k + G_k, each entry of G_k in (-1, 0]. Then
#     X_n - A_n = sum_k G_k S_k,  S_k = M_(k+1) ... M_n = A_k^-1 A_n,
# and with Frobenius norms, |adj A| = |A| and A^-1 = adj A / det A,
#     |X_n - A_n| <= |A_n| sigma_n,  sigma_n = sum_k |G_k| |A_k| / det A_k.
# Each term is bounded from the walk itself: |G_k| < 2; det A_k =
# 4^P det M_1 ... det M_k >= 2^P lo_k, for the integer interval
# [lo_k, hi_k] around 2^P det M_1 ... det M_k that the walk carries,
# rounded outward at each step; and as A_k = (X_(k-1) - (X_(k-1) -
# A_(k-1))) M_k, whose second part is at most |A_k| sigma_(k-1) by the same
# sum, |A_k| <= |X_(k-1) M_k| / (1 - sigma_(k-1)) <= 2 (|X_k| + 2) <
# 2^(m_k + 3) while sigma_(k-1) <= 1/2, m_k the largest bit length of an
# entry of X_k (|X_k| < 2^(m_k + 1)). So each term is below
# 2^(m_k + 5 - bitlen(lo_k) - P), and the walk sums these powers of two in
# an integer at scale 2^P. At the end, while sigma_n <= 1/2,
# |A_n| <= |X_n| / (1 - sigma_n), so |X_n - A_n| < 2^(m_n + 2) sigma_n <= r
# and |tr A_n - tr X_n| <= sqrt(2) r < 2 r: tr^2/det of A_n, which is that
# of the word's integer image, lies between (|tr X_n| - 2 r)^2 / (2^P hi_n)
# and (|tr X_n| + 2 r)^2 / (2^P lo_n). The error is bounded by the norms of
# the true prefixes and suffixes, not by products of block norms: a word
# that goes out and comes back (x^n y x^-n) needs bits in proportion to the
# size of its largest prefix, not to the product of its letters' norms.

FIXED_PRECISION = 256  # fraction bits of the fixed-point word walk


def _fixed_brackets(rep: Representation, curves: CurveList
                    ) -> list[Bracket]:
    """The bracket of each word's tr^2/det from a fixed-point walk with a
    proven error bound (above), or None where that bound fails."""
    p = FIXED_PRECISION
    mats = letter_matrices(rep, curves)
    if any(a * d <= b * c for a, b, c, d in mats.values()):
        return [None] * len(curves)  # the bound needs det > 0: walk exactly
    blocks = {}  # run -> (B, s, det M rounded down and up at scale 2^p)

    def step(state, run):
        a, b, c, d, lo, hi, sigma = state
        block = blocks.get(run)
        if block is None:
            e, f, g, h = _run_product(mats, run)
            det = e * h - f * g
            s = det.bit_length() >> 1
            block = blocks[run] = (e, f, g, h, s, (det << p) >> 2 * s,
                                   -((-det << p) >> 2 * s))
        e, f, g, h, s, det_lo, det_hi = block
        a, b, c, d = (a * e + b * g >> s, a * f + b * h >> s,
                      c * e + d * g >> s, c * f + d * h >> s)
        lo, hi = lo * det_lo >> p, -(-hi * det_hi >> p)
        m = max(a.bit_length(), b.bit_length(), c.bit_length(),
                d.bit_length())
        sigma += 1 << max(m + 5 - lo.bit_length(), 0)
        return a, b, c, d, lo, hi, sigma

    one = 1 << p
    brackets = [None] * len(curves)
    for i, (a, b, c, d, lo, hi, sigma) in _walk(
            curves, (one, 0, 0, one, one, one, 0), step):
        if 2 * sigma > one or lo <= 0:
            continue
        m = max(a.bit_length(), b.bit_length(), c.bit_length(),
                d.bit_length())
        r2 = 2 * ((sigma << m + 2 >> p) + 1)
        t = abs(a + d)
        brackets[i] = (max(t - r2, 0), t + r2, lo << p, hi << p)
    return brackets


# -- the screen: only the margins an audit can report are rounded ------------
#
# An audit reports the least margin, the first slot at it, and the slots
# below its bound `below`. Write x = tr^2/det of a slot's image, s = sqrt(x)
# and f(x) for its rounded margin, _margin(*_margin_parts(tt, det)). Then
#     |f(x) - (s - 2)| <= 2^-50 (s + 2)
# while f(x) is finite: q is x - 4 correctly rounded (or None, and f is
# r - 2 rounded), r is s to within an ulp, and r + 2 and q / (r + 2) round
# once each, so f is s - 2 to within 5 ulps, plus at most 2^-1074 below the
# normal range; and f >= -2, so no margin is below a bound <= -2.
# Let X >= x_j+, the upper end b^2 / den_lo of some slot j's bracket, and
# X >= (2 + below)^2 when below > -2; let V = sqrt(X) and e = 2^-SCREEN_SLACK.
# A slot i whose lower end is at least X (1 + e) + e = T^2 has s_i >= T,
# and T^2 - V^2 = e (V^2 + 1), so
#     T - V = e (V^2 + 1) / (T + V) >= e (V + 1) / 5,
# as V^2 + 1 >= (V + 1)^2 / 2 and T + V <= 2.5 (V + 1). The lower bound on
# f(x_i) grows with s_i, so with V + 2 <= 2 (V + 1) and e = 2^-40
#     f(x_i) >= T - 2 - 2^-50 (T + 2) > V - 2 + 2^-50 (V + 2),
# which is at least below, and at least f(x_j) while x_j+ < 2^2000 keeps
# f(x_j) finite. Slot j's lower end is below T^2, so j is a candidate, and
# slot i is above min(margins) and not below `below`: it is screened out.
# X is rounded up at scale 2^SCREEN_BITS, so that the screen costs a few
# short integer products a slot against the two divisions and two square
# roots of _bracket_margin.

SCREEN_BITS = 64   # fraction bits of the screen's threshold on tr^2/det
SCREEN_SLACK = 40  # the threshold is widened by 2^-SCREEN_SLACK


def _screen_bound(brackets: list[Bracket], below: float) -> int | None:
    """n >= 2^SCREEN_BITS T^2 (above): a slot whose tr^2/det is at least
    n / 2^SCREEN_BITS has a margin above the least of the others and not
    below `below`. None when no n is proven, and every slot is a
    candidate."""
    s = SCREEN_BITS
    if below == math.inf:
        return None
    least = {}  # den_lo -> the least upper end b of the brackets with it
    for bracket in brackets:
        if bracket is not None:
            _, b, den, _ = bracket
            if den not in least or b < least[den]:
                least[den] = b
    if not least:
        return None
    x = min(-(-(b * b << s) // den) for den, b in least.items())
    if x >> s + 2000:
        return None  # a margin there may round to inf
    if below > -2:
        num, d = below.as_integer_ratio()
        x = max(x, -(-((2 * d + num) ** 2 << s) // (d * d)))
    return x + (x >> SCREEN_SLACK) + 1 + (1 << s - SCREEN_SLACK)


def _candidates(brackets: list[Bracket], below: float) -> list[int]:
    """The slots curve_margins rounds exactly, in slot order: each slot
    without a bracket, and each whose bracket's lower end of tr^2/det,
    a^2 / den_hi, reaches below the screen's bound."""
    n = _screen_bound(brackets, below)
    if n is None:
        return list(range(len(brackets)))
    s = SCREEN_BITS
    return [i for i, x in enumerate(brackets)
            if x is None or x[0] * x[0] << s < x[3] * n]


def curve_margins(rep: Representation, curves: Curves, below: float
                  ) -> tuple[dict[int, float], int,
                             list[tuple[int, IntMatrix]]]:
    """(margins, fallbacks, flagged): trace_margin of each slot the audit
    can report, by slot; the number of those the fixed-precision brackets
    left to the exact walk; and (slot, integer image) of each slot whose
    margin is below `below`, in walk order.

    Enumerated curves on the four-punctured sphere are bracketed by the
    intervals of their slopes (_farey_brackets), every other list by a
    fixed-point walk of its words (_fixed_brackets). The brackets screen
    the slots in integers (_candidates): margins holds every slot that can
    be at the least margin or below `below`, each rounded exactly, and
    every other slot's margin is proven above min(margins.values()) and not
    below `below`. One walk of curve_products takes the candidates the
    brackets do not decide and the flagged ones, so that each flagged
    slot's image comes with its margin."""
    _check_surface(rep, curves)
    if isinstance(curves, SlopeOrbit):
        brackets = _farey_brackets(rep, curves.farey)
    else:
        brackets = _fixed_brackets(rep, curves)
    margins = {i: None if brackets[i] is None
               else _bracket_margin(*brackets[i])
               for i in _candidates(brackets, below)}
    todo = [i for i, m in margins.items() if m is None or m < below]
    fallbacks = sum(m is None for m in margins.values())
    flagged = []
    if todo:
        for j, image in curve_products(rep, curves.sublist(todo)):
            i = todo[j]
            if margins[i] is None:
                margins[i] = trace_margin(image)
            if margins[i] < below:
                flagged.append((i, image))
    return margins, fallbacks, flagged
