"""Exact integer 2x2 products: the audit's curve kernel.

A stored representation is, through mobius.int_matrix, an exact integer
representation of the free group up to positive scalars. The quantities
read here are invariant under positive scaling: the trace ratio
|tr|/sqrt(det), the canonical unit-determinant representative, and the PSL
type. So words are multiplied out in Python integers, inverses are
adjugates, and only the numbers read off a finished product are rounded to
floats.
"""
from __future__ import annotations

import math
from functools import cached_property

from .mobius import (
    PAR_BAND,
    IntMatrix,
    Matrix2,
    PslType,
    _mul,
    _sqrt_ratio,
    _trace_det,
    classify_psl,
    int_matrix,
    normalize_unit,
    unit_entries,
)
from .surface import Representation, SurfacePresentation
from .words import Alphabet, CurveWord

IDENTITY: IntMatrix = (1, 0, 0, 1)

BLOCK = 4  # letters per multiplication step of the curve walk


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
    per letter (codes, in the order of words). The walk of curve_products
    takes the words in the sorted order of those strings, so that each
    word shares a prefix with the one before, and keeps for each word only
    the prefix products that a later word resumes from; that plan (walk)
    is made on first use."""

    def __init__(self, surf: SurfacePresentation, words):
        self.surface = surf
        self.words = list(words)
        alphabet = _alphabet(surf)
        cp = surf.c(surf.punctures)
        expand = alphabet.substitution({cp: surf.last_peripheral_word()})
        self.codes = [alphabet.substitute(alphabet.encode(w), expand)
                      for w in self.words]
        self.farey = None  # set for enumerated curves on the (0,4) surface
        self.dropped = None  # words the enumeration dropped, when enumerated

    @cached_property
    def walk(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """(word index, resume, keep) in walk order: resume is the length
        of the prefix the word shares with the word before, keep the resume
        points of later words inside it, ascending."""
        codes = self.codes
        order = sorted(range(len(codes)), key=codes.__getitem__)
        resume = [0] + [_common_prefix(codes[i], codes[j])
                        for i, j in zip(order, order[1:])]
        # keep[j]: the running minima of resume[j + 1:] above resume[j]
        keep = [()] * len(order)
        minima: list[int] = []  # running minima of resume[j + 1:], ascending
        for j in range(len(order) - 1, -1, -1):
            r = resume[j]
            k = len(minima)
            while k and minima[k - 1] > r:
                k -= 1
            keep[j] = tuple(minima[k:])
            del minima[k:]
            if not minima or minima[-1] < r:
                minima.append(r)
        return list(zip(order, resume, keep))

    @classmethod
    def enumerated(cls, surf: SurfacePresentation, depth: int) -> "CurveList":
        """The curves of enumerate_scc(surf, depth). These are simple, so on
        the four-punctured sphere each is decided by its slope (_FareyPlan)
        and not by its word."""
        from .curves import enumerate_scc

        words, stats = enumerate_scc(surf, depth, return_stats=True)
        curves = cls(surf, words)
        curves.dropped = stats["dropped"]
        if surf == SPHERE4:
            curves.farey = _FareyPlan(curves)
        return curves

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
    for i, r, keep in curves.walk:
        codes = curves.codes[i]
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


# -- the four-punctured sphere by the Farey trace recursion -------------------
#
# The orbifold homomorphism c_i -> (v -> 2 p_i - v) sends a simple closed
# curve to a translation by +-2 (a, b) with gcd(a, b) = 1, its slope, and the
# slope decides the curve. With x(v) the trace of the unit-determinant image
# of slope v, sign kept, Farey neighbours v, w satisfy the edge relation
# x(v + w) + x(v - w) + x(v) x(w) = K_c, with c = v + w mod 2 and
# K_(1,0) = ab + cd, K_(0,1) = bc + ad, K_(1,1) = ac + bd for the traces
# a..d of c1..c4 (Goldman, "Trace coordinates on Fricke spaces of some simple
# hyperbolic surfaces", 2009; Maloni, Palesi and Tan, Groups Geom. Dyn. 2015).
# In integers, with D_A..D_C the determinants of the images A..C of c1..c3
# and t_A..t_D the traces of A..C and D = adj(ABC), a slope of class c keeps
# (T, M) with x = T / (sigma_c M), sigma_c^2 = D_A D_B, D_B D_C, D_A D_C for
# c = (1,0), (0,1), (1,1). The roots (1,0) = c1 c2, (0,1) = c2 c3 and
# (1,1) = c3 c1 have T = their trace and M = 1, and below them
# T(v + w) = k_c M_v M_w - T_v T_w - T_u M(v + w) / M_u, the division exact,
# M(v + w) = kappa_c M_v M_w, u = +-(v - w), with (k_c, kappa_c) =
# (t_A t_B D_C + t_C t_D, D_C), (t_B t_C D_A + t_A t_D, D_A),
# (t_A t_C D_B + t_B t_D, D_B). T^2 / (sigma_c^2 M^2) is then the same
# rational number as tr^2/det of the word's integer image, so the margin
# rounds to the same float.

SPHERE4 = SurfacePresentation(0, 4)

_CENTRES = {"c1": (0, 0), "c2": (1, 0), "c3": (1, 1), "c4": (0, 1)}


class _FareyPlan:
    """The slopes of a CurveList of simple curves on the four-punctured
    sphere, as a depth-first walk of the Stern-Brocot trees below (1, 1)
    and below its mirror (1, -1), both between (1, 0) and (0, 1); a slope
    (a, b) with b < 0 is the mirror image of (a, -b), by the same path. The
    plan depends on the curves only, so one plan serves every
    representation."""

    ROOTS = ((1, 0), (0, 1), (1, 1), (1, -1))

    def __init__(self, curves: CurveList):
        alphabet = _alphabet(curves.surface)
        centres = {alphabet.codes[g, e]: p for g, p in _CENTRES.items()
                   for e in (1, -1)}
        self.roots = {}  # root slope -> word index
        trees = ({}, {})  # below (1, 1), below (1, -1): path -> word index
        for i, codes in enumerate(curves.codes):
            a, b = _slope(codes, centres)
            if (a, b) in self.ROOTS:
                target, key = self.roots, (a, b)
            else:
                target, key = trees[b < 0], _stern_brocot(a, abs(b))
                for k in range(len(key) - 1, 0, -1):
                    if key[:k] in target:
                        break
                    target[key[:k]] = None
            if target.get(key) is not None:
                raise AssertionError(f"two curves of slope {(a, b)}")
            target[key] = i
        # (path length, right turn, word index or None) in preorder, which
        # is the string order of the paths
        self.walks = tuple(tuple((len(p), p[-1] == "1", tree[p])
                                 for p in sorted(tree)) for tree in trees)


def _slope(codes: str, centres: dict[str, tuple[int, int]]) -> tuple[int, int]:
    """The slope (a, b) of a coded word, a > 0 or (a, b) = (0, 1): the
    product of the point reflections about its letters' centres is the
    translation by twice the alternating sum of the centres."""
    even, odd = codes[0::2], codes[1::2]
    a = b = 0
    for code, (x, y) in centres.items():
        n = even.count(code) - odd.count(code)
        a, b = a + n * x, b + n * y
    if a < 0 or a == 0 and b < 0:
        a, b = -a, -b
    if len(codes) % 2 or math.gcd(a, b) != 1:
        raise AssertionError("not a simple closed curve of the "
                             f"four-punctured sphere: {codes!r}")
    return a, b


def _stern_brocot(a: int, b: int) -> str:
    """Path from (1, 1) to (a, b), a, b > 0, in the Stern-Brocot tree
    between (1, 0) and (0, 1): '0' toward (1, 0), '1' toward (0, 1)."""
    path = []
    la, lb, ra, rb = 1, 0, 0, 1
    na, nb = 1, 1
    while (na, nb) != (a, b):
        if b * na < nb * a:
            ra, rb = na, nb
            path.append("0")
        else:
            la, lb = na, nb
            path.append("1")
        na, nb = la + ra, lb + rb
    return "".join(path)


def _farey_margins(rep: Representation, plan: _FareyPlan, count: int
                   ) -> list[float]:
    """trace_margin of each planned curve's image, from its slope's
    (T, M). Slope classes are numbered 0, 1, 2 for (1,0), (0,1), (1,1), so
    that the sum of Farey neighbours of classes i and j has class
    3 - i - j."""
    A, B, C = (int_matrix(rep.image(g).rep.entries())
               for g in ("c1", "c2", "c3"))
    D = _adjugate(_mul(_mul(A, B), C))
    (tA, dA), (tB, dB), (tC, dC) = map(_trace_det, (A, B, C))
    tD = D[0] + D[3]
    class_dets = (dA * dB, dB * dC, dA * dC)  # sigma_c^2
    kappa = (dC, dA, dB)
    k = (tA * tB * dC + tC * tD, tB * tC * dA + tA * tD,
         tA * tC * dB + tB * tD)

    # a slope is [T, M, M^2 once needed, class, rho], rho = M / (M_left
    # M_right) for the neighbours it is the sum of: kappa of its class, or 1
    # at the root (1, 1), whose T is a trace. The division M(v + w) / M_u is
    # then kappa_c rho M^2 of the neighbour that stays, so it is never made.
    def child(node, end, u):
        """The slope node + end, for the node of a Stern-Brocot frame, an
        end of its interval and u = node - end, the other end."""
        tn, mn, _, cn, rho = node
        te, me, msq, ce, _ = end
        if msq is None:
            msq = end[2] = me * me
        c = 3 - cn - ce
        p = mn * me
        return [k[c] * p - tn * te - u[0] * (kappa[c] * rho * msq),
                kappa[c] * p, None, c, kappa[c]]

    def trace(x: IntMatrix, y: IntMatrix) -> int:
        a, b, c, d = x
        e, f, g, h = y
        return a * e + b * g + c * f + d * h

    x10 = [trace(A, B), 1, 1, 0, 1]
    x01 = [trace(B, C), 1, 1, 1, 1]
    x11 = [trace(C, A), 1, 1, 2, 1]
    x1m = child(x10, x01, x11)  # (1, -1), by the edge {(1, 0), (0, 1)}
    margins = [0.0] * count

    def record(i, x):
        margins[i] = _slope_margin(x[0], x[1], class_dets[x[3]])

    for slope, x in zip(_FareyPlan.ROOTS, (x10, x01, x11, x1m)):
        if slope in plan.roots:
            record(plan.roots[slope], x)
    for root, walk in zip((x11, x1m), plan.walks):
        stack = [(x10, x01, root)]  # (left, right, node) down the path
        for depth, right, i in walk:
            del stack[depth:]
            left, right_end, node = stack[-1]
            if right:
                frame = node, right_end, child(node, right_end, left)
            else:
                frame = left, node, child(node, left, right_end)
            stack.append(frame)
            if i is not None:
                record(i, frame[2])
    return margins


GUARD = 128  # leading bits of T and M that almost always decide a margin


def _slope_margin(t: int, m: int, sigma2: int) -> float:
    """trace_margin of a slope, from R = t^2 / (sigma2 m^2), m > 0, mostly
    read off the leading GUARD bits of t and m. Those bracket R, and when
    both ends of the bracket give the same _margin_parts, so does R, as
    each part is monotone in R. Otherwise the squares are formed."""
    a = max(abs(t).bit_length() - GUARD, 0)
    b = max(m.bit_length() - GUARD, 0)
    th, mh = abs(t) >> a, m >> b
    # R lies in [th^2 / (mh + 1)^2, (th + 1)^2 / mh^2] 4^(a - b) / sigma2,
    # without the + 1 where nothing was cut off
    ends = []
    for num, den in ((th * th, (mh + (b > 0)) ** 2),
                     ((th + (a > 0)) ** 2, mh * mh)):
        den *= sigma2
        if a >= b:
            num <<= 2 * (a - b)
        else:
            den <<= 2 * (b - a)
        ends.append(_margin_parts(num, den))
    if ends[0] != ends[1]:
        return _margin(*_margin_parts(t * t, sigma2 * (m * m)))
    return _margin(*ends[0])


def curve_margins(rep: Representation, curves: CurveList) -> list[float]:
    """trace_margin of every curve's image, by index into curves.words: by
    the Farey recursion for enumerated curves on the four-punctured sphere,
    by curve_products otherwise."""
    if curves.surface != rep.surface:
        raise ValueError(f"curves on {curves.surface}, representation on "
                         f"{rep.surface}")
    if curves.farey is not None:
        return _farey_margins(rep, curves.farey, len(curves))
    margins = [0.0] * len(curves)
    for i, image in curve_products(rep, curves):
        margins[i] = trace_margin(image)
    return margins
