"""Exact integer 2x2 products: the audit's curve kernel.

A stored representation is, through its images' int_rep, an exact integer
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

from .curves import SPHERE4
from .mobius import (
    PAR_BAND,
    IntMatrix,
    Matrix2,
    PslType,
    _adjugate,
    _mul,
    _sqrt_ratio,
    _trace_det,
    classify_psl,
    normalize_unit,
    unit_entries,
)
from .surface import Representation, SurfacePresentation
from .words import Alphabet, CurveWord

IDENTITY: IntMatrix = (1, 0, 0, 1)

BLOCK = 4  # letters per multiplication step of the curve walk


def _alphabet(surf: SurfacePresentation) -> Alphabet:
    """Letter codes of the free generators and of the implied c_p."""
    return Alphabet(surf.free_generators() + (surf.c(surf.punctures),))


def letter_matrices(rep: Representation) -> dict[str, IntMatrix]:
    """Integer image of each free generator's letter code; an inverse is
    the adjugate, a positive multiple of the inverse."""
    out = {}
    codes = _alphabet(rep.surface).codes
    for gen in rep.surface.free_generators():
        m = rep.image(gen).int_rep
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
    the prefix products that a later word resumes from; codes and that
    plan (walk) are made on first use.

    An audit takes the curves by slot, which is the index into words here
    and a slope of the orbit for the enumerated four-punctured sphere
    (_SlopeCurves): slot_word and slot_key form the word of one slot and
    its place in words, and in_index_order puts values by slot in the
    order of words."""

    def __init__(self, surf: SurfacePresentation, words):
        self.surface = surf
        self.words = list(words)
        self.farey = None  # set for enumerated curves on the (0,4) surface
        self.dropped = None  # words the enumeration dropped, when enumerated

    @cached_property
    def codes(self) -> list[str]:
        alphabet = _alphabet(self.surface)
        cp = self.surface.c(self.surface.punctures)
        expand = alphabet.substitution({cp: self.surface.last_peripheral_word()})
        return [alphabet.substitute(alphabet.encode(w), expand)
                for w in self.words]

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
        and not by its word, and the list holds the slopes of the orbit."""
        from .curves import SlopeOrbit, enumerate_scc

        if surf == SPHERE4:
            return _SlopeCurves(SlopeOrbit(depth))
        words, stats = enumerate_scc(surf, depth, return_stats=True)
        curves = cls(surf, words)
        curves.dropped = stats["dropped"]
        return curves

    def __len__(self) -> int:
        return len(self.words)

    def slot_word(self, slot: int) -> CurveWord:
        return self.words[slot]

    def slot_key(self, slot: int):
        """Sort key of a slot: the order of words."""
        return slot

    def in_index_order(self, values: list) -> list:
        return values

    def sublist(self, slots: list[int]) -> "CurveList":
        """The curves in the given slots as a list of words to walk; this
        list itself when they are all of its words."""
        if self.farey is None and len(slots) == len(self):
            return self
        return CurveList(self.surface, map(self.slot_word, slots))


class _SlopeCurves(CurveList):
    """CurveList.enumerated on the four-punctured sphere: slot i is curve i
    of a SlopeOrbit, decided by its slope (farey). A word is formed only
    when asked for, by slot_word or slot_key, or for every curve, sorted as
    enumerate_scc sorts them, on the first use of words."""

    def __init__(self, orbit):
        self.surface = SPHERE4
        self.orbit = orbit
        self.farey = _FareyPlan(orbit.slopes)
        self.dropped = orbit.dropped

    @cached_property
    def order(self) -> list[int]:
        """The slots in the order of words."""
        return sorted(range(len(self)), key=self.slot_key)

    @cached_property
    def words(self) -> list[CurveWord]:
        return list(map(self.orbit.word, self.order))

    def __len__(self) -> int:
        return len(self.orbit)

    def slot_word(self, slot: int) -> CurveWord:
        return self.orbit.word(slot)

    def slot_key(self, slot: int) -> str:
        return self.orbit.key(slot)

    def in_index_order(self, values: list) -> list:
        return list(map(values.__getitem__, self.order))


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
# slope decides the curve (psltilde.curves, SlopeOrbit). With x(v) the trace
# of the unit-determinant image of slope v, sign kept, Farey neighbours v, w
# satisfy the edge relation x(v + w) + x(v - w) + x(v) x(w) = K_c, with
# c = v + w mod 2 and K_(1,0) = ab + cd, K_(0,1) = bc + ad, K_(1,1) = ac + bd for the traces
# a..d of c1..c4 (Goldman, "Trace coordinates on Fricke spaces of some simple
# hyperbolic surfaces", 2009; Maloni, Palesi and Tan, Groups Geom. Dyn. 2015).
# In integers, with D_A..D_C the determinants of the images A..C of c1..c3
# and t_A..t_D the traces of A..C and D = adj(ABC), a slope of class c has
# x = y / sigma_c, sigma_c^2 = D_A D_B, D_B D_C, D_A D_C for
# c = (1,0), (0,1), (1,1). The roots (1,0) = c1 c2, (0,1) = c2 c3 and
# (1,1) = c3 c1 have y = their trace, and below them
# y(v + w) = (k_c - y_v y_w) / kappa_c - y_u, u = +-(v - w), with
# (k_c, kappa_c) = (t_A t_B D_C + t_C t_D, D_C), (t_B t_C D_A + t_A t_D, D_A),
# (t_A t_C D_B + t_B t_D, D_B). y^2 / sigma_c^2 is then the same rational
# number as tr^2/det of the word's integer image, so the margin rounds to the
# same float. y itself is a ratio of integers thousands of bits long at depth
# 6, while a margin needs about 53 bits: each slope keeps an integer interval
# [m - r, m + r] around Y = 2^PRECISION y instead, r bounding every rounding
# below it.


class _FareyPlan:
    """Slopes of simple curves on the four-punctured sphere, by slot, as a
    depth-first walk of the Stern-Brocot trees below (1, 1) and below its
    mirror (1, -1), both between (1, 0) and (0, 1); a slope (a, b) with
    b < 0 is the mirror image of (a, -b), by the same path. The plan
    depends on the slopes only, so one plan serves every representation."""

    ROOTS = ((1, 0), (0, 1), (1, 1), (1, -1))

    def __init__(self, slopes):
        self.roots = {}  # root slope -> slot
        trees = ({}, {})  # below (1, 1), below (1, -1): path -> slot
        for i, (a, b) in enumerate(slopes):
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
        # (path length, right turn, slot or None) in preorder, which is the
        # string order of the paths
        self.walks = tuple(tuple((len(p), p[-1] == "1", tree[p])
                                 for p in sorted(tree)) for tree in trees)


def _stern_brocot(a: int, b: int) -> str:
    """Path from (1, 1) to (a, b), a, b > 0, in the Stern-Brocot tree
    between (1, 0) and (0, 1): '0' toward (1, 0), '1' toward (0, 1). With
    a/b = [q_0; q_1, ..., q_k] it is q_0 '0's, q_1 '1's, and so on
    alternating, the last run one shorter."""
    path, turn, other = [], "0", "1"
    while b:
        q, r = divmod(a, b)
        path.append(turn * (q if r else q - 1))
        a, b, turn, other = b, r, other, turn
    return "".join(path)


PRECISION = 128  # fraction bits of the Farey intervals


def _farey_margins(rep: Representation, plan: _FareyPlan, count: int
                   ) -> list[float | None]:
    """trace_margin of each planned slot's image, from its slope's interval
    around Y, or None where that interval does not decide it. Slope classes
    are numbered 0, 1, 2 for (1,0), (0,1), (1,1), so that the sum of Farey
    neighbours of classes i and j has class 3 - i - j."""
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

    def child(node, end, u):
        """The slope node + end, for the node of a Stern-Brocot frame, an
        end of its interval and u = node - end, the other end; a slope is
        (m, r, class) for Y in [m - r, m + r]."""
        mn, rn, cn = node
        me, re, ce = end
        c = 3 - cn - ce
        # |Y_v Y_w - mn me| <= rad; rad // kappa + 1 bounds rad / kappa, and
        # 1 more the floor of the midpoint
        rad = abs(mn) * re + abs(me) * rn + rn * re
        return (k[c] - mn * me) // kappa[c] - u[0], \
            rad // kappa[c] + 2 + u[1], c

    # the roots' Y are exact
    x10, x01, x11 = ((t, 0, c) for c, t in enumerate(
        sum(_mul(x, y)[::3]) << p for x, y in ((A, B), (B, C), (C, A))))
    x1m = child(x10, x01, x11)  # (1, -1), by the edge {(1, 0), (0, 1)}
    margins = [0.0] * count

    def record(i, x):
        m, r, c = x
        m = abs(m)
        margins[i] = _bracket_margin(max(m - r, 0), m + r, dens[c])

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


def _bracket_margin(a: int, b: int, den: int) -> float | None:
    """The margin of the rational number tt/den for some tt with
    a^2 <= tt <= b^2, 0 <= a <= b, or None. When both ends give the same
    _margin_parts, so does tt/den, as each part is monotone in it, and the
    margin is exact."""
    parts = _margin_parts(a * a, den)
    return _margin(*parts) if parts == _margin_parts(b * b, den) else None


def decided_margins(rep: Representation, curves: CurveList
                    ) -> list[float | None]:
    """trace_margin of each slot's image where the Farey interval of its
    slope decides it, and None elsewhere: everywhere on a list that is not
    the enumerated four-punctured sphere's."""
    if curves.surface != rep.surface:
        raise ValueError(f"curves on {curves.surface}, representation on "
                         f"{rep.surface}")
    if curves.farey is None:
        return [None] * len(curves)
    return _farey_margins(rep, curves.farey, len(curves))


def curve_margins(rep: Representation, curves: CurveList) -> list[float]:
    """trace_margin of every curve's image, by index into curves.words.
    Enumerated curves on the four-punctured sphere are decided by the
    intervals of their slopes, and only the undecided ones walked by
    curve_products; every other list is walked outright."""
    margins = decided_margins(rep, curves)
    todo = [i for i, m in enumerate(margins) if m is None]
    if todo:
        for j, image in curve_products(rep, curves.sublist(todo)):
            margins[todo[j]] = trace_margin(image)
    return curves.in_index_order(margins)
