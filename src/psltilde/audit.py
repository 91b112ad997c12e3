"""Hyperbolicity audits over enumerated simple closed curves and the
restriction (almost-Fuchsian) certificate for the counterexample components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import CurveList, Curves
from .errors import BoundaryElliptic, NotSupported, NotTypePreserving
from .exact import abs_trace, curve_margins, psl_type
from .mobius import is_parabolic
from .surface import (
    Representation,
    SignVector,
    SplittingSpec,
    euler_class,
    invariants,
    restrict,
)
from .words import CurveWord, format_word

DEFAULT_MARGIN = 1e-6


@dataclass(frozen=True)
class Violation:
    curve: str
    psl_type: str
    trace: float  # |trace| of a unit-determinant lift


@dataclass(frozen=True)
class AuditReport:
    genus: int
    punctures: int
    euler: int
    signs: tuple[int, ...]
    depth: int
    margin: float
    curves_checked: int
    min_trace_margin: float | None  # None, like the curve, when none checked
    violations: tuple[Violation, ...]
    min_margin_curve: str | None  # the first curve attaining the minimum
    words_dropped: int | None     # by MAX_ORBIT_WORD_LEN, when enumerated
    # curves rounded exactly (the minimum, its ties and every flag) whose
    # fixed-precision bracket (Farey interval of a (0,4) slope, or the
    # fixed-point word walk) left them to the exact walk; not serialized
    exact_fallbacks: int

    @property
    def passed(self) -> bool:
        return not self.violations


def _type_preserving_invariants(rep: Representation) -> tuple[int, SignVector]:
    """invariants(rep) when every peripheral image is parabolic. Otherwise
    NotTypePreserving names the first one that is not, by the types of the
    same relator walk."""
    for i, kind in enumerate(rep._relator[0], start=1):
        if not is_parabolic(kind):
            raise NotTypePreserving(
                f"peripheral image {i} is {kind.value}, not parabolic")
    return invariants(rep)


def _check_depth_and_margin(depth: int, margin: float) -> None:
    if depth < 0:
        raise ValueError(f"depth {depth} must be non-negative")
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin {margin} must be finite and non-negative")


def audit_rep(rep: Representation, depth: int,
              margin: float = DEFAULT_MARGIN,
              curves: list[CurveWord] | Curves | None = None
              ) -> AuditReport:
    """Decide every curve class: a violation is any image whose
    unit-determinant |trace| clears 2 by less than the margin (elliptic and
    identity images included).

    Each verdict is exact about the stored float matrices: the margins come
    from exact integers (psltilde.exact.curve_margins), and only each
    margin is rounded, to within a few ulps. Each curve's tr^2/det is
    first bracketed in fixed precision with a proven error bound:
    enumerated curves on the four-punctured sphere by their slopes, and
    every other curve, including every word a caller passes, by a
    fixed-point walk of its word. An integer screen on the brackets keeps
    only the curves the report can name, which are rounded exactly: those
    that can attain the minimum margin or fall below the margin. Every
    other margin is only bounded, proven above the minimum and not below
    the margin. The kept curves the brackets leave undecided (counted in
    exact_fallbacks) and the flagged are then walked in exact integers; the
    words of enumerated slopes are formed only for those and for the
    curves tied at the minimum. Pass a Curves list (such as
    Curves.enumerated) to audit many representations of one surface
    against one prepared list; words_dropped is that of an enumerated
    list, None for a caller's words. Deterministic: violations come in the
    order of the list's slot keys, which for enumerated curves is that of
    their code strings, and min_margin_curve is the first of them at the
    minimum."""
    _check_depth_and_margin(depth, margin)
    euler, signs = _type_preserving_invariants(rep)
    if curves is None:
        curves = Curves.enumerated(rep.surface, depth)
    elif not isinstance(curves, Curves):
        curves = CurveList(rep.surface, curves)
    margins, fallbacks, flagged = curve_margins(rep, curves, margin)
    flagged.sort(key=lambda slot_image: curves.slot_key(slot_image[0]))
    low = min(margins.values(), default=None)
    worst = None if low is None else min(
        (i for i, m in margins.items() if m == low), key=curves.slot_key)
    return AuditReport(
        genus=rep.surface.genus,
        punctures=rep.surface.punctures,
        euler=euler,
        signs=tuple(signs),
        depth=depth,
        margin=margin,
        curves_checked=len(curves),
        min_trace_margin=None if worst is None else margins[worst],
        violations=tuple(
            Violation(format_word(curves.slot_word(i)),
                      psl_type(image).value, abs_trace(image))
            for i, image in flagged),
        min_margin_curve=None if worst is None
        else format_word(curves.slot_word(worst)),
        words_dropped=curves.dropped,
        exact_fallbacks=fallbacks,
    )


@dataclass(frozen=True)
class RestrictionReport:
    mode: str                      # "counterexample" | "extremal"
    negative_puncture: int | None
    pants_euler: int | None
    piece_eulers: tuple[int, ...]
    piece_chis: tuple[int, ...]
    passed: bool


def _split_off_pants_with(rep: Representation, puncture: int
                          ) -> tuple[Representation, list[Representation]]:
    """Cut out the standard pants containing the given puncture; returns the
    pants piece and the list of complementary pieces."""
    surf = rep.surface
    g, p = surf.genus, surf.punctures
    if p >= 2:
        i = puncture - 1 if puncture >= 2 else 1
        pants, complement = restrict(rep, SplittingSpec.pants_pair(i))
        return pants, [complement]
    # p == 1: the pants around the single puncture has two boundary curves;
    # realize it by splitting off the first handle, then the pants
    piece1, rest = restrict(rep, SplittingSpec.prefix(1, 0))
    pants, piece2 = restrict(rest, SplittingSpec.pants_pair(1))
    return pants, [piece1, piece2]


def check_restrictions(rep: Representation) -> RestrictionReport:
    """Certify the almost-Fuchsian structure of a counterexample component,
    e = sign (-chi - 1) with exactly one puncture of sign -sign (sign -1 for
    the mirrored family): the pants containing that odd-sign puncture, the
    report's negative_puncture, carries Euler class 0 and every
    complementary piece is extremal with e = -sign chi (the Fuchsian
    certificate). Extremal input passes degenerately with every piece
    extremal (|e| = -chi); on chi = -1 the one piece is rep itself."""
    n, s = invariants(rep)
    chi = rep.surface.chi
    sign = -1 if n < 0 else 1
    if n == sign * (-chi - 1) and s.entries.count(-sign) == 1 and chi <= -2:
        odd = s.entries.index(-sign) + 1
        try:
            pants, pieces = _split_off_pants_with(rep, odd)
        except BoundaryElliptic:
            raise BoundaryElliptic(
                "splitting curve around the odd-sign puncture has elliptic "
                "image: the representation is not totally hyperbolic on the "
                "standard curves") from None
        pe = euler_class(pants)
        piece_es = tuple(euler_class(q) for q in pieces)
        piece_chis = tuple(q.surface.chi for q in pieces)
        ok = pe == 0 and all(e == -sign * c
                             for e, c in zip(piece_es, piece_chis))
        return RestrictionReport("counterexample", odd, pe, piece_es,
                                 piece_chis, ok)
    if abs(n) == -chi:
        if chi == -1:  # no standard split: the surface is its one piece
            return RestrictionReport("extremal", None, None, (n,), (-1,), True)
        pants, pieces = _split_off_pants_with(rep, rep.surface.punctures)
        allp = [pants] + pieces
        es = tuple(euler_class(q) for q in allp)
        chis = tuple(q.surface.chi for q in allp)
        ok = all(abs(e) == -c for e, c in zip(es, chis))
        return RestrictionReport("extremal", None, None, es, chis, ok)
    raise NotSupported(
        f"(euler, signs) = ({n}, {s.entries}) is neither a counterexample "
        "component nor extremal")
