"""Hyperbolicity audits over enumerated simple closed curves and the
restriction (almost-Fuchsian) certificate for the counterexample components.
"""
from __future__ import annotations

from dataclasses import dataclass

from .curves import enumerate_scc
from .errors import (
    BoundaryElliptic,
    NotHP,
    NotSupported,
    NotTypePreserving,
    RelatorNotCentral,
)
from .mobius import classify_psl, is_parabolic
from .surface import (
    Representation,
    SignVector,
    SplittingSpec,
    euler_class,
    eval_word,
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
    min_trace_margin: float
    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def _type_preserving_invariants(rep: Representation) -> tuple[int, SignVector]:
    """invariants(rep), from one evaluation of the peripheral images when
    every one is parabolic. Otherwise the images are evaluated again, in
    order, so that NotTypePreserving names the first one that is not."""
    try:
        euler, signs = invariants(rep)
        if 0 not in signs.entries:
            return euler, signs
    except (NotHP, RelatorNotCentral):
        pass
    for i in range(1, rep.surface.punctures + 1):
        kind = classify_psl(rep.peripheral_image(i))
        if not is_parabolic(kind):
            raise NotTypePreserving(
                f"peripheral image {i} is {kind.value}, not parabolic")
    return invariants(rep)  # every image parabolic: raises the relator error


def audit_rep(rep: Representation, depth: int,
              margin: float = DEFAULT_MARGIN,
              curves: list[CurveWord] | None = None) -> AuditReport:
    """Evaluate every enumerated curve class; a violation is any image whose
    unit-determinant |trace| clears 2 by less than the margin (elliptic and
    identity images included). Deterministic: curves are canonical and
    evaluated in sorted order."""
    euler, signs = _type_preserving_invariants(rep)
    if curves is None:
        curves = enumerate_scc(rep.surface, depth)
    min_margin = float("inf")
    violations = []
    for w in curves:
        image = eval_word(rep, w)
        tr = abs(image.rep.trace())
        min_margin = min(min_margin, tr - 2.0)
        if tr - 2.0 < margin:
            violations.append(
                Violation(format_word(w), classify_psl(image).value, tr))
    return AuditReport(
        genus=rep.surface.genus,
        punctures=rep.surface.punctures,
        euler=euler,
        signs=tuple(signs),
        depth=depth,
        margin=margin,
        curves_checked=len(curves),
        min_trace_margin=min_margin,
        violations=tuple(violations),
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
    """Certify the almost-Fuchsian structure: the pants containing the
    negative puncture carries Euler class 0 and every complementary piece is
    extremal (|e| = -chi, the Fuchsian certificate). Extremal input passes
    degenerately with every piece extremal."""
    n, s = invariants(rep)
    chi = rep.surface.chi
    if n == -chi - 1 and s.p_minus == 1 and chi <= -2:
        neg = list(s.entries).index(-1) + 1
        try:
            pants, pieces = _split_off_pants_with(rep, neg)
        except BoundaryElliptic:
            raise BoundaryElliptic(
                "splitting curve around the negative puncture has elliptic "
                "image: the representation is not totally hyperbolic on the "
                "standard curves") from None
        pe = euler_class(pants)
        piece_es = tuple(euler_class(q) for q in pieces)
        piece_chis = tuple(q.surface.chi for q in pieces)
        ok = pe == 0 and all(e == -c for e, c in zip(piece_es, piece_chis))
        return RestrictionReport("counterexample", neg, pe, piece_es,
                                 piece_chis, ok)
    if abs(n) == -chi:
        pants, pieces = _split_off_pants_with(rep, rep.surface.punctures)
        allp = [pants] + pieces
        es = tuple(euler_class(q) for q in allp)
        chis = tuple(q.surface.chi for q in allp)
        ok = all(abs(e) == -c for e, c in zip(es, chis))
        return RestrictionReport("extremal", None, None, es, chis, ok)
    raise NotSupported(
        f"(euler, signs) = ({n}, {s.entries}) is neither a counterexample "
        "component nor extremal")
