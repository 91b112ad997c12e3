"""Curve words on a punctured surface: peripheral/separating classification,
validated mapping-class automorphisms, and orbit enumeration of simple closed
curve classes.

Automorphism soundness gate: a registered map must be a free-group
automorphism (checked against its supplied inverse), fix the conjugacy class
of the relator word up to conjugacy and inversion, and permute the peripheral
conjugacy classes. Every default automorphism passes the gate on every
surface it is registered for; orbit outputs are therefore genuine simple
closed curve classes by construction. Completeness at a given depth is not
claimed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .surface import SurfacePresentation, _expand_last
from .words import (
    Alphabet,
    CurveWord,
    canonical_form,
    substitute,
    word,
)

MAX_ORBIT_WORD_LEN = 512


@dataclass(frozen=True)
class CurveClassification:
    kind: str                 # "peripheral" | "separating" | "nonseparating"
    puncture: int | None = None

    @staticmethod
    def peripheral(i: int) -> "CurveClassification":
        return CurveClassification("peripheral", i)


SEPARATING = CurveClassification("separating")
NONSEPARATING = CurveClassification("nonseparating")


def _peripheral_canonicals(surf: SurfacePresentation) -> dict:
    return {
        canonical_form(surf.peripheral_word(i)): i
        for i in range(1, surf.punctures + 1)
    }


def classify_curve(w: CurveWord, surf: SurfacePresentation) -> CurveClassification:
    """Peripheral(i) iff conjugate to c_i^+-1 in the free group; otherwise
    separating iff every a/b exponent sum vanishes (null-homologous in the
    capped closed surface). The caller vouches that w is a simple class."""
    w = _expand_last(surf, w)
    canon = canonical_form(w)
    hit = _peripheral_canonicals(surf).get(canon)
    if hit is not None:
        return CurveClassification.peripheral(hit)
    for j in range(1, surf.genus + 1):
        if w.exponent_sum(surf.a(j)) != 0 or w.exponent_sum(surf.b(j)) != 0:
            return NONSEPARATING
    return SEPARATING


@dataclass(frozen=True, eq=False)
class McgAuto:
    """Free-group automorphism given by generator images plus its inverse."""

    name: str
    images: dict[str, CurveWord]
    inverse_images: dict[str, CurveWord]

    def apply(self, w: CurveWord) -> CurveWord:
        return substitute(w, self.images)

    def inverse(self) -> "McgAuto":
        return McgAuto(f"{self.name}^-1", self.inverse_images, self.images)


def _identity_images(surf: SurfacePresentation) -> dict[str, CurveWord]:
    return {g: word(g) for g in surf.free_generators()}


def validate_auto(f: McgAuto, surf: SurfacePresentation) -> bool:
    """Soundness gate: automorphism + relator class fixed up to conjugacy and
    inversion + peripheral classes permuted."""
    gens = surf.free_generators()
    if set(f.images) != set(gens) or set(f.inverse_images) != set(gens):
        return False
    for g in gens:
        if substitute(f.images[g], f.inverse_images) != word(g):
            return False
        if substitute(f.inverse_images[g], f.images) != word(g):
            return False
    relator = surf.gamma_word(surf.genus, surf.punctures - 1)
    if canonical_form(f.apply(relator)) != canonical_form(relator):
        return False
    targets = _peripheral_canonicals(surf)
    seen = set()
    for i in range(1, surf.punctures + 1):
        img = canonical_form(f.apply(surf.peripheral_word(i)))
        hit = targets.get(img)
        if hit is None or hit in seen:
            return False
        seen.add(hit)
    return True


def _handle_twists(surf: SurfacePresentation) -> list[McgAuto]:
    out = []
    for j in range(1, surf.genus + 1):
        a, b = surf.a(j), surf.b(j)
        fwd = _identity_images(surf)
        fwd[a] = word(a, b)
        bwd = _identity_images(surf)
        bwd[a] = word(a, (b, -1))
        out.append(McgAuto(f"T_{a}", fwd, bwd))
        fwd = _identity_images(surf)
        fwd[b] = word(b, a)
        bwd = _identity_images(surf)
        bwd[b] = word(b, (a, -1))
        out.append(McgAuto(f"T_{b}", fwd, bwd))
    return out


def _braids(surf: SurfacePresentation) -> list[McgAuto]:
    # sigma_i for i <= p-2 only: the half-twist swapping the last two
    # punctures moves the relator class to a peripheral class, so it cannot
    # pass the soundness gate
    out = []
    for i in range(1, surf.punctures - 1):
        ci, cj = surf.c(i), surf.c(i + 1)
        fwd = _identity_images(surf)
        fwd[ci] = word(ci, cj, (ci, -1))
        fwd[cj] = word(ci)
        bwd = _identity_images(surf)
        bwd[ci] = word(cj)
        bwd[cj] = word((cj, -1), ci, cj)
        out.append(McgAuto(f"sigma_{i}", fwd, bwd))
    return out


def _prefix_twists(surf: SurfacePresentation) -> list[McgAuto]:
    """Dehn twists about the standard separating prefix curves: fix the
    prefix generators, conjugate the rest by the curve word."""
    from .surface import SplittingSpec, standard_splits

    out = []
    for split in standard_splits(surf):
        if split.kind != "prefix":
            continue
        curve = surf.gamma_word(split.j, split.k)
        if classify_curve(curve, surf).kind != "separating":
            continue
        prefix_gens = set()
        for jj in range(1, split.j + 1):
            prefix_gens |= {surf.a(jj), surf.b(jj)}
        prefix_gens |= {surf.c(i) for i in range(1, split.k + 1)}
        fwd = {}
        bwd = {}
        for g in surf.free_generators():
            if g in prefix_gens:
                fwd[g] = word(g)
                bwd[g] = word(g)
            else:
                fwd[g] = curve * word(g) * curve.inv()
                bwd[g] = curve.inv() * word(g) * curve
        out.append(McgAuto(f"T_gamma_{split.j}_{split.k}", fwd, bwd))
    return out


def default_autos(surf: SurfacePresentation) -> list[McgAuto]:
    """Handle twists, braids away from the last puncture, and separating
    prefix-curve twists; every one is validated before registration."""
    autos = _handle_twists(surf) + _braids(surf) + _prefix_twists(surf)
    for f in autos:
        if not validate_auto(f, surf):
            raise AssertionError(f"default automorphism {f.name} failed validation")
    return autos


def scc_seeds(surf: SurfacePresentation) -> list[CurveWord]:
    """Seed curves: handle generators, standard subsurface boundaries, and
    adjacent peripheral products; peripheral and trivial classes filtered."""
    g, p = surf.genus, surf.punctures
    seeds = []
    for j in range(1, g + 1):
        seeds.append(word(surf.a(j)))
        seeds.append(word(surf.b(j)))
    for j in range(1, g + 1):
        seeds.append(surf.gamma_word(j, 0))
    for k in range(1, p - 1):
        seeds.append(surf.gamma_word(g, k))
    for i in range(1, p):
        seeds.append(surf.peripheral_word(i) * surf.peripheral_word(i + 1))
    out = []
    seen = set()
    for s in seeds:
        s = _expand_last(surf, s)
        canon = canonical_form(s)
        if not canon or canon.letters in seen:
            continue
        if classify_curve(canon, surf).kind == "peripheral":
            continue
        seen.add(canon.letters)
        out.append(canon)
    return sorted(out, key=lambda w: w.letters)


def enumerate_scc(surf: SurfacePresentation, depth: int,
                  return_stats: bool = False):
    """Orbit of the seed set under the validated automorphisms and their
    inverses, to the given composition depth, canonicalized and deduplicated.
    Words beyond MAX_ORBIT_WORD_LEN letters are dropped (and counted in the
    stats). Output order is deterministic."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    autos = default_autos(surf)
    alphabet = Alphabet(surf.free_generators())
    tables = [alphabet.substitution(f.images) for f in autos] \
        + [alphabet.substitution(f.inverse_images) for f in autos]
    apply, canonical = alphabet.substitute, alphabet.canonical
    frontier = [alphabet.encode(w) for w in scc_seeds(surf)]
    curves = list(frontier)
    seen = set(frontier)
    dropped = 0
    for _ in range(depth):
        new_frontier = []
        for w in frontier:
            for table in tables:
                img = canonical(apply(w, table))
                if len(img) > MAX_ORBIT_WORD_LEN:
                    dropped += 1
                    continue
                if img and img not in seen:
                    seen.add(img)
                    new_frontier.append(img)
        curves += new_frontier
        frontier = new_frontier
        if not frontier:
            break
    curves.sort(key=alphabet.tuple_key)
    curves = list(map(alphabet.decode, curves))
    if return_stats:
        return curves, {"dropped": dropped, "depth": depth, "count": len(curves)}
    return curves
