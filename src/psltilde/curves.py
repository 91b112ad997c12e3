"""Curve words on a punctured surface: peripheral/separating classification,
validated mapping-class automorphisms, orbit enumeration of simple closed
curve classes, and the curve lists the audit decides.

Automorphism soundness gate: a registered map must be a free-group
automorphism (checked against its supplied inverse), fix the conjugacy class
of the relator word up to conjugacy and inversion, and permute the peripheral
conjugacy classes. Every default automorphism passes the gate on every
surface it is registered for; orbit outputs are therefore genuine simple
closed curve classes by construction. Completeness at a given depth is not
claimed.

Curves.enumerated picks the list of curves an audit decides: the
SlopeOrbit on the four-punctured sphere, a CurveList of words elsewhere;
psltilde.exact holds only the arithmetic on either.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from os.path import commonprefix

from .surface import (
    SurfacePresentation,
    _expand_last,
    _standard_curves,
    standard_splits,
)
from .words import (
    Alphabet,
    CurveWord,
    canonical_form,
    format_word,
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


def _identity_images(surf: SurfacePresentation) -> dict[str, CurveWord]:
    return {g: word(g) for g in surf.free_generators()}


def _gate(surf: SurfacePresentation):
    """validate_auto on surf as a function of the automorphism, with the
    relator and the peripheral words coded once in one Alphabet of the
    free generators."""
    gens = set(surf.free_generators())
    alphabet = Alphabet(gens)
    apply, canonical = alphabet.substitute, alphabet.canonical
    letters = [alphabet.codes[g, 1] for g in gens]
    relator = canonical(alphabet.encode(
        surf.gamma_word(surf.genus, surf.punctures - 1)))
    peripherals = [alphabet.encode(surf.peripheral_word(i))
                   for i in range(1, surf.punctures + 1)]
    targets = {canonical(w): i for i, w in enumerate(peripherals)}

    def gate(f: McgAuto) -> bool:
        if set(f.images) != gens or set(f.inverse_images) != gens:
            return False
        if not all(w.generators() <= gens for w in
                   (*f.images.values(), *f.inverse_images.values())):
            return False
        fwd = alphabet.substitution(f.images)
        bwd = alphabet.substitution(f.inverse_images)
        if any(apply(apply(x, fwd), bwd) != x or apply(apply(x, bwd), fwd) != x
               for x in letters):
            return False
        if canonical(apply(relator, fwd)) != relator:
            return False
        hits = {targets.get(canonical(apply(w, fwd))) for w in peripherals}
        return None not in hits and len(hits) == len(peripherals)
    return gate


def validate_auto(f: McgAuto, surf: SurfacePresentation) -> bool:
    """Soundness gate: automorphism + relator class fixed up to conjugacy and
    inversion + peripheral classes permuted."""
    return _gate(surf)(f)


def _handle_twists(surf: SurfacePresentation) -> list[McgAuto]:
    out = []
    for j in range(1, surf.genus + 1):
        for x, y in ((surf.a(j), surf.b(j)), (surf.b(j), surf.a(j))):
            fwd = _identity_images(surf)
            fwd[x] = word(x, y)
            bwd = _identity_images(surf)
            bwd[x] = word(x, (y, -1))
            out.append(McgAuto(f"T_{x}", fwd, bwd))
    return out


def _braid_images(surf: SurfacePresentation, i: int) -> dict[str, CurveWord]:
    """Generator substitution of the half-twist braiding punctures i, i+1
    (i = punctures-1 allowed: the implied last peripheral expands)."""
    images = _identity_images(surf)
    ci = surf.c(i)
    images[ci] = word(ci) * surf.peripheral_word(i + 1) * word((ci, -1))
    if i + 1 < surf.punctures:
        images[surf.c(i + 1)] = word(ci)
    return images


def _braids(surf: SurfacePresentation) -> list[McgAuto]:
    # sigma_i for i <= p-2 only: the half-twist swapping the last two
    # punctures moves the relator class to a peripheral class, so it cannot
    # pass the soundness gate
    out = []
    for i in range(1, surf.punctures - 1):
        ci, cj = surf.c(i), surf.c(i + 1)
        bwd = _identity_images(surf)
        bwd[ci] = word(cj)
        bwd[cj] = word((cj, -1), ci, cj)
        out.append(McgAuto(f"sigma_{i}", _braid_images(surf, i), bwd))
    return out


def _prefix_twists(surf: SurfacePresentation) -> list[McgAuto]:
    """Dehn twists about the standard separating prefix curves: fix the
    prefix generators, conjugate the rest by the curve word."""
    out = []
    for split in standard_splits(surf):
        if split.kind != "prefix":
            continue
        curve = surf.gamma_word(split.j, split.k)
        prefix_gens = set(split.side_a_generators(surf))
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
    gate = _gate(surf)
    for f in autos:
        if not gate(f):
            raise AssertionError(f"default automorphism {f.name} failed validation")
    return autos


def scc_seeds(surf: SurfacePresentation) -> list[CurveWord]:
    """Seed curves: handle generators, standard subsurface boundaries, and
    adjacent peripheral products; peripheral and trivial classes filtered."""
    seeds = [word(g) for g in surf.free_generators()[:2 * surf.genus]] \
        + [spec.curve_word(surf) for spec in _standard_curves(surf)]
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
    stats). Output order is deterministic: the code strings of the canonical
    forms, sorted. These are the words of Curves.enumerated(surf, depth),
    in slot_key order."""
    curves = Curves.enumerated(surf, depth)
    words = [curves.slot_word(i)
             for i in sorted(range(len(curves)), key=curves.slot_key)]
    if return_stats:
        return words, {"dropped": curves.dropped, "depth": depth,
                       "count": len(words)}
    return words


class Curves:
    """Curves by slot, prepared once for any number of audits on one
    surface: a list of words (CurveList), or the enumerated curves of the
    four-punctured sphere by slope (SlopeOrbit). A subclass has a length,
    slot_word, the word of one slot, and slot_key, its sort key: the order
    of words in a CurveList, that of their code strings for slopes.
    psltilde.exact.curve_margins takes any list; the walks of words take a
    CurveList only, which sublist makes of any slots."""

    surface: SurfacePresentation
    dropped: int | None = None  # words the enumeration dropped, if enumerated

    def sublist(self, slots: list[int]) -> "CurveList":
        """The curves in the given slots as a list of words to walk."""
        return CurveList(self.surface, map(self.slot_word, slots))

    @staticmethod
    def enumerated(surf: SurfacePresentation, depth: int) -> "Curves":
        """The curves of enumerate_scc(surf, depth). These are simple, so on
        the four-punctured sphere each is decided by its slope and not by
        its word, and the list is the SlopeOrbit; on every other surface it
        is the CurveList of the word search's code strings
        (CurveList.searched)."""
        if surf == SPHERE4:
            return SlopeOrbit(depth)
        return CurveList.searched(surf, depth)


class CurveList(Curves):
    """Curve words; slot i is words[i].

    Each word has its implied last peripheral written out, one character
    per letter of alphabet (codes, in the order of words). The walks of
    words take them in the sorted order of those strings, so that each
    word shares a prefix with the one before and resumes from a product of
    that prefix left on the walk's stack (psltilde.exact._walk); alphabet,
    codes and that plan (walk) are made on first use. The list of the word
    search (searched) holds its code strings alone, words None, and
    decodes the word of a slot when asked for."""

    def __init__(self, surf: SurfacePresentation, words):
        self.surface = surf
        self.words = list(words)

    @classmethod
    def searched(cls, surf: SurfacePresentation, depth: int) -> "CurveList":
        """The curves of enumerate_scc(surf, depth) in its order, by the
        word search (_word_orbit). No enumerated word names c_p, so its
        string is its code string."""
        curves = cls.__new__(cls)
        curves.surface, curves.words = surf, None
        curves.alphabet, curves.codes, curves.dropped = \
            _word_orbit(surf, depth)
        return curves

    @cached_property
    def alphabet(self) -> Alphabet:
        """Letter codes of the free generators and of the implied c_p."""
        return _curve_alphabet(self.surface)

    @cached_property
    def codes(self) -> list[str]:
        alphabet, surf = self.alphabet, self.surface
        expand = alphabet.substitution({surf.c(surf.punctures):
                                        surf.last_peripheral_word()})
        return [alphabet.substitute(alphabet.encode(w), expand)
                for w in self.words]

    @cached_property
    def walk(self) -> list[tuple[int, int]]:
        """(slot, resume) in walk order: resume is the length of the
        prefix the word shares with the word before."""
        codes = self.codes
        order = sorted(range(len(codes)), key=codes.__getitem__)
        resume = [0] + [len(commonprefix((codes[i], codes[j])))
                        for i, j in zip(order, order[1:])]
        return list(zip(order, resume))

    def __len__(self) -> int:
        return len(self.codes if self.words is None else self.words)

    def slot_word(self, slot: int) -> CurveWord:
        if self.words is None:
            return self.alphabet.decode(self.codes[slot])
        return self.words[slot]

    def slot_key(self, slot: int) -> int:
        return slot

    def sublist(self, slots: list[int]) -> "CurveList":
        """As Curves.sublist; this list itself when the slots are all of
        its words."""
        return self if len(slots) == len(self) else super().sublist(slots)


def _curve_alphabet(surf: SurfacePresentation) -> Alphabet:
    """Letter codes of surf's free generators and of the implied c_p.
    Adding the codes of c_p keeps the relative order of the others, so on
    words without c_p canonical forms and the order of code strings are
    those of the free generators alone."""
    return Alphabet(surf.free_generators() + (surf.c(surf.punctures),))


def _orbit_tables(surf: SurfacePresentation
                  ) -> tuple[Alphabet, list[dict[int, str]]]:
    """The alphabet of CurveList and the substitution tables of the default
    automorphisms, then of their inverses: the maps of the orbit search, in
    its order, tables[t] and tables[(t + n/2) % n] inverse to each other."""
    autos = default_autos(surf)
    alphabet = _curve_alphabet(surf)
    return alphabet, [alphabet.substitution(f.images) for f in autos] \
        + [alphabet.substitution(f.inverse_images) for f in autos]


def _orbit(seeds, depth: int, image, n: int):
    """Breadth-first search from the seeds to the given depth under n maps,
    map t and map (t + n/2) % n inverse to each other on the elements:
    image(x, t) is the image of x under map t, None for one dropped.
    Returns (orbit, parents, dropped): the elements in the order first
    reached, parents[i] = (j, t) when orbit[i] came first as the image of
    orbit[j] under map t (None for a seed), and the times a dropped image
    was reached.

    When map t takes orbit[i] to orbit[j], new, old or orbit[i] itself, the
    inverse map takes orbit[j] back to orbit[i], so that image is not
    formed when orbit[j] is expanded: known[j] holds one bit per such map.
    A skipped image is never new and never dropped, so the orbit, parents
    and drop count are those of the search that forms every image."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    orbit = list(seeds)
    parents: list[tuple[int, int] | None] = [None] * len(orbit)
    index = {x: i for i, x in enumerate(orbit)}
    known = [0] * len(orbit)
    back = [1 << ((t + n // 2) % n) for t in range(n)]
    frontier = range(len(orbit))
    dropped = 0
    for _ in range(depth):
        start = len(orbit)
        for i in frontier:
            x = orbit[i]
            for t in range(n):
                if known[i] >> t & 1:
                    continue
                img = image(x, t)
                if img is None:
                    dropped += 1
                    continue
                j = index.get(img)
                if j is None:
                    j = index[img] = len(orbit)
                    orbit.append(img)
                    parents.append((i, t))
                    known.append(0)
                known[j] |= back[t]
        frontier = range(start, len(orbit))
        if not frontier:
            break
    return orbit, parents, dropped


def _word_orbit(surf: SurfacePresentation, depth: int
                ) -> tuple[Alphabet, list[str], int]:
    """(alphabet, codes, dropped): the canonical code strings of the curves
    of enumerate_scc in the alphabet of CurveList, sorted, and the number
    dropped, by the orbit search. Every string of the orbit is canonical,
    so an image that the substitution leaves as it was needs no canonical
    form."""
    alphabet, tables = _orbit_tables(surf)
    apply, canonical = alphabet.substitute, alphabet.canonical

    def image(w: str, t: int):
        img = apply(w, tables[t])
        if img == w:
            return w
        img = canonical(img)
        return None if len(img) > MAX_ORBIT_WORD_LEN else img

    codes, _, dropped = _orbit(map(alphabet.encode, scc_seeds(surf)), depth,
                               image, len(tables))
    codes.sort(key=alphabet.tuple_key)
    return alphabet, codes, dropped


# -- the four-punctured sphere by slopes --------------------------------------
#
# The orbifold homomorphism c_i -> (v -> 2 p_i - v), with the centres p_i of
# _CENTRES, sends a word of even length to the translation by twice the
# alternating sum of its letters' centres (the first letter counted +), and a
# simple closed curve to a translation by +-2 (a, b) with gcd(a, b) = 1: its
# slope, which decides the curve. An automorphism f of the default set sends
# each c_i to a conjugate of some c_j, whose image is the point reflection
# about some q_i; the affine map A with A(p_i) = q_i for i = 1, 2, 3 then
# satisfies image(f(w)) = A image(w) A^-1 for every word w, so f multiplies
# the translation vector of every even word by the linear part L_f of A. Its
# columns are minus the vectors of f(c1 c2) and f(c2 c3), as those of c1 c2
# and c2 c3 are (-1, 0) and (0, -1).
#
# The canonical word of slope (a, b) has |a| letters c1^+-1, |a - b| letters
# c2^+-1 and |b| letters c3^+-1: 2 max(|a|, |b|, |a - b|) in all, as
# a + (b - a) - b = 0. The quotient of the plane by the point reflections
# about Z^2 is a pillowcase with cone points p_1..p_4. Cut it along the
# segments from p_1 to (0, 1), from p_2 to (2, 1) and from p_3 to (2, 1),
# three arcs to p_4 of directions d_i = (0, 1), (1, 1), (1, 0) that meet only
# there. Their complement is a disk, so a closed curve reads a word by its
# crossings, the letter c_i^+-1 for each crossing of arc i (the tests check
# the letter counts of every curve through depth 8). The straight line of
# slope (a, b) and the arcs are geodesics of the flat metric, so they cross
# minimally, and the line crosses arc i |det((a, b), d_i)| times: |a|,
# |a - b| and |b|. SlopeOrbit checks the length of every word it forms.

SPHERE4 = SurfacePresentation(0, 4)

_CENTRES = {"c1": (0, 0), "c2": (1, 0), "c3": (1, 1), "c4": (0, 1)}


def _code_centres(alphabet: Alphabet) -> dict[str, tuple[int, int]]:
    return {alphabet.codes[g, e]: p for g, p in _CENTRES.items()
            for e in (1, -1) if (g, e) in alphabet.codes}


def _translation(codes: str, centres: dict[str, tuple[int, int]]
                 ) -> tuple[int, int]:
    """The alternating sum of the centres of a coded word's letters: half
    the translation vector of its orbifold image, when its length is even.
    Free reduction does not change it."""
    even, odd = codes[0::2], codes[1::2]
    a = b = 0
    for code, (x, y) in centres.items():
        n = even.count(code) - odd.count(code)
        a, b = a + n * x, b + n * y
    return a, b


def slope_length(a: int, b: int) -> int:
    """Letters of the canonical word of slope (a, b)."""
    return 2 * max(abs(a), abs(b), abs(a - b))


def _positive(a: int, b: int) -> tuple[int, int]:
    """The one of +-(a, b) with a > 0, or with a = 0 and b >= 0."""
    return (a, b) if a > 0 or a == 0 and b >= 0 else (-a, -b)


def word_slope(w: CurveWord) -> tuple[int, int]:
    """The slope (a, b) of a word of a simple closed curve on the
    four-punctured sphere, a > 0 or (a, b) = (0, 1). A slope does not
    certify that a word is simple: c1 c2 c3^-1 c2^-1 has the slope of
    c1 c2 c3 c2^-1."""
    alphabet = Alphabet(_CENTRES)
    codes = alphabet.encode(w)
    a, b = _positive(*_translation(codes, _code_centres(alphabet)))
    if len(codes) % 2 or math.gcd(a, b) != 1:
        raise AssertionError("not a simple closed curve of the "
                             f"four-punctured sphere: {format_word(w)!r}")
    return a, b


def _farey_parents(a: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The Farey parents (l, r) of the slope (a, b), a > 0 and b != 0: the
    ends of the interval in which the Stern-Brocot tree below (1, 1),
    between (1, 0) and (0, 1), puts it, and for b < 0 the mirror images of
    those of (a, -b). So l + r = (a, b) and det(l, r) = +-1; for b > 0, l =
    (a1, b1), the end toward (1, 0), has a1 b - b1 a = 1, so a1 is the
    inverse of b modulo a in (0, a]."""
    s, b = (1, b) if b > 0 else (-1, -b)
    a1 = pow(b, -1, a) or a
    b1 = (a1 * b - 1) // a
    return (a1, s * b1), (a - a1, s * (b - b1))


def _farey_plan(slopes) -> tuple[list[tuple[int, int, int]], list[int]]:
    """(nodes, slots): the slopes of simple curves on the four-punctured
    sphere as a parent list. Nodes 0, 1 and 2 are the roots (1, 0), (0, 1)
    and (1, 1); node 3 + j is the slope l + r for nodes[j] = (l, r, u), the
    earlier nodes of its Farey parents l and r and of their difference
    u = l - r. Slopes are taken up to sign, so (1, -1) has the parents
    (1, 0) and (0, 1), and u = (1, 1). Every Stern-Brocot ancestor of a
    slope is a node, and slots[i] is the node of slopes[i]. The plan
    depends on the slopes only, so one plan serves every representation."""
    index = {(1, 0): 0, (0, 1): 1, (1, 1): 2}  # slope -> node
    nodes, slots, taken = [], [], set()
    for v in slopes:
        chain, w = [], v  # w and its parents, down the younger parent
        while w not in index:
            l, r = _farey_parents(*w)
            chain.append((w, l, r))
            w = l if l[0] + abs(l[1]) > r[0] + abs(r[1]) else _positive(*r)
        for w, l, r in reversed(chain):
            index[w] = len(index)
            nodes.append((index[l], index[_positive(*r)],
                          index[_positive(l[0] - r[0], l[1] - r[1])]))
        if index[v] in taken:
            raise AssertionError(f"two curves of slope {v}")
        taken.add(index[v])
        slots.append(index[v])
    return nodes, slots


class SlopeOrbit(Curves):
    """Curves.enumerated on the four-punctured sphere, as slopes: the
    orbit search (_orbit) of the word search, run on the seeds' slopes
    with the integer matrices L_f of the automorphisms and their inverses,
    a slope dropped, and counted each time it is reached, where its word
    would be longer than MAX_ORBIT_WORD_LEN. No word is formed to find a
    slope. slopes[i] came from slopes[parents[i][0]] by
    tables[parents[i][1]] (parents[i] is None for a seed), so code(i), the
    canonical code string of curve i, takes one substitution and one
    canonical form per level and is kept once formed; a word is formed
    only when asked for, by slot_word or slot_key. Each curve is decided
    by its slope, through the parent list farey."""

    surface = SPHERE4

    def __init__(self, depth: int):
        alphabet, self.tables = _orbit_tables(SPHERE4)
        self.alphabet = alphabet
        self.centres = centres = _code_centres(alphabet)
        c1c2, c2c3 = alphabet.encode(word("c1", "c2")), \
            alphabet.encode(word("c2", "c3"))
        self.maps = []  # L_f of each table, row major
        for table in self.tables:
            (p, r), (q, s) = (_translation(alphabet.substitute(w, table),
                                           centres) for w in (c1c2, c2c3))
            self.maps.append((-p, -q, -r, -s))

        def image(v: tuple[int, int], t: int):
            (a, b), (p, q, r, s) = v, self.maps[t]
            w = _positive(p * a + q * b, r * a + s * b)
            return None if slope_length(*w) > MAX_ORBIT_WORD_LEN else w

        seeds = scc_seeds(SPHERE4)
        self.slopes, self.parents, self.dropped = _orbit(
            map(word_slope, seeds), depth, image, len(self.maps))
        self._codes = dict(enumerate(map(alphabet.encode, seeds)))

    def __len__(self) -> int:
        return len(self.slopes)

    def code(self, i: int) -> str:
        """The canonical code string of curve i."""
        codes, chain = self._codes, []
        while i not in codes:
            chain.append(i)
            i = self.parents[i][0]
        code = codes[i]
        apply, canonical = self.alphabet.substitute, self.alphabet.canonical
        for j in reversed(chain):
            code = canonical(apply(code, self.tables[self.parents[j][1]]))
            if len(code) != slope_length(*self.slopes[j]):
                raise AssertionError(f"slope {self.slopes[j]} has a word of "
                                     f"{len(code)} letters")
            codes[j] = code
        return code

    @cached_property
    def farey(self) -> tuple[list[tuple[int, int, int]], list[int]]:
        """The parent list of the slopes (_farey_plan)."""
        return _farey_plan(self.slopes)

    def slot_key(self, i: int) -> str:
        """Sort key of curve i: enumerate_scc's order."""
        return self.alphabet.tuple_key(self.code(i))

    def slot_word(self, i: int) -> CurveWord:
        return self.alphabet.decode(self.code(i))
