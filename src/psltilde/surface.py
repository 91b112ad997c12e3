"""Surface presentations, representations, word evaluation, relative Euler
class, sign vectors, feasibility bounds, the evaluation map, and restriction
to standard subsurfaces.

Presentation convention: pi_1 of the genus-g surface with p punctures is free
on a1,b1,..,ag,bg,c1,..,c_{p-1}; the last primitive peripheral is the implied
word c_p = ([a1,b1]..[ag,bg] c1..c_{p-1})^-1, so a Representation can never
violate the defining relation.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .cover import (
    CoverElement,
    Ell,
    cover_conj,
    exact_product,
    lift_in_class,
    special_lift,
)
from .errors import (
    BoundaryElliptic,
    NotHP,
    NotHyperbolic,
    SelfVerificationError,
    UnknownGenerator,
    UnsupportedCurve,
)
from .mobius import (
    Matrix2,
    ProjectiveMatrix,
    PslType,
    _eigenvalues,
    _hyperbolic_frame,
    _unit_scale,
    classify_psl,
)
from .words import CurveWord, EMPTY_WORD, canonical_form, substitute, word


@dataclass(frozen=True)
class SurfacePresentation:
    genus: int
    punctures: int

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"genus {self.genus} must be non-negative")
        if self.punctures < 1:
            raise ValueError("need at least one puncture")
        if self.chi >= 0:
            raise ValueError(
                f"Euler characteristic {self.chi} of "
                f"(g={self.genus}, p={self.punctures}) must be negative")

    @property
    def chi(self) -> int:
        return 2 - 2 * self.genus - self.punctures

    def a(self, j: int) -> str:
        return f"a{j}"

    def b(self, j: int) -> str:
        return f"b{j}"

    def c(self, i: int) -> str:
        return f"c{i}"

    def free_generators(self) -> tuple[str, ...]:
        names = []
        for j in range(1, self.genus + 1):
            names += [self.a(j), self.b(j)]
        names += [self.c(i) for i in range(1, self.punctures)]
        return tuple(names)

    def handle_word(self, j: int) -> CurveWord:
        a, b = self.a(j), self.b(j)
        return CurveWord([(a, 1), (b, 1), (a, -1), (b, -1)])

    def gamma_word(self, j: int, k: int) -> CurveWord:
        """Standard subsurface boundary [a1,b1]..[aj,bj] c1..ck."""
        w = EMPTY_WORD
        for jj in range(1, j + 1):
            w = w * self.handle_word(jj)
        for i in range(1, k + 1):
            w = w * word(self.c(i))
        return w

    def last_peripheral_word(self) -> CurveWord:
        """The implied c_p as a word in the free generators."""
        return self.gamma_word(self.genus, self.punctures - 1).inv()

    def peripheral_word(self, i: int) -> CurveWord:
        if not 1 <= i <= self.punctures:
            raise ValueError(f"puncture index {i} out of range")
        if i < self.punctures:
            return word(self.c(i))
        return self.last_peripheral_word()


@dataclass(frozen=True, eq=False)
class Representation:
    """Generator images; nothing assigns into images, so what is read off
    them (the relator walk) is cached on the object."""

    surface: SurfacePresentation
    images: dict[str, ProjectiveMatrix]

    def __post_init__(self):
        missing = set(self.surface.free_generators()) - set(self.images)
        if missing:
            raise UnknownGenerator(f"missing generator images: {sorted(missing)}")

    def image(self, gen: str) -> ProjectiveMatrix:
        try:
            return self.images[gen]
        except KeyError:
            raise UnknownGenerator(gen) from None

    @cached_property
    def _relator(self) -> tuple[tuple[PslType, ...], CoverElement]:
        """The one walk of the lifted relator (_invariants)."""
        return _invariants(self)

    def peripheral_image(self, i: int) -> ProjectiveMatrix:
        """The stored image of c_i for i < p, and for i = p the relator
        walk's c_p, the exact inverse of the rest rounded once."""
        p = self.surface.punctures
        if not 1 <= i <= p:
            raise ValueError(f"puncture index {i} out of range")
        return self._relator[1].base if i == p else self.images[f"c{i}"]

    def conjugate(self, g: ProjectiveMatrix) -> "Representation":
        return _conjugated(self, g, self.images)


def _conjugated(rep: Representation, g: ProjectiveMatrix, gens
                ) -> Representation:
    """rep with the images of gens conjugated by g, each exact in integers
    and rounded once (cover_conj). Builders chain conjugations, and float
    sandwiches would accumulate image error at tolerance scale."""
    h = CoverElement(g, 0)
    return Representation(rep.surface, {
        gen: cover_conj(h, CoverElement(m, 0)).base if gen in gens else m
        for gen, m in rep.images.items()})


def eval_word(rep: Representation, w: CurveWord) -> ProjectiveMatrix:
    """Left-to-right product of generator images by exact_product: exact in
    integers and rounded once per entry, so image traces are reliable at
    tolerance scale even through long cancellation-heavy words. The implied
    last peripheral name (e.g. "c3" on a thrice-punctured sphere) expands to
    its defining word."""
    surf = rep.surface
    last_name = surf.c(surf.punctures)
    factors = []
    for gen, exp in w.letters:
        if gen == last_name:
            expansion = surf.last_peripheral_word()
            letters = (expansion if exp == 1 else expansion.inv()).letters
        else:
            letters = ((gen, exp),)
        factors += [(CoverElement(rep.image(g), 0), e) for g, e in letters]
    return exact_product(*factors).base


@dataclass(frozen=True)
class SignVector:
    entries: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (-1, 0, 1) for e in self.entries):
            raise ValueError("sign entries must be -1, 0 or +1")

    @property
    def p_plus(self) -> int:
        return sum(1 for e in self.entries if e == 1)

    @property
    def p_zero(self) -> int:
        return sum(1 for e in self.entries if e == 0)

    @property
    def p_minus(self) -> int:
        return sum(1 for e in self.entries if e == -1)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def _relator_factors(rep: Representation, indices: list[int]
                     ) -> list[tuple[CoverElement, int]]:
    """exact_product factors of the letters of W = gamma_word(g, p-1):
    handle generators at index 0, and c_i at index indices[i-1] over its
    stored image, the factor eval_word multiplies."""
    surf = rep.surface
    index = {surf.c(i): k for i, k in enumerate(indices, start=1)}
    w = surf.gamma_word(surf.genus, surf.punctures - 1)
    return [(CoverElement(rep.image(gen), index.get(gen, 0)), exp)
            for gen, exp in w.letters]


def _eval_lift(m: ProjectiveMatrix) -> CoverElement:
    """The evaluation map's lift of a peripheral image: its special_lift,
    or its Ell(1) lift when it is elliptic."""
    if classify_psl(m) is PslType.ELLIPTIC:
        return lift_in_class(m, Ell(1))
    return special_lift(m)


_SIGN = {PslType.HYPERBOLIC: 0, PslType.PARABOLIC_PLUS: 1,
         PslType.PARABOLIC_MINUS: -1}


def _invariants(rep: Representation
                ) -> tuple[tuple[PslType, ...], CoverElement]:
    """One walk of the lifted relator: the types of the p peripheral
    images (the stored c_1..c_{p-1} and the walk's c_p), and the lift of
    c_p. That lift is the exact inverse of the lifted W = [a1,b1]..c_{p-1},
    with c_1..c_{p-1} at their evaluation-map lifts, so its base is
    peripheral_image(p) bit for bit and the relator is central by
    construction."""
    p = rep.surface.punctures
    images = [rep.peripheral_image(i) for i in range(1, p)]
    factors = _relator_factors(
        rep, [_eval_lift(m).lift_index for m in images])
    last = exact_product(*((x, -e) for x, e in reversed(factors)))
    return tuple(classify_psl(m) for m in images + [last.base]), last


def _checked(walk: tuple[tuple[PslType, ...], CoverElement]
             ) -> tuple[int, SignVector]:
    """(e, signs) of a walk, e being how far the lift of c_p lies above its
    component-index-0 lift; NotHP names the first peripheral image that is
    elliptic or central."""
    kinds, last = walk
    for i, kind in enumerate(kinds, start=1):
        if kind not in _SIGN:
            raise NotHP(
                f"peripheral image {i} is {kind.value}; need hyperbolic or "
                "parabolic")
    return (last.lift_index - special_lift(last.base).lift_index,
            SignVector(tuple(_SIGN[kind] for kind in kinds)))


def euler_class(rep: Representation) -> int:
    """Relative Euler class: the central power reached by the lifted relator.

    Handle generators are lifted at index 0 (any lift gives the same
    commutator, cover_commutator), peripherals at their component-index-0
    lifts. The relator is walked once per representation in exact integers,
    c_p as the exact inverse of the rest, so it is central with no
    tolerance. Raises NotHP for elliptic peripherals.
    """
    return invariants(rep)[0]


def sign_vector(rep: Representation) -> SignVector:
    return invariants(rep)[1]


def invariants(rep: Representation) -> tuple[int, SignVector]:
    """(euler_class(rep), sign_vector(rep)) from the representation's one
    walk of the lifted relator."""
    return _checked(rep._relator)


class Feasibility(Enum):
    FEASIBLE_IFF = "FeasibleIff"
    FEASIBLE_SUFFICIENT = "FeasibleSufficient"
    INFEASIBLE = "Infeasible"
    UNKNOWN = "Unknown"


def mw_bounds(genus: int, punctures: int, n: int, s) -> Feasibility:
    """Generalized Milnor-Wood verdict for Euler class n and sign vector s.

    With at least one hyperbolic puncture the double inequality
    chi + p_plus <= n <= -chi - p_minus is necessary and sufficient; for
    all-parabolic signs it is only sufficient (extremal components exist
    outside it), hence Unknown when it fails.
    """
    sv = s if isinstance(s, SignVector) else SignVector(tuple(s))
    if len(sv) != punctures:
        raise ValueError("sign vector length must equal puncture count")
    chi = 2 - 2 * genus - punctures
    inside = (chi + sv.p_plus) <= n <= (-chi - sv.p_minus)
    if sv.p_zero >= 1:
        return Feasibility.FEASIBLE_IFF if inside else Feasibility.INFEASIBLE
    return Feasibility.FEASIBLE_SUFFICIENT if inside else Feasibility.UNKNOWN


def evaluation_map(rep: Representation) -> CoverElement:
    """Lifted product of the handle commutators and the first p-1 peripheral
    lifts (component-index-0 closure lifts, elliptics at their Ell(1) lift),
    in one exact walk; its base is the inverse of the last peripheral
    image."""
    indices = [_eval_lift(rep.peripheral_image(i)).lift_index
               for i in range(1, rep.surface.punctures)]
    return exact_product(*_relator_factors(rep, indices))


@dataclass(frozen=True)
class SplittingSpec:
    """A separating curve from the standard list.

    kind "prefix": gamma_{j,k} = [a1,b1]..[aj,bj] c1..ck, which is a simple
    prefix of the relator only for j = genus or k = 0.
    kind "pants_pair": the curve c_i c_{i+1} cutting off the pair of pants
    containing punctures i and i+1.
    """

    kind: str
    j: int = 0
    k: int = 0
    i: int = 0

    @staticmethod
    def prefix(j: int, k: int) -> "SplittingSpec":
        return SplittingSpec("prefix", j=j, k=k)

    @staticmethod
    def pants_pair(i: int) -> "SplittingSpec":
        return SplittingSpec("pants_pair", i=i)

    def curve_word(self, surf: SurfacePresentation) -> CurveWord:
        if self.kind == "prefix":
            return surf.gamma_word(self.j, self.k)
        return surf.peripheral_word(self.i) * surf.peripheral_word(self.i + 1)

    def side_a_generators(self, surf: SurfacePresentation) -> list[str]:
        """The free generators on side A, the side a twist conjugates: the
        prefix's handles and c1..ck, or the pants' c_i, c_{i+1} less the
        implied c_p."""
        if self.kind == "prefix":
            handles = surf.free_generators()[:2 * self.j]
            return [*handles, *(surf.c(i) for i in range(1, self.k + 1))]
        return [surf.c(i) for i in (self.i, self.i + 1) if i < surf.punctures]

    def validate(self, surf: SurfacePresentation) -> None:
        g, p = surf.genus, surf.punctures
        if self.kind == "prefix":
            j, k = self.j, self.k
            if not (0 <= j <= g and 0 <= k <= p - 1):
                raise UnsupportedCurve(f"gamma_({j},{k}) out of range")
            if j < g and k > 0:
                raise UnsupportedCurve(
                    f"gamma_({j},{k}) is not simple in standard position "
                    "(handle blocks intervene); use j = genus or k = 0")
            side_a_chi = 2 - 2 * j - (k + 1)
            side_b_chi = 2 - 2 * (g - j) - (p - k + 1)
            if side_a_chi >= 0 or side_b_chi >= 0:
                raise UnsupportedCurve(
                    f"gamma_({j},{k}) does not cut two hyperbolic-type pieces")
        elif self.kind == "pants_pair":
            if not 1 <= self.i <= p - 1:
                raise UnsupportedCurve(f"pants pair index {self.i} out of range")
            if 2 - 2 * g - (p - 1) >= 0:
                raise UnsupportedCurve(
                    "complement of the pants is not of hyperbolic type")
        else:
            raise UnsupportedCurve(f"unknown splitting kind {self.kind!r}")


def _standard_curves(surf: SurfacePresentation) -> list[SplittingSpec]:
    """The standard curves before validation: gamma_(j,0) for j <= g,
    gamma_(g,k) for 1 <= k <= p - 2, and the pants pairs."""
    g, p = surf.genus, surf.punctures
    return [SplittingSpec.prefix(j, 0) for j in range(1, g + 1)] \
        + [SplittingSpec.prefix(g, k) for k in range(1, p - 1)] \
        + [SplittingSpec.pants_pair(i) for i in range(1, p)]


def standard_splits(surf: SurfacePresentation) -> list[SplittingSpec]:
    out = []
    for spec in _standard_curves(surf):
        try:
            spec.validate(surf)
        except UnsupportedCurve:
            continue
        out.append(spec)
    return out


def _split_boundary(rep: Representation, split: SplittingSpec
                    ) -> tuple[ProjectiveMatrix, PslType]:
    """The image of a valid standard splitting curve and its type;
    BoundaryElliptic when it is elliptic or the identity, where neither
    restriction nor a twist is defined."""
    split.validate(rep.surface)
    boundary = eval_word(rep, split.curve_word(rep.surface))
    kind = classify_psl(boundary)
    if kind in (PslType.ELLIPTIC, PslType.IDENTITY):
        raise BoundaryElliptic(
            f"splitting curve image is {kind.value}; no restriction or twist "
            "along it")
    return boundary, kind


def _piece(handles: list[tuple[ProjectiveMatrix, ProjectiveMatrix]],
           cs: list[ProjectiveMatrix]) -> Representation:
    """A piece on its standard presentation, its last peripheral implied:
    a_j, b_j go to handles[j-1] and c_i to cs[i-1]."""
    surf = SurfacePresentation(len(handles), len(cs) + 1)
    images = [m for pair in handles for m in pair] + cs
    return Representation(surf, dict(zip(surf.free_generators(), images)))


def restrict(rep: Representation, split: SplittingSpec
             ) -> tuple[Representation, Representation]:
    """Restrict along a standard separating curve; Euler classes add.

    Both pieces are returned on standard presentations, sliced from the
    stored images of c_1..c_{p-1} and the relator walk's c_p: the splitting
    curve becomes each piece's implied last peripheral (prefix splits) or
    sits in the complement's peripheral list at the cut position (pants
    splits).
    """
    surf = rep.surface
    boundary, _ = _split_boundary(rep, split)
    g, p = surf.genus, surf.punctures
    handles = [(rep.image(surf.a(j)), rep.image(surf.b(j)))
               for j in range(1, g + 1)]
    cs = [rep.peripheral_image(i) for i in range(1, p + 1)]
    if split.kind == "prefix":
        j, k = split.j, split.k
        return _piece(handles[:j], cs[:k]), _piece(handles[j:], cs[k:])
    i = split.i
    return (_piece([], cs[i - 1:i + 1]),
            _piece(handles, (cs[:i - 1] + [boundary] + cs[i + 1:])[:-1]))


def _power_frame(m: ProjectiveMatrix) -> tuple[float, Matrix2, Matrix2]:
    """(lam, f, f^-1): m's expanding eigenvalue and eigenframe, m^t = f
    diag(lam^t, lam^-t) f^-1."""
    f = _hyperbolic_frame(m)
    return _eigenvalues(m.trace_abs())[0], f, f.inv()


def _power_entries(lam: float, f: Matrix2, fi: Matrix2, t: float) -> tuple:
    """Entries of m^t up to sign from _power_frame(m): f diag(lam^t,
    lam^-t) f^-1 rescaled to determinant 1 as normalize() does, raising
    NonUnitDeterminant alike."""
    da, dd = lam ** t, lam ** (-t)
    pa, pb, pc, pd = f.a * da, f.b * dd, f.c * da, f.d * dd
    a, b = pa * fi.a + pb * fi.c, pa * fi.b + pb * fi.d
    c, d = pc * fi.a + pd * fi.c, pc * fi.b + pd * fi.d
    k = _unit_scale(a, b, c, d)  # x * 1.0 == x: no rescale is exact
    return a * k, b * k, c * k, d * k


def _one_parameter_power(m: ProjectiveMatrix, t: float) -> ProjectiveMatrix:
    """Time-t element of the hyperbolic one-parameter subgroup through m."""
    return ProjectiveMatrix(Matrix2(*_power_entries(*_power_frame(m), t)))


def find_standard_split(surf: SurfacePresentation, curve: CurveWord
                        ) -> SplittingSpec:
    target = canonical_form(_expand_last(surf, curve))
    for spec in standard_splits(surf):
        if canonical_form(_expand_last(surf, spec.curve_word(surf))) == target:
            return spec
    raise UnsupportedCurve(f"curve {curve} is not in the standard list")


def _expand_last(surf: SurfacePresentation, w: CurveWord) -> CurveWord:
    """w with the implied last peripheral written out."""
    images = {g: word(g) for g in surf.free_generators()}
    images[surf.c(surf.punctures)] = surf.last_peripheral_word()
    return substitute(w, images)


def _twist(rep: Representation, split: SplittingSpec, t: float
           ) -> Representation:
    """Conjugate side A of a standard splitting by the time-t element of the
    one-parameter subgroup through the curve's image, in exact integer
    products as Representation.conjugate does."""
    boundary, kind = _split_boundary(rep, split)
    if kind is not PslType.HYPERBOLIC:
        raise NotHyperbolic("twist curve image must be hyperbolic")
    if t == 0.0:
        return rep
    return _conjugated(rep, _one_parameter_power(boundary, t),
                       set(split.side_a_generators(rep.surface)))


def twist_deform(rep: Representation, curve, t: float) -> Representation:
    """Conjugate one side of a standard splitting by the time-t element of
    the one-parameter subgroup through the curve's image. Peripheral types,
    Euler class and sign vector are asserted unchanged."""
    split = curve if isinstance(curve, SplittingSpec) else \
        find_standard_split(rep.surface, curve)
    out = _twist(rep, split, t)
    if out is not rep:
        before, after = invariants(rep), invariants(out)
        if before != after:
            raise SelfVerificationError(
                f"twist changed invariants: {before} -> {after}")
    return out
