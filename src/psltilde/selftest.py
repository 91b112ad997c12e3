"""Built-in property suite: the cover group laws, the image theorems, the
parabolic/elliptic sign rules and the Euler class against its definition.
This module is the one implementation of each law: `psltilde selftest` runs
the checks at a command-line scale, and acceptance criteria 1-4 call the
same checks at full scale. Each check_* takes (trials, seed) and raises
AssertionError at the first failure."""
from __future__ import annotations

import math
import random

from .constructors import COMMUTATOR_IMAGE, PRODUCT_IMAGE, FactorKind
from .cover import (
    Center,
    CoverClass,
    CoverElement,
    Ell,
    Hyp,
    ParMinus,
    ParPlus,
    angle_lift,
    cover_classify,
    cover_commutator,
    cover_conj,
    cover_equal,
    cover_inv,
    cover_mul,
    lift_in_class,
    sl_projection,
    special_lift,
    z_power,
)
from .errors import NotHP
from .mobius import Matrix2, classify_psl, normalize
from .sampling import (
    random_cover,
    random_elliptic,
    random_hyp0,
    random_hyperbolic,
    random_par0,
    random_parabolic,
    random_psl,
)
from .surface import Representation, SurfacePresentation, euler_class

CONDITIONING_GUARD = 600  # draws allowed per conditioned product sample


def _sgn(x: float) -> int:
    return 1 if x > 0 else (-1 if x < 0 else 0)


def check_cover_laws(trials: int, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        x, y, zc = (random_cover(rng) for _ in range(3))
        xy = cover_mul(x, y)
        if xy.base.rep.maxdiff((x.base @ y.base).rep) >= 1e-9:
            raise AssertionError("cover product does not project to PSL product")
        if not cover_equal(cover_mul(xy, zc), cover_mul(x, cover_mul(y, zc))):
            raise AssertionError("cover product not associative")
        if cover_classify(cover_mul(x, cover_inv(x))) != Center(0):
            raise AssertionError("inverse law failed")


def _lift_value(x: CoverElement, t: float) -> float:
    return angle_lift(x.base, t) + x.lift_index * math.pi


def _near_horizontal(rng: random.Random) -> CoverElement:
    """An element whose first column lies on, or within 1e-15 of, the
    horizontal axis, where the canonical lift jumps between 0 and pi; one
    in five is parabolic (a = +-1)."""
    c = rng.choice((0.0, 1e-17, -1e-17, 1e-15, -1e-15))
    a = rng.uniform(0.2, 3.0) if rng.random() < 0.8 else 1.0
    a *= rng.choice((1, -1))
    b = rng.uniform(-3.0, 3.0)
    return CoverElement(normalize(Matrix2(a, b, c, (1.0 + b * c) / a)),
                        rng.randint(-3, 3))


def check_cover_composition(trials: int, seed: int) -> None:
    """The group law against its definition: the homeomorphism of x y is
    that of x after that of y, and x^-1 undoes x, at three generic points;
    two draws in five lie across the horizontal axis."""
    rng = random.Random(seed)

    def draw():
        return _near_horizontal(rng) if rng.random() < 0.4 else random_cover(rng)

    for _ in range(trials):
        x, y = draw(), draw()
        xy, xi = cover_mul(x, y), cover_inv(x)
        for t in (0.3, 1.0, 2.0):
            if abs(_lift_value(xy, t) - _lift_value(x, _lift_value(y, t))) > 1e-6:
                raise AssertionError(
                    f"composition law failed: {x} times {y} gave {xy}")
            if abs(_lift_value(xi, _lift_value(x, t)) - t) > 1e-6:
                raise AssertionError(
                    f"inverse composition failed: {x} inverted to {xi}")


def _shifted_index(cls: CoverClass, n: int) -> int:
    """Index of z^n x for x in cls; the Ell indices skip 0."""
    m = cls.n + n
    if cls.tag == "Ell" and cls.n * m <= 0:
        m += -1 if cls.n > 0 else 1
    return m


def check_central_shifts(trials: int, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        x = random_cover(rng)
        cls = cover_classify(x)
        for n in range(-3, 4):
            shifted = cover_classify(cover_mul(z_power(n), x))
            if shifted.tag != cls.tag or shifted.n != _shifted_index(cls, n):
                raise AssertionError(
                    f"central shift law failed: z^{n} {cls} -> {shifted}")


def check_conjugation_invariance(trials: int, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        x = random_cover(rng)
        g = random_cover(rng)
        if cover_classify(cover_conj(g, x)) != cover_classify(x):
            raise AssertionError("classification not conjugation-invariant")


def check_commutator_image(trials: int, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        x, y = random_cover(rng), random_cover(rng)
        cls = cover_classify(cover_commutator(x, y))
        if cls not in COMMUTATOR_IMAGE:
            raise AssertionError(f"commutator landed outside the image: {cls}")


FACTOR_SAMPLERS = {
    FactorKind.HYP0: random_hyp0,
    FactorKind.PAR_PLUS0: lambda rng: random_par0(rng, 1),
    FactorKind.PAR_MINUS0: lambda rng: random_par0(rng, -1),
    FactorKind.ELL1: lambda rng: lift_in_class(random_elliptic(rng), Ell(1)),
    FactorKind.ELL_MINUS1: lambda rng: lift_in_class(random_elliptic(rng),
                                                     Ell(-1)),
}


def _conditioned(rng, k1, k2, want, trials):
    """Yield `trials` products of k1 and k2 factors whose PSL type is want."""
    got = 0
    for _ in range(CONDITIONING_GUARD * trials):
        prod = cover_mul(FACTOR_SAMPLERS[k1](rng), FACTOR_SAMPLERS[k2](rng))
        if classify_psl(prod.base) is want:
            yield prod
            got += 1
            if got == trials:
                return
    raise AssertionError(
        f"conditioning starved: {k1.value} x {k2.value} rarely {want.value}")


def check_product_image(trials: int, seed: int) -> dict:
    """Every PRODUCT_IMAGE entry on `trials` conditioned products; returns
    the classes each entry attained."""
    rng = random.Random(seed)
    attained = {}
    for key, allowed in PRODUCT_IMAGE.items():
        pair, want = key
        kinds = sorted(pair, key=list(FactorKind).index)
        k1, k2 = kinds[0], kinds[-1]
        seen = attained[key] = set()
        for prod in _conditioned(rng, k1, k2, want, trials):
            cls = cover_classify(prod)
            if cls not in allowed:
                raise AssertionError(
                    f"product image violated: {k1.value} x {k2.value} "
                    f"{want.value} gave {cls}, allowed {sorted(allowed, key=str)}")
            seen.add(cls)
    return attained


def check_offdiag(trials: int, seed: int) -> None:
    """Par(n)^sign: sign is (-1)^n sgn(b), or (-1)^n (-sgn(c)) when b = 0."""
    rng = random.Random(seed)
    for n in range(-2, 3):
        for sign in (1, -1):
            cls = ParPlus(n) if sign > 0 else ParMinus(n)
            for _ in range(trials):
                m = sl_projection(lift_in_class(random_parabolic(rng, sign), cls))
                lead = _sgn(m.b) if m.b != 0 else -_sgn(m.c)
                if lead * (-1) ** (n % 2) != sign:
                    raise AssertionError(
                        f"off-diagonal sign rule failed at Par({n})^{sign}")


def check_offdiag_elliptic(trials: int, seed: int) -> None:
    """Ell(n): sgn(c) = -sgn(b) = (-1)^n sgn(n), both entries nonzero."""
    rng = random.Random(seed)
    for n in (-2, -1, 1, 2):
        s = _sgn(n) * (-1) ** (n % 2)
        for _ in range(trials):
            m = sl_projection(lift_in_class(random_elliptic(rng), Ell(n)))
            if not _sgn(m.c) == s == -_sgn(m.b):
                raise AssertionError(
                    f"elliptic off-diagonal rule failed at Ell({n}): "
                    f"b = {m.b!r}, c = {m.c!r}")


def check_trace_parity(trials: int, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(-3, 3)
        x = lift_in_class(random_hyperbolic(rng), Hyp(n))
        if _sgn(sl_projection(x).trace()) != (-1) ** (n % 2):
            raise AssertionError(f"trace parity failed at Hyp({n})")


EULER_SURFACES = ((0, 3), (0, 4), (1, 1), (1, 2), (2, 1))
PERIPHERAL_DRAWS = (random_hyperbolic, random_parabolic,
                    lambda rng: random_parabolic(rng, -1))


def check_euler_composition(trials: int, seed: int) -> None:
    """euler_class against its definition: the lifted relator
    [a1,b1]..[ag,bg] c1..cp (handles at index 0, peripherals at their
    component-index-0 lifts), composed as homeomorphisms of the line, is
    the translation by -e*pi. Images are random on small surfaces, with
    c_1..c_{p-1} hyperbolic or parabolic of either sign; a draw whose c_p
    is elliptic is skipped."""
    rng = random.Random(seed)
    done = 0
    while done < trials:
        surf = SurfacePresentation(*rng.choice(EULER_SURFACES))
        rep = Representation(surf, {
            gen: (rng.choice(PERIPHERAL_DRAWS) if gen[0] == "c"
                  else random_psl)(rng) for gen in surf.free_generators()})
        try:
            euler = euler_class(rep)
        except NotHP:
            continue
        value = 0.7  # the lifts act right to left: c_p first, a1 last
        for i in range(surf.punctures, 0, -1):
            value = _lift_value(special_lift(rep.peripheral_image(i)), value)
        for j in range(surf.genus, 0, -1):
            a, b = (CoverElement(rep.image(g), 0) for g in (surf.a(j), surf.b(j)))
            for x in (cover_inv(b), cover_inv(a), b, a):
                value = _lift_value(x, value)
        shift = (0.7 - value) / math.pi
        if abs(shift - euler) > 1e-6:
            raise AssertionError(
                f"euler_class {euler}, but the composed relator on {surf} "
                f"translates by {shift} half-turns")
        done += 1


SUITES = [  # (name, check, trials at scale 1, seed)
    ("cover group laws", check_cover_laws, 1000, 101),
    ("cover composition", check_cover_composition, 2000, 109),
    ("central shift laws", check_central_shifts, 200, 102),
    ("conjugation invariance", check_conjugation_invariance, 500, 103),
    ("commutator image", check_commutator_image, 1500, 104),
    ("product image", check_product_image, 120, 105),
    ("parabolic off-diagonal rule", check_offdiag, 150, 106),
    ("elliptic off-diagonal rule", check_offdiag_elliptic, 150, 107),
    ("hyperbolic trace parity", check_trace_parity, 400, 108),
    ("Euler class by composition", check_euler_composition, 300, 110),
]


def run_selftest(scale: float = 1.0, out=print) -> bool:
    ok = True
    for name, check, base, seed in SUITES:
        trials = max(10, int(base * scale))
        try:
            check(trials, seed)
            out(f"PASS {name} ({trials} trials)")
        except AssertionError as exc:
            ok = False
            out(f"FAIL {name}: {exc}")
    return ok
