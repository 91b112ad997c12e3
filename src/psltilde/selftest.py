"""Built-in property suite: cover group laws, image theorems, and the
parabolic/elliptic sign rules, at a scale suitable for a command-line
self-check. The pytest suite runs the same laws at full scale."""
from __future__ import annotations

import random

from .cover import (
    Center,
    Ell,
    Hyp,
    ParMinus,
    ParPlus,
    cover_classify,
    cover_conj,
    cover_equal,
    cover_inv,
    cover_mul,
    lift_in_class,
    sl_projection,
    z_power,
)
from .constructors import COMMUTATOR_IMAGE
from .errors import DegenerateRange
from .mobius import PslType, classify_psl
from .sampling import (
    random_cover,
    random_elliptic,
    random_hyp0,
    random_hyperbolic,
    random_par0,
    random_parabolic,
)


def _sgn(x: float) -> int:
    return 1 if x > 0 else (-1 if x < 0 else 0)


def check_cover_laws(trials: int, seed: int = 101) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        x, y, zc = (random_cover(rng) for _ in range(3))
        xy = cover_mul(x, y)
        if xy.base.rep.maxdiff((x.base @ y.base).rep) >= 1e-9:
            raise AssertionError("cover product does not project to PSL product")
        left = cover_mul(cover_mul(x, y), zc)
        right = cover_mul(x, cover_mul(y, zc))
        if not cover_equal(left, right, 1e-8):
            raise AssertionError("cover product not associative")
        inv = cover_mul(x, cover_inv(x))
        if cover_classify(inv) != Center(0):
            raise AssertionError("inverse law failed")


def check_central_shifts(trials: int, seed: int = 102) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        x = random_cover(rng)
        try:
            cls = cover_classify(x)
        except DegenerateRange:
            continue
        for n in range(-3, 4):
            shifted = cover_classify(cover_mul(z_power(n), x))
            if cls.tag in ("Hyp", "Center") or cls.tag.startswith("Par"):
                expect = cls.n + n
            else:
                expect = cls.n + n
                if cls.n > 0 and expect <= 0:
                    expect -= 1
                elif cls.n < 0 and expect >= 0:
                    expect += 1
            if shifted.tag != cls.tag or shifted.n != expect:
                raise AssertionError(
                    f"central shift law failed: z^{n} {cls} -> {shifted}")


def check_conjugation_invariance(trials: int, seed: int = 103) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        x = random_cover(rng)
        g = random_cover(rng)
        try:
            if cover_classify(cover_conj(g, x)) != cover_classify(x):
                raise AssertionError("classification not conjugation-invariant")
        except DegenerateRange:
            continue


def check_commutator_image(trials: int, seed: int = 104) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        x, y = random_cover(rng), random_cover(rng)
        comm = cover_mul(cover_mul(x, y), cover_mul(cover_inv(x), cover_inv(y)))
        cls = cover_classify(comm)
        if cls not in COMMUTATOR_IMAGE:
            raise AssertionError(f"commutator landed outside the image: {cls}")


def _conditioned(rng, make_pair, want_kind, trials):
    """Yield `trials` products of make_pair() conditioned on the product's
    PSL type."""
    got = 0
    guard = 0
    while got < trials:
        guard += 1
        if guard > 400 * trials:
            raise AssertionError("conditioning starved; sampler too narrow")
        x, y = make_pair(rng)
        prod = cover_mul(x, y)
        if classify_psl(prod.base) is not want_kind:
            continue
        got += 1
        yield prod


def check_product_image(trials: int, seed: int = 105) -> None:
    rng = random.Random(seed)
    cases = [
        # (factor sampler, conditioned PSL type, admissible classes)
        (lambda r: (random_hyp0(r), random_hyp0(r)),
         PslType.HYPERBOLIC, {Hyp(-1), Hyp(0), Hyp(1)}),
        (lambda r: (random_par0(r, 1), random_hyp0(r)),
         PslType.HYPERBOLIC, {Hyp(0), Hyp(1)}),
        (lambda r: (random_par0(r, -1), random_hyp0(r)),
         PslType.HYPERBOLIC, {Hyp(0), Hyp(-1)}),
        (lambda r: (random_par0(r, 1), random_par0(r, 1)),
         PslType.HYPERBOLIC, {Hyp(1)}),
        (lambda r: (random_par0(r, -1), random_par0(r, -1)),
         PslType.HYPERBOLIC, {Hyp(-1)}),
        (lambda r: (random_par0(r, 1), random_par0(r, -1)),
         PslType.HYPERBOLIC, {Hyp(0)}),
        (lambda r: (random_par0(r, 1), random_par0(r, 1)),
         PslType.ELLIPTIC, {Ell(1)}),
        (lambda r: (random_par0(r, -1), random_par0(r, -1)),
         PslType.ELLIPTIC, {Ell(-1)}),
        (lambda r: (random_par0(r, rng.choice((1, -1))), _ell1(r)),
         PslType.ELLIPTIC, {Ell(1)}),
        (lambda r: (random_hyp0(r), random_hyp0(r)),
         PslType.ELLIPTIC, {Ell(-1), Ell(1)}),
        # elliptic base lemmas
        (lambda r: (random_hyp0(r), random_par0(r, 1)),
         PslType.ELLIPTIC, {Ell(1)}),
        (lambda r: (random_hyp0(r), random_par0(r, -1)),
         PslType.ELLIPTIC, {Ell(-1)}),
        (lambda r: (random_hyp0(r), _ell1(r)),
         PslType.ELLIPTIC, {Ell(1)}),
        (lambda r: (_ell_minus1(r), _ell1(r)),
         PslType.ELLIPTIC, {Ell(-1), Ell(1)}),
    ]
    for make_pair, kind, allowed in cases:
        for prod in _conditioned(rng, make_pair, kind, trials):
            cls = cover_classify(prod)
            if cls not in allowed:
                raise AssertionError(
                    f"product image violated: got {cls}, allowed {allowed}")


def _ell1(rng):
    return lift_in_class(random_elliptic(rng), Ell(1))


def _ell_minus1(rng):
    return lift_in_class(random_elliptic(rng), Ell(-1))


def check_offdiag(trials: int, seed: int = 106) -> None:
    rng = random.Random(seed)
    for n in range(-2, 3):
        for sign in (1, -1):
            done = 0
            while done < trials:
                p = random_parabolic(rng, sign)
                x = lift_in_class(p, ParPlus(n) if sign > 0 else ParMinus(n))
                m = sl_projection(x)
                if n % 2 == 0:
                    rule = _sgn(m.b) if m.b != 0 else -_sgn(m.c)
                else:
                    rule = -_sgn(m.b) if m.b != 0 else _sgn(m.c)
                if rule != sign:
                    raise AssertionError(
                        f"off-diagonal sign rule failed at Par({n})^{sign}")
                done += 1


def check_offdiag_elliptic(trials: int, seed: int = 107) -> None:
    rng = random.Random(seed)
    for n in (-2, -1, 1, 2):
        done = 0
        while done < trials:
            x = lift_in_class(random_elliptic(rng), Ell(n))
            m = sl_projection(x)
            if m.b == 0 or m.c == 0:
                continue
            if n % 2:
                ok = _sgn(n) == _sgn(m.b) == -_sgn(m.c)
            else:
                ok = _sgn(n) == -_sgn(m.b) == _sgn(m.c)
            if not ok:
                raise AssertionError(f"elliptic off-diagonal rule failed at Ell({n})")
            done += 1


def check_trace_parity(trials: int, seed: int = 108) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(-3, 3)
        x = lift_in_class(random_hyperbolic(rng), Hyp(n))
        if _sgn(sl_projection(x).trace()) != (-1) ** (n % 2):
            raise AssertionError(f"trace parity failed at Hyp({n})")


SUITES = [
    ("cover group laws", check_cover_laws),
    ("central shift laws", check_central_shifts),
    ("conjugation invariance", check_conjugation_invariance),
    ("commutator image", check_commutator_image),
    ("product image", check_product_image),
    ("parabolic off-diagonal rule", check_offdiag),
    ("elliptic off-diagonal rule", check_offdiag_elliptic),
    ("hyperbolic trace parity", check_trace_parity),
]


def run_selftest(scale: float = 1.0, out=print) -> bool:
    base = {
        "cover group laws": 1000,
        "central shift laws": 200,
        "conjugation invariance": 500,
        "commutator image": 1500,
        "product image": 120,
        "parabolic off-diagonal rule": 150,
        "elliptic off-diagonal rule": 150,
        "hyperbolic trace parity": 400,
    }
    ok = True
    for name, fn in SUITES:
        trials = max(10, int(base[name] * scale))
        try:
            fn(trials)
            out(f"PASS {name} ({trials} trials)")
        except AssertionError as exc:
            ok = False
            out(f"FAIL {name}: {exc}")
    return ok
