"""Seeded generators for random group elements, shared by the property
suites, the self-test, and the constructors' free parameters."""
from __future__ import annotations

import math
import random

from .cover import CoverElement, special_lift
from .mobius import (
    Matrix2,
    ProjectiveMatrix,
    _eigenvalues,
    diag,
    normalize,
    rotation,
)


def derive_seed(seed: int, index: int) -> int:
    """Counter-based child-seed derivation (stable across platforms)."""
    return (seed * 6364136223846793005 + 1442695040888963407 * (index + 1)) % 2**63


def random_psl(rng: random.Random, spread: float = 1.5) -> ProjectiveMatrix:
    th1 = rng.uniform(0.0, math.pi)
    th2 = rng.uniform(0.0, math.pi)
    s = rng.uniform(-spread, spread)
    d = Matrix2(math.exp(s), 0.0, 0.0, math.exp(-s))
    return normalize(rotation(th1) @ d @ rotation(th2))


def random_hyperbolic(rng: random.Random, tmin: float = 2.05,
                      tmax: float = 8.0, spread: float = 1.5) -> ProjectiveMatrix:
    t = rng.uniform(tmin, tmax)
    g = random_psl(rng, spread)
    return normalize(g.rep @ diag(_eigenvalues(t)[0]) @ g.rep.inv())


def random_parabolic(rng: random.Random, sign: int = 1) -> ProjectiveMatrix:
    u = rng.uniform(0.2, 5.0) * (1 if sign > 0 else -1)
    g = random_psl(rng)
    return normalize(g.rep @ Matrix2(1.0, u, 0.0, 1.0) @ g.rep.inv())


def random_elliptic(rng: random.Random) -> ProjectiveMatrix:
    th = rng.uniform(0.05, math.pi - 0.05)
    base = rotation(th)
    if rng.random() < 0.5:
        base = base.inv()
    g = random_psl(rng)
    return normalize(g.rep @ base @ g.rep.inv())


def random_cover(rng: random.Random) -> CoverElement:
    return CoverElement(random_psl(rng), rng.randint(-3, 3))


def random_hyp0(rng: random.Random) -> CoverElement:
    return special_lift(random_hyperbolic(rng))


def random_par0(rng: random.Random, sign: int = 1) -> CoverElement:
    return special_lift(random_parabolic(rng, sign))

