import hashlib
import math
import operator
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from psltilde import jsonio
from psltilde.constructors import (
    COMMUTATOR_IMAGE,
    _BALANCE_GRID,
    _DIAG_GRID,
    _REBALANCE_GRID,
    BuildRequest,
    FactorKind,
    _class_flip,
    _conj_probe,
    _grid_refine,
    _power_entries,
    _reachable_classes,
    build_boundary_extremal,
    build_negative_control,
    build_rep,
    cover_flip,
    fricke_commutator_trace,
    pgl_flip,
    sample,
    solve_commutator,
    solve_product,
)
from psltilde.cover import (
    Center,
    CoverElement,
    Ell,
    Hyp,
    ParMinus,
    ParPlus,
    cover_classify,
    cover_inv,
    cover_mul,
    identity_cover,
    lift_in_class,
    sl_trace,
    special_lift,
)
from psltilde.errors import (
    InfeasibleRequest,
    NonUnitDeterminant,
    NotSupported,
    SolveFailed,
    TargetOutsideImage,
    UnreachableTarget,
)
from psltilde.mobius import Matrix2, diag, normalize, rotation
from psltilde.sampling import (
    random_cover,
    random_elliptic,
    random_hyperbolic,
    random_parabolic,
)
from psltilde.selftest import _near_horizontal
from psltilde.surface import (
    _one_parameter_power,
    _power_frame,
    euler_class,
    eval_word,
    sign_vector,
)
from psltilde.words import parse_word


def _target_in(rng, cls):
    if cls.tag == "Hyp":
        return lift_in_class(random_hyperbolic(rng), cls)
    if cls.tag.startswith("Par"):
        return lift_in_class(random_parabolic(rng, 1 if cls.tag == "ParPlus" else -1), cls)
    return lift_in_class(random_elliptic(rng), cls)


def test_parplus_pair_spec_example():
    # target trace magnitude 3 comes from the unipotent pair with u = 5
    lam = (3 + math.sqrt(5)) / 2
    target = lift_in_class(normalize(diag(lam)), Hyp(1))
    assert sl_trace(target) == pytest.approx(-3.0)
    x, y = solve_product(FactorKind.PAR_PLUS0, FactorKind.PAR_PLUS0, target)
    assert cover_classify(x) == ParPlus(0)
    assert cover_classify(y) == ParPlus(0)
    prod = cover_mul(x, y)
    assert prod.base.rep.maxdiff(target.base.rep) < 1e-8


def test_parplus_pair_hyp0_unreachable():
    target = special_lift(normalize(diag(2.0)))
    with pytest.raises(UnreachableTarget):
        solve_product(FactorKind.PAR_PLUS0, FactorKind.PAR_PLUS0, target)


def test_parplus_pair_elliptic_trace_zero():
    from psltilde.mobius import rotation

    target = lift_in_class(normalize(rotation(math.pi / 2)), Ell(1))
    assert sl_trace(target) == pytest.approx(0.0)
    x, y = solve_product(FactorKind.PAR_PLUS0, FactorKind.PAR_PLUS0, target)
    prod = cover_mul(x, y)
    assert cover_classify(prod) == Ell(1)
    # the normal-form product for trace 0 is conjugate to [[-1,1],[-2,1]]
    assert abs(prod.base.rep.trace()) < 1e-9


def test_solve_product_full_table():
    rng = random.Random(5)
    for k1 in FactorKind:
        for k2 in FactorKind:
            for cls in sorted(_reachable_classes(k1, k2), key=str):
                for _ in range(5):
                    target = _target_in(rng, cls)
                    x, y = solve_product(k1, k2, target, rng)
                    got = cover_mul(x, y)
                    assert got.base.rep.maxdiff(target.base.rep) < 1e-8


def test_reachability_rejections():
    rng = random.Random(6)
    queries = 0
    rejected = 0
    kinds = list(FactorKind)
    classes = [Hyp(-2), Hyp(-1), Hyp(0), Hyp(1), Hyp(2), Ell(-1), Ell(1),
               Ell(2), ParPlus(0), ParMinus(0), ParPlus(1), ParMinus(1)]
    while queries < 1000:
        k1, k2 = rng.choice(kinds), rng.choice(kinds)
        cls = rng.choice(classes)
        queries += 1
        target = _target_in(rng, cls)
        allowed = cls in _reachable_classes(k1, k2)
        if allowed:
            solve_product(k1, k2, target, rng)
        else:
            rejected += 1
            with pytest.raises(UnreachableTarget):
                solve_product(k1, k2, target, rng)
    assert rejected > 100


def test_reachable_classes_for_every_ordered_pair():
    F = FactorKind
    expected = {
        (F.HYP0, F.HYP0): {Hyp(-1), Hyp(0), Hyp(1), Ell(-1), Ell(1),
                           ParPlus(0), ParMinus(0)},
        (F.PAR_PLUS0, F.PAR_PLUS0): {Hyp(1), Ell(1)},
        (F.PAR_MINUS0, F.PAR_MINUS0): {Hyp(-1), Ell(-1)},
        (F.PAR_PLUS0, F.PAR_MINUS0): {Hyp(0)},
        (F.HYP0, F.PAR_PLUS0): {Hyp(0), Hyp(1), Ell(1)},
        (F.HYP0, F.PAR_MINUS0): {Hyp(0), Hyp(-1), Ell(-1)},
        (F.PAR_PLUS0, F.ELL1): {Ell(1)},
        (F.PAR_MINUS0, F.ELL1): {Ell(1)},
        (F.HYP0, F.ELL1): {Ell(1)},
        (F.ELL_MINUS1, F.ELL1): {Ell(-1), Ell(1)},
    }
    for k1 in F:
        for k2 in F:
            want = expected.get((k1, k2), expected.get((k2, k1), set()))
            assert _reachable_classes(k1, k2) == want, (k1, k2)


def test_commutator_trace_slice_root():
    # equal-trace slice for commutator trace -3
    f = lambda t: t ** 3 - 3 * t ** 2 - 1
    lo, hi = 3.0, 4.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    t = (lo + hi) / 2
    assert t == pytest.approx(3.103803402735536, abs=1e-9)
    assert fricke_commutator_trace(t, t, t) == pytest.approx(-3.0, abs=1e-9)


def test_solve_commutator_center():
    x, y = solve_commutator(identity_cover())
    assert cover_classify(x) == Center(0)


def test_solve_commutator_all_components():
    rng = random.Random(8)
    targets = [
        lift_in_class(random_hyperbolic(rng), Hyp(1)),
        lift_in_class(random_hyperbolic(rng), Hyp(-1)),
        lift_in_class(random_hyperbolic(rng), Hyp(0)),
        lift_in_class(random_elliptic(rng), Ell(1)),
        lift_in_class(random_elliptic(rng), Ell(-1)),
        lift_in_class(random_parabolic(rng, 1), ParPlus(0)),
        lift_in_class(random_parabolic(rng, -1), ParMinus(0)),
        lift_in_class(random_parabolic(rng, 1), ParPlus(-1)),
        lift_in_class(random_parabolic(rng, -1), ParMinus(1)),
    ]
    for target in targets:
        x, y = solve_commutator(target, rng)
        comm = cover_mul(cover_mul(x, y),
                         cover_mul(cover_inv(x), cover_inv(y)))
        assert comm.base.rep.maxdiff(target.base.rep) < 1e-8
        assert cover_classify(comm) == cover_classify(target)


def test_solve_commutator_rejects_index_two():
    target = lift_in_class(random_hyperbolic(random.Random(1)), Hyp(2))
    with pytest.raises(TargetOutsideImage):
        solve_commutator(target)


def test_cover_flip_mirrors_components():
    rng = random.Random(10)
    cases = [(lift_in_class(random_hyperbolic(rng), Hyp(1)), Hyp(-1)),
             (lift_in_class(random_parabolic(rng, 1), ParPlus(2)), ParMinus(-2)),
             (lift_in_class(random_elliptic(rng), Ell(1)), Ell(-1))]
    for x, expect in cases:
        assert cover_classify(cover_flip(x)) == expect
        assert sl_trace(cover_flip(x)) == pytest.approx(sl_trace(x))


def test_cover_flip_is_an_involution_that_mirrors_classes():
    rng = random.Random(12)
    elements = [random_cover(rng) for _ in range(200)]
    elements += [_near_horizontal(rng) for _ in range(200)]
    for x in elements:
        assert cover_flip(cover_flip(x)) == x
        assert cover_classify(cover_flip(x)) == _class_flip(cover_classify(x))


def test_extremal_builder_required_surfaces():
    rng = random.Random(14)
    for (g, p) in ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1)):
        boundary = random_hyperbolic(rng)
        rep = build_boundary_extremal(g, p, boundary, rng)
        assert euler_class(rep) == 2 * g + p - 2
        signs = tuple(sign_vector(rep))
        assert signs[:-1] == (1,) * (p - 1) and signs[-1] == 0
        got = rep.peripheral_image(p)
        assert got.rep.maxdiff(boundary.rep) < 1e-8


def test_extremal_builder_spec_values():
    rng = random.Random(15)
    lam = (3 + math.sqrt(5)) / 2
    c = normalize(diag(lam))  # |trace| = 3
    rep = build_boundary_extremal(0, 3, c, rng)
    assert euler_class(rep) == 1
    assert tuple(sign_vector(rep)) == (1, 1, 0)
    rep = build_boundary_extremal(1, 1, c, rng)
    assert euler_class(rep) == 1
    # additivity across the peeled pants: 1 from the pants level plus the
    # complement's extremal value
    rep = build_boundary_extremal(1, 2, c, rng)
    assert euler_class(rep) == 2
    rep = build_boundary_extremal(1, 3, c, rng)
    assert euler_class(rep) == 3


def test_extremal_builder_rejects_parabolic_boundary():
    with pytest.raises(SolveFailed):
        build_boundary_extremal(0, 3, normalize(Matrix2(1, 1, 0, 1)))


def test_build_rep_counterexample_components():
    r = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    assert euler_class(r) == 1
    assert tuple(sign_vector(r)) == (1, 1, 1, -1)
    r = build_rep(BuildRequest(1, 2, 1, (1, -1), 7))
    assert euler_class(r) == 1
    assert tuple(sign_vector(r)) == (1, -1)


def test_build_rep_negative_anywhere():
    for signs in ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)):
        r = build_rep(BuildRequest(0, 4, 1, signs, 9))
        assert tuple(sign_vector(r)) == signs
        assert euler_class(r) == 1


def test_build_rep_mirror_family():
    r = build_rep(BuildRequest(0, 4, -1, (-1, -1, -1, 1), 5))
    assert euler_class(r) == -1
    assert tuple(sign_vector(r)) == (-1, -1, -1, 1)


@pytest.mark.parametrize("surface", [(0, 4), (1, 2), (0, 5), (1, 3), (2, 1)])
def test_mirror_builds_are_flips(surface):
    g, p = surface
    chi = 2 - 2 * g - p
    # (euler, signs) of the positive families; each mirror negates both
    positives = [(-chi, (1,) * p), (-chi - 1, (1,) * (p - 1) + (-1,))]
    # (2,1) seed 42 stores an extremal image with entries past 1e4, whose
    # float determinant is not measurably 1: its flip must not be rescaled
    for seed in list(range(5)) + ([42] if surface == (2, 1) else []):
        for e, signs in positives:
            positive = build_rep(BuildRequest(g, p, e, signs, seed))
            mirror = build_rep(BuildRequest(g, p, -e, tuple(-s for s in signs),
                                            seed))
            assert mirror.images == pgl_flip(positive).images, (e, seed)


def test_build_rep_extremal_families():
    r = build_rep(BuildRequest(0, 4, 2, (1, 1, 1, 1), 1))
    assert euler_class(r) == 2
    r = build_rep(BuildRequest(1, 2, -2, (-1, -1), 1))
    assert euler_class(r) == -2
    r = build_rep(BuildRequest(1, 1, 1, (1,), 1))
    assert euler_class(r) == 1


def test_build_rep_infeasible():
    with pytest.raises(InfeasibleRequest):
        build_rep(BuildRequest(0, 4, 2, (1, 1, 1, -1), 1))
    with pytest.raises(InfeasibleRequest):
        build_rep(BuildRequest(0, 3, 2, (1, 1, 0), 1))


def test_build_rep_unsupported():
    with pytest.raises(NotSupported):
        build_rep(BuildRequest(0, 4, 0, (1, 1, -1, -1), 1))
    with pytest.raises(NotSupported):
        build_rep(BuildRequest(0, 4, 1, (1, 1, 0, 0), 1))


def test_build_rep_deterministic():
    a = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 123))
    b = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 123))
    for gen in a.surface.free_generators():
        assert a.image(gen).rep.maxdiff(b.image(gen).rep) == 0.0


def test_build_rep_rejects_twist_that_changes_invariants(monkeypatch):
    from psltilde import surface

    twist = surface._twist
    monkeypatch.setattr(surface, "_twist",
                        lambda rep, split, t: pgl_flip(twist(rep, split, t)))
    # every attempt fails its check, and the retries end in SolveFailed
    with pytest.raises(SolveFailed, match="twist changed invariants"):
        build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))


@pytest.mark.parametrize("surface", [(0, 6), (1, 4)])
def test_chi_minus_four_builds_or_raises_solve_failed(surface):
    # float assembly error on the implied last peripheral once made some of
    # these raise NotHP, RelatorNotCentral or SelfVerificationError
    g, p = surface
    chi = 2 - 2 * g - p
    families = [(-chi, (1,) * p), (-chi - 1, (1,) * (p - 1) + (-1,))]
    families += [(-e, tuple(-s for s in signs)) for e, signs in families]
    for e, signs in families:
        for seed in range(20):
            try:
                build_rep(BuildRequest(g, p, e, signs, seed))
            except SolveFailed:
                pass


def test_negative_control():
    rep = build_negative_control()
    assert eval_word(rep, parse_word("c1 c2")).rep.trace() == 0.0
    assert tuple(sign_vector(rep)).count(0) == 0


def test_sample_empty():
    reps, reports, summary = sample(BuildRequest(0, 4, 1, (1, 1, 1, -1), 1), 0)
    assert reps == [] and reports == [] and summary["count"] == 0


def test_sample_infeasible_rejected_before_running():
    with pytest.raises(InfeasibleRequest):
        sample(BuildRequest(0, 4, 2, (1, 1, 1, -1), 1), 3)


def test_sample_refuses_a_negative_depth_first():
    # checked before the request, whose hyperbolic punctures are NotSupported
    with pytest.raises(ValueError, match="^depth -1 must be non-negative$"):
        sample(BuildRequest(0, 4, 0, (1, -1, 0, 0)), 1, depth=-1)


def test_sample_runs_and_reports():
    reps, reports, summary = sample(BuildRequest(0, 4, 1, (1, 1, 1, -1), 3), 4,
                                    depth=4)
    assert len(reps) == len(reports) == 4
    assert summary["np_pass"] == sum(1 for r in reports if r.passed)
    assert summary["np_pass"] <= 4 and summary["curves"] > 0
    assert all(r.curves_checked == summary["curves"] for r in reports)


# -- the conditioning probe ----------------------------------------------------

def _conj_size_reference(h: Matrix2, mats) -> float:
    """The conditioning score as the searches computed it with matrices,
    kept as the reference the scalar probe must reproduce bit for bit."""
    hi = h.inv()
    return max(max(abs(v) for v in (h @ m @ hi).entries()) for m in mats)


def _unit_matrix(th1: float, s: float, th2: float) -> Matrix2:
    return normalize(rotation(th1) @ diag(math.exp(s)) @ rotation(th2)).rep


_angles = st.floats(0.0, math.pi)
_unit_matrices = st.builds(_unit_matrix, _angles, st.floats(-3.0, 3.0), _angles)


@st.composite
def _hyperbolic_targets(draw):
    tr = draw(st.floats(2.02, 1e3))
    lam = (tr + math.sqrt(tr * tr - 4.0)) / 2.0
    g = draw(st.builds(_unit_matrix, _angles, st.floats(-1.5, 1.5), _angles))
    m = normalize(g @ diag(lam) @ g.inv())
    assume(abs(m.rep.trace()) >= 2.02)
    return m


@st.composite
def _search_points(draw, grid, steps, move):
    """A point a grid search scores: a grid point, moved by one offset
    d * step for each refinement step taken so far."""
    x = draw(st.sampled_from(grid))
    for step in steps[:draw(st.integers(0, len(steps)))]:
        x = move(x, draw(st.sampled_from((-2, -1, 0, 1, 2))) * step)
    return x


_twist_times = st.one_of(
    _search_points(_BALANCE_GRID, (0.1, 0.03, 0.01), operator.add),
    _search_points(_REBALANCE_GRID, (0.1, 0.03), operator.add))
_diag_scales = _search_points(_DIAG_GRID, (0.1, 0.03),
                              lambda s, off: s * math.exp(off))


@settings(max_examples=400, deadline=None)
@given(_hyperbolic_targets(), st.lists(_unit_matrices, min_size=2, max_size=8),
       _twist_times)
def test_probe_reproduces_centralizer_conjugator_floats(target, mats, t):
    frame = _power_frame(target)
    try:
        h = _one_parameter_power(target, t).rep
    except NonUnitDeterminant:
        with pytest.raises(NonUnitDeterminant):
            _power_entries(*frame, t)
        return
    entries = _power_entries(*frame, t)
    assert entries in (h.entries(), (-h).entries())
    assert (_conj_probe(entries, [m.entries() for m in mats])
            == _conj_size_reference(h, mats))


@settings(max_examples=200, deadline=None)
@given(st.lists(_unit_matrices, min_size=2, max_size=8), _diag_scales)
def test_probe_reproduces_diagonal_conjugator_floats(mats, s):
    assert (_conj_probe((s, 0.0, 0.0, 1.0 / s), [m.entries() for m in mats])
            == _conj_size_reference(Matrix2(s, 0.0, 0.0, 1.0 / s), mats))


def test_grid_refine_scores_like_the_min_loop():
    # a size with ties everywhere: the first minimum must win, as in the
    # coarse-grid-then-refine min loop, and each refinement step must score
    # the four moved points in that loop's order but not the best point,
    # whose score is known
    def size(t):
        seen.append(t)
        return round(abs(t - 0.3), 1)

    seen = []
    best = _grid_refine(size, _BALANCE_GRID, (0.1, 0.03, 0.01), operator.add)
    got = seen
    seen = []
    want = min(_BALANCE_GRID, key=size)
    scored = list(seen)
    for step in (0.1, 0.03, 0.01):
        points = [want + d * step for d in (-2, -1, 0, 1, 2)]
        scored += points[:2] + points[3:]
        want = min(points, key=size)
    assert (best, got) == (want, scored)
    assert len(got) == len(_BALANCE_GRID) + 12


# sha256 of the written build (jsonio.dumps of representation_to_json with the
# CLI's meta), seed 5, one per supported family; computed when every product
# became exact (mobius.unit_product), so any builder speedup must keep them.
# The counterexample-mirror digests are those of the flipped counterexample
# build
GOLDEN_BUILDS = {
    ((0, 4), 2, (1, 1, 1, 1)): "e8427ddca91ddc521ddf5403eae6262154df7a4285c4120b577c6ce953e3368a",
    ((0, 4), -2, (-1, -1, -1, -1)): "c603121da5a278246bbe4fd01b4b41ab87c50408bba2dd16af29d35702bc4213",
    ((0, 4), 1, (1, 1, 1, -1)): "e1ce5ce962a63b376d37960285e5776718736b5ab1e6ccc992027bd1388dabec",
    ((0, 4), -1, (-1, -1, -1, 1)): "f1081e737568266b9feb87d9b3afaaf7f6d40ad3519d1602e46e5f06faae1812",
    ((1, 2), 2, (1, 1)): "6a44ca7d0505f2d9b3b5af7cff32e86dbe3917955396b75d297d46a657f67699",
    ((1, 2), -2, (-1, -1)): "ac594d6bf383316c6b3970e8d42ac5bad139a3b5bf398a7106bd7adb8e454540",
    ((1, 2), 1, (1, -1)): "09e00d1070e70b74b6ccd399cc4ab79fb01452d982098186f288a615de2df7d3",
    ((1, 2), -1, (-1, 1)): "322562bf72b3c0e3575aa06a3de0518f3833795980282226a0b80318dea81e3f",
    ((0, 5), 3, (1, 1, 1, 1, 1)): "99b78f6d3c54cac76189db4963b09e66028c3c39259255879ba4c6f3a07b1f14",
    ((0, 5), -3, (-1, -1, -1, -1, -1)): "edfe4dd6532fdce0cd6c7b23bd9bf47fba0c8563f8a03478541e563b49a54282",
    ((0, 5), 2, (1, 1, 1, 1, -1)): "66e10ce34c9d644a39f2598f9a040aefd9c20ce66d8d1a95b3d645c6e45c3f0b",
    ((0, 5), -2, (-1, -1, -1, -1, 1)): "eff5394a902a267384840aa1272af1a769cabeded96fab1fbeb7b2cd238569f4",
    ((1, 3), 3, (1, 1, 1)): "2c48e1420bcd92124f110f96d5f0e706864e9e411d9ced8c1bc02869b6d230d6",
    ((1, 3), -3, (-1, -1, -1)): "b2d27ad03bff9ded63934bcedea719f95493a97fce0f5b6cb37dedf96cce1d83",
    ((1, 3), 2, (1, 1, -1)): "9900e02e07853e47c55784bfd795db9b2a51538cb102b992ee836acd05e1e194",
    ((1, 3), -2, (-1, -1, 1)): "bf29b97915da1c2515aa7b964cb489e51295c3526e09953baf0b16f4bc44c4be",
    ((2, 1), 3, (1,)): "fe05758c5a30bbec846dd30c0fbf7d5bc76f538a2e0d4c7ea82251c23dfbb54d",
    ((2, 1), -3, (-1,)): "e06751dae55ac00cca217db9884aa6c9a7a7d2b1eb4a84109a4a6564de318a6e",
    ((2, 1), 2, (-1,)): "85c45acf427dbbb715579cc59c88edc461207cc75d26f5fb3a63e09ca092a3c5",
    ((2, 1), -2, (1,)): "7632442e890fb6dcbd807f876da181744040afc9504ac29c845f1a7b9beb3965",
}


def test_build_golden_digest():
    got = {}
    for (g, p), e, signs in GOLDEN_BUILDS:
        rep = build_rep(BuildRequest(g, p, e, signs, 5))
        meta = {"seed": 5, "euler": e, "signs": list(signs)}
        text = jsonio.dumps(jsonio.representation_to_json(rep, meta))
        got[(g, p), e, signs] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GOLDEN_BUILDS
    # a failing request fails with the same message, digits included
    with pytest.raises(SolveFailed) as err:
        build_rep(BuildRequest(1, 5, 5, (1, 1, 1, 1, 1), 1))
    assert str(err.value) == ("component build failed repeatedly: lifted "
                              "relator base off identity by 1.294e-08")
