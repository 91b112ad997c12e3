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
    RelatorNotCentral,
    SelfVerificationError,
    SolveFailed,
    TargetOutsideImage,
    UnreachableTarget,
)
from psltilde.mobius import Matrix2, diag, normalize, rotation
from psltilde.sampling import random_elliptic, random_hyperbolic, random_parabolic
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
    with pytest.raises(SelfVerificationError, match="twist changed invariants"):
        build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))


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
    # a size with ties everywhere: the first minimum must win, and the points
    # must be scored in the order of the coarse-grid-then-refine loop
    def size(t):
        seen.append(t)
        return round(abs(t - 0.3), 1)

    seen = []
    best = _grid_refine(size, _BALANCE_GRID, (0.1, 0.03, 0.01), operator.add)
    got = seen
    seen = []
    want = min(_BALANCE_GRID, key=size)
    for step in (0.1, 0.03, 0.01):
        want = min([want + d * step for d in (-2, -1, 0, 1, 2)], key=size)
    assert (best, got) == (want, seen)


# sha256 of the written build (jsonio.dumps of representation_to_json with the
# CLI's meta), seed 5, one per supported family; computed before the scalar
# probe replaced the matrix probe, so any builder speedup must keep them
GOLDEN_BUILDS = {
    ((0, 4), 2, (1, 1, 1, 1)): "ec0bb9847a8f1f4e20a9632a0bfe992ed5624c7de8914c3b6a3b803d80abb7af",
    ((0, 4), -2, (-1, -1, -1, -1)): "81f325db0ae429f42f381609d420bbbc5dc9c6813c355023f1f972753564d055",
    ((0, 4), 1, (1, 1, 1, -1)): "9112ae65a0bad06bf3bb44d5af5fab87341529ecc6c928d4ed984e4f117e44fa",
    ((0, 4), -1, (-1, -1, -1, 1)): "acda4a2936e5605d315f9922fa767c2f72f09a7e153ca4776dae096833ac11b0",
    ((1, 2), 2, (1, 1)): "ebdfd539eadc500d8b1485d37f53ffbf143972e80d8aa1184523086b431ca3c7",
    ((1, 2), -2, (-1, -1)): "fb5d133efdeae8d2ec95afb21c6b22ef1576a7769d723058caa97a65b8eb9f63",
    ((1, 2), 1, (1, -1)): "cac7a27f435ea5eb34b1bb2d72cf8a3c18698173e9649418b9b0be2e13f0435c",
    ((1, 2), -1, (-1, 1)): "f3a1e174814a1206cf45c9c7e9a1b1d34799f47b6737a20202cbd89de0a717a4",
    ((0, 5), 3, (1, 1, 1, 1, 1)): "c0099ca9e01d320ce743d50a424394dcf22c6c71a8877c574094dcb3f987aaa0",
    ((0, 5), -3, (-1, -1, -1, -1, -1)): "213a13abca49c3ac15b6311341da584bf81c470d29e7172a2ff47f91490732db",
    ((0, 5), 2, (1, 1, 1, 1, -1)): "a409d1464f33ce80e3d7f70e0a5eea21c68770526ce11a4dd0d46745d07515d3",
    ((0, 5), -2, (-1, -1, -1, -1, 1)): "7e37c8183cade243420d5c170ceac1bba9a293277b4910c7af06b9c1179840fa",
    ((1, 3), 3, (1, 1, 1)): "3c9948336f0438acb31431e19324b6a196acf47f04208ea2e098fc4a0c175a69",
    ((1, 3), -3, (-1, -1, -1)): "dc823e6556211eb8eb102b91ebcb84d61b5ce78f5a7a6cae3500420e1fb0ced8",
    ((1, 3), 2, (1, 1, -1)): "c1b981b2627dde81c992f7e1df43ceac0abc3574a1041d4fc20972949a5f7383",
    ((1, 3), -2, (-1, -1, 1)): "6249ff4193ecb06bf60bc6c143b424c2aec51fdcb23ff4929d33a22cd1f79d58",
    ((2, 1), 3, (1,)): "00ad298a4a798fc7aeaa8d16eb4bad11348863d70a74946b54a38bb30b4c5513",
    ((2, 1), -3, (-1,)): "eba121813384f32f00157f2862cad53474b56d05ad336f1bba5191bf722b4b39",
    ((2, 1), 2, (-1,)): "d1548aa13b709040b93ac94d9c8dcd91a070103da5b1cd4364fd5bfc90ee4ef1",
    ((2, 1), -2, (1,)): "47766c09ea409639fcd054496cc94b7042da3ef26f406b69135d579b448770db",
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
    with pytest.raises(RelatorNotCentral) as err:
        build_rep(BuildRequest(0, 5, -2, (-1, -1, -1, -1, 1), 27))
    assert str(err.value) == "lifted relator base off identity by 4.162e-07"
