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
    _centralizer_search,
    _class_flip,
    _conj_probe,
    _diagonal_search,
    _grid_refine,
    _par_par_pair,
    _reachable_classes,
    build_boundary_extremal,
    build_negative_control,
    build_rep,
    cover_flip,
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
    _power_entries,
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


def _reference_par_par_pair(s1, s2, tau):
    """_par_par_pair as it wrote each sign case."""
    if s1 > 0 and s2 > 0:
        u = 2.0 - tau  # product trace 2 - u
        x = special_lift(normalize(Matrix2(1.0, 1.0, 0.0, 1.0)))
        y = special_lift(normalize(Matrix2(1.0, 0.0, -u, 1.0)))
        return x, y
    if s1 < 0 and s2 < 0:
        xf, yf = _reference_par_par_pair(1, 1, tau)
        return cover_flip(xf), cover_flip(yf)
    u = tau - 2.0
    if u <= 0:
        raise SolveFailed(f"mixed parabolic pair needs trace > 2, got {tau}")
    x = special_lift(normalize(Matrix2(1.0, 1.0, 0.0, 1.0)))
    y = special_lift(normalize(Matrix2(1.0, 0.0, u, 1.0)))
    return x, y


def _bits(pair):
    """Every float of a pair by its bits, signed zeros apart, with the
    lift indices."""
    return [(tuple(map(float.hex, x.base.rep.entries())), x.lift_index)
            for x in pair]


def test_par_par_pair_matches_its_sign_cases_bit_for_bit():
    taus = [-7.5, -2.0, 0.0, 1.25, math.nextafter(2.0, 0.0), 2.0,
            math.nextafter(2.0, 3.0), 2.5, 3.0, 19.75]
    for s1, s2 in ((1, 1), (1, -1), (-1, -1)):
        for tau in taus:
            try:
                want = _reference_par_par_pair(s1, s2, tau)
            except SolveFailed as exc:
                with pytest.raises(SolveFailed) as got:
                    _par_par_pair(s1, s2, tau)
                assert str(got.value) == str(exc)
                assert s1 != s2 and tau <= 2.0
                continue
            got = _par_par_pair(s1, s2, tau)
            assert got == want and _bits(got) == _bits(want), (s1, s2, tau)


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
                           ParPlus(-1), ParPlus(0), ParMinus(0), ParMinus(1)},
        (F.PAR_PLUS0, F.PAR_PLUS0): {Hyp(1), Ell(1)},
        (F.PAR_MINUS0, F.PAR_MINUS0): {Hyp(-1), Ell(-1)},
        (F.PAR_PLUS0, F.PAR_MINUS0): {Hyp(0)},
        (F.HYP0, F.PAR_PLUS0): {Hyp(0), Hyp(1), Ell(1)},
        (F.HYP0, F.PAR_MINUS0): {Hyp(0), Hyp(-1), Ell(-1)},
    }
    for k1 in F:
        for k2 in F:
            want = expected.get((k1, k2), expected.get((k2, k1), set()))
            assert _reachable_classes(k1, k2) == want, (k1, k2)


def test_commutator_trace_slice_root():
    # a Hyp(+-1) target of SL trace -3 is solved on the equal-trace slice,
    # whose root above 3 (t^3 - 3 t^2 - 1 = 0) is the trace of both factors
    base = normalize(diag((3.0 + math.sqrt(5.0)) / 2.0))
    for tag in (Hyp(1), Hyp(-1)):
        target = lift_in_class(base, tag)
        assert sl_trace(target) == pytest.approx(-3.0, abs=1e-12)
        for factor in solve_commutator(target):
            assert abs(sl_trace(factor)) == \
                pytest.approx(3.103803402735536, abs=1e-9)


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


def test_build_rep_refuses_a_sign_count_off_the_punctures():
    with pytest.raises(InfeasibleRequest,
                       match="^sign vector length != puncture count$"):
        build_rep(BuildRequest(0, 4, 1, (1, 1, -1), 1))


def test_build_rep_unsupported():
    with pytest.raises(NotSupported):
        build_rep(BuildRequest(0, 4, 0, (1, 1, -1, -1), 1))
    with pytest.raises(NotSupported):
        build_rep(BuildRequest(0, 4, 1, (1, 1, 0, 0), 1))


def test_counterexample_components_need_chi_at_most_minus_two():
    # (1,1), e = 0, one negative puncture: inside Milnor-Wood, not built
    with pytest.raises(NotSupported,
                       match="^counterexample components need chi <= -2$"):
        build_rep(BuildRequest(1, 1, 0, (-1,)))


def test_a_twist_refused_by_its_split_is_skipped(monkeypatch):
    # the twist time is drawn before _twist is called, so a split whose
    # image is not hyperbolic leaves the build of a zero twist on it
    from psltilde import constructors
    from psltilde.errors import NotHyperbolic

    twist = constructors._twist
    req = BuildRequest(0, 4, 1, (1, 1, 1, -1), 42)
    first = constructors.standard_splits(req.surface())[0]

    def refusing(rep, split, t):
        if split == first:
            raise NotHyperbolic("twist curve image must be hyperbolic")
        return twist(rep, split, t)

    def untwisted(rep, split, t):
        return twist(rep, split, 0.0 if split == first else t)

    monkeypatch.setattr(constructors, "_twist", refusing)
    skipped = build_rep(req)
    monkeypatch.setattr(constructors, "_twist", untwisted)
    zero = build_rep(req)
    monkeypatch.setattr(constructors, "_twist", twist)
    assert skipped.images == zero.images
    assert skipped.images != build_rep(req).images


def test_build_rep_deterministic():
    a = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 123))
    b = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 123))
    for gen in a.surface.free_generators():
        assert a.image(gen).rep.maxdiff(b.image(gen).rep) == 0.0


def test_build_rep_rejects_twist_that_changes_invariants(monkeypatch):
    from psltilde import constructors

    twist = constructors._twist

    def flipping_twist(rep, split, t):
        # flip at the one prefix split of (0,4), so the flips do not cancel
        out = twist(rep, split, t)
        return pgl_flip(out) if split.kind == "prefix" else out

    monkeypatch.setattr(constructors, "_twist", flipping_twist)
    # the twists go unchecked, the final request check fails every attempt,
    # and the retries end in SolveFailed
    with pytest.raises(SolveFailed, match=r"^component build failed "
                       r"repeatedly: built \(e, s\) = \(-1, \(-1, -1, -1, 1\)\), "
                       r"requested \(1, \(1, 1, 1, -1\)\)$"):
        build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))


def test_a_conjugator_failure_is_retried():
    # an attempt of this request multiplies a float product onto the edge of
    # the parabolic band, where conjugator raises NotConjugate; the request
    # must build or end in SolveFailed
    try:
        build_rep(BuildRequest(4, 1, 7, (1,), 11))
    except SolveFailed:
        pass


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
    lam, f, fi = frame = _power_frame(target)
    try:
        # the time-t power as the searches formed it with matrices
        h = normalize(f @ Matrix2(lam ** t, 0.0, 0.0, lam ** (-t)) @ fi).rep
    except NonUnitDeterminant:
        with pytest.raises(NonUnitDeterminant):
            _one_parameter_power(target, t)
        return
    entries = _power_entries(*frame, t)
    assert entries in (h.entries(), (-h).entries())
    assert _one_parameter_power(target, t).rep == h
    assert (_conj_probe(entries, [m.entries() for m in mats])
            == _conj_size_reference(h, mats))


@settings(max_examples=200, deadline=None)
@given(st.lists(_unit_matrices, min_size=2, max_size=8), _diag_scales)
def test_probe_reproduces_diagonal_conjugator_floats(mats, s):
    assert (_conj_probe((s, 0.0, 0.0, 1.0 / s), [m.entries() for m in mats])
            == _conj_size_reference(Matrix2(s, 0.0, 0.0, 1.0 / s), mats))


def _bounded(score, bound, ties):
    """score under the size(t, bound, ties) protocol of _grid_refine."""
    if bound is None or score < bound or ties and score == bound:
        return score
    return None


def test_grid_refine_scores_like_the_min_loop():
    # a size with ties everywhere: the first minimum must win, as in the
    # coarse-grid-then-refine min loop, and each refinement step must score
    # the four moved points in that loop's order but not the best point,
    # whose score is known
    def full(t):
        seen.append(t)
        return round(abs(t - 0.3), 1)

    seen = []
    best = _grid_refine(lambda t, bound, ties: _bounded(full(t), bound, ties),
                        _BALANCE_GRID, (0.1, 0.03, 0.01), operator.add)
    got = seen
    seen = []
    want = min(_BALANCE_GRID, key=full)
    scored = list(seen)
    for step in (0.1, 0.03, 0.01):
        points = [want + d * step for d in (-2, -1, 0, 1, 2)]
        scored += points[:2] + points[3:]
        want = min(points, key=full)
    assert (best, got) == (want, scored)
    assert len(got) == len(_BALANCE_GRID) + 12


def _grid_refine_in_full(size, grid, steps, move) -> float:
    """The search as it was before the probe could give up early: every
    point scored in full by size(t), and min picking the first minimum."""
    best, score = min(((t, size(t)) for t in grid),
                      key=operator.itemgetter(1))
    for step in steps:
        points = [move(best, d * step) for d in (-2, -1, 0, 1, 2)]
        scores = [size(points[0]), size(points[1]), score,
                  size(points[3]), size(points[4])]
        best, score = min(zip(points, scores), key=operator.itemgetter(1))
    return best


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), st.integers(0, 3), st.floats(0.1, 10.0))
def test_grid_refine_picks_the_full_min_under_ties(levels, shift, scale):
    # a few score levels over the grid and its refinements: ties between
    # grid points and against the kept point at every step
    def full(t):
        return float((round(t * scale) + shift) % levels)

    for grid, steps, move in ((_BALANCE_GRID, (0.1, 0.03, 0.01), operator.add),
                              (_DIAG_GRID, (0.1, 0.03),
                               lambda s, x: s * math.exp(x))):
        got = _grid_refine(lambda t, bound, ties: _bounded(full(t), bound,
                                                           ties),
                           grid, steps, move)
        assert got == _grid_refine_in_full(full, grid, steps, move)


def _centralizer_search_in_full(m, mats, grid, steps):
    frame, mats = _power_frame(m), [g.entries() for g in mats]
    return _grid_refine_in_full(
        lambda t: _conj_probe(_power_entries(*frame, t), mats),
        grid, steps, operator.add)


@settings(max_examples=300, deadline=None)
@given(_hyperbolic_targets(), st.lists(_unit_matrices, min_size=1, max_size=6),
       st.integers(0, 2), st.booleans(), st.booleans())
def test_centralizer_search_matches_scoring_in_full(target, mats, dup,
                                                    with_target, rebalance):
    # duplicated mats tie the running maximum with itself; the target
    # commutes with every probed power, so its own score is flat in t
    mats = mats + mats[:dup] + ([target.rep] if with_target else [])
    grid, steps = ((_REBALANCE_GRID, (0.1, 0.03)) if rebalance
                   else (_BALANCE_GRID, (0.1, 0.03, 0.01)))
    try:
        want = _centralizer_search_in_full(target, mats, grid, steps)
    except NonUnitDeterminant:
        with pytest.raises(NonUnitDeterminant):
            _centralizer_search(target, mats, grid, steps)
        return
    assert _centralizer_search(target, mats, grid, steps) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(_unit_matrices, min_size=1, max_size=6), st.integers(0, 2),
       st.one_of(st.none(), st.floats(1.0, 1e3)))
def test_diagonal_search_matches_scoring_in_full(mats, dup, lam):
    # diag(s) commutes with diag(lam): with lam large, its score lam ties
    # at every grid point near s = 1
    mats = mats + mats[:dup] + ([diag(lam)] if lam is not None else [])
    entries = [m.entries() for m in mats]
    want = _grid_refine_in_full(
        lambda s: _conj_probe((s, 0.0, 0.0, 1.0 / s), entries),
        _DIAG_GRID, (0.1, 0.03), lambda s, x: s * math.exp(x))
    assert _diagonal_search(mats, _DIAG_GRID, (0.1, 0.03)) == want


def test_conj_probe_gives_up_only_on_a_losing_point():
    mats = [(2.0, 0.0, 0.0, 0.5), (3.0, 0.0, 0.0, 1.0 / 3.0)]
    h = (1.0, 0.0, 0.0, 1.0)
    assert _conj_probe(h, mats) == 3.0
    assert _conj_probe(h, mats, 3.5) == 3.0
    assert _conj_probe(h, mats, 3.0, True) == 3.0
    assert _conj_probe(h, mats, 3.0, False) is None
    assert _conj_probe(h, mats, 2.5, True) is None
    assert _conj_probe(h, mats, math.nan, True) is None


# sha256 of the written build (jsonio.dumps of representation_to_json with the
# CLI's meta), seed 5, one per supported family; computed when the cover group
# law (cover_mul, cover_inv) became exact, so any builder speedup must keep
# them.
# The counterexample-mirror digests are those of the flipped counterexample
# build
GOLDEN_BUILDS = {
    ((0, 4), 2, (1, 1, 1, 1)): "80d6f99a26151e5fcd3af2054406ecebd61f7985f1fd8acbd81ed339a62abeb5",
    ((0, 4), -2, (-1, -1, -1, -1)): "032ffe56d84430e9136d1462da7f3d4e775efa70d0c4b6b07709c285d58fb891",
    ((0, 4), 1, (1, 1, 1, -1)): "ac31b7a260cc5069d41f18508e3eda0a027fd3c588c5eed40a9b2ab165842586",
    ((0, 4), -1, (-1, -1, -1, 1)): "d144f550f24b5c105e89d92e7f90c7baf85b4db9c2a7506f4d1ba65c35787c1a",
    ((1, 2), 2, (1, 1)): "6f0ab2e18f77f1d147bf8782d2294ae90d7b696f45676ef1b7aa700df70d73f6",
    ((1, 2), -2, (-1, -1)): "f07b527de831a07284d82dc4706ad8a0b89238d39ada6224397689f4d0971101",
    ((1, 2), 1, (1, -1)): "9003eaba475c89d066f2525f9055a3da996cdc3df230c9b91fa699208f880f48",
    ((1, 2), -1, (-1, 1)): "b15bbdb62e006f261352e2dac09eb15fb1a5a512bb69ad01f5b9336e69c87ea6",
    ((0, 5), 3, (1, 1, 1, 1, 1)): "8903db2e2451d835489e79d64f29dc6f37bfc86b6469662e844988a0e8e46375",
    ((0, 5), -3, (-1, -1, -1, -1, -1)): "82064854fd105f43f958793a8f99aba65602375a4ff4649f5ecef830dcf85f22",
    ((0, 5), 2, (1, 1, 1, 1, -1)): "ca782374831729802332935af0503a3ff786949fbf3fc6d7425ac6ac89fa3cff",
    ((0, 5), -2, (-1, -1, -1, -1, 1)): "a5793973afba12df0539c3d233190dc517f5200283fb6aeff6913a2d682047b8",
    ((1, 3), 3, (1, 1, 1)): "d48670c303bcec74de7290a2bfe0ecf7ab8d3ef7e105b834b9306d7b4553eeee",
    ((1, 3), -3, (-1, -1, -1)): "fa28c0e3d40517e51e2ba6fbb4fee861636ebbc44d82f13fadeb08cb04be35ed",
    ((1, 3), 2, (1, 1, -1)): "adb77b1182336184c65b3762f2be7717df9421d05dca776da035b43dffb5f065",
    ((1, 3), -2, (-1, -1, 1)): "9356c77cfa9e31cb89b10f3159eb044ec87f3c18848ec906284ea722e5f48921",
    ((2, 1), 3, (1,)): "b13f6cc1bba56ef0a26e3d985b1b24f101627a8bfd3c77a22c90af18e06ff746",
    ((2, 1), -3, (-1,)): "275599002af8d7c5e197944ebf657a4b9a26504e2f6764ef90c2cf1a8b729815",
    ((2, 1), 2, (-1,)): "d0c2f76b24d890d890bb8ae60faf6e1c05405946b14d5bd525376aa2c96803f8",
    ((2, 1), -2, (1,)): "bff3cb37858dc37847fcc37b2ff4e8cb7801a9d01edca5d0878755495b8da19a",
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
    assert str(err.value) == ("component build failed repeatedly: built "
                              "(e, s) = (5, (1, 1, 1, 1, 0)), requested "
                              "(5, (1, 1, 1, 1, 1))")
