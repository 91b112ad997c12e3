import math
import random

import pytest

from psltilde.constructors import (
    COMMUTATOR_IMAGE,
    BuildRequest,
    FactorKind,
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
    NotSupported,
    SelfVerificationError,
    SolveFailed,
    TargetOutsideImage,
    UnreachableTarget,
)
from psltilde.mobius import Matrix2, diag, normalize
from psltilde.sampling import random_elliptic, random_hyperbolic, random_parabolic
from psltilde.surface import euler_class, eval_word, sign_vector
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
