import math
import random
from fractions import Fraction

import pytest

import fraction_reference as ref
from psltilde.constructors import (
    COMMUTATOR_IMAGE,
    BuildRequest,
    build_boundary_extremal,
    build_rep,
    pgl_flip,
)
from psltilde.cover import (
    CoverElement,
    Ell,
    Hyp,
    cover_classify,
    cover_commutator,
    cover_conj,
)
from psltilde.errors import (
    BoundaryElliptic,
    NotHP,
    NotHyperbolic,
    SelfVerificationError,
    UnknownGenerator,
    UnsupportedCurve,
)
from psltilde.mobius import (
    Matrix2,
    PslType,
    classify_psl,
    diag,
    normalize,
    rotation,
)
from psltilde.sampling import random_hyperbolic, random_parabolic, random_psl
from psltilde.surface import (
    Feasibility,
    Representation,
    SignVector,
    SplittingSpec,
    SurfacePresentation,
    euler_class,
    eval_word,
    evaluation_map,
    find_standard_split,
    invariants,
    mw_bounds,
    restrict,
    sign_vector,
    standard_splits,
    twist_deform,
)
from psltilde.words import EMPTY_WORD, parse_word, word


def _s03_rep(c1, c2):
    return Representation(SurfacePresentation(0, 3),
                          {"c1": normalize(c1), "c2": normalize(c2)})


REP_E1 = _s03_rep(Matrix2(1, 1, 0, 1), Matrix2(1, 0, -5, 1))
REP_E0 = _s03_rep(Matrix2(1, 1, 0, 1), Matrix2(1, 0, 5, 1))


def test_presentation_validation():
    with pytest.raises(ValueError):
        SurfacePresentation(0, 2)
    with pytest.raises(ValueError):
        SurfacePresentation(0, 0)
    with pytest.raises(ValueError, match="genus -1 must be non-negative"):
        SurfacePresentation(-1, 5)  # chi = -1, but no such surface
    assert SurfacePresentation(1, 1).chi == -1


def test_eval_empty_word():
    assert eval_word(REP_E1, EMPTY_WORD).is_identity()


def test_eval_commutator_word():
    rep = build_rep(BuildRequest(1, 1, 1, (1,), 3))
    w = rep.surface.handle_word(1)
    a, b = rep.image("a1").rep, rep.image("b1").rep
    direct = normalize(a @ b @ a.inv() @ b.inv())
    assert eval_word(rep, w).rep.maxdiff(direct.rep) < 1e-10


def test_eval_implied_peripheral():
    got = eval_word(REP_E1, word("c3"))
    expect = (REP_E1.image("c1") @ REP_E1.image("c2")).inv()
    assert got.rep.maxdiff(expect.rep) < 1e-12


def _assert_exact_unit(got, x):
    """got is the canonical unit-determinant representative of the exact
    rational matrix x, each entry rounded once: within an ulp of the exact
    entry as fraction_reference rounds it from 60 digits."""
    lead = next((v for v in x[:3] if v), x[3])
    want = ref.unit_entries(x if lead > 0 else tuple(-v for v in x))
    for g, w in zip(got.rep.entries(), want):
        assert abs(g - w) <= math.ulp(w), (got.rep.entries(), want)


def _fraction(m):
    return tuple(map(Fraction, m.rep.entries()))


def test_eval_word_against_exact_products():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    # c4^-1 expands to c1 c2 c3
    for w in (parse_word("c2 c4^-1 c1^-1"),
              parse_word(" ".join(["c1 c2"] * 20))):
        _assert_exact_unit(eval_word(rep, w), ref.image(rep, w))


def test_conjugations_and_commutators_against_exact_products():
    rep = build_rep(BuildRequest(1, 2, 1, (1, -1), 42))
    rng = random.Random(5)
    for _ in range(30):
        g = random_psl(rng)
        x = CoverElement(random_psl(rng), rng.randint(-2, 2))
        y = CoverElement(random_psl(rng), rng.randint(-2, 2))
        G, Gi = _fraction(g), ref.inverse(_fraction(g))
        conj = rep.conjugate(g)
        for gen, m in rep.images.items():
            _assert_exact_unit(conj.image(gen),
                               ref.mul(ref.mul(G, _fraction(m)), Gi))
        _assert_exact_unit(
            cover_conj(CoverElement(g, 0), x).base,
            ref.mul(ref.mul(G, _fraction(x.base)), Gi))
        X, Y = _fraction(x.base), _fraction(y.base)
        _assert_exact_unit(
            cover_commutator(x, y).base,
            ref.mul(ref.mul(X, Y), ref.mul(ref.inverse(X), ref.inverse(Y))))


def test_eval_unknown_generator():
    with pytest.raises(UnknownGenerator):
        eval_word(REP_E1, word("a9"))


def test_forced_euler_plus_plus():
    assert euler_class(REP_E1) == 1
    assert tuple(sign_vector(REP_E1)) == (1, 1, 0)


def test_forced_euler_plus_minus():
    assert euler_class(REP_E0) == 0
    assert tuple(sign_vector(REP_E0)) == (1, -1, 0)


def test_all_cusp_fuchsian_sphere():
    rep = _s03_rep(Matrix2(1, 2, 0, 1), Matrix2(1, 0, -2, 1))
    assert euler_class(rep) == 1
    assert tuple(sign_vector(rep)) == (1, 1, 1)


def test_euler_rejects_elliptic_peripheral():
    rep = _s03_rep(Matrix2(1, 1, 0, 1), Matrix2(0, 1, -1, 0.5))
    for fn in (euler_class, sign_vector, invariants):
        with pytest.raises(NotHP):
            fn(rep)


def test_invariants_match_separate_functions():
    # extremal, its mirror, counterexample, its mirror
    for req in (BuildRequest(0, 4, 2, (1, 1, 1, 1), 3),
                BuildRequest(1, 2, -2, (-1, -1), 3),
                BuildRequest(1, 2, 1, (1, -1), 3),
                BuildRequest(0, 4, -1, (-1, 1, -1, -1), 3)):
        rep = build_rep(req)
        assert invariants(rep) == (euler_class(rep), sign_vector(rep))
        assert invariants(rep) == (req.euler, SignVector(req.signs))


def test_lift_choice_independence():
    # the relator walk lifts the handle generators at index 0; any other
    # lifts give the same commutator, base bits and index alike
    rng = random.Random(9)
    rep = build_rep(BuildRequest(1, 2, 1, (1, -1), 5))
    a, b = rep.image("a1"), rep.image("b1")
    want = cover_commutator(CoverElement(a, 0), CoverElement(b, 0))
    for _ in range(1000):
        sa, sb = rng.randint(-3, 3), rng.randint(-3, 3)
        assert cover_commutator(CoverElement(a, sa), CoverElement(b, sb)) \
            == want
    assert euler_class(rep) == 1


def test_conjugation_invariance_of_invariants():
    rng = random.Random(21)
    for _ in range(50):
        rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), rng.randint(0, 10**6)))
        g = random_psl(rng)
        conj = rep.conjugate(g)
        assert euler_class(conj) == euler_class(rep)
        assert tuple(sign_vector(conj)) == tuple(sign_vector(rep))


def test_wide_conjugations_keep_the_euler_class():
    # conjugators of spread 3 push entries past 10 and some parabolic traces
    # out of the 1e-8 band; a float walk of the relator then missed the
    # identity (RelatorNotCentral) or lost its determinant
    # (NonUnitDeterminant) on about one draw in ten
    rng = random.Random(14)
    checked = 0
    for _ in range(120):
        g, p = rng.choice([(0, 4), (1, 2), (0, 5), (2, 1)])
        chi = 2 - 2 * g - p
        e, signs = rng.choice([(-chi, (1,) * p),
                               (-chi - 1, (1,) * (p - 1) + (-1,))])
        rep = build_rep(BuildRequest(g, p, e, signs, rng.randrange(10**6)))
        conj = rep.conjugate(random_psl(rng, spread=3))
        try:
            got_e, got_s = invariants(conj)
        except NotHP:  # a parabolic image left the band towards elliptic
            continue
        assert got_e == e
        # a sign can only drop to 0, for an image that left the band
        assert all(after in (before, 0) for before, after in zip(signs, got_s))
        checked += 1
    assert checked >= 100


def test_pgl_flip_negates():
    rep = REP_E1
    flipped = pgl_flip(rep)
    assert euler_class(flipped) == -1
    assert tuple(sign_vector(flipped)) == (-1, -1, 0)


def test_pgl_flip_on_samples():
    rng = random.Random(2)
    for seed in range(30):
        rep = build_rep(BuildRequest(1, 2, 1, (1, -1), seed))
        flipped = pgl_flip(rep)
        assert euler_class(flipped) == -1
        assert tuple(sign_vector(flipped)) == (-1, 1)


def test_mw_bounds_examples():
    assert mw_bounds(0, 4, 1, (1, 1, 1, -1)) is Feasibility.FEASIBLE_SUFFICIENT
    assert mw_bounds(0, 3, 1, (1, 1, 0)) is Feasibility.FEASIBLE_IFF
    assert mw_bounds(0, 3, 0, (1, 1, 0)) is Feasibility.INFEASIBLE
    assert mw_bounds(0, 3, 1, (1, 1, 1)) is Feasibility.UNKNOWN


def test_sign_vector_counts():
    s = SignVector((1, -1, 0, 1))
    assert (s.p_plus, s.p_zero, s.p_minus) == (2, 1, 1)


def test_evaluation_map_commutator_case():
    p = normalize(diag(2.0))
    r = rotation(math.pi / 4)
    q = normalize(r @ p.rep @ r.inv())
    rep = Representation(SurfacePresentation(1, 1), {"a1": p, "b1": q})
    assert cover_classify(evaluation_map(rep)) in COMMUTATOR_IMAGE


def test_evaluation_map_sphere_e1():
    ev = evaluation_map(REP_E1)
    assert cover_classify(ev) == Hyp(1)
    assert ev.base.rep.maxdiff(REP_E1.peripheral_image(3).inv().rep) < 1e-9


def test_evaluation_map_elliptic_bound():
    # all-positive peripherals, elliptic last image: component within the
    # stated window 1 - 2g <= n <= 2g + p - 2
    rng = random.Random(33)
    for (g, p) in ((1, 1), (0, 3), (1, 2), (0, 4)):
        surf = SurfacePresentation(g, p)
        found = 0
        while found < 250:
            images = {}
            for j in range(1, g + 1):
                images[surf.a(j)] = random_psl(rng)
                images[surf.b(j)] = random_psl(rng)
            for i in range(1, p):
                images[surf.c(i)] = random_parabolic(rng, 1)
            rep = Representation(surf, images)
            if classify_psl(rep.peripheral_image(p)).value != "Elliptic":
                continue
            found += 1
            cls = cover_classify(evaluation_map(rep))
            assert cls.tag == "Ell"
            assert 1 - 2 * g <= cls.n <= 2 * g + p - 2


def test_evaluation_map_class_is_the_euler_class():
    # wide images: float cover chains lost the determinant of the evaluation
    # map or the centrality of the relator on about one draw in fifty
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        surf = SurfacePresentation(*rng.choice(((1, 1), (1, 2), (2, 1),
                                                (0, 5))))
        rep = Representation(surf, {
            gen: (rng.choice((random_parabolic, random_hyperbolic))(rng)
                  if gen[0] == "c" else random_psl(rng, spread=2.5))
            for gen in surf.free_generators()})
        last = classify_psl(rep.peripheral_image(surf.punctures))
        if last is PslType.HYPERBOLIC:
            assert cover_classify(evaluation_map(rep)) == Hyp(euler_class(rep))
            checked += 1
    assert checked > 100


def test_restrict_additivity_torus():
    rng = random.Random(3)
    for seed in range(10):
        rep = build_rep(BuildRequest(1, 2, 1, (1, -1), seed))
        left, right = restrict(rep, SplittingSpec.prefix(1, 0))
        assert euler_class(left) + euler_class(right) == 1


def test_restrict_fuchsian_pieces_extremal():
    rng = random.Random(8)
    for seed in range(5):
        rep = build_rep(BuildRequest(1, 2, 2, (1, 1), seed))
        for split in standard_splits(rep.surface):
            left, right = restrict(rep, split)
            assert euler_class(left) == -left.surface.chi
            assert euler_class(right) == -right.surface.chi


def test_side_a_generators_of_every_standard_split():
    P, Q = SplittingSpec.prefix, SplittingSpec.pants_pair
    want = {
        (0, 5): {P(0, 2): ["c1", "c2"], P(0, 3): ["c1", "c2", "c3"],
                 Q(1): ["c1", "c2"], Q(2): ["c2", "c3"], Q(3): ["c3", "c4"],
                 Q(4): ["c4"]},
        (1, 3): {P(1, 0): ["a1", "b1"], P(1, 1): ["a1", "b1", "c1"],
                 Q(1): ["c1", "c2"], Q(2): ["c2"]},
        (2, 2): {P(1, 0): ["a1", "b1"], P(2, 0): ["a1", "b1", "a2", "b2"],
                 Q(1): ["c1"]},
    }
    for (g, p), sides in want.items():
        surf = SurfacePresentation(g, p)
        assert standard_splits(surf) == list(sides)
        for split, gens in sides.items():
            assert split.side_a_generators(surf) == gens


def _documented_pieces(rep, split):
    """Each piece's generator images as restrict documents them, by name:
    the stored image of the generator it came from, the relator walk's c_p,
    or None for the splitting curve's image."""
    surf = rep.surface
    g, p = surf.genus, surf.punctures

    def c(i):
        return rep.peripheral_image(p) if i == p else rep.image(surf.c(i))

    if split.kind == "prefix":
        j, k = split.j, split.k
        a = {f"{x}{jj}": rep.image(f"{x}{jj}")
             for jj in range(1, j + 1) for x in "ab"}
        a.update((f"c{i}", c(i)) for i in range(1, k + 1))
        b = {f"{x}{jj - j}": rep.image(f"{x}{jj}")
             for jj in range(j + 1, g + 1) for x in "ab"}
        b.update((f"c{i - k}", c(i)) for i in range(k + 1, p + 1))
        return a, b
    i = split.i
    b = {f"{x}{jj}": rep.image(f"{x}{jj}")
         for jj in range(1, g + 1) for x in "ab"}
    b.update((f"c{m}", None if m == i else c(m if m < i else m + 1))
             for m in range(1, p - 1))
    return {"c1": c(i), "c2": c(i + 1)}, b


@pytest.mark.parametrize("req", [BuildRequest(1, 3, 2, (1, 1, -1), 5),
                                 BuildRequest(0, 5, 2, (1, 1, 1, 1, -1), 5)])
def test_restricted_pieces_carry_the_stored_images(req):
    rep = build_rep(req)
    surf = rep.surface
    assert rep.peripheral_image(surf.punctures) is rep._relator[1].base
    for split in standard_splits(surf):
        boundary = eval_word(rep, split.curve_word(surf))
        for piece, want in zip(restrict(rep, split),
                               _documented_pieces(rep, split)):
            assert list(piece.images) == list(want)
            for gen, m in want.items():
                if m is None:
                    assert piece.image(gen) == boundary
                else:
                    assert piece.image(gen) is m, (split, gen)


@pytest.mark.parametrize("genus, punctures, euler, signs",
                         [(0, 4, 1, (1, 1, 1, -1)), (1, 2, 1, (1, -1)),
                          (2, 2, 3, (1, -1))])
def test_peripheral_images_are_the_stored_ones(genus, punctures, euler,
                                               signs):
    sign_of = {PslType.HYPERBOLIC: 0, PslType.PARABOLIC_PLUS: 1,
               PslType.PARABOLIC_MINUS: -1}
    for seed in range(3):
        rep = build_rep(BuildRequest(genus, punctures, euler, signs, seed))
        stored = [rep.images[f"c{i}"] for i in range(1, punctures)]
        for i, m in enumerate(stored, start=1):
            assert rep.peripheral_image(i) is m
        for i in (0, punctures + 1):
            with pytest.raises(ValueError,
                               match=f"^puncture index {i} out of range$"):
                rep.peripheral_image(i)
        kinds = [classify_psl(m) for m in stored + [rep._relator[1].base]]
        assert sign_vector(rep).entries == tuple(sign_of[k] for k in kinds) \
            == signs


def _elliptic_commutator_rep():
    # crossing axes at pi/4 give a commutator of trace ~ -0.73
    surf = SurfacePresentation(1, 2)
    images = {"a1": normalize(diag(2.0)),
              "b1": normalize(rotation(math.pi / 4) @ diag(2.0)
                              @ rotation(math.pi / 4).inv()),
              "c1": normalize(Matrix2(1, 1, 0, 1))}
    rep = Representation(surf, images)
    boundary = eval_word(rep, surf.gamma_word(1, 0))
    assert classify_psl(boundary).value == "Elliptic"
    return rep


def test_restrict_rejects_elliptic_boundary():
    rep = _elliptic_commutator_rep()
    with pytest.raises(BoundaryElliptic):
        restrict(rep, SplittingSpec.prefix(1, 0))


def test_nonstandard_split_rejected():
    with pytest.raises(UnsupportedCurve):
        SplittingSpec.prefix(1, 1).validate(SurfacePresentation(2, 3))
    with pytest.raises(UnsupportedCurve):
        SplittingSpec.pants_pair(1).validate(SurfacePresentation(0, 3))


def test_twist_identity_at_zero():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 11))
    out = twist_deform(rep, SplittingSpec.pants_pair(1), 0.0)
    assert out is rep


def test_twist_preserves_invariants():
    rng = random.Random(12)
    for seed in range(8):
        rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), seed))
        t = rng.uniform(-1.0, 1.0)
        out = twist_deform(rep, SplittingSpec.pants_pair(2), t)
        assert euler_class(out) == euler_class(rep)
        assert tuple(sign_vector(out)) == tuple(sign_vector(rep))
        for i in range(1, 5):
            assert classify_psl(out.peripheral_image(i)) \
                is classify_psl(rep.peripheral_image(i))


def test_twist_deform_rejects_a_twist_that_changes_invariants(monkeypatch):
    from psltilde import surface

    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    twist = surface._twist
    monkeypatch.setattr(surface, "_twist",
                        lambda r, split, t: pgl_flip(twist(r, split, t)))
    # builds twist unchecked; the public twist still asserts on every call
    with pytest.raises(SelfVerificationError, match=(
            r"^twist changed invariants: \(1, SignVector\(entries=\(1, 1, 1, "
            r"-1\)\)\) -> \(-1, SignVector\(entries=\(-1, -1, -1, 1\)\)\)$")):
        twist_deform(rep, SplittingSpec.pants_pair(1), 0.3)


def test_twist_by_curve_word():
    rep = build_rep(BuildRequest(1, 2, 1, (1, -1), 4))
    curve = rep.surface.gamma_word(1, 0)
    out = twist_deform(rep, curve, 0.5)
    assert euler_class(out) == 1


def test_twist_rejects_elliptic_curve_image():
    rep = _elliptic_commutator_rep()
    with pytest.raises(BoundaryElliptic):
        twist_deform(rep, SplittingSpec.prefix(1, 0), 0.3)


def test_milnor_wood_on_all_builds():
    rng = random.Random(77)
    for _ in range(40):
        g, p = rng.choice([(0, 3), (0, 4), (1, 1), (1, 2)])
        rep = build_boundary_extremal(g, p, random_hyperbolic(rng), rng)
        e = euler_class(rep)
        chi = rep.surface.chi
        assert chi <= e <= -chi


def test_twist_rejects_parabolic_curve_image():
    # c1 c2 = (1 2 / 0 1) bounds the pants of the first two punctures
    par = Matrix2(1, 1, 0, 1)
    rep = Representation(SurfacePresentation(0, 4), {
        "c1": normalize(par), "c2": normalize(par),
        "c3": normalize(Matrix2(1, 0, 1, 1))})
    with pytest.raises(NotHyperbolic,
                       match="^twist curve image must be hyperbolic$"):
        twist_deform(rep, parse_word("c1 c2"), 0.5)


def test_find_standard_split_refuses_other_curves():
    with pytest.raises(UnsupportedCurve,
                       match="^curve c1 c3 is not in the standard list$"):
        find_standard_split(SurfacePresentation(0, 4), parse_word("c1 c3"))


@pytest.mark.parametrize("genus, punctures, spec, message", [
    (1, 2, SplittingSpec.prefix(2, 0), r"gamma_\(2,0\) out of range"),
    (1, 2, SplittingSpec.prefix(1, 2), r"gamma_\(1,2\) out of range"),
    (0, 4, SplittingSpec.pants_pair(0), "pants pair index 0 out of range"),
    (0, 4, SplittingSpec.pants_pair(4), "pants pair index 4 out of range"),
    (0, 4, SplittingSpec("bogus"), "unknown splitting kind 'bogus'"),
])
def test_splitting_spec_refuses_bad_input(genus, punctures, spec, message):
    with pytest.raises(UnsupportedCurve, match=f"^{message}$"):
        spec.validate(SurfacePresentation(genus, punctures))


def test_presentation_inputs_are_checked():
    surf = SurfacePresentation(0, 4)
    for i in (0, 5):
        with pytest.raises(ValueError,
                           match=f"^puncture index {i} out of range$"):
            surf.peripheral_word(i)
    with pytest.raises(UnknownGenerator,
                       match=r"^missing generator images: \['c3'\]$"):
        Representation(surf, {"c1": normalize(Matrix2(1, 1, 0, 1)),
                              "c2": normalize(Matrix2(1, 0, 1, 1))})
    with pytest.raises(ValueError,
                       match=r"^sign entries must be -1, 0 or \+1$"):
        SignVector((1, 2, -1, 1))
    with pytest.raises(ValueError, match="^sign vector length must equal "
                       "puncture count$"):
        mw_bounds(0, 4, 1, (1, 1, -1))
