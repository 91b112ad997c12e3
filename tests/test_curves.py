import hashlib

import pytest

from psltilde.curves import (
    McgAuto,
    classify_curve,
    default_autos,
    enumerate_scc,
    scc_seeds,
    validate_auto,
)
from psltilde.surface import SurfacePresentation
from psltilde.words import format_word, parse_word, word

S04 = SurfacePresentation(0, 4)
S12 = SurfacePresentation(1, 2)
S03 = SurfacePresentation(0, 3)


def test_classify_peripheral():
    assert classify_curve(word("c1"), S12).kind == "peripheral"
    assert classify_curve(word("c1"), S12).puncture == 1
    # the implied last peripheral, given by name or by its defining word
    assert classify_curve(word("c2"), S12).puncture == 2
    assert classify_curve(S12.last_peripheral_word(), S12).puncture == 2
    conj = word("a1") * word("c1") * word(("a1", -1))
    assert classify_curve(conj, S12).kind == "peripheral"


def test_classify_nonseparating():
    assert classify_curve(word("a1"), S12).kind == "nonseparating"
    assert classify_curve(parse_word("a1 b1"), S12).kind == "nonseparating"


def test_classify_separating():
    assert classify_curve(S12.handle_word(1), S12).kind == "separating"
    assert classify_curve(parse_word("c1 c2"), S04).kind == "separating"


def test_braid_is_valid():
    f = next(a for a in default_autos(S04) if a.name == "sigma_1")
    assert validate_auto(f, S04)
    # relator is preserved identically: (c1 c2 c1^-1)(c1) = c1 c2
    img = f.apply(parse_word("c1 c2"))
    assert img == parse_word("c1 c2")


def test_handle_twist_is_valid():
    f = next(a for a in default_autos(S12) if a.name == "T_a1")
    assert validate_auto(f, S12)
    assert f.apply(S12.handle_word(1)) == S12.handle_word(1)


def test_non_automorphism_rejected():
    images = {g: word(g) for g in S12.free_generators()}
    images["a1"] = parse_word("a1 a1")
    bad = McgAuto("square", images, images)
    assert not validate_auto(bad, S12)


def test_peripheral_shuffling_to_relator_rejected():
    # the half-twist braiding the last two punctures moves the relator class
    # onto a peripheral class, so the gate must reject it
    surf = S03
    images = {g: word(g) for g in surf.free_generators()}
    images["c2"] = word("c2") * surf.last_peripheral_word() * word(("c2", -1))
    inverse = {g: word(g) for g in surf.free_generators()}
    inverse["c2"] = surf.last_peripheral_word()  # not a genuine inverse; gate fails earlier
    f = McgAuto("sigma_last", images, inverse)
    assert not validate_auto(f, surf)


def test_default_autos_validated_everywhere():
    for surf in (S03, S04, S12, SurfacePresentation(2, 1),
                 SurfacePresentation(1, 3)):
        autos = default_autos(surf)
        assert autos
        for f in autos:
            assert validate_auto(f, surf)


def test_seeds_are_nonperipheral_classes():
    for surf in (S04, S12, SurfacePresentation(1, 3)):
        for w in scc_seeds(surf):
            assert w.letters
            assert classify_curve(w, surf).kind != "peripheral"


def test_sphere_seeds():
    seeds = {str(w) for w in scc_seeds(S04)}
    assert len(seeds) == 2  # adjacent pair curves; the third pair coincides


def test_thrice_punctured_sphere_has_no_curves():
    assert enumerate_scc(S03, 3) == []


def test_depth_zero_is_seeds():
    assert enumerate_scc(S04, 0) == scc_seeds(S04)


def test_growth_sanity():
    # golden counts for the braid orbit on the four-punctured sphere
    counts = [len(enumerate_scc(S04, d)) for d in range(4)]
    assert counts == [2, 6, 14, 36]
    assert counts[3] > counts[2] > counts[1]


# (genus, punctures, depth): (count, dropped, sha256 of the newline-joined
# format_word list), recorded with the quadratic all-rotations canonical form
# that the linear one replaced
GOLDEN = {
    (0, 4, 5): (240, 0, "a3bdbdf26e110506f5d35f0578a9aa175e0d381b2e4886b22837aa20a19b2f75"),
    (1, 2, 4): (33, 0, "ca0778080bd126bae1621edac215c97b4d08ff4c14484b3d81c9900b3b7a303f"),
    (2, 1, 3): (33, 0, "5e302fedd91ee3abadf3ec19daf390680ba74320bc844d623297a213b36d8b15"),
    (0, 5, 3): (183, 0, "c9901fcf48e9e20cb119af99febaa61e80024e9c3ad3f1aac2e57dd208490981"),
    (1, 1, 6): (128, 0, "588a770b3c57b75ef516d90ab090605fcf738e83cf7cf96b39869813fc1a870f"),
}


@pytest.mark.parametrize("g,p,d", sorted(GOLDEN))
def test_enumeration_golden_digest(g, p, d):
    curves, stats = enumerate_scc(SurfacePresentation(g, p), d,
                                  return_stats=True)
    digest = hashlib.sha256(
        "\n".join(format_word(w) for w in curves).encode()).hexdigest()
    assert (stats["count"], stats["dropped"], digest) == GOLDEN[g, p, d]


def test_enumeration_outputs_nonperipheral():
    curves, stats = enumerate_scc(S12, 4, return_stats=True)
    assert stats["count"] == len(curves)
    for w in curves:
        cls = classify_curve(w, S12)
        assert cls.kind != "peripheral"
        assert w.letters


def test_enumeration_deterministic():
    a = enumerate_scc(S04, 3)
    b = enumerate_scc(S04, 3)
    assert a == b


def test_fuchsian_soundness_oracle():
    # every enumerated class must be hyperbolic under a Fuchsian
    # type-preserving representation: curve-enumeration soundness
    from psltilde.constructors import BuildRequest, build_rep
    from psltilde.mobius import PslType, classify_psl
    from psltilde.surface import eval_word

    rep = build_rep(BuildRequest(0, 4, 2, (1, 1, 1, 1), 7))
    for w in enumerate_scc(S04, 4):
        assert classify_psl(eval_word(rep, w)) is PslType.HYPERBOLIC
