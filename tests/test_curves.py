import hashlib
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from psltilde.curves import (
    MAX_ORBIT_WORD_LEN,
    Curves,
    McgAuto,
    SlopeOrbit,
    _orbit,
    _orbit_tables,
    _positive,
    _translation,
    _word_orbit,
    classify_curve,
    default_autos,
    enumerate_scc,
    scc_seeds,
    slope_length,
    validate_auto,
    word_slope,
)
from psltilde.errors import UnsupportedCurve
from psltilde.surface import (
    SplittingSpec,
    SurfacePresentation,
    _expand_last,
    standard_splits,
)
from psltilde.words import canonical_form
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
    # an image in a letter that is not a free generator of the surface
    images["a1"] = parse_word("a1 c2")
    assert not validate_auto(McgAuto("implied", images, images), S12)


def test_automorphism_missing_an_image_rejected():
    images = {g: word(g) for g in S12.free_generators() if g != "b1"}
    assert not validate_auto(McgAuto("partial", images, images), S12)


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


def test_default_autos_pass_the_gate_on_every_call():
    # nothing is remembered between calls: a default automorphism that
    # fails the gate is refused each time
    images = {g: word(g) for g in S12.free_generators()}
    images["a1"] = parse_word("a1 a1")
    square = McgAuto("square", images, images)
    with mock.patch("psltilde.curves._braids", lambda surf: [square]):
        for _ in range(2):
            with pytest.raises(AssertionError, match="square"):
                default_autos(S12)


def test_seeds_are_nonperipheral_classes():
    for surf in (S04, S12, SurfacePresentation(1, 3)):
        for w in scc_seeds(surf):
            assert w.letters
            assert classify_curve(w, surf).kind != "peripheral"


def test_sphere_seeds():
    seeds = {str(w) for w in scc_seeds(S04)}
    assert len(seeds) == 2  # adjacent pair curves; the third pair coincides


def _reference_seeds(surf):
    """scc_seeds as it listed its own standard curves."""
    g, p = surf.genus, surf.punctures
    seeds = []
    for j in range(1, g + 1):
        seeds.append(word(surf.a(j)))
        seeds.append(word(surf.b(j)))
    for j in range(1, g + 1):
        seeds.append(surf.gamma_word(j, 0))
    for k in range(1, p - 1):
        seeds.append(surf.gamma_word(g, k))
    for i in range(1, p):
        seeds.append(surf.peripheral_word(i) * surf.peripheral_word(i + 1))
    out = []
    seen = set()
    for s in seeds:
        s = _expand_last(surf, s)
        canon = canonical_form(s)
        if not canon or canon.letters in seen:
            continue
        if classify_curve(canon, surf).kind == "peripheral":
            continue
        seen.add(canon.letters)
        out.append(canon)
    return sorted(out, key=lambda w: w.letters)


def _reference_splits(surf):
    """standard_splits as it listed its own candidates."""
    g, p = surf.genus, surf.punctures
    candidates = [SplittingSpec.prefix(j, 0) for j in range(1, g + 1)] \
        + [SplittingSpec.prefix(g, k) for k in range(1, p - 1)] \
        + [SplittingSpec.pants_pair(i) for i in range(1, p)]
    out = []
    for spec in candidates:
        try:
            spec.validate(surf)
        except UnsupportedCurve:
            continue
        out.append(spec)
    return out


def test_seeds_and_splits_share_one_list_of_standard_curves():
    surfaces = [SurfacePresentation(g, p) for g in range(4)
                for p in range(1, 9) if -6 <= 2 - 2 * g - p < 0]
    assert len(surfaces) == 18
    for surf in surfaces:
        assert scc_seeds(surf) == _reference_seeds(surf), surf
        assert standard_splits(surf) == _reference_splits(surf), surf


def test_thrice_punctured_sphere_has_no_curves():
    assert enumerate_scc(S03, 3) == []


def test_depth_zero_is_seeds():
    assert enumerate_scc(S04, 0) == scc_seeds(S04)


@pytest.mark.parametrize("surf", [S04, S12])
def test_negative_depth_is_refused(surf):
    # (0,4) enumerates by slope, (1,2) by the word search
    with pytest.raises(ValueError, match="^depth must be nonnegative$"):
        enumerate_scc(surf, -1)


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
    # the audit-deep depths, recorded with the tuple-of-letters enumeration
    # that the coded one replaced; (1, 3, 7) is the entry that drops words
    (0, 4, 6): (610, 0, "c1ad855b3fc4252039504a55f0d2f16dbbcb6da67dce56e198fb49e826d9c630"),
    (0, 4, 7): (1560, 0, "ad1d54eda460584a62d3acc702d2649338a6a954e4ca3dc9cc1c29c65965e072"),
    (1, 3, 6): (607, 0, "68006621d278fb885141a1666c12f744fb00f3a9649f63ce2df5109e1a4371ba"),
    (1, 3, 7): (1409, 2, "57f5dd118c014ce226bfdaa4e8873fffdefad2c15e050c4f43b5b946f93d66c1"),
    # recorded with the word BFS, before (0,4) enumerated slopes; it pins
    # the two words the length cap drops
    (0, 4, 8): (3984, 2, "43483aad30e1ec7a6fd037a332eb845a9aae4a6a15f8384da67fcd35141c4d23"),
}


@pytest.mark.parametrize("g,p,d", sorted(GOLDEN))
def test_enumeration_golden_digest(g, p, d):
    curves, stats = enumerate_scc(SurfacePresentation(g, p), d,
                                  return_stats=True)
    digest = hashlib.sha256(
        "\n".join(format_word(w) for w in curves).encode()).hexdigest()
    assert (stats["count"], stats["dropped"], digest) == GOLDEN[g, p, d]


def _plain_orbit(seeds, depth, images):
    """The breadth-first search that forms every image: images(x) gives the
    images of x, one per map, None for one dropped. Returns (orbit,
    parents, dropped) as _orbit does."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    orbit = list(seeds)
    parents = [None] * len(orbit)
    index = {x: i for i, x in enumerate(orbit)}
    frontier = range(len(orbit))
    dropped = 0
    for _ in range(depth):
        start = len(orbit)
        for i in frontier:
            for t, img in enumerate(images(orbit[i])):
                if img is None:
                    dropped += 1
                elif img not in index:
                    index[img] = len(orbit)
                    orbit.append(img)
                    parents.append((i, t))
        frontier = range(start, len(orbit))
        if not frontier:
            break
    return orbit, parents, dropped


@pytest.mark.parametrize("g,p,d,dropped", [
    (1, 2, 8, 0), (1, 3, 7, 2), (2, 1, 6, 0), (0, 5, 5, 0), (1, 4, 4, 0)])
def test_word_orbit_matches_the_plain_search(g, p, d, dropped):
    # the search that skips the way back along every known edge, and the
    # word search that also skips the canonical form of fixed images, find
    # the orbit, parents and drops of the search that forms every image
    surf = SurfacePresentation(g, p)
    alphabet, tables = _orbit_tables(surf)

    def image(w, t):
        img = alphabet.canonical(alphabet.substitute(w, tables[t]))
        return None if len(img) > MAX_ORBIT_WORD_LEN else img

    seeds = [alphabet.encode(w) for w in scc_seeds(surf)]
    plain = _plain_orbit(
        seeds, d, lambda w: [image(w, t) for t in range(len(tables))])
    assert plain[2] == dropped
    assert _orbit(seeds, d, image, len(tables)) == plain
    searched, codes, n = _word_orbit(surf, d)
    assert searched.letters == alphabet.letters
    assert (codes, n) == (sorted(plain[0], key=alphabet.tuple_key), dropped)


def test_slope_orbit_matches_the_plain_search():
    orbit = SlopeOrbit(9)

    def images(v):
        a, b = v
        for p, q, r, s in orbit.maps:
            w = _positive(p * a + q * b, r * a + s * b)
            yield None if slope_length(*w) > MAX_ORBIT_WORD_LEN else w

    plain = _plain_orbit(map(word_slope, scc_seeds(S04)), 9, images)
    assert plain[2] == 299
    assert (orbit.slopes, orbit.parents, orbit.dropped) == plain


def test_each_map_of_the_orbit_search_is_inverse_to_its_pair():
    # map t and map (t + n/2) % n undo each other, on every surface with
    # chi >= -5: the pairing that lets the search skip the way back
    surfaces = [SurfacePresentation(g, p) for g in range(4)
                for p in range(1, 8) if -5 <= 2 - 2 * g - p < 0]
    assert len(surfaces) == 14
    for surf in surfaces:
        alphabet, tables = _orbit_tables(surf)
        n = len(tables)
        letters = [alphabet.codes[g, e] for g in surf.free_generators()
                   for e in (1, -1)]
        for t in range(n):
            back = tables[(t + n // 2) % n]
            for x in letters:
                assert alphabet.substitute(
                    alphabet.substitute(x, tables[t]), back) == x, (surf, t)
    maps = SlopeOrbit(0).maps
    n = len(maps)
    for t in range(n):
        (p, q, r, s), (p2, q2, r2, s2) = maps[t], maps[(t + n // 2) % n]
        product = (p * p2 + q * r2, p * q2 + q * s2,
                   r * p2 + s * r2, r * q2 + s * s2)
        assert product in ((1, 0, 0, 1), (-1, 0, 0, -1)), t


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


# -- the four-punctured sphere by slopes --------------------------------------

@pytest.mark.parametrize("depth", range(9))
def test_slope_orbit_matches_the_word_search(depth):
    alphabet, codes, dropped = _word_orbit(S04, depth)
    words = list(map(alphabet.decode, codes))
    assert enumerate_scc(S04, depth) == words
    for orbit in (SlopeOrbit(depth), Curves.enumerated(S04, depth)):
        assert isinstance(orbit, SlopeOrbit)
        assert orbit.dropped == dropped
        assert [orbit.slot_word(i) for i in sorted(range(len(orbit)),
                                                   key=orbit.slot_key)] \
            == words
        assert len(set(orbit.slopes)) == len(orbit) == len(words)
        assert set(orbit.slopes) == set(map(word_slope, words))


def test_slope_word_length_identity():
    # the canonical word of slope (a, b) has |a| letters c1, |a - b| letters
    # c2 and |b| letters c3, 2 max(|a|, |b|, |a - b|) in all
    orbit = SlopeOrbit(8)
    assert orbit.dropped == 2
    longest = 0
    for i, (a, b) in enumerate(orbit.slopes):
        w = orbit.slot_word(i)
        counts = Counter(g for g, _ in w.letters)
        assert (counts["c1"], counts["c2"], counts["c3"]) == \
            (abs(a), abs(a - b), abs(b)), (a, b)
        assert len(w) == slope_length(a, b) == \
            2 * max(abs(a), abs(b), abs(a - b))
        longest = max(longest, len(w))
    assert longest <= MAX_ORBIT_WORD_LEN


ORBIT = SlopeOrbit(0)
even_codes = st.lists(st.integers(0, 5), max_size=40).map(
    lambda ks: "".join(map(chr, ks[:len(ks) // 2 * 2])))


@settings(max_examples=200, deadline=None)
@given(even_codes, st.lists(st.integers(0, len(ORBIT.tables) - 1),
                            max_size=6))
def test_automorphisms_act_on_slopes_by_their_matrices(codes, tables):
    # any word of even length, reduced or not, and any composition of the
    # default automorphisms and their inverses
    x, y = _translation(codes, ORBIT.centres)
    for t in tables:
        codes = ORBIT.alphabet.substitute(codes, ORBIT.tables[t])
        p, q, r, s = ORBIT.maps[t]
        x, y = p * x + q * y, r * x + s * y
    assert _translation(codes, ORBIT.centres) == (x, y)
