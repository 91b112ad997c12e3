import random

from hypothesis import given, strategies as st

from psltilde.words import (
    CurveWord,
    canonical_form,
    cyclic_reduce,
    format_word,
    parse_word,
    substitute,
    word,
)

GENS = ["a1", "b1", "c1", "c2"]

letters = st.lists(
    st.tuples(st.sampled_from(GENS), st.sampled_from([1, -1])),
    max_size=12,
)


def test_free_reduction_example():
    assert canonical_form(parse_word("a1 b1 b1^-1")) == word("a1")


def test_cyclic_reduction_example():
    assert canonical_form(parse_word("b1 a1 b1^-1")) == word("a1")


def test_inverse_identification_example():
    assert canonical_form(parse_word("a1^-1")) == word("a1")


def test_parse_format_round_trip():
    w = parse_word("a1 b1^-1 c2 c2 a1^-1")
    assert parse_word(format_word(w)) == w


def test_exponent_expansion():
    assert parse_word("a1^3").letters == (("a1", 1),) * 3
    assert parse_word("a1^-2").letters == (("a1", -1),) * 2


@given(letters)
def test_constructor_freely_reduces(ls):
    w = CurveWord(ls)
    for (g1, e1), (g2, e2) in zip(w.letters, w.letters[1:]):
        assert not (g1 == g2 and e1 == -e2)


@given(letters)
def test_canonical_idempotent(ls):
    w = CurveWord(ls)
    assert canonical_form(canonical_form(w)) == canonical_form(w)


@given(letters)
def test_canonical_inversion_invariant(ls):
    w = CurveWord(ls)
    assert canonical_form(w.inv()) == canonical_form(w)


@given(letters, st.integers(0, 11))
def test_canonical_rotation_invariant(ls, k):
    w = cyclic_reduce(CurveWord(ls))
    if not w.letters:
        return
    k %= len(w.letters)
    rotated = CurveWord(w.letters[k:] + w.letters[:k])
    assert canonical_form(rotated) == canonical_form(w)


@given(letters, letters)
def test_canonical_conjugation_invariant(ls, gs):
    w = CurveWord(ls)
    g = CurveWord(gs)
    assert canonical_form(g * w * g.inv()) == canonical_form(w)


def test_mass_randomized_invariance():
    rng = random.Random(5)
    for _ in range(10_000):
        ls = [(rng.choice(GENS), rng.choice((1, -1)))
              for _ in range(rng.randint(0, 10))]
        w = CurveWord(ls)
        k = rng.randint(0, max(len(w.letters), 1))
        rotated = CurveWord(w.letters[k:] + w.letters[:k]) \
            if w.letters else w
        target = canonical_form(w)
        assert canonical_form(w.inv()) == target
        if len(cyclic_reduce(w)) == len(w):
            assert canonical_form(rotated) == target


# Reference copy of the quadratic canonical form that the linear one
# replaced: free and cyclic reduction on plain lists, then every rotation of
# the word and of its inverse, compared as tuples of (name, 0 for +1 or 1 for
# -1) keys. The linear canonical_form must agree with it letter for letter.

def _reference_reduce(letters):
    out = []
    for gen, exp in letters:
        if out and out[-1] == (gen, -exp):
            out.pop()
        else:
            out.append((gen, exp))
    return out


def _reference_canonical(letters):
    w = _reference_reduce(letters)
    while len(w) >= 2 and w[0] == (w[-1][0], -w[-1][1]):
        w = w[1:-1]
    if not w:
        return ()
    best, best_key = None, None
    for candidate in (w, [(g, -e) for g, e in reversed(w)]):
        n = len(candidate)
        doubled = candidate + candidate
        for i in range(n):
            rot = doubled[i:i + n]
            key = tuple((g, 0 if e == 1 else 1) for g, e in rot)
            if best_key is None or key < best_key:
                best, best_key = rot, key
    return tuple(best)


# multi-digit names: string order puts c10 and c11 before c2
NAMES = ["a1", "b10", "c2", "c10", "c11"]
name_letter = st.tuples(st.sampled_from(NAMES), st.sampled_from([1, -1]))
long_letters = st.lists(name_letter, max_size=64)


@given(long_letters)
def test_canonical_matches_reference(ls):
    w = CurveWord(ls)
    assert canonical_form(w).letters == _reference_canonical(ls)
    core = cyclic_reduce(w)
    assert canonical_form(core).letters == _reference_canonical(core.letters)


@given(st.lists(name_letter, min_size=1, max_size=16), st.integers(1, 4))
def test_canonical_matches_reference_on_powers(ls, k):
    # powers have several least rotations: the ties must resolve alike
    w = cyclic_reduce(CurveWord(ls))
    assert canonical_form(CurveWord(w.letters * k)).letters \
        == _reference_canonical(w.letters * k)


images = st.fixed_dictionaries(
    {g: st.lists(name_letter, max_size=8).map(CurveWord) for g in NAMES})


@given(long_letters, images)
def test_substitute_matches_letterwise_expansion(ls, imgs):
    w = CurveWord(ls)
    expanded = []
    for gen, exp in w.letters:
        expanded.extend((imgs[gen] if exp == 1 else imgs[gen].inv()).letters)
    assert substitute(w, imgs).letters == tuple(_reference_reduce(expanded))
