"""The audit's exact integer kernel against an independent Fraction
recomputation: margins, verdicts, traces past the float range, type names,
and the loader's check of the stored last peripheral; and the Farey trace
recursion of the four-punctured sphere and the fixed-point word walk
against the products they replace."""
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
import psltilde
from psltilde import audit, exact, jsonio
from psltilde.audit import audit_rep
from psltilde.constructors import (
    BuildRequest,
    build_negative_control,
    build_rep,
    sample,
)
from psltilde.curves import (
    CurveList,
    Curves,
    _farey_parents,
    _farey_plan,
    _positive,
    enumerate_scc,
    word_slope,
)
from psltilde.errors import NonUnitDeterminant, RelatorNotCentral
from psltilde.exact import (
    curve_margins,
    curve_products,
    trace_margin,
    word_product,
)
from psltilde.mobius import (
    PAR_BAND,
    Matrix2,
    PslType,
    _sqrt_ratio,
    _trace_det,
    classify_psl,
    int_matrix,
    normalize,
    unit_entries,
)
from psltilde.surface import (
    Representation,
    SignVector,
    SurfacePresentation,
    eval_word,
    invariants,
)
from psltilde.words import Alphabet, CurveWord, format_word, parse_word, word

SPHERE4 = SurfacePresentation(0, 4)

# unit-determinant float generators: d = (1 + bc)/a rounded, then normalize
generator = st.tuples(
    st.floats(0.25, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
).map(lambda t: normalize(Matrix2(t[0], t[1], t[2], (1 + t[1] * t[2]) / t[0])))
letter = st.tuples(st.sampled_from(("c1", "c2", "c3", "c4")),
                   st.sampled_from((1, -1)))
words = st.lists(st.lists(letter, min_size=1, max_size=24).map(CurveWord),
                 min_size=1, max_size=8)
EDGE_LETTERS = ("c1", "c2", "c3")  # positive, so no word reduces


def _edge_list(base: list[str], inside: int, at: int) -> list[CurveWord]:
    """Words of the walk's edges, from a base of EDGE_LETTERS and cuts
    0 < inside < at < len(base), inside not a multiple of BLOCK and at one:
    base[:inside] and base[:at], prefixes of a later word, and base[:k] x
    for k = inside, at and each letter x other than base[k], which share
    with their neighbours a prefix that ends inside a block or at its end."""
    ws = [base, base[:inside], base[:at]]
    ws += [base[:k] + [x] for k in (inside, at) for x in EDGE_LETTERS
           if x != base[k]]
    return [word(*w) for w in ws]


@st.composite
def edge_words(draw):
    """An _edge_list of a random base and cuts."""
    n = exact.BLOCK
    at = n * draw(st.integers(1, 2))
    inside = draw(st.integers(1, at - 1).filter(lambda k: k % n))
    base = draw(st.lists(st.sampled_from(EDGE_LETTERS), min_size=at + 1,
                         max_size=at + n + 2))
    return _edge_list(base, inside, at)


def _check_walks(rep, ws: list[CurveWord]) -> CurveList:
    """Both walks of the words against their separate products: each
    integer image equals word_product digit for digit, and each fixed-point
    bracket holds the exact tr^2/det of the Fraction reference."""
    curves = CurveList(rep.surface, ws)
    seen = set()
    for i, image in curve_products(rep, curves):
        assert image == word_product(rep, ws[i]), format_word(ws[i])
        seen.add(i)
    assert seen == set(range(len(ws)))
    gens = ref.generator_images(rep)
    for w, bracket in zip(ws, exact._fixed_brackets(rep, curves)):
        if bracket is not None:
            a, b, den_lo, den_hi = bracket
            x = ref.trace_ratio_squared(ref.image(rep, w, gens))
            assert Fraction(a * a, den_hi) <= x <= Fraction(b * b, den_lo), \
                format_word(w)
    return curves


def _close(got: float, exact: Decimal, ulps: int = 8) -> bool:
    """got is within ulps units in the last place of exact, or within a few
    subnormal steps below the normal float range."""
    return abs(Decimal(got) - exact) <= \
        Decimal(ulps * 2.0 ** -53) * abs(exact) + Decimal(4 * 2.0 ** -1074)


def _audit_any(rep, threshold, curves):
    """audit_rep without the type-preserving precondition, which random
    generators do not meet."""
    with mock.patch.object(audit, "_type_preserving_invariants",
                           return_value=(0, SignVector((1, 1, 1, 1)))):
        return audit_rep(rep, 0, threshold, curves=curves)


@settings(max_examples=160, deadline=None)
@given(st.tuples(generator, generator, generator), words | edge_words(),
       st.sampled_from((1e-6, 0.5, 3.0)))
def test_margins_and_verdicts_match_fractions(gens, ws, threshold):
    rep = Representation(SPHERE4, dict(zip(("c1", "c2", "c3"), gens)))
    ws = list({w.letters: w for w in ws if w}.values())
    if not ws:
        return
    fgens = ref.generator_images(rep)
    exact = [ref.image(rep, w, fgens) for w in ws]
    margins = [ref.margin(x) for x in exact]
    # the kernel's margin of each word, and its walks against the words'
    # separate products
    curves = _check_walks(rep, ws)
    for i, image in curve_products(rep, curves):
        assert _close(trace_margin(image), margins[i]), format_word(ws[i])
    # the audit's verdicts, minimum, and violation entries
    report = _audit_any(rep, threshold, ws)
    assert _close(report.min_trace_margin, min(margins))
    by_name = {format_word(w): m for w, m in zip(ws, margins)}
    assert _close(report.min_trace_margin, by_name[report.min_margin_curve])
    flagged = {v.curve: v for v in report.violations}
    for w, x, m in zip(ws, exact, margins):
        name = format_word(w)
        if abs(m - Decimal(threshold)) <= Decimal(1e-12) * (abs(m) + 1):
            continue  # a rounding apart from the threshold: either verdict
        assert (name in flagged) == (m < Decimal(threshold)), name
        if name in flagged:
            assert _close(flagged[name].trace, ref.abs_trace(x))
            if not ref.near_band_edge(x):
                assert flagged[name].psl_type == ref.psl_type(x), name


def test_walk_matches_separate_products():
    # integer products are associative exactly, so sharing prefixes and
    # multiplying in blocks must give each word's own product, digit for digit
    sphere = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 5))
    for rep, depth in ((sphere, 5),
                       (build_rep(BuildRequest(1, 2, 1, (1, -1), 5)), 4)):
        _check_walks(rep, enumerate_scc(rep.surface, depth))
    with pytest.raises(ValueError):  # the (1,2) build on (0,4) words
        next(curve_products(rep, CurveList(SPHERE4, [word("c1", "c2")])))
    # the edges of resuming: a word whose shared prefix ends inside a block,
    # or at its end, and a word that is a prefix of the next one
    n = exact.BLOCK
    base = [EDGE_LETTERS[k * k % 3] for k in range(3 * n + 3)]
    for inside, at in ((n + 3, 2 * n), (1, n), (n - 1, 3 * n)):
        curves = _check_walks(sphere, _edge_list(base, inside, at))
        edges = set()
        for (i, _), (_, r) in zip(curves.walk, curves.walk[1:]):
            if r == len(curves.codes[i]):
                edges.add(("prefix", r % n == 0))
            edges.add(("shared", r % n == 0))
        assert edges == {("prefix", False), ("prefix", True),
                         ("shared", False), ("shared", True)}


def test_traces_past_the_float_range():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    h = parse_word("c2 c3")  # |tr| 3.87, so |tr(h^n)| grows like 3.59^n
    gens = ref.generator_images(rep)
    fh = ref.image(rep, h, gens)
    # |tr| near 1e166: tr^2/det overflows a float, the margin does not
    mid = word(*[h] * 300)
    report = audit_rep(rep, 0, curves=[mid])
    exact = ref.margin(ref.power(fh, 300))
    assert Decimal(1e165) < exact < Decimal(1e167)
    assert _close(report.min_trace_margin, exact)
    # |tr| past 1e400: the margin exceeds every float
    big = word(*[h] * 750)
    assert ref.abs_trace(ref.power(fh, 750)) > Decimal("1e400")
    report = audit_rep(rep, 0, curves=[big, mid])
    assert report.min_trace_margin == pytest.approx(float(exact), rel=1e-15)
    assert report.min_margin_curve == format_word(mid)
    report = audit_rep(rep, 0, curves=[big])
    assert report.min_trace_margin == math.inf and not report.violations
    # a conjugate of the positive parabolic c1 by h^750: entries past 1e800,
    # trace that of c1, so a violation entry past the float range
    conj = big * word("c1") * big.inv()
    report = audit_rep(rep, 0, curves=[big, conj])
    (v,) = report.violations
    assert v.curve == format_word(conj)
    assert v.psl_type == "ParabolicPlus"
    assert v.psl_type == classify_psl(rep.image("c1")).value
    assert _close(v.trace, ref.abs_trace(gens["c1"]))
    assert report.min_margin_curve == format_word(conj)


def test_type_names_of_elliptic_parabolic_and_identity_images():
    rep = build_negative_control()
    names = {"c1 c2": "Elliptic", "c2 c3": "Elliptic", "c1": "ParabolicPlus",
             "c4": "ParabolicPlus", "c1^-1": "ParabolicMinus",
             "c1 c2 c3 c4": "Identity"}
    report = audit_rep(rep, 0, curves=[parse_word(n) for n in names])
    got = {v.curve: v for v in report.violations}
    assert set(got) == {format_word(parse_word(n)) for n in names}
    for text, kind in names.items():
        w = parse_word(text)
        v = got[format_word(w)]
        assert v.psl_type == kind == classify_psl(eval_word(rep, w)).value
        assert _close(v.trace, ref.abs_trace(ref.image(rep, w)))
    assert got["c1 c2"].trace == 0.0
    assert report.min_trace_margin == -2.0
    assert report.min_margin_curve == "c1 c2"


@pytest.mark.parametrize("q", [2 ** 60, 2 ** 1100], ids=["q2^60", "q2^1100"])
@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
def test_violation_types_apply_the_band_to_the_exact_ratio(q, side):
    # x = (T, -q^2, 1, 0) has trace T and determinant q^2: T/q lies just
    # outside 2 +- PAR_BAND, on the side its float rounding does not reach,
    # so the exact ratio is hyperbolic (elliptic) where the rounded trace of
    # the unit representative falls on the band's float edge
    edge = 2 + side * Fraction(PAR_BAND)
    t = math.floor((edge + side * Fraction(1, 10 ** 18)) * q)
    x = (t, -q * q, 1, 0)
    assert (Fraction(t, q) - edge) * side > 0
    if q < 2 ** 500:
        assert float(Fraction(t, q)) == 2.0 + side * PAR_BAND
    want = "Hyperbolic" if side > 0 else "Elliptic"
    assert ref.psl_type(tuple(map(Fraction, x))) == want
    # the audit types a flagged curve's integer image x as the reference does
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    flagged = ({0: exact.trace_margin(x)}, 0, [(0, x)])
    with mock.patch.object(audit, "curve_margins", return_value=flagged):
        (v,) = audit_rep(rep, 0, curves=[parse_word("c1")]).violations
    assert v.psl_type == want


def test_audit_reports_words_dropped_and_min_curve():
    rep = build_rep(BuildRequest(1, 3, 2, (1, 1, -1), 1))
    report = audit_rep(rep, 7)
    assert report.words_dropped == 2
    assert report.curves_checked == 1409
    again = audit_rep(rep, 7, curves=[parse_word(report.min_margin_curve)])
    assert again.min_trace_margin == report.min_trace_margin
    assert again.words_dropped is None
    payload = jsonio.audit_report_to_json(report)
    assert payload["words_dropped"] == 2
    assert payload["min_margin_curve"] == report.min_margin_curve
    assert jsonio.audit_report_to_json(again)["words_dropped"] is None
    # sample audits its builds on one enumerated list, and reports its drops
    reps, reports, _ = sample(BuildRequest(0, 4, 1, (1, 1, 1, -1), 7), 2,
                              depth=8)
    assert [r.words_dropped for r in reports] == [2, 2] == \
        [audit_rep(x, 8).words_dropped for x in reps]


def test_int_matrix_is_exact():
    m = (0.1, -3.5, 1e-20, 7.0)
    scale = max(v.as_integer_ratio()[1] for v in m)
    got = [Fraction(n, scale) for n in int_matrix(m)]
    assert got == [Fraction(v) for v in m]


# -- rounding of exact products against the scaled-path versions ------------
#
# Verbatim copies of _sqrt_ratio, unit_entries and int_matrix as they were
# before _sqrt_ratio took n / d directly near 1 and the other two lost their
# generators: the package must round every entry to the same float.

def _sqrt_ratio_scaled(n: int, d: int) -> float:
    if not n:
        return 0.0
    s = (d.bit_length() - n.bit_length()) // 2  # n * 4^s / d is in [1/4, 4]
    r = math.sqrt((n << 2 * s) / d if s >= 0 else n / (d << -2 * s))
    try:
        return math.ldexp(r, -s)
    except OverflowError:
        return math.inf


def _unit_entries_scaled(x):
    _, det = _trace_det(x)
    if next((v for v in x[:3] if v), x[3]) < 0:
        x = tuple(-v for v in x)
    return tuple(math.copysign(_sqrt_ratio_scaled(v * v, det),
                               1.0 if v >= 0 else -1.0) for v in x)


def _int_matrix_by_list(entries):
    ratios = [float(v).as_integer_ratio() for v in entries]
    den = max(d for _, d in ratios)
    return tuple(n * (den // d) for n, d in ratios)


def _same_floats(x, y) -> bool:
    """Entrywise identical floats, the sign of a zero included."""
    return [v.hex() for v in x] == [v.hex() for v in y]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((-501, -500, -499, 499, 500, 501,
                        -513, -512, 511, 512, -1025, -1024, -1023, 1021,
                        1022, 1050, 1074, 1075)),
       st.integers(0, 1), st.integers(1, 200), st.randoms())
def test_sqrt_ratio_takes_the_quotient_as_the_scaled_path_rounds(
        s, extra, bits, rnd):
    # d.bit_length() - n.bit_length() = 2s + extra gives this s; the first
    # six cover the shortcut's edges, the next four where n / d itself
    # leaves the normal floats, the rest the ends of the float range: roots
    # near the largest float and past it (inf), subnormal roots and roots
    # that underflow to zero
    nbits = bits + max(0, -(2 * s + extra))
    n = rnd.getrandbits(nbits) | (1 << (nbits - 1))
    dbits = nbits + 2 * s + extra
    d = rnd.getrandbits(dbits) | (1 << (dbits - 1))
    assert (d.bit_length() - n.bit_length()) // 2 == s
    got = _sqrt_ratio(n, d)
    assert got.hex() == _sqrt_ratio_scaled(n, d).hex()
    assert _sqrt_ratio(0, d) == 0.0


_big_ints = st.integers(0, 1300).flatmap(
    lambda k: st.integers(-(2 ** k), 2 ** k))


@st.composite
def _int_matrices(draw):
    """Integer matrices of mixed sizes up to 2^1300, with zeros among a, b,
    c so that any entry can lead, and the lead negative half the time."""
    x = list(draw(st.tuples(_big_ints, _big_ints, _big_ints, _big_ints)))
    for i in draw(st.sets(st.integers(0, 2), max_size=3)):
        x[i] = 0
    if draw(st.booleans()):
        x = [-v for v in x]
    return tuple(x)


_BIG = 2 ** 600


@settings(max_examples=500, deadline=None)
@given(_int_matrices())
@example((0, 0, -3, -5))
@example((0, -1, 1, 0))
@example((-_BIG, 1, 0, -1))
@example((_BIG * _BIG, 1, 0, 1))
@example((1, 0, 5, _BIG * _BIG))
@example((-7, 0, 0, -_BIG))
@example((0, 0, 0, 0))
@example((1, 0, 0, -1))
def test_unit_entries_rounds_as_the_scaled_path(x):
    try:
        want = _unit_entries_scaled(x)
    except NonUnitDeterminant:
        with pytest.raises(NonUnitDeterminant):
            unit_entries(x)
        return
    assert _same_floats(unit_entries(x), want)


_wide_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-620, 620)),
    st.sampled_from((0.0, -0.0, 1.0, -1.0)))


@settings(max_examples=500, deadline=None)
@given(st.tuples(_wide_floats, _wide_floats, _wide_floats, _wide_floats))
def test_int_matrix_matches_the_list_version(m):
    got = int_matrix(m)
    assert type(got) is tuple and got == _int_matrix_by_list(m)
    a, b, c, d = got
    if a * d - b * c > 0:
        assert _same_floats(unit_entries(got), _unit_entries_scaled(got))


def _loads_with_the_cli(module: str) -> bool:
    """Whether a fresh interpreter that imports the package and its command
    line loads module."""
    src = os.path.dirname(os.path.dirname(psltilde.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import psltilde, psltilde.cli; "
            "sys.exit(sys.argv[2] in sys.modules)")
    return subprocess.run([sys.executable, "-c", code, src, module]
                          ).returncode != 0


def test_the_package_loads_without_double_double():
    # every product is exact in integers; a fresh interpreter that loads
    # the package and its command line must not load psltilde.dd
    assert not _loads_with_the_cli("psltilde.dd")


def test_the_command_line_loads_without_selftest():
    # only `psltilde selftest` imports the property suite
    assert not _loads_with_the_cli("psltilde.selftest")


def test_loader_checks_last_peripheral_exactly():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 78))
    data = jsonio.representation_to_json(rep)
    # the exactly implied c4, rounded to floats, is accepted
    data["images"]["c4"] = ref.unit_entries(
        ref.image(rep, rep.surface.peripheral_word(4)))
    jsonio.representation_from_json(data)
    # 1e-7 off in one entry is refused, on the other side of the 1e-8 bound
    data["images"]["c4"][1] += 1e-7
    with pytest.raises(RelatorNotCentral):
        jsonio.representation_from_json(data)


# -- the Farey trace recursion on the four-punctured sphere -------------------

SPHERE4_FAMILIES = ((2, (1, 1, 1, 1)), (-2, (-1, -1, -1, -1)),
                    (1, (1, 1, 1, -1)), (-1, (-1, -1, -1, 1)))


def _by_key(curves: Curves) -> list[int]:
    return sorted(range(len(curves)), key=curves.slot_key)


def _walked(curves: Curves) -> CurveList:
    """The same words as a caller's list, in slot_key order, which the
    fixed-point word walk decides."""
    assert not isinstance(curves, CurveList)
    return CurveList(curves.surface, map(curves.slot_word, _by_key(curves)))


def _brackets(rep, curves: Curves) -> list:
    """The fixed-precision brackets that curve_margins screens."""
    if isinstance(curves, CurveList):
        return exact._fixed_brackets(rep, curves)
    return exact._farey_brackets(rep, curves.farey)


def _decided(rep, curves: Curves) -> list[float | None]:
    """The margin of every slot that its bracket decides, else None."""
    return [None if x is None else exact._bracket_margin(*x)
            for x in _brackets(rep, curves)]


def _undecided(rep, curves: Curves) -> set[int]:
    """The slots that curve_margins's fixed-precision brackets leave."""
    return {i for i, m in enumerate(_decided(rep, curves)) if m is None}


def _exact_margins(rep, curves: Curves) -> list[float]:
    """trace_margin of every slot's integer product, in slot order."""
    margins = [None] * len(curves)
    for i, image in curve_products(rep, curves.sublist(range(len(curves)))):
        margins[i] = trace_margin(image)
    return margins


def _all_margins(rep, curves: Curves) -> list[float]:
    """Every slot's margin in slot order: each bracket decided by
    _bracket_margin, the slots it leaves by the exact walk."""
    margins = _decided(rep, curves)
    todo = [i for i, m in enumerate(margins) if m is None]
    if todo:
        for j, image in curve_products(rep, curves.sublist(todo)):
            margins[todo[j]] = trace_margin(image)
    return margins


def _check_screen(margins: list[float], got: dict, below: float) -> None:
    """curve_margins's margins `got` against every slot's `margins`: each
    slot it rounds is exact, and every slot it screens out is above the
    least of them and not below `below`."""
    low = min(got.values())
    for i, m in enumerate(margins):
        if i in got:
            assert got[i] == m, i
        else:
            assert m > low and not m < below, (i, m, low, below)


def _margins(rep, curves: Curves) -> list[float]:
    """Every slot's margin (_all_margins) in slot_key order, checked
    against what curve_margins rounds and screens out."""
    margins = _all_margins(rep, curves)
    got, _, flagged = curve_margins(rep, curves, -math.inf)
    assert flagged == []
    _check_screen(margins, got, -math.inf)
    return [margins[i] for i in _by_key(curves)]


def test_recursion_margins_equal_the_walk():
    curves = Curves.enumerated(SPHERE4, 6)
    plain = _walked(curves)
    assert len(curves) == 610
    for euler, signs in SPHERE4_FAMILIES:
        for seed in range(10):
            rep = build_rep(BuildRequest(0, 4, euler, signs, seed))
            assert _margins(rep, curves) == _exact_margins(rep, plain) \
                == _margins(rep, plain), (euler, signs, seed)
    # depth 7 has the longest Stern-Brocot paths, so the widest intervals
    curves = Curves.enumerated(SPHERE4, 7)
    plain = _walked(curves)
    for euler, signs in SPHERE4_FAMILIES[2:]:
        rep = build_rep(BuildRequest(0, 4, euler, signs, 3))
        assert _margins(rep, curves) == _exact_margins(rep, plain) \
            == _margins(rep, plain), (euler, signs)


def _mediant_path(a, b):
    """The Stern-Brocot frame (left, right) of (a, b), a, b > 0, found one
    mediant at a time: its Farey parents."""
    left, right, node = (1, 0), (0, 1), (1, 1)
    while node != (a, b):
        if b * node[0] < node[1] * a:
            right = node
        else:
            left = node
        node = (left[0] + right[0], left[1] + right[1])
    return left, right


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 3000), st.sampled_from((1, -1)))
def test_farey_parents_by_mediants(a, b, sign):
    # below (1, -1) the tree is the mirror image of the one below (1, 1)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    left, right = _mediant_path(a, b)
    assert _farey_parents(a, sign * b) == \
        ((left[0], sign * left[1]), (right[0], sign * right[1]))


def test_farey_plan_is_a_parent_list():
    # each node's slope is the sum or the difference of its parents', u
    # the other one, so the nodes' slopes follow from the roots'
    curves = Curves.enumerated(SPHERE4, 7)
    nodes, slots = curves.farey
    slopes = [(1, 0), (0, 1), (1, 1)]
    for l, r, u in nodes:
        (a, b), (c, d) = slopes[l], slopes[r]
        assert max(l, r, u) < len(slopes) and abs(a * d - b * c) == 1
        pair = {_positive(a + c, b + d), _positive(a - c, b - d)}
        assert slopes[u] in pair
        slopes.append(min(pair - {slopes[u]}))
    assert len(set(slopes)) == len(slopes) == len(curves) == 1560
    assert [slopes[n] for n in slots] == curves.slopes


def _exact_margin(tt, den):
    return exact._margin(*exact._margin_parts(tt, den))


def _bracket(tt, below, above):
    """An integer bracket [a, b] around sqrt(tt): a^2 <= tt <= b^2."""
    r = math.isqrt(tt)
    return max(r - below, 0), r + above + (r * r < tt)


big = st.integers(1, 2 ** 600)
slack = st.integers(0, 2 ** 40) | st.sampled_from((0, 1))


@settings(max_examples=300, deadline=None)
@given(big, big, st.integers(1, 2 ** 240), st.integers(-2 ** 40, 2 ** 40),
       st.integers(0, 200), slack, slack)
def test_bracket_margin_is_exact_or_declines(m, s, sigma2, offset, cut,
                                             below, above):
    # near-parabolic slopes: t = 2 s m + a small offset with
    # den = s^2 m^2, so that tt/den - 4 cancels to about 2^-cut, or all
    # the way; then any den, and traces far from +-2 either way; tt need
    # not be a square
    for t, den in ((2 * s * m + (s * m >> cut) + offset, (s * m) ** 2),
                   (2 * s * m + offset, (s * m) ** 2), (offset, sigma2),
                   (s * m, sigma2 * m * m), (s * m << 700, m * m),
                   (s, m * m << 900)):
        for tt in (t * t, t * t + abs(offset)):
            a, b = _bracket(tt, below, above)
            got = exact._bracket_margin(a, b, den, den)
            assert got is None or got == _exact_margin(tt, den), (tt, den)


def test_bracket_margin_at_parabolic_zero_and_overflow():
    cases = ((2 * 3 ** 300, 3 ** 600), (0, 7 * 5 ** 400), (2 ** 5000, 1),
             (3 ** 1000, 4 ** 1000), (1, 3 * 4 ** 3000), (-4, 4), (7, 12))
    for t, den in cases:
        # a point bracket always decides
        assert exact._bracket_margin(abs(t), abs(t), den, den) == \
            _exact_margin(t * t, den)
        # so does a bracket one unit wide, far enough below the leading
        # bit, except where the margin is exactly that of a parabolic or
        # of trace 0: every wider bracket leaves it
        want = _exact_margin(t * t, den)
        a = abs(t) << 200
        got = exact._bracket_margin(a, a + 1, den << 400, den << 400)
        assert got == (None if t == 0 or want == 0.0 else want), (t, den)
    assert exact._bracket_margin(2 * 3 ** 300, 2 * 3 ** 300, 3 ** 600,
                                3 ** 600) == 0.0
    assert exact._bracket_margin(0, 0, 5, 5) == -2.0
    assert exact._bracket_margin(2 ** 5000, 2 ** 5000, 1, 1) == math.inf
    # a bracket across a rounding of the margin declines
    assert exact._bracket_margin(2, 3, 1, 1) is None


ENUMERATED = {d: Curves.enumerated(SPHERE4, d) for d in range(5)}


@settings(max_examples=40, deadline=None)
@given(st.tuples(generator, generator, generator), st.integers(0, 4))
def test_recursion_is_algebraic(gens, depth):
    # the edge relation holds for any images, type-preserving or not
    rep = Representation(SPHERE4, dict(zip(("c1", "c2", "c3"), gens)))
    curves = ENUMERATED[depth]
    plain = _walked(curves)
    assert _margins(rep, curves) == _exact_margins(rep, plain) \
        == _margins(rep, plain)


def _gamma2():
    """An integer Fuchsian (0,4) group: the index-2 subgroup of Gamma(2)
    generated by A^2, B and A B A^-1, A = [[1, 2], [0, 1]],
    B = [[1, 0], [-2, 1]]. Every trace in Gamma(2) is 2 mod 4."""
    images = {"c1": (1, 4, 0, 1), "c2": (1, 0, -2, 1), "c3": (-3, 8, -2, 5)}
    return Representation(SPHERE4, {g: normalize(Matrix2(*m))
                                    for g, m in images.items()})


def test_gamma2_oracle():
    rep = _gamma2()
    euler, signs = invariants(rep)
    assert (euler, tuple(signs)) == (2, (1, 1, 1, 1))
    report = audit_rep(rep, 7)
    assert report.curves_checked == 1560
    assert report.min_trace_margin == 4.0
    assert report.violations == ()
    assert report.exact_fallbacks == 0
    plain = _walked(Curves.enumerated(SPHERE4, 7))
    walked = audit_rep(rep, 7, curves=plain)
    # what the report needs, from every slot's margin: the slots tied at the
    # minimum and the flagged ones are rounded, the others bounded above it
    margins = _all_margins(rep, plain)
    kept = curve_margins(rep, plain, report.margin)[0]
    assert {i for i, m in enumerate(margins)
            if m == min(margins) or m < report.margin} <= set(kept)
    _check_screen(margins, kept, report.margin)
    decided = _decided(rep, plain)
    assert walked.exact_fallbacks == sum(decided[i] is None for i in kept)
    assert walked == dataclasses.replace(
        report, words_dropped=None, exact_fallbacks=walked.exact_fallbacks)


def test_enumerated_audit_forms_only_the_words_it_reports():
    # with no violations and no fallbacks, the only words an enumerated
    # (0,4) audit forms are those of the curves tied at the minimum, to
    # choose and name min_margin_curve: the canonical forms along their
    # orbit paths, and one decoded word
    calls = Counter()

    def counting(name):
        real = getattr(Alphabet, name)

        def counted(self, *args):
            calls[name] += 1
            return real(self, *args)
        return counted

    for rep, depth in ((_gamma2(), 7),
                       (build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42)),
                        6)):
        orbit = curves = Curves.enumerated(SPHERE4, depth)
        seeds = set(orbit._codes)
        calls.clear()
        with mock.patch.object(Alphabet, "canonical", counting("canonical")), \
                mock.patch.object(Alphabet, "decode", counting("decode")):
            report = audit_rep(rep, depth, curves=curves)
        assert report.violations == () and report.exact_fallbacks == 0
        tied = [i for i, m in enumerate(_decided(rep, curves))
                if m == report.min_trace_margin]
        paths = set()
        for i in tied:
            while i is not None:
                paths.add(i)
                i = orbit.parents[i] and orbit.parents[i][0]
        assert set(orbit._codes) == seeds | paths
        assert calls == {"canonical": len(paths - seeds), "decode": 1}
        walked = audit_rep(rep, depth, curves=_walked(curves))
        assert report == dataclasses.replace(walked, exact_fallbacks=0,
                                             words_dropped=0)
        assert report.min_margin_curve == format_word(
            curves.slot_word(min(tied, key=curves.slot_key)))


def test_undecided_slopes_fall_back_to_the_walk():
    # with no fraction bits the intervals of small-height images are too
    # wide for most slopes, which the exact walk then decides
    curves = Curves.enumerated(SPHERE4, 5)
    plain = _walked(curves)
    with mock.patch.object(exact, "PRECISION", 0):
        for rep in (_gamma2(), build_negative_control()):
            # an infinite bound keeps and flags every slot, so that each
            # undecided one goes through curve_margins's own walk
            got, fallbacks, flagged = curve_margins(rep, curves, math.inf)
            assert 200 < fallbacks == len(_undecided(rep, curves)) \
                <= len(curves) == 240
            assert sorted(got) == sorted(i for i, _ in flagged) == \
                list(range(len(curves)))
            assert [got[i] for i in _by_key(curves)] == \
                _exact_margins(rep, plain) == _margins(rep, curves) \
                == _margins(rep, plain)


def test_a_slope_does_not_decide_a_caller_word():
    # c1 c2 c3^-1 c2^-1 has the slope of the simple c1 c2 c3 c2^-1, but not
    # its trace: a word the caller passes is multiplied out
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    gens = ref.generator_images(rep)
    odd, simple = parse_word("c1 c2 c3^-1 c2^-1"), parse_word("c1 c2 c3 c2^-1")
    assert word_slope(odd) == word_slope(simple) == (1, -1)
    with pytest.raises(AssertionError, match=r"two curves of slope \(1, -1\)"):
        _farey_plan([word_slope(odd), word_slope(simple)])
    margins = [audit_rep(rep, 0, curves=[w]).min_trace_margin
               for w in (odd, simple)]
    assert margins[0] != margins[1]
    assert _close(margins[0], ref.margin(ref.image(rep, odd, gens)))
    assert _close(margins[1], ref.margin(ref.image(rep, simple, gens)))


def test_enumerated_audit_walks_only_flagged_curves():
    def refuse(*args):
        raise AssertionError("curve_products called")

    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    with mock.patch.object(exact, "curve_products", refuse):
        report = audit_rep(rep, 5)
    assert report.violations == () and report.curves_checked > 0
    assert report.exact_fallbacks == 0
    # one exact walk takes the undecided slopes and the flagged curves
    walked = []

    def products(r, curves):
        walked.append(list(curves.words))
        return curve_products(r, curves)

    def audited(rep, depth, threshold, curves):
        walked.clear()
        with mock.patch.object(exact, "curve_products", products):
            return audit_rep(rep, depth, threshold, curves=curves)

    def names(ws):
        return sorted(map(format_word, ws))

    threshold = sorted(_margins(rep, ENUMERATED[4]))[2]
    report = audited(rep, 4, threshold, ENUMERATED[4])
    assert len(report.violations) == 2
    assert len(walked) == 1
    assert names(walked[0]) == sorted(v.curve for v in report.violations)
    assert report == dataclasses.replace(
        audit_rep(rep, 4, threshold, curves=_walked(ENUMERATED[4])),
        exact_fallbacks=0, words_dropped=0)
    # with no fraction bits most of the negative control's slopes are
    # undecided, and some of them are flagged: each is walked once
    control, curves = build_negative_control(), ENUMERATED[4]
    with mock.patch.object(exact, "PRECISION", 0):
        candidates = curve_margins(control, curves, 1e-6)[0]
        undecided = [curves.slot_word(i) for i, m in enumerate(
            _decided(control, curves)) if m is None and i in candidates]
        report = audited(control, 4, 1e-6, curves)
    assert len(undecided) == report.exact_fallbacks > 0
    flagged = [parse_word(v.curve) for v in report.violations]
    assert set(names(flagged)) & set(names(undecided))
    assert len(walked) == 1
    assert names(walked[0]) == sorted(set(names(undecided + flagged)))
    assert report == dataclasses.replace(
        audit_rep(control, 4, 1e-6, curves=_walked(curves)),
        exact_fallbacks=len(undecided), words_dropped=0)


def _flagged_in_one_walk(rep, curves, below):
    """curve_margins with the length of each walk it takes."""
    walks = []

    def products(r, walked):
        walks.append(len(walked))
        return curve_products(r, walked)

    with mock.patch.object(exact, "curve_products", products):
        return curve_margins(rep, curves, below), walks


def test_curve_margins_flags_exactly_the_slots_below():
    # the flagged slots are those below the bound, each with its image, and
    # one walk takes them together with the undecided candidates: those the
    # fixed-point word walk leaves on a caller's list, and those the slope
    # intervals leave on the enumerated one; with few fraction bits most
    # slots are undecided, and the margins do not change
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    plain = CurveList(SPHERE4, enumerate_scc(SPHERE4, 4))
    control, enumerated = build_negative_control(), ENUMERATED[4]
    counts = []
    for curves, name, bits in ((plain, "FIXED_PRECISION", 256),
                               (plain, "FIXED_PRECISION", 80),
                               (plain, "FIXED_PRECISION", 12),
                               (enumerated, "PRECISION", 0)):
        for r in (rep, control):
            with mock.patch.object(exact, name, bits):
                undecided = _undecided(r, curves)
                counts.append(len(undecided))
                margins = _all_margins(r, curves)
                for below in (1e-6, sorted(margins)[len(margins) // 2], 5.0):
                    (got, fallbacks, flagged), walks = \
                        _flagged_in_one_walk(r, curves, below)
                    _check_screen(margins, got, below)
                    want = [i for i, m in enumerate(margins) if m < below]
                    assert sorted(i for i, _ in flagged) == want
                    todo = (undecided & set(got)) | set(want)
                    assert walks == ([len(todo)] if todo else [])
                    assert fallbacks == len(undecided & set(got))
                    for i, image in flagged:
                        assert image == word_product(r, curves.slot_word(i))
            if curves is plain:
                assert margins == _exact_margins(r, curves)
    # (rep, control) at 256, 80 and 12 bits for words, at 0 for slopes
    n = len(plain)
    assert max(counts[:2]) <= 1 and all(0 < k < n for k in counts[2:4])
    assert counts[4:6] == [n, n] and counts[7] > n // 2


def test_the_screen_at_its_edges():
    # at a bound equal to a slot's exact margin, one float either side of
    # it, 0 and +-inf, the screen keeps every flag, the minimum and the
    # first slot at it, and each slot it screens out is above the minimum
    # and not below the bound: on the (0,4) slopes of a counterexample
    # build and of the negative control (margins down to -2, where the
    # screen's slack is absolute), and on the (1,3) fixture's words
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "torus3-counterexample.json")) as fh:
        torus3 = jsonio.representation_from_json(json.load(fh))
    slopes = Curves.enumerated(SPHERE4, 6)
    for rep, curves in (
            (build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42)), slopes),
            (build_negative_control(), slopes),
            (torus3, CurveList(torus3.surface,
                               enumerate_scc(torus3.surface, 5)))):
        margins = _all_margins(rep, curves)
        assert margins == _exact_margins(rep, curves)
        low = min(margins)
        first = min((i for i, m in enumerate(margins) if m == low),
                    key=curves.slot_key)
        screened = set()
        for m in (low, sorted(margins)[len(margins) // 3]):
            bounds = (m, math.nextafter(m, -math.inf),
                      math.nextafter(m, math.inf), 0.0, -math.inf, math.inf)
            for below in bounds:
                got, _, flagged = curve_margins(rep, curves, below)
                _check_screen(margins, got, below)
                assert sorted(i for i, _ in flagged) == \
                    [i for i, x in enumerate(margins) if x < below]
                assert min(got.values()) == low
                assert min((i for i, x in got.items() if x == low),
                           key=curves.slot_key) == first
                screened |= set(range(len(curves))) - set(got)
        assert len(screened) > len(curves) // 2
    # past 2^1000 in |tr| margins round to inf and tie there, so no bracket
    # proves a slot above the minimum: every slot is kept
    big = 2 ** 1100
    brackets = [(big, big, 1, 1), (2 * big, 2 * big, 1, 1), None]
    assert exact._candidates(brackets[:2], 0.0) == [0, 1]
    assert exact._candidates([(3, 3, 1, 1), (6, 6, 1, 1)], 0.0) == [0]
    assert exact._candidates(brackets, 0.0) == [0, 1, 2]


def test_a_slope_list_has_no_words_to_walk():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    slopes = ENUMERATED[2]
    assert not any(hasattr(slopes, name) for name in ("words", "codes",
                                                      "walk"))
    with pytest.raises(TypeError, match="sublist"):
        curve_products(rep, slopes)  # refused before any iteration
    walked = [image for _, image in
              curve_products(rep, slopes.sublist(range(len(slopes))))]
    assert len(walked) == len(slopes)


# -- the fixed-point word walk ------------------------------------------------

WORD_SURFACES = {  # a build of each surface, made on first use
    (1, 2): BuildRequest(1, 2, 1, (1, -1), 5),
    (1, 3): BuildRequest(1, 3, 2, (1, 1, -1), 3),
    (0, 5): BuildRequest(0, 5, 2, (1, 1, 1, 1, -1), 4),
    (2, 1): BuildRequest(2, 1, 3, (1,), 3),
}


@functools.cache
def _built(surface):
    return build_rep(WORD_SURFACES[surface])


@st.composite
def _surface_words(draw):
    """A build and random reduced words over its free generators and the
    implied last peripheral, with powers, so that some images are large,
    and conjugates u w u^-1 of some, whose images are much larger than
    their traces."""
    rep = _built(draw(st.sampled_from(sorted(WORD_SURFACES))))
    surf = rep.surface
    gens = surf.free_generators() + (surf.c(surf.punctures),)
    token = st.tuples(st.sampled_from(gens),
                      st.sampled_from((1, 2, 5, -1, -2, -5)))
    piece = st.lists(token, min_size=1, max_size=12).map(CurveWord)
    conjugate = st.tuples(piece, piece).map(lambda uw: uw[0] * uw[1]
                                            * uw[0].inv())
    ws = draw(st.lists(piece | conjugate, min_size=1, max_size=6))
    return rep, [w for w in ws if w]


@settings(max_examples=100, deadline=None)
@given(_surface_words(), st.sampled_from((64, 96, 128, 160, 256)))
def test_fixed_margins_are_exact_or_undecided(rep_words, bits):
    # with fewer fraction bits the roundings are larger against the
    # margins, so that a bound too small would decide a wrong margin
    rep, ws = rep_words
    with mock.patch.object(exact, "FIXED_PRECISION", bits):
        margins = _decided(rep, CurveList(rep.surface, ws))
    for w, m in zip(ws, margins):
        assert m is None or m == trace_margin(word_product(rep, w)), \
            format_word(w)


def test_fixed_margins_on_the_stored_audit_inputs():
    # the enumerated words of the (1,3) fixture at depth 6, and of the
    # (0,4) fixtures at depth 5 as a caller's words: every decided margin
    # is the exact walk's, and few are left
    for name, depth in (("torus3-counterexample.json", 6),
                        ("sphere4-counterexample.json", 5),
                        ("sphere4-fuchsian.json", 5)):
        with open(os.path.join(os.path.dirname(__file__), "data", name)) as fh:
            rep = jsonio.representation_from_json(json.load(fh))
        curves = CurveList(rep.surface, enumerate_scc(rep.surface, depth))
        margins = _decided(rep, curves)
        want = _exact_margins(rep, curves)
        assert all(m is None or m == x for m, x in zip(margins, want)), name
        assert margins.count(None) <= len(curves) // 100, name


def test_an_excursion_is_decided_by_its_true_suffixes():
    # a1^n b1 a1^-n: its trace is that of b1, while its prefixes grow like
    # |tr a1|^n and the product of its letters' norms like 63.5^(2n + 1).
    # An error bound by products of block norms needs more than 256 more
    # bits at n = 30; the bound by true prefixes and suffixes decides it,
    # and a longer excursion falls back to the exact walk
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "torus3-counterexample.json")) as fh:
        rep = jsonio.representation_from_json(json.load(fh))
    norm = math.hypot(*rep.image("a1").rep.entries())
    for n, decided in ((30, True), (80, False)):
        w = word(*[("a1", 1)] * n, "b1", *[("a1", -1)] * n)
        assert (2 * n + 1) * math.log2(norm) > exact.FIXED_PRECISION + 100
        want = trace_margin(word_product(rep, w))
        curves = CurveList(rep.surface, [w])
        (got,) = _decided(rep, curves)
        assert got == want if decided else got is None
        assert curve_margins(rep, curves, 0.0) == ({0: want}, int(not decided),
                                                    [])
