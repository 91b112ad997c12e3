"""The audit's exact integer kernel against an independent Fraction
recomputation: margins, verdicts, traces past the float range, type names,
and the loader's check of the stored last peripheral; and the Farey trace
recursion of the four-punctured sphere against the products it replaces."""
import dataclasses
import math
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
from psltilde.curves import enumerate_scc, word_slope
from psltilde.errors import RelatorNotCentral
from psltilde.exact import (
    CurveList,
    curve_margins,
    curve_products,
    trace_margin,
    word_product,
)
from psltilde.mobius import Matrix2, classify_psl, int_matrix, normalize
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


@settings(max_examples=80, deadline=None)
@given(st.tuples(generator, generator, generator), words,
       st.sampled_from((1e-6, 0.5, 3.0)))
def test_margins_and_verdicts_match_fractions(gens, ws, threshold):
    rep = Representation(SPHERE4, dict(zip(("c1", "c2", "c3"), gens)))
    ws = list({w.letters: w for w in ws if w}.values())
    if not ws:
        return
    fgens = ref.generator_images(rep)
    exact = [ref.image(rep, w, fgens) for w in ws]
    margins = [ref.margin(x) for x in exact]
    # the kernel's margin of each word
    curves = CurveList(SPHERE4, ws)
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
    for req, depth in ((BuildRequest(0, 4, 1, (1, 1, 1, -1), 5), 5),
                       (BuildRequest(1, 2, 1, (1, -1), 5), 4)):
        rep = build_rep(req)
        curves = CurveList(rep.surface, enumerate_scc(rep.surface, depth))
        seen = set()
        for i, image in curve_products(rep, curves):
            assert image == word_product(rep, curves.words[i])
            seen.add(i)
        assert seen == set(range(len(curves)))
    with pytest.raises(ValueError):
        next(curve_products(rep, CurveList(SPHERE4, [word("c1", "c2")])))


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


def test_the_package_loads_without_double_double():
    # every product is exact in integers; a fresh interpreter that loads
    # the package and its command line must not load psltilde.dd
    src = os.path.dirname(os.path.dirname(psltilde.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import psltilde, psltilde.cli; "
            "sys.exit('psltilde.dd' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, src]).returncode == 0


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


def _by_key(curves: CurveList) -> list[int]:
    return sorted(range(len(curves)), key=curves.slot_key)


def _walked(curves: CurveList) -> CurveList:
    """The same words as a caller's list, in slot_key order, which the
    prefix walk decides."""
    plain = CurveList(curves.surface, map(curves.slot_word, _by_key(curves)))
    assert curves.farey is not None and plain.farey is None
    return plain


def _margins(rep, curves: CurveList) -> list[float]:
    """Every margin of curve_margins, in slot_key order."""
    margins, _, flagged = curve_margins(rep, curves, -math.inf)
    assert flagged == []
    return [margins[i] for i in _by_key(curves)]


def test_recursion_margins_equal_the_walk():
    curves = CurveList.enumerated(SPHERE4, 6)
    plain = _walked(curves)
    assert len(curves) == 610
    for euler, signs in SPHERE4_FAMILIES:
        for seed in range(10):
            rep = build_rep(BuildRequest(0, 4, euler, signs, seed))
            assert _margins(rep, curves) == _margins(rep, plain), \
                (euler, signs, seed)
    # depth 7 has the longest Stern-Brocot paths, so the widest intervals
    curves = CurveList.enumerated(SPHERE4, 7)
    plain = _walked(curves)
    for euler, signs in SPHERE4_FAMILIES[2:]:
        rep = build_rep(BuildRequest(0, 4, euler, signs, 3))
        assert _margins(rep, curves) == _margins(rep, plain), (euler, signs)


def _mediant_path(a, b):
    """The Stern-Brocot path to (a, b) one mediant at a time."""
    path = []
    left, right, node = (1, 0), (0, 1), (1, 1)
    while node != (a, b):
        if b * node[0] < node[1] * a:
            right = node
            path.append("0")
        else:
            left = node
            path.append("1")
        node = (left[0] + right[0], left[1] + right[1])
    return "".join(path)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 3000))
def test_stern_brocot_path_by_continued_fraction(a, b):
    g = math.gcd(a, b)
    assert exact._stern_brocot(a // g, b // g) == _mediant_path(a // g, b // g)


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
            got = exact._bracket_margin(a, b, den)
            assert got is None or got == _exact_margin(tt, den), (tt, den)


def test_bracket_margin_at_parabolic_zero_and_overflow():
    cases = ((2 * 3 ** 300, 3 ** 600), (0, 7 * 5 ** 400), (2 ** 5000, 1),
             (3 ** 1000, 4 ** 1000), (1, 3 * 4 ** 3000), (-4, 4), (7, 12))
    for t, den in cases:
        # a point bracket always decides
        assert exact._bracket_margin(abs(t), abs(t), den) == \
            _exact_margin(t * t, den)
        # so does a bracket one unit wide, far enough below the leading
        # bit, except where the margin is exactly that of a parabolic or
        # of trace 0: every wider bracket leaves it
        want = _exact_margin(t * t, den)
        a = abs(t) << 200
        got = exact._bracket_margin(a, a + 1, den << 400)
        assert got == (None if t == 0 or want == 0.0 else want), (t, den)
    assert exact._bracket_margin(2 * 3 ** 300, 2 * 3 ** 300, 3 ** 600) == 0.0
    assert exact._bracket_margin(0, 0, 5) == -2.0
    assert exact._bracket_margin(2 ** 5000, 2 ** 5000, 1) == math.inf
    # a bracket across a rounding of the margin declines
    assert exact._bracket_margin(2, 3, 1) is None


ENUMERATED = {d: CurveList.enumerated(SPHERE4, d) for d in range(5)}


@settings(max_examples=40, deadline=None)
@given(st.tuples(generator, generator, generator), st.integers(0, 4))
def test_recursion_is_algebraic(gens, depth):
    # the edge relation holds for any images, type-preserving or not
    rep = Representation(SPHERE4, dict(zip(("c1", "c2", "c3"), gens)))
    curves = ENUMERATED[depth]
    assert _margins(rep, curves) == _margins(rep, _walked(curves))


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
    walked = audit_rep(rep, 7,
                       curves=_walked(CurveList.enumerated(SPHERE4, 7)))
    assert walked.exact_fallbacks is None
    assert walked == dataclasses.replace(report, words_dropped=None,
                                         exact_fallbacks=None)


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
        curves = CurveList.enumerated(SPHERE4, depth)
        orbit = curves.orbit
        seeds = set(orbit._codes)
        calls.clear()
        with mock.patch.object(Alphabet, "canonical", counting("canonical")), \
                mock.patch.object(Alphabet, "decode", counting("decode")):
            report = audit_rep(rep, depth, curves=curves)
        assert report.violations == () and report.exact_fallbacks == 0
        tied = [i for i, m in enumerate(
            exact._farey_margins(rep, curves.farey, len(curves)))
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
    curves = CurveList.enumerated(SPHERE4, 5)
    plain = _walked(curves)
    with mock.patch.object(exact, "PRECISION", 0):
        for rep in (_gamma2(), build_negative_control()):
            fallbacks = curve_margins(rep, curves, -math.inf)[1]
            assert 200 < fallbacks <= len(curves) == 240
            assert _margins(rep, curves) == _margins(rep, plain)


def test_a_slope_does_not_decide_a_caller_word():
    # c1 c2 c3^-1 c2^-1 has the slope of the simple c1 c2 c3 c2^-1, but not
    # its trace: a word the caller passes is multiplied out
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    gens = ref.generator_images(rep)
    odd, simple = parse_word("c1 c2 c3^-1 c2^-1"), parse_word("c1 c2 c3 c2^-1")
    assert word_slope(odd) == word_slope(simple) == (1, -1)
    with pytest.raises(AssertionError, match=r"two curves of slope \(1, -1\)"):
        exact._FareyPlan([word_slope(odd), word_slope(simple)])
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
        undecided = [curves.slot_word(i) for i, m in enumerate(
            exact._farey_margins(control, curves.farey, len(curves)))
            if m is None]
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
    # one walk takes them together with the undecided slots: on a caller's
    # list every slot, on the enumerated one with no fraction bits those
    # its intervals leave
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    plain = CurveList(SPHERE4, enumerate_scc(SPHERE4, 4))
    control, enumerated = build_negative_control(), ENUMERATED[4]
    for r, curves, precision in ((rep, plain, exact.PRECISION),
                                 (control, plain, exact.PRECISION),
                                 (rep, enumerated, 0),
                                 (control, enumerated, 0)):
        with mock.patch.object(exact, "PRECISION", precision):
            undecided = set(range(len(curves))) if curves.farey is None \
                else {i for i, m in enumerate(exact._farey_margins(
                    r, curves.farey, len(curves))) if m is None}
            (margins, _, _), _ = _flagged_in_one_walk(r, curves, -math.inf)
            for below in (1e-6, sorted(margins)[len(margins) // 2], 5.0):
                (got, fallbacks, flagged), walks = \
                    _flagged_in_one_walk(r, curves, below)
                assert got == margins
                want = [i for i, m in enumerate(margins) if m < below]
                assert sorted(i for i, _ in flagged) == want
                todo = undecided | set(want)
                assert walks == ([len(todo)] if todo else [])
                assert fallbacks == (None if curves.farey is None
                                     else len(undecided))
                for i, image in flagged:
                    assert image == word_product(r, curves.slot_word(i))
