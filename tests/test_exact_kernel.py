"""The audit's exact integer kernel against an independent Fraction
recomputation: margins, verdicts, traces past the float range, type names,
and the loader's check of the stored last peripheral; and the Farey trace
recursion of the four-punctured sphere against the products it replaces."""
import dataclasses
import math
import os
import subprocess
import sys
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
)
from psltilde.curves import enumerate_scc
from psltilde.errors import RelatorNotCentral
from psltilde.exact import (
    CurveList,
    curve_margins,
    curve_products,
    int_matrix,
    trace_margin,
    word_product,
)
from psltilde.mobius import Matrix2, classify_psl, normalize
from psltilde.surface import (
    Representation,
    SignVector,
    SurfacePresentation,
    eval_word,
    invariants,
)
from psltilde.words import CurveWord, format_word, parse_word, word

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


def test_int_matrix_is_exact():
    m = (0.1, -3.5, 1e-20, 7.0)
    scale = max(v.as_integer_ratio()[1] for v in m)
    got = [Fraction(n, scale) for n in int_matrix(m)]
    assert got == [Fraction(v) for v in m]


def test_the_package_loads_without_double_double():
    # every product is mobius.unit_product; a fresh interpreter that loads
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


def _walked(curves: CurveList) -> CurveList:
    """The same words as a caller's list, which the prefix walk decides."""
    plain = CurveList(curves.surface, curves.words)
    assert curves.farey is not None and plain.farey is None
    return plain


def test_recursion_margins_equal_the_walk():
    curves = CurveList.enumerated(SPHERE4, 6)
    plain = _walked(curves)
    assert len(curves) == 610
    for euler, signs in SPHERE4_FAMILIES:
        for seed in range(10):
            rep = build_rep(BuildRequest(0, 4, euler, signs, seed))
            assert curve_margins(rep, curves) == curve_margins(rep, plain), \
                (euler, signs, seed)


def _exact_slope_margin(t, m, sigma2):
    return exact._margin(*exact._margin_parts(t * t, sigma2 * m * m))


big = st.integers(1, 2 ** 600)


@settings(max_examples=300, deadline=None)
@given(big, big, st.integers(1, 2 ** 240), st.integers(-2 ** 40, 2 ** 40),
       st.integers(0, 200), st.sampled_from((1, -1)))
def test_slope_margin_reads_leading_bits_exactly(m, s, sigma2, offset, cut,
                                                 sign):
    # near-parabolic slopes: t = 2 s m + a small offset with sigma2 = s^2,
    # so that R - 4 cancels to about 2^-cut, or all the way; then any
    # sigma2, and traces far from +-2 either way
    for t, sig in ((2 * s * m + (s * m >> cut) + offset, s * s),
                   (2 * s * m + offset, s * s), (offset, sigma2),
                   (s * m, sigma2), (s * m << 700, 1), (s, m * m << 900)):
        t *= sign
        assert exact._slope_margin(t, m, sig) == \
            _exact_slope_margin(t, m, sig), (t, m, sig)


def test_slope_margin_at_parabolic_zero_and_overflow():
    for t, m, sigma2 in ((2 * 3 ** 300, 3 ** 300, 1), (0, 5 ** 200, 7),
                         (2 ** 5000, 1, 1), (3 ** 1000, 2 ** 1000, 1),
                         (1, 2 ** 3000, 3), (-4, 1, 4), (7, 2, 3)):
        assert exact._slope_margin(t, m, sigma2) == \
            _exact_slope_margin(t, m, sigma2)
    assert exact._slope_margin(2 * 3 ** 300, 3 ** 300, 1) == 0.0
    assert exact._slope_margin(2 ** 5000, 1, 1) == math.inf


ENUMERATED = {d: CurveList.enumerated(SPHERE4, d) for d in range(5)}


@settings(max_examples=40, deadline=None)
@given(st.tuples(generator, generator, generator), st.integers(0, 4))
def test_recursion_is_algebraic(gens, depth):
    # the edge relation holds for any images, type-preserving or not
    rep = Representation(SPHERE4, dict(zip(("c1", "c2", "c3"), gens)))
    curves = ENUMERATED[depth]
    assert curve_margins(rep, curves) == curve_margins(rep, _walked(curves))


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
    walked = audit_rep(rep, 7,
                       curves=_walked(CurveList.enumerated(SPHERE4, 7)))
    assert walked == dataclasses.replace(report, words_dropped=None)


def test_a_slope_does_not_decide_a_caller_word():
    # c1 c2 c3^-1 c2^-1 has the slope of the simple c1 c2 c3 c2^-1, but not
    # its trace: a word the caller passes is multiplied out
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    gens = ref.generator_images(rep)
    odd, simple = parse_word("c1 c2 c3^-1 c2^-1"), parse_word("c1 c2 c3 c2^-1")
    with pytest.raises(AssertionError, match=r"two curves of slope \(1, -1\)"):
        exact._FareyPlan(CurveList(SPHERE4, [odd, simple]))
    margins = [audit_rep(rep, 0, curves=[w]).min_trace_margin
               for w in (odd, simple)]
    assert margins[0] != margins[1]
    assert _close(margins[0], ref.margin(ref.image(rep, odd, gens)))
    assert _close(margins[1], ref.margin(ref.image(rep, simple, gens)))


def test_enumerated_audit_walks_only_flagged_curves():
    def refuse(*args):
        raise AssertionError("curve_products called")

    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    with mock.patch.object(exact, "curve_products", refuse), \
            mock.patch.object(audit, "curve_products", refuse):
        report = audit_rep(rep, 5)
    assert report.violations == () and report.curves_checked > 0
    # a flagged curve takes its entry from a walk of the flagged words only
    walked = []

    def counted(r, curves):
        walked.append(list(curves.words))
        return curve_products(r, curves)

    threshold = sorted(curve_margins(rep, ENUMERATED[4]))[2]
    with mock.patch.object(audit, "curve_products", counted):
        report = audit_rep(rep, 4, threshold, curves=ENUMERATED[4])
    assert len(report.violations) == 2
    assert walked == [[parse_word(v.curve) for v in report.violations]]
    assert report == audit_rep(rep, 4, threshold,
                               curves=_walked(ENUMERATED[4]))
