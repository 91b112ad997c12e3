"""The audit's exact integer kernel against an independent Fraction
recomputation: margins, verdicts, traces past the float range, type names,
and the loader's check of the stored last peripheral."""
import math
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from psltilde import audit, jsonio
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
