import hashlib
import json
import math
import os

import pytest

from psltilde import jsonio
from psltilde.audit import audit_rep
from psltilde.cli import run
from psltilde.constructors import BuildRequest, build_rep
from psltilde.cover import CoverElement
from psltilde.errors import RelatorNotCentral
from psltilde.mobius import Matrix2, normalize
from psltilde.sampling import derive_seed
from psltilde.surface import (
    Representation,
    SurfacePresentation,
    euler_class,
    sign_vector,
)


def test_float_format_round_trip():
    vals = [math.pi, 1 / 3, 1e-17, 123456.789, 2.0]
    for v in vals:
        assert float(jsonio.fmt_float(v)) == v


def test_matrix_round_trip():
    p = normalize(Matrix2(1.25, -0.5, 0.125, 0.75))
    q = jsonio.matrix_from_json(jsonio.matrix_to_json(p))
    assert q.rep.maxdiff(p.rep) == 0.0


def test_cover_element_round_trip():
    x = CoverElement(normalize(Matrix2(1, 1, 0, 1)), -2)
    back = jsonio.cover_element_from_json(jsonio.cover_element_to_json(x))
    assert back == x


def test_representation_round_trip():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 77))
    data = json.loads(jsonio.dumps(jsonio.representation_to_json(rep)))
    back = jsonio.representation_from_json(data)
    assert euler_class(back) == 1
    assert tuple(sign_vector(back)) == (1, 1, 1, -1)
    for gen in rep.surface.free_generators():
        assert back.image(gen).rep.maxdiff(rep.image(gen).rep) == 0.0


def test_representation_checks_redundant_last_peripheral():
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 78))
    data = jsonio.representation_to_json(rep)
    data["images"]["c4"] = [1.0, 1.0, 0.0, 1.0]  # inconsistent with relator
    with pytest.raises(RelatorNotCentral):
        jsonio.representation_from_json(data)


def test_cli_construct_euler_audit(tmp_path):
    rep_path = str(tmp_path / "rep.json")
    rc = run(["construct", "--genus", "0", "--punctures", "4", "--euler", "1",
              "--signs", "+,+,+,-", "--seed", "42", "-o", rep_path])
    assert rc == 0
    with open(rep_path) as fh:
        data = json.load(fh)
    assert data["surface"] == {"genus": 0, "punctures": 4}

    report_path = str(tmp_path / "audit.json")
    rc = run(["audit", rep_path, "--depth", "4", "--margin", "1e-6",
              "--report", report_path])
    assert rc == 0
    with open(report_path) as fh:
        audit = json.load(fh)
    assert audit["violations"] == []
    assert audit["euler"] == 1


def test_cli_deterministic_bytes(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["construct", "--genus", "1", "--punctures", "2", "--euler", "1",
            "--signs", "+,-", "--seed", "5"]
    assert run(args + ["-o", p1]) == 0
    assert run(args + ["-o", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_cli_infeasible_exit_code(capsys):
    rc = run(["construct", "--genus", "0", "--punctures", "4", "--euler", "2",
              "--signs", "+,+,+,-"])
    assert rc == 2
    assert "Milnor-Wood" in capsys.readouterr().err


def test_cli_refuses_negative_genus(capsys):
    # used to print a Milnor-Wood range of [4, -1] for a chi = -1 "surface"
    rc = run(["construct", "--genus", "-1", "--punctures", "3", "--euler", "1",
              "--signs=+,+,+"])
    assert rc == 2
    assert capsys.readouterr().err == "error: genus -1 must be non-negative\n"


def test_cli_audit_violation_exit_code(tmp_path):
    from psltilde.constructors import build_negative_control

    rep_path = str(tmp_path / "neg.json")
    jsonio.atomic_write(
        rep_path,
        jsonio.dumps(jsonio.representation_to_json(build_negative_control())))
    rc = run(["audit", rep_path, "--depth", "0"])
    assert rc == 1


def test_cli_classify(tmp_path):
    inp = str(tmp_path / "in.json")
    with open(inp, "w") as fh:
        json.dump([{"matrix": [2.0, 0.0, 0.0, 0.5]},
                   {"matrix": [1.0, 1.0, 0.0, 1.0], "index": 0}], fh)
    out = str(tmp_path / "out.json")
    assert run(["classify", inp, "-o", out]) == 0
    with open(out) as fh:
        got = json.load(fh)
    assert got[0] == {"type": "Hyperbolic"}
    assert got[1] == {"tag": "ParPlus", "n": 0}


def test_cli_sample_csv(tmp_path):
    out = str(tmp_path / "summary.json")
    csv = str(tmp_path / "rows.csv")
    rc = run(["sample", "--genus", "0", "--punctures", "4", "--euler", "1",
              "--signs", "+,+,+,-", "--seed", "2", "--count", "3",
              "--depth", "3", "--csv", csv, "-o", out])
    assert rc == 0
    rows = open(csv).read().strip().splitlines()
    assert rows[0] == jsonio.AUDIT_CSV_HEADER
    assert len(rows) == 4
    for i, row in enumerate(rows[1:]):
        rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1),
                                     derive_seed(2, i + 1)))
        assert row == jsonio.audit_report_csv_row(audit_rep(rep, 3))


def test_cli_selftest_quick():
    assert run(["selftest", "--scale", "0.05"]) == 0


def test_selftest_fails_when_a_product_class_is_dropped(monkeypatch):
    from psltilde import constructors
    from psltilde.mobius import PslType
    from psltilde.selftest import run_selftest

    par_par = frozenset((constructors.FactorKind.PAR_PLUS0,
                         constructors.FactorKind.PAR_MINUS0))
    # Par+ x Par- hyperbolic products land in Hyp(0), its only class
    monkeypatch.setitem(constructors.PRODUCT_IMAGE,
                        (par_par, PslType.HYPERBOLIC), frozenset())
    lines = []
    assert run_selftest(scale=0.05, out=lines.append) is False
    assert any(line.startswith("FAIL product image") for line in lines)
    assert run(["selftest", "--scale", "0.05"]) == 1


def test_cli_audit_and_sample_with_no_curves(tmp_path):
    rep_path = str(tmp_path / "rep.json")
    assert run(["construct", "--genus", "0", "--punctures", "3", "--euler",
                "1", "--signs", "+,+,+", "--seed", "1", "-o", rep_path]) == 0
    report_path = str(tmp_path / "audit.json")
    assert run(["audit", rep_path, "--depth", "3",
                "--report", report_path]) == 0
    with open(report_path) as fh:
        audit = json.load(fh)
    assert audit["curves_checked"] == 0
    assert audit["min_trace_margin"] is None
    assert audit["min_margin_curve"] is None
    csv = str(tmp_path / "rows.csv")
    assert run(["sample", "--genus", "0", "--punctures", "3", "--euler", "1",
                "--signs", "+,+,+", "--seed", "1", "--count", "2",
                "--depth", "3", "--csv", csv,
                "-o", str(tmp_path / "summary.json")]) == 0
    rows = open(csv).read().splitlines()
    assert rows[1:] == ["0,3,1,+++,3,0,,0"] * 2


def _malformed(kind):
    if kind == "top-level list":
        return [1, 2]
    data = jsonio.representation_to_json(Representation(
        SurfacePresentation(0, 3), {"c1": normalize(Matrix2(1, 1, 0, 1)),
                                    "c2": normalize(Matrix2(1, 0, -5, 1))}))
    if kind == "genus is null":
        data["surface"]["genus"] = None
    elif kind == "matrix is a number":
        data["images"]["c1"] = 5
    elif kind == "infinite entry in c3":
        data["images"]["c3"] = [math.inf, 0.0, 0.0, 1.0]
    elif kind == "NaN entry in c1":
        data["images"]["c1"] = [math.nan, 0.0, 0.0, 1.0]
    return data


@pytest.mark.parametrize("kind", ["matrix is a number", "top-level list",
                                  "infinite entry in c3", "NaN entry in c1",
                                  "genus is null"])
def test_cli_refuses_malformed_representation(tmp_path, capsys, kind):
    path = str(tmp_path / "rep.json")
    with open(path, "w") as fh:
        json.dump(_malformed(kind), fh)  # writes NaN and Infinity literals
    for command in (["euler", path], ["audit", path, "--depth", "0"]):
        assert run(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be" in err


def test_cli_rejects_unknown_flag():
    with pytest.raises(SystemExit):
        run(["construct", "--genus", "0", "--punctures", "4", "--euler", "1",
             "--signs", "+,+,+,-", "--frobnicate"])


def test_cli_audit_restrictions_evaluates_peripherals_once(tmp_path,
                                                            monkeypatch):
    from psltilde import audit, surface

    rep_path = str(tmp_path / "rep.json")
    rep = build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42))
    jsonio.atomic_write(rep_path,
                        jsonio.dumps(jsonio.representation_to_json(rep)))
    inside, calls = [], []
    invariants, eval_word = audit.invariants, surface.eval_word

    def counted_invariants(r):
        inside.append(r)
        try:
            return invariants(r)
        finally:
            inside.pop()

    def counted_eval_word(r, w):
        if inside and r is inside[-1]:
            calls.append(str(w))
        return eval_word(r, w)

    monkeypatch.setattr(audit, "invariants", counted_invariants)
    monkeypatch.setattr(surface, "eval_word", counted_eval_word)
    report_path = str(tmp_path / "audit.json")
    assert run(["audit", rep_path, "--depth", "0", "--restrictions",
                "--report", report_path]) == 0
    assert len(calls) == 4
    with open(report_path) as fh:
        restrictions = json.load(fh)["restrictions"]
    assert restrictions["mode"] == "counterexample" and restrictions["passed"]


SAMPLE_ARGS = ["sample", "--genus", "0", "--punctures", "4", "--euler", "1",
               "--signs=+,+,+,-"]


def test_cli_sample_refuses_a_negative_count(tmp_path, capsys):
    out = str(tmp_path / "summary.json")
    assert run(SAMPLE_ARGS + ["--count", "-3", "-o", out]) == 2
    assert capsys.readouterr().err == \
        "error: count -3 must be non-negative\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("margin", ["nan", "inf", "-1e-6"])
def test_cli_refuses_a_bad_margin_before_any_work(tmp_path, capsys,
                                                  monkeypatch, margin):
    from psltilde import constructors
    from psltilde.exact import CurveList

    def refuse(*args):
        raise AssertionError("built or enumerated before the margin check")

    rep_path = str(tmp_path / "rep.json")
    jsonio.atomic_write(rep_path, jsonio.dumps(jsonio.representation_to_json(
        build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42)))))
    monkeypatch.setattr(constructors, "build_rep", refuse)
    monkeypatch.setattr(CurveList, "enumerated", refuse)
    want = f"error: margin {float(margin)} must be finite and non-negative\n"
    out = str(tmp_path / "out.json")
    assert run(SAMPLE_ARGS + ["--count", "3", "--depth", "2",
                              f"--margin={margin}", "-o", out]) == 2
    assert capsys.readouterr().err == want
    assert run(["audit", rep_path, "--depth", "2", f"--margin={margin}",
                "--report", out]) == 2
    assert capsys.readouterr().err == want
    assert not os.path.exists(out)


def test_cli_refuses_a_negative_depth_before_any_work(tmp_path, capsys,
                                                      monkeypatch):
    from psltilde import audit, constructors

    def refuse(*args):
        raise AssertionError("built or evaluated before the depth check")

    rep_path = str(tmp_path / "rep.json")
    jsonio.atomic_write(rep_path, jsonio.dumps(jsonio.representation_to_json(
        build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42)))))
    monkeypatch.setattr(constructors, "build_rep", refuse)
    monkeypatch.setattr(audit, "invariants", refuse)
    want = "error: depth -1 must be non-negative\n"
    out = str(tmp_path / "out.json")
    assert run(SAMPLE_ARGS + ["--count", "3", "--depth", "-1", "-o", out]) == 2
    assert capsys.readouterr().err == want
    assert run(["audit", rep_path, "--depth", "-1", "--report", out]) == 2
    assert capsys.readouterr().err == want
    assert not os.path.exists(out)


DATA = os.path.join(os.path.dirname(__file__), "data")

# sha256 of outputs written before the four-punctured sphere was audited by
# the Farey trace recursion; the recursion must leave every byte in place
GOLDEN_AUDITS = {
    "sphere4-fuchsian.json":
        "2518e1195284fd9d4d0eb9bcb0ce468f89bc771d4f82c24c61e6ecede966de21",
    "sphere4-counterexample.json":
        "59bb4bc846ada460e2277d9281032cbd9b24365c50a612b09d15ba75c0c62435",
}
# the sample's builds conjugate through mobius.unit_product; its bytes were
# recomputed when that product became exact
GOLDEN_SAMPLE_CSV = \
    "d327c6d84ab7b9e11ae6bdc34ca488ef647cdea2d8fc451d77ff0fe467e04771"


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_AUDITS))
def test_cli_audit_golden_bytes(tmp_path, name):
    report = str(tmp_path / "report.json")
    assert run(["audit", os.path.join(DATA, name), "--depth", "7",
                "--restrictions", "--report", report]) == 0
    assert _sha256(report) == GOLDEN_AUDITS[name]


def test_cli_sample_golden_bytes(tmp_path):
    csv = str(tmp_path / "rows.csv")
    assert run(SAMPLE_ARGS + ["--seed", "7", "--count", "3", "--depth", "6",
                              "--csv", csv,
                              "-o", str(tmp_path / "summary.json")]) == 0
    assert _sha256(csv) == GOLDEN_SAMPLE_CSV
