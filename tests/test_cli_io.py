import json
import math

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
