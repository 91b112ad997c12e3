import hashlib
import json
import math
import os
import sys

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
    back = jsonio.cover_element_from_json(
        {"matrix": jsonio.matrix_to_json(x.base), "index": x.lift_index})
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


def test_cli_refuses_a_bad_sign_token(capsys):
    rc = run(["construct", "--genus", "0", "--punctures", "4", "--euler", "1",
              "--signs", "+,x,+,-"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: bad sign token 'x': use +, - or 0\n"


def test_a_matrix_entry_past_the_float_range_is_refused():
    # float(10**400) overflows inside the finiteness check
    with pytest.raises(ValueError, match="^a matrix must be a list of 4 "
                       "finite numbers, got "):
        jsonio.matrix_from_json([10 ** 400, 0, 0, 1])


def test_atomic_write_leaves_no_temporary_file_on_failure(tmp_path):
    path = tmp_path / "out.json"
    with pytest.raises(UnicodeEncodeError):
        jsonio.atomic_write(str(path), "\ud800")  # a lone surrogate
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_open_would(tmp_path, umask):
    path = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        jsonio.atomic_write(str(path), "first\n")
        first = os.stat(path).st_mode & 0o777
        jsonio.atomic_write(str(path), "second\n")
        second = os.stat(path).st_mode & 0o777
    finally:
        os.umask(old)
    assert first == second == 0o666 & ~umask
    assert path.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.json"]


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


def test_cli_audit_reports_a_restriction_error(tmp_path):
    from psltilde.constructors import build_negative_control

    rep_path = str(tmp_path / "neg.json")
    jsonio.atomic_write(
        rep_path,
        jsonio.dumps(jsonio.representation_to_json(build_negative_control())))
    out = str(tmp_path / "report.json")
    assert run(["audit", rep_path, "--depth", "2", "--restrictions",
                "--report", out]) == 1
    with open(out) as fh:
        restrictions = json.load(fh)["restrictions"]
    assert restrictions == {"error": "(euler, signs) = (1, (1, 1, 1, 1)) is "
                            "neither a counterexample component nor extremal"}


def test_cli_euler(tmp_path, capsys):
    rep_path = str(tmp_path / "rep.json")
    assert run(["construct", "--genus", "0", "--punctures", "4", "--euler",
                "1", "--signs=+,+,+,-", "--seed", "42", "-o", rep_path]) == 0
    assert run(["euler", rep_path]) == 0
    assert capsys.readouterr().out == \
        jsonio.dumps({"euler": 1, "signs": [1, 1, 1, -1]})


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


@pytest.mark.parametrize("data, expected", [
    ([2.0, 0.0, 0.0, 0.5], {"type": "Hyperbolic"}),
    ([[2.0, 0.0, 0.0, 0.5], [1, 1, 0, 1], [0.0, 1.0, -1.0, 0.0]],
     [{"type": "Hyperbolic"}, {"type": "ParabolicPlus"},
      {"type": "Elliptic"}]),
], ids=["one bare matrix", "a list of bare matrices"])
def test_cli_classify_bare_matrices(tmp_path, capsys, data, expected):
    inp = str(tmp_path / "in.json")
    with open(inp, "w") as fh:
        json.dump(data, fh)
    assert run(["classify", inp]) == 0
    assert json.loads(capsys.readouterr().out) == expected


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_cli_output_file_mode_follows_the_umask(tmp_path, umask):
    inp, out = str(tmp_path / "in.json"), str(tmp_path / "out.json")
    with open(inp, "w") as fh:
        json.dump([2.0, 0.0, 0.0, 0.5], fh)
    old = os.umask(umask)
    try:
        assert run(["classify", inp, "-o", out]) == 0
    finally:
        os.umask(old)
    # as open() would create it, not mkstemp's 0o600
    assert os.stat(out).st_mode & 0o777 == 0o666 & ~umask


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


def test_selftest_checks_the_relator_walk(monkeypatch):
    from psltilde import selftest

    # a walk that lands one half-turn off, as a wrong deck correction would
    monkeypatch.setattr(selftest, "euler_class",
                        lambda rep: euler_class(rep) + 1)
    lines = []
    assert selftest.run_selftest(scale=0.05, out=lines.append) is False
    assert any(line.startswith("FAIL Euler class by composition")
               for line in lines)


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


def _without(path: tuple[str, ...]) -> dict:
    """A stored (0,4) representation with the field at path removed."""
    data = jsonio.representation_to_json(
        build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 3)))
    outer, key = path
    del data[outer][key]
    return data


_MISSING = [
    (["classify"], {"index": 0}, "a cover element has no 'matrix'"),
    (["classify"], [{"matrix": [1, 1, 0, 1]}, {"index": 1}],
     "a cover element has no 'matrix'"),
    (["classify"], {"type": "matrix"}, "a matrix object has no 'matrix'"),
    (["euler"], {"images": {}}, "a representation has no 'surface'"),
    (["euler"], {"surface": {"genus": 0, "punctures": 3}},
     "a representation has no 'images'"),
]
_MISSING += [(command, path, f"{what} has no {path[-1]!r}")
             for command in (["euler"], ["audit", "--depth", "0"])
             for path, what in ((("images", "c2"), "images"),
                                (("surface", "genus"), "surface"),
                                (("surface", "punctures"), "surface"))]


@pytest.mark.parametrize("command,data,message", _MISSING,
                         ids=[f"{c[0]}-{m}" for c, _, m in _MISSING])
def test_cli_names_the_missing_field(tmp_path, capsys, command, data,
                                     message):
    if isinstance(data, tuple):
        data = _without(data)
    path = str(tmp_path / "input.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert run([command[0], path, *command[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_cover_element_without_an_index_is_refused():
    with pytest.raises(ValueError, match="a cover element has no 'index'"):
        jsonio.cover_element_from_json({"matrix": [1.0, 1.0, 0.0, 1.0]})


def test_cli_rejects_unknown_flag():
    with pytest.raises(SystemExit):
        run(["construct", "--genus", "0", "--punctures", "4", "--euler", "1",
             "--signs", "+,+,+,-", "--frobnicate"])


def test_cli_construct_and_audit_walk_each_relator_once(tmp_path,
                                                        monkeypatch):
    from psltilde import surface

    # a walk of a representation's relator: surface._invariants, or
    # eval_word of its whole implied last peripheral
    walked = []
    walk, eval_word = surface._invariants, surface.eval_word

    def counted_walk(r):
        walked.append(r)
        return walk(r)

    def counted_eval_word(r, w):
        if w == r.surface.last_peripheral_word():
            walked.append(r)
        return eval_word(r, w)

    monkeypatch.setattr(surface, "_invariants", counted_walk)
    monkeypatch.setattr(surface, "eval_word", counted_eval_word)
    rep_path = str(tmp_path / "rep.json")
    report_path = str(tmp_path / "audit.json")
    assert run(["construct", "--genus", "0", "--punctures", "4", "--euler",
                "1", "--signs", "+,+,+,-", "--seed", "42",
                "-o", rep_path]) == 0
    assert run(["audit", rep_path, "--depth", "0", "--restrictions",
                "--report", report_path]) == 0
    # writing c4, loading it against the relation, the audit and the
    # restriction certificate each reuse their object's one walk
    assert walked and len({id(r) for r in walked}) == len(walked)
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
    from psltilde.curves import Curves

    def refuse(*args):
        raise AssertionError("built or enumerated before the margin check")

    rep_path = str(tmp_path / "rep.json")
    jsonio.atomic_write(rep_path, jsonio.dumps(jsonio.representation_to_json(
        build_rep(BuildRequest(0, 4, 1, (1, 1, 1, -1), 42)))))
    monkeypatch.setattr(constructors, "build_rep", refuse)
    monkeypatch.setattr(Curves, "enumerated", refuse)
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
# sha256 of the depth-6 audit of a (1,3) build (construct --seed 9), whose
# curves are decided by their words, written while every word was walked in
# exact integers; the fixed-point word walk must leave every byte in place
GOLDEN_WORD_AUDIT = \
    "1c906c466d955214ae8ba595b2202d53030ffe8214763060bf7c2829d6034bf1"
# the sample's builds conjugate in exact integer products; its bytes were
# recomputed when the twists joined them
GOLDEN_SAMPLE_CSV = \
    "9b299e0891a28da3b6da15e96c038a7dcff9e1e367ec9bca93d0602450b60d9d"


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _audit_digest(tmp_path, name: str, depth: int) -> str:
    report = str(tmp_path / "report.json")
    assert run(["audit", os.path.join(DATA, name), "--depth", str(depth),
                "--restrictions", "--report", report]) == 0
    return _sha256(report)


@pytest.mark.parametrize("name", sorted(GOLDEN_AUDITS))
def test_cli_audit_golden_bytes(tmp_path, name):
    assert _audit_digest(tmp_path, name, 7) == GOLDEN_AUDITS[name]


def test_cli_word_audit_golden_bytes(tmp_path):
    assert _audit_digest(tmp_path, "torus3-counterexample.json", 6) == \
        GOLDEN_WORD_AUDIT


def test_cli_sample_golden_bytes(tmp_path):
    csv = str(tmp_path / "rows.csv")
    assert run(SAMPLE_ARGS + ["--seed", "7", "--count", "3", "--depth", "6",
                              "--csv", csv,
                              "-o", str(tmp_path / "summary.json")]) == 0
    assert _sha256(csv) == GOLDEN_SAMPLE_CSV


# -- help, usage and error text ------------------------------------------------

COMMANDS = ["construct", "classify", "euler", "audit", "sample", "selftest"]
TEXT_CASES = [[], ["--help"]] + [[c, "--help"] for c in COMMANDS] + [
    ["bogus"], ["construct"], ["construct", "--bogus"],
    ["construct", "--genus", "0", "--punctures", "4", "--euler", "1",
     "--signs", "+,+,+,-", "--bogus"],
    ["euler", "a.json", "b.json"],
]
# sha256 of the help text on stdout at 80 columns (exit 0, empty stderr)
HELP_SHA256 = {
    "--help":
        "d45e9700a4edf69824fda5f630c8dacc8cda72b0deacb1f080746e20d7214704",
    "construct --help":
        "1dc664586244ed12d12dd0ba4a3b60448fac18b4997ac558cf8e78d962b89635",
    "classify --help":
        "00ae0d4007d3dbd37cc62aae14c3fdf12de12c3e3f5cf56cb67d07cd4410a9b4",
    "euler --help":
        "522313484c1336210c3e091b1d9317105af3015407f7183719fa2a1a1e6bd365",
    "audit --help":
        "68a5d33c7705c76c0a9a4671a4ba51c26de35f1bd9ca99b2022f428b83bea2d9",
    "sample --help":
        "fecfc3e05e6c12d1d6521d3d73c3fb7bec402c5350568ab7141b270afdd05a9e",
    "selftest --help":
        "01f8d7b33c922ef1ce7bfa8a43e048379681a3a8a4835cd6aa778c9f2123964e",
}
USAGE = ("usage: psltilde [-h] "
         "{construct,classify,euler,audit,sample,selftest} ...\n")
CONSTRUCT_USAGE = (
    "usage: psltilde construct [-h] --genus GENUS --punctures PUNCTURES "
    "--euler\n"
    "                          EULER --signs SIGNS [--seed SEED] "
    "[-o OUTPUT]\n")
CONSTRUCT_REQUIRED = (
    CONSTRUCT_USAGE + "psltilde construct: error: the following arguments "
    "are required: --genus, --punctures, --euler, --signs\n")
# stderr at 80 columns (exit 2, empty stdout)
ERROR_TEXT = {
    "": USAGE + "psltilde: error: the following arguments are required: "
        "command\n",
    "bogus": USAGE + "psltilde: error: argument command: invalid choice: "
        "'bogus' (choose from 'construct', 'classify', 'euler', 'audit', "
        "'sample', 'selftest')\n",
    "construct": CONSTRUCT_REQUIRED,
    "construct --bogus": CONSTRUCT_REQUIRED,
    "construct --genus 0 --punctures 4 --euler 1 --signs +,+,+,- --bogus":
        USAGE + "psltilde: error: unrecognized arguments: --bogus\n",
    "euler a.json b.json":
        USAGE + "psltilde: error: unrecognized arguments: b.json\n",
}


def _cli_text(capsys, fn, argv):
    try:
        rc = fn(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("argv", TEXT_CASES, ids=" ".join)
def test_cli_text_matches_the_full_parser(capsys, monkeypatch, argv):
    # a command line that names a command builds only that command's
    # parser; it must print what the parser of every command prints
    from psltilde.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")
    assert _cli_text(capsys, run, argv) == \
        _cli_text(capsys, build_parser().parse_args, argv)


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse formats help and usage differently "
                    "from Python 3.13")
@pytest.mark.parametrize("argv", TEXT_CASES, ids=" ".join)
def test_cli_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = _cli_text(capsys, run, argv)
    key = " ".join(argv)
    if key in HELP_SHA256:
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[key]
    else:
        assert (rc, out, err) == (2, "", ERROR_TEXT[key])


def test_cli_run_reads_sys_argv(tmp_path, capsys, monkeypatch):
    # main() and the console script call run() without arguments
    from psltilde.cli import main

    inp = str(tmp_path / "in.json")
    with open(inp, "w") as fh:
        json.dump([2.0, 0.0, 0.0, 0.5], fh)
    monkeypatch.setattr(sys, "argv", ["psltilde", "classify", inp])
    assert run() == 0
    assert json.loads(capsys.readouterr().out) == {"type": "Hyperbolic"}
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out) == {"type": "Hyperbolic"}
    monkeypatch.setattr(sys, "argv", ["psltilde"])
    assert _cli_text(capsys, lambda _: run(), None) == \
        (2, "", ERROR_TEXT[""])
