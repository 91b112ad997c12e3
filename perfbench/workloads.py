"""The three workloads: inputs made from the seed, the psltilde commands of
one round, and the checks of a round's outputs.

A round is one fixed set of CLI commands; every run repeats whole rounds, so
the share of failed commands is the same in every run. Each command runs
in-process through psltilde.cli.run with every functools cache of the package
cleared first, as a command started from a shell would find them.
"""
from __future__ import annotations

import json
import os
import random
import shutil

import checks
from exact import ExactRep

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")


def _signs_arg(signs) -> str:
    return ",".join("+" if s > 0 else "-" for s in signs)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Set-up: make this seed's inputs."""

    def commands(self, rdir: str) -> list[tuple[str, list[str]]]:
        """(label, argv) of one round, writing into rdir."""
        raise NotImplementedError

    def ok(self, label: str, rc) -> bool:
        return rc == 0

    def check(self, rdir: str, results: dict) -> tuple[list[str], dict]:
        """Problems found in a round's outputs, and figures to print."""
        raise NotImplementedError

    def counts(self, rdir: str, results: dict) -> dict:
        """Per round: curve verdicts and builds delivered in the outputs."""
        raise NotImplementedError


# -- sample-sphere4 ------------------------------------------------------------

class SampleSphere4(Workload):
    """One `psltilde sample` run on the four-punctured sphere, counterexample
    component e = 1, signs (+,+,+,-), depth 6."""

    name = "sample-sphere4"
    COUNT = 12
    GENUS, PUNCTURES, EULER, SIGNS, DEPTH = 0, 4, 1, (1, 1, 1, -1), 6

    def commands(self, rdir):
        return [("sample", [
            "sample", "--genus", str(self.GENUS),
            "--punctures", str(self.PUNCTURES), "--euler", str(self.EULER),
            f"--signs={_signs_arg(self.SIGNS)}", "--depth", str(self.DEPTH),
            "--count", str(self.COUNT), "--seed", str(self.seed),
            "--csv", os.path.join(rdir, "rows.csv"),
            "-o", os.path.join(rdir, "summary.json")])]

    def _rows(self, rdir):
        with open(os.path.join(rdir, "rows.csv")) as fh:
            lines = fh.read().splitlines()
        return lines[0], [ln.split(",") for ln in lines[1:]]

    def counts(self, rdir, results):
        _, rows = self._rows(rdir)
        return {"curves": sum(int(r[5]) for r in rows), "builds": len(rows)}

    def check(self, rdir, results):
        from psltilde.constructors import BuildRequest, build_rep
        from psltilde.curves import enumerate_scc
        from psltilde.sampling import derive_seed
        from psltilde.surface import SurfacePresentation

        problems = []
        header, rows = self._rows(rdir)
        summary = _read_json(os.path.join(rdir, "summary.json"))
        if header.split(",")[:8] != ["genus", "punctures", "euler", "signs",
                                     "depth", "curves_checked",
                                     "min_trace_margin", "violations"]:
            problems.append(f"CSV header {header!r}")
        if len(rows) != self.COUNT:
            return problems + [f"{len(rows)} CSV rows, wanted {self.COUNT}"], {}
        curves = enumerate_scc(SurfacePresentation(self.GENUS, self.PUNCTURES),
                               self.DEPTH)
        letters = [c.letters for c in curves]
        names = [checks.format_letters(w) for w in letters]
        problems += checks.check_curve_homology(letters, self.GENUS,
                                                self.PUNCTURES)
        clean = sum(1 for r in rows if int(r[7]) == 0)
        want = {"count": self.COUNT, "np_pass": clean,
                "fraction": clean / self.COUNT, "depth": self.DEPTH,
                "curves": len(curves)}
        if summary != want:
            problems.append(f"summary {summary} != {want}")
        undecided = 0
        min_margin = float("inf")
        for i, row in enumerate(rows):
            head = [int(row[0]), int(row[1]), int(row[2]), row[3],
                    int(row[4]), int(row[5])]
            if head != [self.GENUS, self.PUNCTURES, self.EULER,
                        _signs_arg(self.SIGNS).replace(",", ""), self.DEPTH,
                        len(curves)]:
                problems.append(f"row {i}: {row[:6]}")
            # the sample command does not write its representations: rebuild
            # build i from its derived seed and check it and its audit row
            rep = build_rep(BuildRequest(self.GENUS, self.PUNCTURES,
                                         self.EULER, self.SIGNS,
                                         derive_seed(self.seed, i + 1)))
            imgs = {g: m.rep.entries() for g, m in rep.images.items()}
            er = ExactRep(self.GENUS, self.PUNCTURES, imgs)
            margins = er.margins(letters)
            found, und = checks.check_margins(margins, 1e-6, float(row[6]),
                                              int(row[7]), names)
            problems += [f"row {i}: {p}" for p in found]
            undecided += und
            min_margin = min(min_margin, min(margins))
            data = {"surface": {"genus": self.GENUS,
                                "punctures": self.PUNCTURES},
                    "images": dict(imgs, **{
                        f"c{self.PUNCTURES}":
                            rep.peripheral_image(self.PUNCTURES).rep.entries()})}
            found, _ = checks.check_rep_file(data, self.GENUS, self.PUNCTURES,
                                             self.SIGNS)
            problems += [f"build {i}: {p}" for p in found]
            problems += checks.check_program_invariants(rep, self.EULER,
                                                        self.SIGNS)
        return problems, {"undecided": undecided, "np_pass": clean,
                          "exact_min_margin": min_margin}


# -- audit-deep ----------------------------------------------------------------

# (label, genus, punctures, euler, signs, depth, family); the stored files are
# made by make_inputs.py from build seeds 1..POOL
AUDIT_KINDS = (
    ("torus3-counterexample", 1, 3, 2, (1, 1, -1), 6, "counterexample"),
    ("sphere4-fuchsian", 0, 4, 2, (1, 1, 1, 1), 7, "extremal"),
    ("sphere4-counterexample", 0, 4, 1, (1, 1, 1, -1), 7, "counterexample"),
)
POOL = 8


def input_path(label: str, build_seed: int) -> str:
    return os.path.join(INPUTS, f"{label}-seed{build_seed}.json")


class AuditDeep(Workload):
    """`psltilde audit REP --depth D --restrictions --report OUT` on stored
    representations: a Fuchsian and a counterexample one on (0,4) at depth 7
    and a counterexample one on (1,3) at depth 6."""

    name = "audit-deep"

    def prepare(self):
        build_seed = self.seed % POOL + 1
        os.makedirs(os.path.join(self.workdir, "inputs"), exist_ok=True)
        self.inputs = {}
        for label, *_ in AUDIT_KINDS:
            dst = os.path.join(self.workdir, "inputs", f"{label}.json")
            shutil.copyfile(input_path(label, build_seed), dst)
            self.inputs[label] = dst

    def commands(self, rdir):
        return [(label, ["audit", self.inputs[label], "--depth", str(depth),
                         "--restrictions",
                         "--report", os.path.join(rdir, f"{label}.json")])
                for label, _, _, _, _, depth, _ in AUDIT_KINDS]

    def ok(self, label, rc):
        return rc in (0, 1)  # 1: violations found, a result

    def counts(self, rdir, results):
        curves = sum(_read_json(os.path.join(rdir, f"{k[0]}.json"))
                     ["curves_checked"] for k in AUDIT_KINDS)
        return {"curves": curves, "builds": len(AUDIT_KINDS)}

    def check(self, rdir, results):
        from psltilde.curves import enumerate_scc
        from psltilde.surface import SurfacePresentation

        problems = []
        undecided = 0
        figures = {}
        enumerated = {}
        for label, g, p, e, signs, depth, family in AUDIT_KINDS:
            data = _read_json(self.inputs[label])
            found, _ = checks.check_rep_file(data, g, p, signs)
            problems += [f"{label} input: {x}" for x in found]
            report = _read_json(os.path.join(rdir, f"{label}.json"))
            rc = results[label]
            if (rc == 1) != bool(report["violations"]):
                problems.append(f"{label}: exit code {rc} with "
                                f"{len(report['violations'])} violations")
            head = (report["surface"], report["euler"], report["signs"],
                    report["depth"])
            if head != ({"genus": g, "punctures": p}, e, list(signs), depth):
                problems.append(f"{label}: report head {head}")
            if (g, p, depth) not in enumerated:
                curves = enumerate_scc(SurfacePresentation(g, p), depth)
                letters = [c.letters for c in curves]
                problems += [f"{label}: {x}" for x in
                             checks.check_curve_homology(letters, g, p)]
                enumerated[(g, p, depth)] = (
                    letters, [checks.format_letters(w) for w in letters])
            letters, names = enumerated[(g, p, depth)]
            if report["curves_checked"] != len(letters):
                problems.append(f"{label}: {report['curves_checked']} curves "
                                f"checked, enumeration has {len(letters)}")
            er = checks.exact_rep_from_json(data)
            margins = er.margins(letters)
            reported = [v["curve"] for v in report["violations"]]
            found, und = checks.check_margins(
                margins, report["margin"], report["min_trace_margin"],
                reported, names)
            problems += [f"{label}: {x}" for x in found]
            undecided += und
            problems += [f"{label}: {x}" for x in
                         _check_violation_entries(report, margins, names)]
            restr = report.get("restrictions", {})
            if family == "extremal":
                if report["violations"]:
                    problems.append(f"{label}: Fuchsian representation has "
                                    "violations")
                if restr.get("mode") != "extremal" or not restr.get("passed"):
                    problems.append(f"{label}: restrictions {restr}")
            elif not (restr.get("mode") == "counterexample"
                      and restr.get("passed") and restr.get("pants_euler") == 0
                      and all(pe == -pc for pe, pc in
                              zip(restr["piece_eulers"], restr["piece_chis"]))):
                problems.append(f"{label}: restrictions {restr}")
            figures[label] = {"violations": len(reported),
                              "exact_min_margin": min(margins)}
        figures["undecided"] = undecided
        return problems, figures


def _check_violation_entries(report, margins, names) -> list[str]:
    by_name = dict(zip(names, margins))
    problems = []
    for v in report["violations"]:
        m = by_name.get(v["curve"])
        if m is None:
            problems.append(f"violation on unknown curve {v['curve']!r}")
            continue
        if not abs(v["trace"] - (m + 2.0)) <= checks.allowance(m):
            problems.append(f"{v['curve']}: trace {v['trace']!r}, exact "
                            f"{m + 2.0!r}")
        kind = checks.exact_type(m)
        if kind is not None and not v["type"].startswith(kind) \
                and v["type"] != "Identity":
            problems.append(f"{v['curve']}: type {v['type']}, exact {kind}")
    return problems


# -- build-matrix --------------------------------------------------------------

SURFACES = ((0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (1, 4),
            (2, 1), (2, 2))
BUILD_SEEDS = range(20)


def families(genus: int, punctures: int):
    """(family, euler, signs) of every supported component family."""
    chi = 2 - 2 * genus - punctures
    out = [("extremal+", -chi, (1,) * punctures),
           ("extremal-", chi, (-1,) * punctures)]
    if chi <= -2:
        out += [("counterexample", -chi - 1, (1,) * (punctures - 1) + (-1,)),
                ("counterexample-mirror", chi + 1,
                 (-1,) * (punctures - 1) + (1,))]
    return out


class BuildMatrix(Workload):
    """`psltilde construct` for build seeds 0..19 on every surface with
    chi >= -4 and every supported family. The build seeds are fixed, so the
    builds that fail today fail in every round; the workload seed sets the
    order of the builds."""

    name = "build-matrix"

    def prepare(self):
        self.requests = [(f"{g}-{p}-{fam}-s{s}", g, p, fam, e, signs, s)
                         for g, p in SURFACES
                         for fam, e, signs in families(g, p)
                         for s in BUILD_SEEDS]
        random.Random(self.seed).shuffle(self.requests)

    def commands(self, rdir):
        return [(label, ["construct", "--genus", str(g), "--punctures", str(p),
                         "--euler", str(e), f"--signs={_signs_arg(signs)}",
                         "--seed", str(s), "-o",
                         os.path.join(rdir, f"{label}.json")])
                for label, g, p, _, e, signs, s in self.requests]

    def counts(self, rdir, results):
        built = [r for r in self.requests if results[r[0]] == 0]
        # curve verdicts of a build: the parabolic sign of every puncture
        return {"curves": sum(r[2] for r in built), "builds": len(built)}

    def check(self, rdir, results):
        problems = []
        table = {}
        refused = []
        worst = {"relator_residual": 0.0, "last_gap": 0.0, "trace_defect": 0.0}
        for label, g, p, fam, e, signs, s in self.requests:
            key = f"({g},{p}) {fam}"
            ok, total = table.get(key, (0, 0))
            path = os.path.join(rdir, f"{label}.json")
            if results[label] != 0:
                table[key] = (ok, total + 1)
                if os.path.exists(path):
                    problems.append(f"{label}: failed but wrote {path}")
                continue
            table[key] = (ok + 1, total + 1)
            data = _read_json(path)
            found, health = checks.check_rep_file(data, g, p, signs)
            meta = data.get("meta", {})
            if meta != {"seed": s, "euler": e, "signs": list(signs)}:
                found.append(f"meta {meta}")
            if not found:
                found += checks.check_program_invariants(
                    checks.program_rep(data), e, signs)
                if checks.loader_refuses(data):
                    refused.append(label)
                worst["relator_residual"] = max(worst["relator_residual"],
                                                health["relator_residual"])
                worst["last_gap"] = max(worst["last_gap"], health["last_gap"])
                worst["trace_defect"] = max(
                    [worst["trace_defect"]]
                    + [abs(d) for d in health["trace_defects"]])
            problems += [f"{label}: {x}" for x in found]
        return problems, {"success": {k: f"{a}/{b}" for k, (a, b)
                                      in sorted(table.items())},
                          "worst": worst, "loader_refuses": sorted(refused)}


WORKLOADS = {w.name: w for w in (SampleSphere4, AuditDeep, BuildMatrix)}
