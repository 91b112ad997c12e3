"""Output checks for the benchmark: representation files and audit results
against exact arithmetic (exact.py), and the homology every simple closed
curve class must have. Each check returns a list of problems; an empty list
means the output is correct.
"""
from __future__ import annotations

import math

from exact import ExactRep, expand_last, exponent_sums, rep_health

# The program evaluates words in double-double and then rescales by a plain
# float determinant when the entries stay below 1e4, which bounds the relative
# trace error by about 2^-26.4; the allowance is a little over twice that.
# A curve whose exact margin lies within the allowance of the threshold is
# undecided: either verdict is accepted.
TRACE_ALLOWANCE = 2.0 ** -25
PAR_BAND = 1e-8          # psltilde.mobius.PAR_BAND: |tr| - 2 band of parabolics
RELATION_TOL = 1e-8      # psltilde.jsonio's stored-vs-implied c_p tolerance


def format_letters(letters) -> str:
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in letters)


def allowance(margin: float) -> float:
    return TRACE_ALLOWANCE * (margin + 2.0)


def exact_rep_from_json(data) -> ExactRep:
    surf = data["surface"]
    return ExactRep(int(surf["genus"]), int(surf["punctures"]), data["images"])


def check_rep_file(data, genus: int, punctures: int,
                   signs: tuple[int, ...]) -> tuple[list[str], dict]:
    """A written representation: surface, relation, and parabolic
    peripherals with the requested signs."""
    problems = []
    if data.get("surface") != {"genus": genus, "punctures": punctures}:
        return [f"surface {data.get('surface')} != ({genus},{punctures})"], {}
    er = exact_rep_from_json(data)
    last = f"c{punctures}"
    if set(data["images"]) != set(er.free) | {last}:
        return [f"image names {sorted(data['images'])}"], {}
    health = rep_health(er, data["images"][last])
    if not health["relator_residual"] <= RELATION_TOL:
        problems.append(f"relator residual {health['relator_residual']:.3e}")
    if not health["last_gap"] <= RELATION_TOL:
        problems.append(f"stored c{punctures} off by {health['last_gap']:.3e}")
    for i, (d, s) in enumerate(zip(health["trace_defects"], health["signs"]),
                               start=1):
        if not abs(d) <= PAR_BAND + allowance(d):
            problems.append(f"peripheral {i} not parabolic: |tr|-2 = {d:.3e}")
        if s != signs[i - 1]:
            problems.append(f"peripheral {i} has sign {s}, wanted {signs[i-1]}")
    return problems, health


def program_rep(data):
    """The file's representation as psltilde sees it: its free-generator
    images read by psltilde.jsonio, without the loader's float re-check of
    the redundant c_p (check_rep_file checks that exactly)."""
    from psltilde import jsonio
    from psltilde.surface import Representation, SurfacePresentation

    surf = SurfacePresentation(data["surface"]["genus"],
                               data["surface"]["punctures"])
    return Representation(surf, {
        g: jsonio.matrix_from_json(data["images"][g])
        for g in surf.free_generators()})


def loader_refuses(data) -> bool:
    """True if psltilde's own loader rejects the file."""
    from psltilde import jsonio
    from psltilde.errors import PslTildeError

    try:
        jsonio.representation_from_json(data)
    except PslTildeError:
        return True
    return False


def check_program_invariants(rep, euler: int, signs) -> list[str]:
    """The program's own Euler class and sign vector of a representation,
    which exact arithmetic cannot recompute (the Euler class lives in the
    universal cover): they must be the requested ones and obey Milnor-Wood."""
    from psltilde.surface import euler_class, sign_vector

    chi = rep.surface.chi
    e = euler_class(rep)
    s = tuple(sign_vector(rep))
    problems = []
    if e != euler or s != tuple(signs):
        problems.append(f"program reads (e, s) = ({e}, {s}), "
                        f"built for ({euler}, {tuple(signs)})")
    if not chi <= e <= -chi:
        problems.append(f"Milnor-Wood violated: e = {e}, chi = {chi}")
    return problems


def check_curve_homology(curves, genus: int, punctures: int) -> list[str]:
    """Each class is non-trivial and has the homology of a non-peripheral
    simple closed curve. On the sphere, its exponent sums over c1..c_{p-1}
    (c_p written out) are +-(e_i + e_j) on (0,4). On genus surfaces its
    (a_j, b_j) exponent sums, the image in H1 of the closed surface, are
    primitive or zero."""
    er_free = [f"c{i}" for i in range(1, punctures)]
    problems = []
    for w in curves:
        letters = expand_last(w, genus, punctures)
        if not letters:
            problems.append("empty curve word")
            continue
        if genus == 0:
            v = exponent_sums(letters, er_free)
            if punctures == 4:
                s = sum(v)
                ok = sorted(abs(x) for x in v) == [0, 1, 1] and \
                    len({x for x in v if x}) == 1 and abs(s) == 2
                if not ok:
                    problems.append(f"{format_letters(letters)}: c-sums {v}")
        else:
            ab = []
            for j in range(1, genus + 1):
                ab += exponent_sums(letters, [f"a{j}", f"b{j}"])
            if any(ab) and math.gcd(*ab) != 1:
                problems.append(f"{format_letters(letters)}: H1 image {ab} "
                                "not primitive")
        if len(problems) > 5:
            break
    return problems


def exact_type(margin: float) -> str | None:
    """psltilde's PSL type name, or None when the exact margin sits within
    the allowance of a classification boundary."""
    tol = allowance(margin)
    if margin > PAR_BAND + tol:
        return "Hyperbolic"
    if margin < -PAR_BAND - tol:
        return "Elliptic"
    if -PAR_BAND + tol < margin < PAR_BAND - tol:
        return "Parabolic"
    return None


def check_margins(margins: list[float], threshold: float, min_reported: float,
                  violations: list[str] | int, names: list[str]
                  ) -> tuple[list[str], int]:
    """Audit verdicts against exact margins. violations is the reported list
    of violating curves, or just their number (the CSV row). Returns the
    problems and the number of undecided curves."""
    problems = []
    exact_min = min(margins)
    if not abs(min_reported - exact_min) <= allowance(exact_min):
        problems.append(f"min_trace_margin {min_reported!r} vs exact "
                        f"{exact_min!r}")
    certain, undecided_names = [], set()
    for m, name in zip(margins, names):
        tol = allowance(m)
        if m < threshold - tol:
            certain.append(name)
        elif m < threshold + tol:
            undecided_names.add(name)
    if isinstance(violations, int):
        if not len(certain) <= violations <= len(certain) + len(undecided_names):
            problems.append(f"{violations} violations reported, exact "
                            f"{len(certain)} (+{len(undecided_names)} undecided)")
    else:
        reported = set(violations)
        missing = set(certain) - reported
        extra = reported - set(certain) - undecided_names
        if missing or extra:
            problems.append(f"violations differ: missing {sorted(missing)[:3]}"
                            f", extra {sorted(extra)[:3]}")
    return problems, len(undecided_names)
