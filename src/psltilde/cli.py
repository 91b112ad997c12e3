"""Batch command-line interface: construct, classify, euler, audit, sample,
selftest. All file I/O is JSON/CSV with atomic writes and deterministic bytes
for identical invocations (including seeds).

Each command builds only its own parser; a command line that does not start
with a command name builds all of them, so help, usage and error text are the
same either way.

Exit codes: 0 success, 1 audit violations found, 2 input or infeasibility
error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import jsonio
from .audit import DEFAULT_MARGIN, audit_rep, check_restrictions
from .constructors import BuildRequest, build_rep, sample
from .cover import cover_classify
from .errors import PslTildeError
from .mobius import classify_psl


def _parse_signs(text: str) -> tuple[int, ...]:
    table = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1, "0": 0}
    try:
        return tuple(table[tok.strip()] for tok in text.split(","))
    except KeyError as exc:
        raise ValueError(f"bad sign token {exc.args[0]!r}: use +, - or 0") from None


def _write_json(path: str | None, payload) -> None:
    text = jsonio.dumps(payload)
    if path is None:
        sys.stdout.write(text)
    else:
        jsonio.atomic_write(path, text)


def _cmd_construct(args) -> int:
    req = BuildRequest(args.genus, args.punctures, args.euler,
                       _parse_signs(args.signs), args.seed)
    rep = build_rep(req)
    meta = {"seed": args.seed, "euler": args.euler,
            "signs": list(req.signs)}
    _write_json(args.output, jsonio.representation_to_json(rep, meta))
    return 0


def _cmd_classify(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    # one matrix, one cover element, or a list of them
    many = isinstance(data, list) and not (
        len(data) == 4 and all(type(v) in (int, float) for v in data))
    items = data if many else [data]
    out = []
    for item in items:
        if isinstance(item, dict) and "index" in item:
            elt = jsonio.cover_element_from_json(item)
            out.append(jsonio.cover_class_to_json(cover_classify(elt)))
        else:
            matrix = jsonio.field(item, "matrix", "a matrix object") \
                if isinstance(item, dict) else item
            p = jsonio.matrix_from_json(matrix)
            out.append({"type": classify_psl(p).value})
    _write_json(args.output, out if many else out[0])
    return 0


def _cmd_euler(args) -> int:
    from .surface import invariants

    with open(args.input) as fh:
        rep = jsonio.representation_from_json(json.load(fh))
    euler, signs = invariants(rep)
    payload = {"euler": euler, "signs": list(signs)}
    _write_json(args.output, payload)
    return 0


def _cmd_audit(args) -> int:
    with open(args.input) as fh:
        rep = jsonio.representation_from_json(json.load(fh))
    report = audit_rep(rep, args.depth, args.margin)
    payload = jsonio.audit_report_to_json(report)
    if args.restrictions:
        try:
            payload["restrictions"] = asdict(check_restrictions(rep))
        except PslTildeError as exc:
            payload["restrictions"] = {"error": str(exc)}
    _write_json(args.report, payload)
    return 1 if report.violations else 0


def _cmd_sample(args) -> int:
    req = BuildRequest(args.genus, args.punctures, args.euler,
                       _parse_signs(args.signs), args.seed)
    _, reports, summary = sample(req, args.count, depth=args.depth,
                                 margin=args.margin)
    rows = [jsonio.AUDIT_CSV_HEADER]
    rows += [jsonio.audit_report_csv_row(report) for report in reports]
    if args.csv:
        jsonio.atomic_write(args.csv, "\n".join(rows) + "\n")
    _write_json(args.output, summary)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(scale=args.scale)
    return 0 if ok else 1


def _request_args(c: argparse.ArgumentParser, signs_help=None) -> None:
    c.add_argument("--genus", type=int, required=True)
    c.add_argument("--punctures", type=int, required=True)
    c.add_argument("--euler", type=int, required=True)
    c.add_argument("--signs", required=True, help=signs_help)
    c.add_argument("--seed", type=int, default=0)


def _construct_args(c: argparse.ArgumentParser) -> None:
    _request_args(c, signs_help="comma-separated +, - per puncture")
    c.add_argument("-o", "--output", default=None)


def _file_args(c: argparse.ArgumentParser) -> None:
    c.add_argument("input")
    c.add_argument("-o", "--output", default=None)


def _audit_args(c: argparse.ArgumentParser) -> None:
    c.add_argument("input")
    c.add_argument("--depth", type=int, default=4)
    c.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    c.add_argument("--report", default=None)
    c.add_argument("--restrictions", action="store_true",
                   help="also certify the pants/complement restriction "
                   "Euler classes")


def _sample_args(c: argparse.ArgumentParser) -> None:
    _request_args(c)
    c.add_argument("--count", type=int, default=10)
    c.add_argument("--depth", type=int, default=4)
    c.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    c.add_argument("--csv", default=None)
    c.add_argument("-o", "--output", default=None)


def _selftest_args(c: argparse.ArgumentParser) -> None:
    c.add_argument("--scale", type=float, default=1.0)


# name -> (help, argument adder, handler), in --help order
_COMMANDS = {
    "construct": ("build a representation with prescribed Euler class and "
                  "signs", _construct_args, _cmd_construct),
    "classify": ("classify matrices or cover elements", _file_args,
                 _cmd_classify),
    "euler": ("Euler class and sign vector of a representation file",
              _file_args, _cmd_euler),
    "audit": ("hyperbolicity audit over enumerated simple closed curves",
              _audit_args, _cmd_audit),
    "sample": ("seeded batch of builds with audits", _sample_args,
               _cmd_sample),
    "selftest": ("run the built-in property suite", _selftest_args,
                 _cmd_selftest),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, when `command` names one, a parser
    holding only that command's subparser. Both print the same help, usage
    and error text for a command line that starts with that command."""
    parser = argparse.ArgumentParser(
        prog="psltilde",
        description=("computations in the universal cover of PSL(2,R): "
                     "representation construction, invariants, and "
                     "hyperbolicity audits"))
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # a parser of one command still lists every choice in the usage line
    # of a top-level error ("unrecognized arguments"); the full parser
    # leaves the metavar unset, since its errors name the argument by it
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in names:
        help_text, add_arguments, _ = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    _, _, handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (PslTildeError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
