"""Make the stored representations that the audit-deep workload audits.

    python3 perfbench/make_inputs.py

writes perfbench/inputs/<kind>-seed<k>.json for k = 1..POOL with
`psltilde construct`, and keeps a file only if it passes the representation
checks and, for a counterexample, the restriction certificate. The files are
kept in the repository, so a change to the builders leaves audit-deep's input
unchanged; run this again only to change the inputs on purpose.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from workloads import AUDIT_KINDS, INPUTS, POOL, _signs_arg, input_path  # noqa: E402


def main() -> int:
    from psltilde import cli, jsonio
    from psltilde.audit import check_restrictions

    os.makedirs(INPUTS, exist_ok=True)
    bad = 0
    for label, g, p, e, signs, _, family in AUDIT_KINDS:
        for k in range(1, POOL + 1):
            path = input_path(label, k)
            rc = cli.run(["construct", "--genus", str(g), "--punctures", str(p),
                          "--euler", str(e), f"--signs={_signs_arg(signs)}",
                          "--seed", str(k), "-o", path])
            if rc != 0:
                print(f"{label} seed {k}: construct exit {rc}", file=sys.stderr)
                bad += 1
                continue
            with open(path) as fh:
                data = json.load(fh)
            problems, _ = checks.check_rep_file(data, g, p, signs)
            rep = jsonio.representation_from_json(data)
            problems += checks.check_program_invariants(rep, e, signs)
            restr = check_restrictions(rep)
            if not restr.passed or restr.mode != family:
                problems.append(f"restrictions {restr}")
            if problems:
                print(f"{label} seed {k}: {problems}", file=sys.stderr)
                os.unlink(path)
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
