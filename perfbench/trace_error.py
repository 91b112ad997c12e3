"""Largest relative error of psltilde's curve traces against exact arithmetic.

    python3 perfbench/trace_error.py

For every stored audit-deep representation, evaluates each enumerated curve
with psltilde.surface.eval_word and with exact integer products, and prints
the largest | |tr| - exact |tr| | / exact |tr| per kind, with its curve.
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from workloads import AUDIT_KINDS, POOL, _read_json, input_path  # noqa: E402


def main() -> int:
    from psltilde.curves import enumerate_scc
    from psltilde.surface import SurfacePresentation, eval_word

    for label, g, p, _, _, depth, _ in AUDIT_KINDS:
        curves = enumerate_scc(SurfacePresentation(g, p), depth)
        letters = [c.letters for c in curves]
        worst = (0.0, None, None)
        for k in range(1, POOL + 1):
            data = _read_json(input_path(label, k))
            rep = checks.program_rep(data)
            margins = checks.exact_rep_from_json(data).margins(letters)
            for c, m in zip(curves, margins):
                err = abs(abs(eval_word(rep, c).rep.trace()) - (m + 2.0)) \
                    / (m + 2.0)
                if err > worst[0]:
                    worst = (err, k, c)
        err, k, c = worst
        print(f"{label} depth {depth}: max relative trace error {err:.3e} "
              f"(input seed {k}, a {len(c)}-letter curve)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
