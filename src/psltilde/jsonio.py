"""Deterministic JSON/CSV serialization.

Floats print with 17 significant digits so round-trips are exact and
identical invocations produce byte-identical files.
"""
from __future__ import annotations

import json
import math
import os
import tempfile

from .audit import AuditReport
from .cover import CoverClass, CoverElement
from .errors import RelatorNotCentral
from .mobius import Matrix2, ProjectiveMatrix, normalize
from .surface import Representation, SurfacePresentation


def fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x!r} in output")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Canonical JSON text: insertion-ordered keys, 17-significant-digit
    floats, two-space indentation."""
    out: list[str] = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _write(obj, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(k))}: ")
            _write(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _write(v, out, indent + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    else:
        out.append(json.dumps(str(obj)))


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_to_json(m: ProjectiveMatrix) -> list[float]:
    return list(m.rep.entries())


def matrix_from_json(data) -> ProjectiveMatrix:
    """ValueError unless data is a list of 4 finite numbers."""
    from .mobius import normalize_unit

    try:
        ok = (isinstance(data, (list, tuple)) and len(data) == 4
              and all(type(v) in (int, float) and math.isfinite(v)
                      for v in data))
    except OverflowError:  # an integer past the float range
        ok = False
    if not ok:
        raise ValueError("a matrix must be a list of 4 finite numbers, "
                         f"got {data!r:.60}")
    a, b, c, d = (float(v) for v in data)
    m = Matrix2(a, b, c, d)
    det = m.det()
    if abs(det - 1.0) < 1e-12:
        # round-trips of serialized matrices must be entrywise exact
        return normalize_unit(m)
    return normalize(m)


def cover_element_to_json(x: CoverElement) -> dict:
    return {"matrix": matrix_to_json(x.base), "index": x.lift_index}


def _json_int(data, what: str) -> int:
    if type(data) is not int:
        raise ValueError(f"{what} must be an integer, got {data!r:.60}")
    return data


def cover_element_from_json(data) -> CoverElement:
    return CoverElement(matrix_from_json(data["matrix"]),
                        _json_int(data["index"], "index"))


def cover_class_to_json(cls: CoverClass) -> dict:
    return {"tag": cls.tag, "n": cls.n}


def representation_to_json(rep: Representation, meta: dict | None = None) -> dict:
    surf = rep.surface
    images = {}
    for gen in surf.free_generators():
        images[gen] = matrix_to_json(rep.images[gen])
    # the implied last peripheral is written redundantly and checked on load
    images[surf.c(surf.punctures)] = matrix_to_json(
        rep.peripheral_image(surf.punctures))
    return {
        "surface": {"genus": surf.genus, "punctures": surf.punctures},
        "images": images,
        "meta": meta or {},
    }


def _json_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, "
                         f"got {type(data).__name__}")
    return data


def representation_from_json(data) -> Representation:
    """ValueError on a malformed document; see matrix_from_json."""
    surface = _json_object(_json_object(data, "a representation")["surface"],
                           "surface")
    stored = _json_object(data["images"], "images")
    surf = SurfacePresentation(_json_int(surface["genus"], "genus"),
                               _json_int(surface["punctures"], "punctures"))
    images = {}
    for gen in surf.free_generators():
        images[gen] = matrix_from_json(stored[gen])
    rep = Representation(surf, images)
    last = surf.c(surf.punctures)
    if last in stored:
        claimed = matrix_from_json(stored[last])  # refuses non-unit dets
        # the stored c_p against the exact image of its defining word
        gap = claimed.rep.maxdiff(rep.peripheral_image(surf.punctures).rep)
        if not gap < 1e-8:
            raise RelatorNotCentral(
                "serialized last peripheral disagrees with the defining "
                f"relation by {gap:.3e}")
    return rep


def audit_report_to_json(report: AuditReport) -> dict:
    return {
        "surface": {"genus": report.genus, "punctures": report.punctures},
        "euler": report.euler,
        "signs": list(report.signs),
        "depth": report.depth,
        "margin": report.margin,
        "curves_checked": report.curves_checked,
        "words_dropped": report.words_dropped,
        "min_trace_margin": report.min_trace_margin,
        "min_margin_curve": report.min_margin_curve,
        "violations": [
            {"curve": v.curve, "type": v.psl_type, "trace": v.trace}
            for v in report.violations
        ],
    }


AUDIT_CSV_HEADER = ("genus,punctures,euler,signs,depth,curves_checked,"
                    "min_trace_margin,violations")


def audit_report_csv_row(report: AuditReport) -> str:
    signs = "".join("+" if s == 1 else ("-" if s == -1 else "0")
                    for s in report.signs)
    margin = ("" if report.min_trace_margin is None
              else fmt_float(report.min_trace_margin))
    return (f"{report.genus},{report.punctures},{report.euler},{signs},"
            f"{report.depth},{report.curves_checked},"
            f"{margin},{len(report.violations)}")
