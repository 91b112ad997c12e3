"""Deterministic JSON/CSV serialization.

Floats print with 17 significant digits so round-trips are exact and
identical invocations produce byte-identical files.
"""
from __future__ import annotations

import json
import os
import tempfile

from . import exact
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
    from .mobius import normalize_unit

    a, b, c, d = (float(v) for v in data)
    m = Matrix2(a, b, c, d)
    det = m.det()
    if abs(det - 1.0) < 1e-12:
        # round-trips of serialized matrices must be entrywise exact
        return normalize_unit(m)
    return normalize(m)


def cover_element_to_json(x: CoverElement) -> dict:
    return {"matrix": matrix_to_json(x.base), "index": x.lift_index}


def cover_element_from_json(data) -> CoverElement:
    return CoverElement(matrix_from_json(data["matrix"]), int(data["index"]))


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


def representation_from_json(data) -> Representation:
    surf = SurfacePresentation(int(data["surface"]["genus"]),
                               int(data["surface"]["punctures"]))
    images = {}
    for gen in surf.free_generators():
        images[gen] = matrix_from_json(data["images"][gen])
    rep = Representation(surf, images)
    last = surf.c(surf.punctures)
    if last in data["images"]:
        matrix_from_json(data["images"][last])  # refuses non-unit determinants
        # the stored c_p against the exact image of its defining word
        claimed = exact.unit_entries(exact.int_matrix(data["images"][last]))
        implied = exact.unit_entries(exact.word_product(
            rep, surf.peripheral_word(surf.punctures)))
        gap = max(abs(u - v) for u, v in zip(claimed, implied))
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
    return (f"{report.genus},{report.punctures},{report.euler},{signs},"
            f"{report.depth},{report.curves_checked},"
            f"{fmt_float(report.min_trace_margin)},{len(report.violations)}")
