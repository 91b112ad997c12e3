"""Per-layer tracing of psltilde from outside the package.

install() replaces every public function of the layer modules at every module
attribute that binds it (psltilde.surface.eval_word, psltilde.audit.eval_word,
psltilde.eval_word, ...), so calls through any binding are seen. A call to one
of the SPANNED functions becomes a span (name, binding module, parent span,
start, end, extras) kept in memory. The other public functions, small helpers
whose only metric is a call count, are counted without spans, so their time
stays in their caller's self time. uninstall() puts the original functions
back.

Self time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import importlib
import inspect
import itertools
import time
from collections import Counter

LAYERS = ("cli", "constructors", "surface", "audit", "curves", "words",
          "cover", "dd", "mobius", "jsonio")

# functions whose calls become spans: those with a time metric, the command
# entry point, and the solvers; every other public function is only counted,
# so its time stays in its caller's self time
SPANNED = {
    "cli.run", "constructors.sample", "constructors.build_rep",
    "constructors.solve_product", "constructors.solve_commutator",
    "surface.eval_word", "surface.euler_class", "surface.twist_deform",
    "surface.restrict", "audit.audit_rep", "audit.check_restrictions",
    "curves.enumerate_scc", "curves.default_autos", "words.canonical_form",
    "words.substitute", "cover.cover_classify", "jsonio.atomic_write",
}


def _extras(name, args, result):
    """Per-call counts recorded with a span, by canonical function name."""
    if name == "surface.eval_word":
        return len(args[1].letters)
    if name == "words.canonical_form":
        return len(args[0].letters)
    if name == "audit.audit_rep":
        return result.curves_checked
    if name == "jsonio.atomic_write":
        return len(args[1].encode())
    return 0


class Tracer:
    def __init__(self):
        # span: [id, parent, name, via, t0, t1, extra, failed]
        self.spans: list[list] = []
        self.stack: list[int] = [0]
        self.counts: Counter = Counter()
        self.enum_stats: list[dict] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    # -- wrapping -----------------------------------------------------------
    def _span_wrapper(self, fn, name, via):
        spans, stack, perf = self.spans, self.stack, time.perf_counter
        ids = self._ids
        enum = name == "curves.enumerate_scc"
        enum_stats = self.enum_stats

        def traced(*args, **kwargs):
            sid = next(ids)
            rec = [sid, stack[-1], name, via, 0.0, 0.0, 0, False]
            stack.append(sid)
            rec[4] = perf()
            try:
                if enum:
                    want = kwargs.pop("return_stats", False)
                    curves, stats = fn(*args, return_stats=True, **kwargs)
                    enum_stats.append(stats)
                    result = (curves, stats) if want else curves
                else:
                    result = fn(*args, **kwargs)
            except BaseException:
                rec[7] = True
                raise
            finally:
                rec[5] = perf()
                stack.pop()
                spans.append(rec)
            rec[6] = _extras(name, args, result) if not enum \
                else len(curves)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        pkg = importlib.import_module("psltilde")
        modules = [pkg] + [importlib.import_module(f"psltilde.{m}")
                           for m in LAYERS]
        for mod in modules:
            via = mod.__name__.rpartition(".")[2] if mod is not pkg \
                else "psltilde"
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("psltilde.") \
                        or home not in LAYERS:
                    continue
                name = f"{home}.{obj.__name__}"
                wrapped = self._span_wrapper(obj, name, via) \
                    if name in SPANNED else self._count_wrapper(obj, name)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrapped)
        dd = importlib.import_module("psltilde.dd")
        matmul = dd.DDMatrix.__matmul__
        self._patched.append((dd.DDMatrix, "__matmul__", matmul))
        dd.DDMatrix.__matmul__ = self._count_wrapper(matmul, "dd.matmul")

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # -- reduction ----------------------------------------------------------
    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round (rounds are identical, so
        counts divide exactly)."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        child_time = Counter()
        for s in spans:
            child_time[s[1]] += s[5] - s[4]

        def ancestor(s, name):
            p = s[1]
            while p:
                q = by_id[p]
                if q[2] == name:
                    return q
                p = q[1]
            return None

        calls, self_s, total_s, extra = Counter(), Counter(), Counter(), Counter()
        under_build = Counter()
        builds = failed = enum_canon = 0
        audit_enum_s = 0.0
        for s in spans:
            dur = s[5] - s[4]
            keys = [s[2]]
            if s[3] == "cli" and not s[2].startswith("cli."):
                keys.append("cli." + s[2].partition(".")[2])
            for k in keys:
                calls[k] += 1
                self_s[k] += dur - child_time[s[0]]
                total_s[k] += dur
                extra[k] += s[6]
            if s[2] == "constructors.build_rep" \
                    and ancestor(s, "constructors.build_rep") is None:
                builds += 1
                failed += s[7]
            if s[2] in ("surface.eval_word", "surface.euler_class") \
                    and ancestor(s, "constructors.build_rep") is not None:
                under_build[s[2]] += 1
            if s[2] == "words.canonical_form" \
                    and ancestor(s, "curves.enumerate_scc") is not None:
                enum_canon += 1
            if s[2] == "curves.enumerate_scc" \
                    and ancestor(s, "audit.audit_rep") is not None:
                audit_enum_s += dur
        classes = sum(st["count"] for st in self.enum_stats)
        dropped = sum(st["dropped"] for st in self.enum_stats)
        curves = extra["audit.audit_rep"]

        r = float(rounds)
        out = {}

        def count(key, value):
            out[key] = (value / r, "count")

        def secs(key, value):
            out[key] = (value / r, "s")

        count("cli.audit_rep.calls", calls["cli.audit_rep"])
        secs("cli.audit_rep.self_s", self_s["cli.audit_rep"])
        secs("cli.audit_rep.total_s", total_s["cli.audit_rep"])
        secs("cli.enumerate_scc.self_s", self_s["cli.enumerate_scc"])
        secs("constructors.sample.self_s", self_s["constructors.sample"])
        count("constructors.build_rep.calls", builds)
        secs("constructors.build_rep.self_s", self_s["constructors.build_rep"])
        count("constructors.build_rep.failed", failed)
        count("constructors.solve_product.calls",
              calls["constructors.solve_product"])
        count("constructors.solve_commutator.calls",
              calls["constructors.solve_commutator"])
        count("surface.eval_word.calls", calls["surface.eval_word"])
        count("surface.eval_word.letters", extra["surface.eval_word"])
        secs("surface.eval_word.self_s", self_s["surface.eval_word"])
        out["surface.eval_word.per_build"] = (
            under_build["surface.eval_word"] / builds if builds else 0.0,
            "count")
        count("surface.euler_class.calls", calls["surface.euler_class"])
        secs("surface.euler_class.self_s", self_s["surface.euler_class"])
        out["surface.euler_class.per_build"] = (
            under_build["surface.euler_class"] / builds if builds else 0.0,
            "count")
        count("surface.twist_deform.calls", calls["surface.twist_deform"])
        secs("surface.twist_deform.self_s", self_s["surface.twist_deform"])
        count("surface.restrict.calls", calls["surface.restrict"])
        count("audit.audit_rep.calls", calls["audit.audit_rep"])
        count("audit.audit_rep.curves", curves)
        secs("audit.audit_rep.self_s", self_s["audit.audit_rep"])
        out["audit.audit_rep.us_per_curve"] = (
            1e6 * (total_s["audit.audit_rep"] - audit_enum_s) / curves
            if curves else 0.0, "us")
        secs("audit.check_restrictions.self_s",
             self_s["audit.check_restrictions"])
        count("curves.enumerate_scc.calls", calls["curves.enumerate_scc"])
        secs("curves.enumerate_scc.self_s", self_s["curves.enumerate_scc"])
        count("curves.enumerate_scc.classes", classes)
        count("curves.enumerate_scc.dropped", dropped)
        secs("curves.default_autos.self_s", self_s["curves.default_autos"])
        count("words.canonical_form.calls", calls["words.canonical_form"])
        count("words.canonical_form.letters", extra["words.canonical_form"])
        secs("words.canonical_form.self_s", self_s["words.canonical_form"])
        out["words.canonical_form.new_ratio"] = (
            classes / enum_canon if enum_canon else 0.0, "ratio")
        count("words.substitute.calls", calls["words.substitute"])
        secs("words.substitute.self_s", self_s["words.substitute"])
        count("cover.cover_mul.calls", self.counts["cover.cover_mul"])
        count("cover.cover_classify.calls", calls["cover.cover_classify"])
        secs("cover.cover_classify.self_s", self_s["cover.cover_classify"])
        count("dd.matmul.calls", self.counts["dd.matmul"])
        count("mobius.normalize.calls", self.counts["mobius.normalize"])
        count("mobius.classify_psl.calls", self.counts["mobius.classify_psl"])
        count("jsonio.atomic_write.calls", calls["jsonio.atomic_write"])
        count("jsonio.atomic_write.bytes", extra["jsonio.atomic_write"])
        secs("jsonio.atomic_write.self_s", self_s["jsonio.atomic_write"])
        count("trace.spans", len(spans))
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,via,t0,t1,extra,failed\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]!r},{s[5]!r},"
                         f"{s[6]},{int(s[7])}\n")
