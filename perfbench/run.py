"""Benchmark psltilde end to end, or per layer with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (psltilde is imported from src/). The
workload's rounds run in this single process, one after another, until the
next round would end past S seconds (at least one round). Outputs go to
perfbench/out/<workload>/ and are checked after timing; the last line of
stdout is one JSON object with correct, attempted, failed and metrics.

End-to-end times are scaled to a reference host speed (speed.py): a fixed
pure-Python kernel is timed on an interval timer while the commands run, and
the raw round times are printed, with the scaled ones, on the line before
the result. Traced runs report raw times.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced round,
then traced rounds, and prints the per-layer metrics per traced round, plus
the tracing overhead; the spans go to perfbench/out/<workload>/spans.csv.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5


def _import_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "psltilde", "__init__.py")):
        sys.exit(f"psltilde sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import psltilde  # noqa: F401  (runs the orientation self-check)
    import psltilde.cli  # noqa: F401


def _clear_caches() -> None:
    """Empty every functools cache in the package, as a new process has."""
    for name, mod in list(sys.modules.items()):
        if name == "psltilde" or name.startswith("psltilde."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _run_command(argv):
    """Run one CLI command in-process; returns its exit code (or the
    exception that escaped it) and its start and end times."""
    from psltilde import cli

    _clear_caches()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = cli.run(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a result
            rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return rc, t0, t1


def _run_round(wl, rdir, speed):
    """Run one round; returns the exit codes, and the raw and the
    speed-scaled time of every command (raw twice without a speed
    reference)."""
    os.makedirs(rdir, exist_ok=True)
    results, spans = {}, {}
    with speed or contextlib.nullcontext():
        for label, argv in wl.commands(rdir):
            results[label], t0, t1 = _run_command(argv)
            spans[label] = (t0, t1)
    raw, scaled = {}, {}
    for label, (t0, t1) in spans.items():
        raw[label], scaled[label] = speed.scaled(t0, t1) if speed \
            else (t1 - t0, t1 - t0)
    return results, raw, scaled


def _digests(rdir) -> dict:
    out = {}
    for name in sorted(os.listdir(rdir)):
        with open(os.path.join(rdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _code_key(workload: str, seed: int) -> str:
    """Identity of (program, benchmark, inputs, workload, seed)."""
    h = hashlib.sha256(f"{workload}|{seed}".encode())
    for base in (os.path.join(SRC, "psltilde"), HERE):
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("out", "__pycache__"))
            for name in sorted(files):
                if name.endswith((".py", ".json")):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        h.update(name.encode() + fh.read())
    return h.hexdigest()


def _check_ledger(key: str, digests: dict) -> list[str]:
    """Same code and seed must write the same bytes as any earlier run."""
    path = os.path.join(OUT, "ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as fh:
            ledger = json.load(fh)
    if key in ledger:
        if ledger[key] != digests:
            return ["outputs differ from an earlier run with the same seed"]
        return []
    ledger[key] = digests
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ledger, fh)
    os.replace(tmp, path)
    return []


def _percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _setup_probe(workload: str, seed: int) -> None:
    """Child of a set-up measurement: import, make the inputs, say ready."""
    _import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, os.path.join(OUT, f"{workload}-probe"))
    wl.prepare()
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _measure_setup(workload: str, seed: int, speed) -> float:
    """Median time from starting an interpreter to the workload being
    ready, over SETUP_PROBES sequential child processes, speed-scaled."""
    times = []
    for _ in range(SETUP_PROBES):
        with speed:
            t0 = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, cwd=ROOT)
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.close()
            if child.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise RuntimeError("set-up probe failed")
        times.append(speed.scaled(t0, t1)[1])
    shutil.rmtree(os.path.join(OUT, f"{workload}-probe"), ignore_errors=True)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    from speed import SpeedRef
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    _import_program()
    # the speed reference's timer would run inside traced spans
    speed = None if args.trace else SpeedRef()
    setup_s = None if args.trace else \
        _measure_setup(args.workload, args.seed, speed)

    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    wl.prepare()

    rounds = []       # (results, raw times, scaled times) per round
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) > 0
        if traced:
            tracer.install()
        try:
            rounds.append(_run_round(
                wl, os.path.join(workdir, f"round{len(rounds)}"), speed))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and elapsed + elapsed / len(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks: round 0 in full, later rounds byte for byte against it
    check_start = time.perf_counter()
    problems = []
    rdir0 = os.path.join(workdir, "round0")
    results0 = rounds[0][0]
    digests0 = _digests(rdir0)
    for k, (results, _, _) in enumerate(rounds[1:], start=1):
        rdir = os.path.join(workdir, f"round{k}")
        if results != results0 or _digests(rdir) != digests0:
            problems.append(f"round {k} differs from round 0")
        shutil.rmtree(rdir)
    problems += _check_ledger(_code_key(args.workload, args.seed), digests0)
    found, figures = wl.check(rdir0, results0)
    problems += found
    counts = wl.counts(rdir0, results0)

    attempted = failed = 0
    for results, _, _ in rounds:
        attempted += len(results)
        failed += sum(1 for label, rc in results.items()
                      if not wl.ok(label, rc))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    walls = [sum(scaled.values()) for _, _, scaled in rounds]
    raw_walls = [sum(raw.values()) for _, raw, _ in rounds]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(rounds), "run_s": check_start - start,
                      "check_s": time.perf_counter() - check_start,
                      "raw_wall_s": raw_walls, "scaled_wall_s": walls,
                      "figures": figures}, default=str))
    with open(os.path.join(workdir, "times.json"), "w") as fh:
        json.dump([{"raw": raw, "scaled": scaled}
                   for _, raw, scaled in rounds], fh)
    if tracer is not None:
        metrics = tracer.metrics(len(rounds) - 1)
        traced_wall = statistics.median(walls[1:])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (walls[0], "s")
        metrics["trace.overhead_s"] = (traced_wall - walls[0], "s")
        tracer.write(os.path.join(workdir, "spans.csv"))
    else:
        wall_s = statistics.median(walls)
        latencies = [dt for results, _, scaled in rounds
                     for label, dt in scaled.items()
                     if wl.ok(label, results[label])]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "curves_per_s": (counts["curves"] / wall_s, "1/s"),
            "builds_per_s": (counts["builds"] / wall_s, "1/s"),
            "build_ms_p50": (1e3 * _percentile(latencies, 0.5), "ms"),
            "build_ms_p90": (1e3 * _percentile(latencies, 0.9), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
