"""Closed-loop benchmark of quasilattice.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client issues the workload's operations one after
another, checks each output, and repeats the whole list (a cycle) until
S seconds have passed.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` cycles alternate untraced and traced and the line holds the
per-layer metrics.  A full record of the run, with its manifest, goes to
``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Relative to ROOT, the working directory of a run, so that no record
# holds the checkout's absolute path.
RESULTS = os.path.join("perfbench", "results")
OUT = os.path.join("perfbench", "out")

# The run process imports the package once; setup_s is the median of
# that import and SETUP_REPEATS more in fresh interpreters, each in
# reference seconds (calib.py).  Half of the repeats run before the
# measurement and half after it, so that one slow spell of the host
# does not decide the median.
SETUP_REPEATS = 6
_IMPORT = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import calib
with calib.Sampler() as sampler:
    t = time.perf_counter()
    import quasilattice, quasilattice.cli
    t = time.perf_counter() - t - sampler.cost_s
print(t, t * sampler.scale)
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["bath-decay", "radiation-sweep", "validate-oracle"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_package() -> tuple[float, float]:
    """Import quasilattice and its CLI from this checkout's src/, timed:
    (seconds, reference seconds)."""
    sys.path.insert(0, SRC)
    with calib.Sampler() as sampler:
        t0 = time.perf_counter()
        import quasilattice
        import quasilattice.cli  # noqa: F401
        elapsed = time.perf_counter() - t0 - sampler.cost_s
    if not os.path.abspath(quasilattice.__file__).startswith(SRC + os.sep):
        raise ImportError(f"quasilattice imported from {quasilattice.__file__}, not {SRC}")
    return elapsed, elapsed * sampler.scale


def _setup_samples(count: int) -> list[tuple[float, float]]:
    here = os.path.dirname(os.path.abspath(__file__))
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT.format(src=SRC, here=here)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw, ref = proc.stdout.split()[-2:]
        samples.append((float(raw), float(ref)))
    return samples


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _manifest(args, ops) -> dict:
    import numpy
    import scipy

    def blas(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": [dict(kind=op.kind, **op.params) for op in ops],
    }


def _run_op(op, tracer, op_id, checks) -> dict:
    """Run one operation and check its output.

    status is "ok", "failed" (the program reported the failure: an
    exception or a nonzero exit code) or "wrong" (it reported success
    but the output failed its check).  Failed operations are never
    retried or skipped.  Untraced operations are timed in reference
    seconds ("seconds") and in seconds ("raw_s"); traced ones only in
    seconds.
    """
    root = tracer.begin_op(op_id) if tracer else None
    sampler = None if tracer else calib.Sampler()
    with sampler or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # the operation's failure is a measured outcome
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    if tracer:
        tracer.end_op(root)
    rec = {"kind": op.kind, "seconds": elapsed, "raw_s": elapsed, "status": "ok", "detail": ""}
    if sampler:
        rec["raw_s"] = elapsed - sampler.cost_s
        rec.update(seconds=rec["raw_s"] * sampler.scale, kernel_s=sampler.kernel_s,
                   kernel_samples=len(sampler.samples))
    if error is None and isinstance(out, int) and out != 0:
        error = f"exit code {out}"
    if error is not None:
        rec.update(status="failed", detail=error)
    else:
        try:
            op.check(out)
        except checks.CheckError as exc:
            rec.update(status="wrong", detail=str(exc))
    rec["bytes_written"] = sum(os.path.getsize(p) for p in op.outputs if os.path.exists(p))
    return rec


def _high(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, or
    the maximum when there are too few samples for any."""
    n = len(values)
    if n < 11:
        return "max", max(values)
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _pass_time(cycles, key="seconds") -> float:
    """Time of one pass over the workload's operations: the sum over
    operations of each one's median time across the cycles.  Summing
    per-operation medians keeps one slow cycle from moving the figure.
    Only successful operations count, so a failure cannot look fast."""
    total = 0.0
    for i in range(len(cycles[0]["ops"])):
        ok = [c["ops"][i][key] for c in cycles if c["ops"][i]["status"] == "ok"]
        total += statistics.median(ok) if ok else 0.0
    return total


def _kind_times(cycles) -> dict:
    by_kind: dict[str, list[float]] = {}
    for cyc in cycles:
        for rec in (r for r in cyc["ops"] if r["status"] == "ok"):
            by_kind.setdefault(rec["kind"], []).append(rec["seconds"])
    out = {}
    for kind, vals in by_kind.items():
        label, high = _high(vals)
        out[f"{kind}_s"] = {"median": statistics.median(vals), label: high, "n": len(vals)}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    try:
        first_import = _import_package()
    except ImportError as exc:
        print(f"error: cannot import quasilattice from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup = [first_import] + _setup_samples(SETUP_REPEATS // 2)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import checks
    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, OUT)
    tracer = spans.Tracer() if args.trace else None

    # Cycle 0 warms up (first-call costs, allocator growth) and is
    # checked but not timed; measurement starts after it.
    cycles = []
    t_start = None
    while True:
        traced = bool(args.trace) and len(cycles) % 2 == 0 and len(cycles) > 0
        if traced:
            tracer.install()
        try:
            recs = []
            for i, op in enumerate(ops):
                op_id = (len(cycles), i)
                rec = _run_op(op, tracer if traced else None, op_id, checks)
                rec["op_id"] = op_id
                recs.append(rec)
        finally:
            if traced:
                tracer.uninstall()
        cycles.append({"traced": traced, "warmup": t_start is None, "ops": recs,
                       "wall_s": sum(r["seconds"] for r in recs),
                       "raw_wall_s": sum(r["raw_s"] for r in recs)})
        if t_start is None:
            t_start = time.perf_counter()
        elif time.perf_counter() - t_start >= args.seconds and (not args.trace or traced):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += _setup_samples(SETUP_REPEATS - SETUP_REPEATS // 2)
    all_ops = [r for c in cycles for r in c["ops"]]
    failed = sum(r["status"] != "ok" for r in all_ops)
    plain = [c for c in cycles if not c["traced"] and not c["warmup"]]
    for rec in all_ops:
        if rec["status"] != "ok":
            print(f"operation {rec['op_id']} {rec['kind']} {rec['status']}: {rec['detail']}",
                  file=sys.stderr)

    kernel_s = [r["kernel_s"] for c in plain for r in c["ops"]]
    summary = {
        "setup_s": {"median": statistics.median(ref for _, ref in setup),
                    "raw_median": statistics.median(raw for raw, _ in setup),
                    "samples": [ref for _, ref in setup], "raw_samples": [raw for raw, _ in setup]},
        "wall_s": {"median": _pass_time(plain), "raw_median": _pass_time(plain, "raw_s"),
                   "cycles": len(plain)},
        "kernel_s": {"median": statistics.median(kernel_s), "min": min(kernel_s),
                     "max": max(kernel_s), "reference": calib.REFERENCE_KERNEL_S},
        "peak_rss_mb": peak_rss_mb,
        "error_rate": failed / len(all_ops),
        "attempted": len(all_ops),
        "failed": failed,
        "per_kind": _kind_times(plain),
    }
    if args.workload == "validate-oracle":
        probe = workloads.blocker_probe(OUT)
        if os.path.exists(probe.outputs[0]):  # never read an earlier run's report
            os.remove(probe.outputs[0])
        rec = _run_op(probe, None, None, checks)
        failing = []
        if os.path.exists(probe.outputs[0]):
            with open(probe.outputs[0]) as fh:
                failing = [c["name"] for c in json.load(fh)["checks"] if not c["passed"]]
        summary["blocker_probe"] = dict(probe.params, status=rec["status"], detail=rec["detail"],
                                        failing_checks=failing)
    correct = failed == 0
    if args.trace:
        traced_cycles = [c for c in cycles if c["traced"]]
        layer, calls = spans.layer_figures(
            tracer, [[r["op_id"] for r in c["ops"]] for c in traced_cycles])
        layer["cli.bytes_written"] = statistics.fmean(
            sum(r["bytes_written"] for r in c["ops"]) for c in traced_cycles)
        untraced = statistics.fmean(c["raw_wall_s"] for c in plain)
        traced_wall = statistics.fmean(c["raw_wall_s"] for c in traced_cycles)
        layer["trace.overhead_s"] = traced_wall - untraced
        self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        missing = [f for f in workloads.EXPECTED_CALLS[args.workload] if calls.get(f, 0) == 0]
        for f in missing:
            print(f"LAYER COVERAGE FAILURE: {f} recorded no calls on {args.workload}",
                  file=sys.stderr)
        correct = correct and not missing
        summary["trace"] = {
            "untraced_wall_s": untraced, "traced_wall_s": traced_wall,
            "self_sum_s": self_sum, "overhead_s": traced_wall - untraced,
            "calls_per_cycle": calls, "layers": layer, "missing_layers": missing,
        }
        figures, listed = layer, bench["per_layer"]
    else:
        figures = {"setup_s": summary["setup_s"]["median"],
                   "wall_s": summary["wall_s"]["median"], "peak_rss_mb": peak_rss_mb}
        listed = bench["end_to_end"]
    metrics = {m["name"]: {"value": float(figures.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}

    record = {
        "manifest": _manifest(args, ops),
        "summary": summary,
        "metrics": metrics,
        "correct": correct,
        "cycles": cycles,
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")

    _report(args, summary, metrics, path)
    print(json.dumps({"correct": correct, "attempted": len(all_ops), "failed": failed,
                      "metrics": metrics}))
    return 0


def _report(args, summary, metrics, path) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  record {path}")
    print(f"  {'setup_s':<22}{summary['setup_s']['median']:.6f} s   "
          f"(median of {len(summary['setup_s']['samples'])} imports, reference seconds; "
          f"{summary['setup_s']['raw_median']:.6f} s as timed)")
    print(f"  {'wall_s':<22}{summary['wall_s']['median']:.6f} s   "
          f"(per-operation medians over {summary['wall_s']['cycles']} cycles, summed, "
          f"reference seconds; {summary['wall_s']['raw_median']:.6f} s as timed)")
    ks = summary["kernel_s"]
    print(f"  {'calibration kernel':<22}{ks['median'] * 1e6:.1f} us median "
          f"({ks['min'] * 1e6:.1f}-{ks['max'] * 1e6:.1f}; reference {ks['reference'] * 1e6:.0f} us)")
    print(f"  {'peak_rss_mb':<22}{summary['peak_rss_mb']:.1f} MB")
    print(f"  {'error_rate':<22}{summary['error_rate']:.4f}     "
          f"({summary['failed']} of {summary['attempted']} operations failed)")
    for key, val in summary["per_kind"].items():
        extra = "  ".join(f"{k} {v:.6f} s" for k, v in val.items() if k not in ("median", "n"))
        print(f"  {key:<22}{val['median']:.6f} s   {extra}  n={val['n']}")
    if "blocker_probe" in summary:
        bp = summary["blocker_probe"]
        print(f"  blocker probe: validate --seed {bp['validate_seed']} {bp['status']}"
              f"{': ' + bp['detail'] if bp['detail'] else ''} {bp['failing_checks']}"
              "  (untimed, not counted)")
    if args.trace:
        tr = summary["trace"]
        print(f"  untraced cycle {tr['untraced_wall_s']:.6f} s, traced cycle "
              f"{tr['traced_wall_s']:.6f} s, overhead {tr['overhead_s']:.6f} s, "
              f"sum of layer self_s {tr['self_sum_s']:.6f} s")
        for name, m in metrics.items():
            print(f"  {name:<50}{m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
