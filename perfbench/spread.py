"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload validate-oracle --seeds 0-9 \
        [--trace 0] [--out perfbench/baseline.json]

Each run measures for ``run_seconds`` of BENCHMARK.json.  For every
metric it prints the median over the seeds and the spread, the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound from
BENCHMARK.json.  With ``--out`` the per-seed
figures, the summaries and one run manifest are merged into that JSON
file under the workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    doc = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    worst = 0.0
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            path = os.path.join(ROOT, "perfbench", "results",
                                f"{workload}-seed{seed}-trace{args.trace}.json")
            with open(path) as fh:
                record = json.load(fh)
            runs.append({"seed": seed, **line, "summary": record["summary"]})
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  f"failed={line['failed']}/{line['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()
                             if args.trace == 0), flush=True)
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / abs(median) if median else 0.0
            table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds.get(name)}
            if bounds.get(name) is not None:
                if name != "setup_s":
                    worst = max(worst, spread / bounds[name])
                print(f"  {name:<14} median {median:.6g}  spread {spread:.4f}  "
                      f"bound {bounds[name]}  spread/bound {spread / bounds[name]:.2f}")
        doc.setdefault(workload, {})[f"trace{args.trace}"] = {
            "seconds": seconds,
            "seeds": args.seeds,
            "metrics": table,
            "runs": runs,
            "manifest": record["manifest"],
        }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    if args.trace == 0:
        print(f"largest spread/bound, setup_s aside: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
