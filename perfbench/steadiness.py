#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads dfa_rules,...]
                                    [--out perfbench/steadiness/batch.json]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
run_seconds of BENCHMARK.json, then prints, per workload and end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median beside the metric's bound and a third of it.
--out writes the same as JSON, with every raw value and each run's
summary line (report count, samples, CPU vs wall seconds, per-window
throughput).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {r.returncode}\n{r.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["summary"] = lines[-2] if len(lines) > 1 else ""
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    report = {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    for w in workloads:
        results = [run_once(w, s, bench["run_seconds"]) for s in args.seeds]
        if not all(r["correct"] for r in results):
            sys.exit(f"{w}: a run was not correct")
        rows = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            rows[m["name"]] = summarize(vals)
            s = rows[m["name"]]
            print(f"{w:14s} {m['name']:16s} median {s['median']:12.6g} "
                  f"IQR/median {s['spread']:7.2%}  bound {m['bound']:.0%} "
                  f"(third {m['bound'] / 3:.1%})", flush=True)
        rows["summary_lines"] = [r["summary"] for r in results]
        report["workloads"][w] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
