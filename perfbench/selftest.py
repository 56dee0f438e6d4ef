#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json, runs perfbench/run.py at a tiny
size (--tiny, 1 s) in both modes and checks that the run is correct and
prints exactly the metrics BENCHMARK.json names for that mode, each
with its unit. The traced run's layer shares must sum to 1. Then it
proves the gates are live: a run fed a corrupted expected digest must
exit nonzero with correct=false, and a copy of the benchmark without
the sources beside it must exit nonzero without printing a result.
Exits nonzero on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--seed", "1",
           "--seconds", "1"] + args
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def result_of(r):
    lines = r.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check(cond, what):
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: bench["end_to_end"], 1: bench["per_layer"]}

    for w in (x["name"] for x in bench["workloads"]):
        for trace, want in modes.items():
            r = run(["--workload", w, "--trace", str(trace), "--tiny"])
            tag = f"{w} --trace {trace}"
            check(r.returncode == 0, f"{tag}: exit 0 ({r.stderr[-500:]})")
            res = result_of(r)
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{tag}: correct, nothing failed")
            got = res["metrics"]
            check(set(got) == {m["name"] for m in want},
                  f"{tag}: exactly the {len(want)} metrics of BENCHMARK.json")
            wrong = [m["name"] for m in want
                     if got[m["name"]]["unit"] != m["unit"] or
                     not isinstance(got[m["name"]]["value"], (int, float))]
            check(not wrong, f"{tag}: every value a number in its unit {wrong or ''}")
            if trace:
                shares = sum(got[f"share.{k}"]["value"]
                             for k in ("kernel", "service", "wire"))
                check(abs(shares - 1.0) < 1e-6, f"{tag}: layer shares sum to 1")
            else:
                check(got["success_rate"]["value"] == 1.0, f"{tag}: success_rate 1")

    r = run(["--workload", "dfa_rules", "--trace", "0", "--tiny", "--corrupt-digest"])
    res = result_of(r)
    check(r.returncode != 0 and res is not None and not res["correct"]
          and res["failed"] > 0,
          "corrupted expected digest: nonzero exit, correct=false")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        r = run(["--workload", "dfa_rules", "--trace", "0"], cwd=bare, env=env)
        check(r.returncode != 0 and not r.stdout.strip(),
              "without sources: nonzero exit, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
