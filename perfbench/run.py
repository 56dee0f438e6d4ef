#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload dfa_rules --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (and the sparseap libraries it links) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Extra flags (--tiny,
--corrupt-digest) are passed through; see perfbench/README.md.

SPARSEAP_* variables are removed from the benchmark's environment, so
it always measures the deployed defaults.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sparseap sources under {ROOT}; nothing to benchmark")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit, or a digest of src/ when there is no git."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        if r.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for d, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    out = build_dir()
    binary = build(out)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPARSEAP_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", out, "--commit", source_id()] + extra
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
