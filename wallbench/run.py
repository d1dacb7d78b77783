#!/usr/bin/env python3
"""Builds and runs the ppj wall-clock benchmark.

usage (from the repository root):
  python3 wallbench/run.py --workload scan|sort|service|scaleout \
      --seed N --seconds S --trace 0|1
  python3 wallbench/run.py --self-test

The first run configures and builds wallbench and ppjctl from the
repository's sources into $CARGO_TARGET_DIR (default .bench_build); later
runs rebuild incrementally. Build output goes to stderr. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.

After the run, the transfer count per join of the single-algorithm
workloads is cross-checked against `ppjctl join` at the same shape; any
difference marks the run incorrect. Exit status: 0 when every check
passed, 1 when a check failed, 2 when the build or the run could not
complete (no result line).
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "wallbench",
                    "ppjctl", "-j", jobs], stdout=sys.stderr, check=True)


def ppjctl_transfers(out, spec):
    """Transfers per join `ppjctl join` reports for the shape in `spec`."""
    args = [os.path.join(out, "ppj", "tools", "ppjctl"), "join",
            "--alg=" + spec["alg"], "--size-a=%d" % spec["size_a"],
            "--size-b=%d" % spec["size_b"], "--n=%d" % spec["n"],
            "--s=%d" % spec["s"], "--m=%d" % spec["m"],
            "--shards=%d" % spec["shards"]]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=60)
    m = re.search(r"host observed .*\btransfers=(\d+)", proc.stdout)
    if proc.returncode != 0 or m is None:
        return None
    return int(m.group(1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 2
    binary = os.path.join(out, "wallbench")
    if a.self_test:
        return subprocess.run([binary, "--self-test"],
                              timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        cmd += ["--dump", os.path.join(
            out, "spans-%s-%d.json" % (a.workload, a.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stdout.write(proc.stdout)
        print("benchmark exited %d without a result" % proc.returncode,
              file=sys.stderr)
        return 2
    print("\n".join(lines[:-1]))

    status = proc.returncode
    for line in lines:
        if not line.startswith("CROSSCHECK "):
            continue
        spec = json.loads(line[len("CROSSCHECK "):])
        want = ppjctl_transfers(out, spec)
        if want is None or float(want) != float(spec["transfers"]):
            print("cross-check failed: %s transfers per join, ppjctl join "
                  "reports %s" % (spec["transfers"], want), file=sys.stderr)
            result["correct"] = False
            status = 1
        else:
            print("cross-check: transfers per join %d == ppjctl join" % want)
    sys.stdout.flush()
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
