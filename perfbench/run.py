#!/usr/bin/env python3
"""Build and run the JSweep layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls only re-check the configuration and the build. The last stdout line of a
single-workload run is the driver's JSON result. `--workload all` runs every
workload in turn, prints a summary table and exits non-zero if any solve
missed its serial reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["kobayashi_si", "swirled_lag", "reactor_keff"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure and build the driver; returns its path or None."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "jsweep_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "jsweep_perfbench")


def run_one(exe, workload, args, capture):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(build_dir(), f"spans_{workload}.json")]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None, text=True)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        return run_one(exe, args.workload, args, capture=False).returncode

    status = 0
    results = {}
    for w in WORKLOADS:
        proc = run_one(exe, w, args, capture=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if lines and lines[-1].startswith("{"):
            results[w] = json.loads(lines[-1])
    # Every workload reports the same metric names, in the same order.
    first = next(iter(results.values()), {"metrics": {}})["metrics"]
    print()
    print(f"{'metric':30}" + "".join(f"{w:>16}" for w in results))
    for m, v in first.items():
        row = "".join(f"{results[w]['metrics'][m]['value']:>16.6g}" for w in results)
        print(f"{m + ' [' + v['unit'] + ']':30}{row}")
    print(f"{'failed_frac':30}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>16.3g}" for w in results))
    print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
