#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of an agenp checkout. It builds perfbench/main.exe
from source with dune (release profile, build directory .bench_build,
dune cache off), runs the workload, and passes the program's output
through. The last line of standard output is the result JSON object, with
the metrics BENCHMARK.json declares, in its order: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The program must
report every end-to-end metric and no undeclared one; a per-layer metric it
does not report (a layer the workload does not exercise) reads 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
WORKLOADS = ("xacml-steady", "xacml-drift", "tenant-stream")
# a run must end within 180 s; the build has its own, longer allowance
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of an agenp checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release",
                "--build-dir", BUILD_DIR, "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    started = time.monotonic()
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"{args.workload} exited with {proc.returncode}")

    result = json.loads(lines[-1])
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    wrong = sorted(k for k, v in got.items() if want.get(k) != v["unit"])
    if wrong:
        sys.stderr.write(out)
        fail(f"metrics undeclared in BENCHMARK.json or in another unit: {wrong}")
    missing = [name for name in want if name not in got]
    if missing and not args.trace:
        sys.stderr.write(out)
        fail(f"end-to-end metrics not reported: {missing}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    # a layer this workload does not exercise reads 0
    for name in missing:
        print(f"{name:<30} {0.0:16.6f} {want[name]:<6} not exercised here")
    print(f"(run took {time.monotonic() - started:.1f} s)")
    result["metrics"] = {
        name: got.get(name, {"value": 0.0, "unit": unit})
        for name, unit in want.items()
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
