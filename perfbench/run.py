#!/usr/bin/env python3
"""Builds and runs the szsec repository benchmark.

    python3 perfbench/run.py --workload archive-smooth --seed 1 \
        --seconds 25 --trace 0

Run it from the root of a source checkout.  The first call configures
the repository's own CMake project (Release) with perfbench/perfbench.cmake
as its project include and builds the szsec_perfbench target into
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check the
build.  The measuring program then prints its report, ending with one
JSON line; see perfbench/README.md for the workloads and metrics.

Exit status: 0 when every output check passed, 1 when one failed or the
result line lacks a metric BENCHMARK.json declares, 2 when the program
cannot be built (e.g. the library sources are missing).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("archive-smooth", "archive-sparse", "service-mix")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path):
    with open(log_path, "w") as log:
        rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                            stderr=subprocess.STDOUT).returncode
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("command failed (%d): %s" % (rc, " ".join(cmd)))


def build(build_root):
    for needed in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("library sources not found (%s missing)" % needed)
    cmake_dir = os.path.join(build_root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DCMAKE_PROJECT_szsec_INCLUDE=" +
                    os.path.join(HERE, "perfbench.cmake")],
                   os.path.join(build_root, "configure.log"))
    run_logged(["cmake", "--build", cmake_dir, "--target", "szsec_perfbench",
                "-j", "4"], os.path.join(build_root, "build.log"))
    return os.path.join(cmake_dir, "szsec_perfbench")


def declared_metrics(trace):
    """{name: unit} BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(build_root)
    workdir = os.path.join(build_root, "run")
    os.makedirs(workdir, exist_ok=True)

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", os.path.relpath(workdir, ROOT)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        fail("the measuring program printed no result (exit %d)"
             % proc.returncode, 1)
    rc = proc.returncode
    want = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        print("perfbench: metrics differ from BENCHMARK.json: %s"
              % sorted(set(want.items()) ^ set(got.items())), file=sys.stderr)
        result["correct"] = False
        rc = rc or 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.exit(rc)


if __name__ == "__main__":
    main()
