#!/usr/bin/env python3
"""Determinism self-test of the benchmark's archive workloads.

    python3 perfbench/selftest.py [--seed 1] [--other-seed 2]

Runs the traced benchmark (perfbench/run.py --trace 1) twice with one
seed and once with another, for archive-smooth and archive-sparse.  The
two same-seed runs must agree exactly on the archive SHA-256, the ratio
and every exact per-layer count; the other seed must change the archive
and the ratio, so a claim can be re-checked on a seed not used while
writing it.  Exits 1 on any disagreement.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are counts or byte ratios, not timings.
EXACT = (
    "zlite.shrink",
    "huffman.tree_bytes_per_chunk",
    "huffman.bits_per_symbol",
    "sz.predictable_fraction",
    "crypto.bytes_per_raw_byte",
    "archive.extract_bytes_read_ratio",
    "archive.extract_chunks_per_read",
    "archive.frame_overhead_bytes",
)


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit("selftest: %s seed %d failed its output checks" %
                 (workload, seed))
    exact = {}
    for line in lines:
        if line.startswith("exact:"):
            exact.update(re.findall(r"(\S+)=(\S+)", line))
    for name in EXACT:
        exact[name] = repr(result["metrics"][name]["value"])
    return exact


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--other-seed", type=int, default=2)
    args = ap.parse_args()
    ok = True
    for workload in ("archive-smooth", "archive-sparse"):
        a = traced_run(workload, args.seed)
        b = traced_run(workload, args.seed)
        c = traced_run(workload, args.other_seed)
        for name in sorted(a):
            same = a[name] == b[name]
            print("%s %-34s %s  %s" % (workload, name, a[name],
                                       "same" if same else "DIFFERS: " + b[name]))
            ok &= same
        for name in ("archive_sha256", "ratio"):
            if a[name] == c[name]:
                print("%s %s did not change with seed %d" %
                      (workload, name, args.other_seed))
                ok = False
    print("selftest:", "pass" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
