#!/usr/bin/env python3
"""Check that the traced run's counts repeat exactly.

    python3 galbench/check_counts.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs the traced run (--trace 1) of each workload twice with the same seed
and compares every per-layer metric whose unit is "count" or "ratio" (the
ratios are quotients of counts).  The traced runs also check that the
layer-by-layer replay reproduces Driver.run bit for bit: a mismatch shows
as a failed op.  Exits 1 if any count differs or any op failed.  Run it
from the repository root; the default is every workload in BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys


def traced(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "galbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        workloads = args.workloads or [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for w in workloads:
        a, b = (traced(w, args.seed, args.seconds) for _ in range(2))
        for r in (a, b):
            if r["failed"] or not r["correct"]:
                ok = False
                print("%s: %d of %d ops failed" % (w, r["failed"], r["attempted"]))
        for name, m in a["metrics"].items():
            if m["unit"] not in ("count", "ratio"):
                continue
            same = m["value"] == b["metrics"][name]["value"]
            ok = ok and same
            print("%-16s %-32s %-14.10g %-14.10g %s" % (
                w, name, m["value"], b["metrics"][name]["value"],
                "same" if same else "DIFFERS"))
    print("counts repeat exactly" if ok else "counts differ or ops failed")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
