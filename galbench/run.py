#!/usr/bin/env python3
"""Build and run the Galley benchmark from the root of a source checkout.

    python3 galbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness and the galley CLI with dune, runs one workload, and
relays the harness output.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Exits with a
non-zero code, without printing a result, when the build or the run fails.
See galbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HARNESS = "galbench/harness.exe"
CLI = "bin/galley_cli.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("galbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a Galley source checkout", 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH", 2)

    # Build only what the benchmark runs; dune's output goes to stderr.
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "./" + HARNESS, "./" + CLI],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        fail("build failed")

    cmd = [os.path.join("_build", "default", HARNESS),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join("_build", "default", CLI)]
    # One vCPU for the harness and the serve daemon it starts: requests
    # and responses then hand over on one CPU instead of waking the other.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    # A session of its own, so a timeout can stop the harness together
    # with the serve daemon it starts.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        fail("harness exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
