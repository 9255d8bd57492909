#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk_tcp --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 35]

The first form builds perfbench/src/xlbench.exe with dune and runs one
workload in a fresh process; its last line of output is the JSON result.
The second runs every workload untraced and traced, each in its own
process, and exits non-zero if any of them fails a check.

The build and every output stay inside the checkout: dune's shared cache
is switched off and traces go to perfbench/out/.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["bulk_tcp", "rr_loaded", "mesh_churn"]
TARGET = "./perfbench/src/xlbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "src", "xlbench.exe")
OUT = os.path.join("perfbench", "out")
# A run measures for at most a minute; one still going after this long
# has hung, and is stopped.
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for path in ["dune-project", "lib", os.path.join("perfbench", "src", "dune")]:
        if not os.path.exists(path):
            fail("run from the root of a repository checkout (missing %s)" % path, 2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", TARGET],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
    except FileNotFoundError:
        fail("dune is not installed", 2)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed", 1)


def run_one(workload, seed, seconds, trace):
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", OUT,
    ]
    os.makedirs(OUT, exist_ok=True)
    # The traced run's runtime-event ring file goes there too.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=OUT)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 3)
    return proc.returncode, out.decode(errors="replace")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    a = p.parse_args()
    if not a.all and a.workload is None:
        p.error("--workload or --all is required")

    check_checkout()
    build()

    if not a.all:
        code, out = run_one(a.workload, a.seed, a.seconds, a.trace)
        sys.stdout.write(out)
        sys.stdout.flush()
        sys.exit(code)

    worst = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            print("=== %s  seed %d  trace %d" % (w, a.seed, trace), flush=True)
            code, out = run_one(w, a.seed, a.seconds, trace)
            sys.stdout.write(out)
            sys.stdout.flush()
            if code != 0:
                print("=== %s trace %d FAILED (exit %d)" % (w, trace, code), flush=True)
                worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
