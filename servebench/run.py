#!/usr/bin/env python3
"""Serving benchmark of redodb_server.

Builds the server and the benchmark driver from source with dune, then
runs one workload against a freshly spawned server and prints the
result object as the last line of standard output:

    python3 servebench/run.py --workload put_deep --seed 1 --seconds 15 --trace 0

Logs and trace files go to servebench/_out/.  See servebench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
SERVER = "bin/redodb_server.exe"
DRIVER = "servebench/main.exe"
# A run must end within 180 s; the driver's own work is bounded well
# below this, so the timeout only guards against a hung server.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def stop_group(proc):
    """Kill the driver's process group (it and any server it spawned) and
    wait until every member has exited."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "bin/redodb_server.ml", "lib/serve/engine.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is missing: run from a full checkout of the repository" % need)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")

    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "./" + SERVER, "./" + DRIVER],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    os.makedirs(OUT, exist_ok=True)
    cmd = [
        os.path.join(ROOT, "_build", "default", DRIVER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", os.path.join(ROOT, "_build", "default", SERVER),
        "--out", OUT,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            stop_group(proc)
    sys.exit(code)


if __name__ == "__main__":
    main()
