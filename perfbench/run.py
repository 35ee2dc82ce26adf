#!/usr/bin/env python3
"""Build the Scorpion server and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload analyst_session|stream_monitor \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`), run artefacts (CSV files, span files) to `.bench_out`.
Build output goes to stderr; the benchmark's report goes to stdout and
its last line is the JSON result. Exits non-zero, without a result, when
the program's sources are missing or a build fails.
"""

import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("analyst_session", "stream_monitor")


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def parse(argv):
    args = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    it = iter(argv)
    for flag in it:
        if flag not in args:
            fail(f"unknown flag {flag}")
        value = next(it, None)
        if value is None:
            fail(f"missing value for {flag}")
        args[flag] = value
    if args["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    for flag in ("--seed", "--seconds"):
        if not args[flag].isdigit():
            fail(f"{flag} must be a whole number")
    if args["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return args


def build(cmd, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}", 1)


def main():
    args = parse(sys.argv[1:])
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    os.chdir(root)
    for needed in ("Cargo.toml", "src/bin/scorpion.rs", "crates/server/Cargo.toml"):
        if not os.path.exists(needed):
            fail(f"{needed} is missing: run from a checkout of the Scorpion repository")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(["cargo", "build", "--release", "--offline", "--quiet", "--bin", "scorpion"], target)
    build(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        target,
    )
    bench = os.path.join(target, "release", "scorpion-perfbench")
    cmd = [
        bench,
        "--workload", args["--workload"],
        "--seed", args["--seed"],
        "--seconds", args["--seconds"],
        "--trace", args["--trace"],
        "--server", os.path.join(target, "release", "scorpion"),
        "--out", os.path.abspath(".bench_out"),
    ]
    # Its own session, so whatever it started (the server) can be
    # reaped as a group if it dies early or this script is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait()
    finally:
        reap(proc)
    sys.exit(code)


def reap(proc):
    """Kills and waits out the benchmark's process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    main()
