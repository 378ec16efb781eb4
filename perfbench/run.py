#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload halo --seed 1 --seconds 10 --trace 0

The driver (perfbench/driver.cpp) and the repository's src/ libraries are
compiled in Release into .bench_build/perfbench/ (or $CARGO_TARGET_DIR when
set) on first use. The driver's standard output is passed through; its last
line is the JSON result. Build failures exit non-zero without a result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def configured_for_here(out):
    """True when `out` holds a CMake tree configured from this checkout."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip() == HERE
    except OSError:
        pass
    return False


def build(out):
    steps = [["cmake", "--build", out, "--target", "perfbench", "-j", "4"]]
    if not configured_for_here(out):
        # A tree configured from another checkout cannot be reused.
        shutil.rmtree(out, ignore_errors=True)
        steps.insert(0, ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                rc = str(err)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build step failed (%s): %s\n"
                                 % (rc, " ".join(cmd)))
                return None
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["halo", "ckpt_stream", "crash_restart"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    # Checked before the build as well as in the driver, so a stray knob
    # fails fast instead of after a 45 s compile.
    knobs = sorted(k for k in os.environ if k.startswith("STARFISH_"))
    if knobs:
        sys.stderr.write("perfbench: unset %s; the benchmark runs the defaults\n"
                         % " ".join(knobs))
        return 2

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--metrics-out", os.path.join(out, "metrics-%s.json" % args.workload)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
