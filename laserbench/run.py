#!/usr/bin/env python3
"""Runs one workload of the LASER benchmark (BENCHMARK.json lists them).

    python3 laserbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout. It builds laserbench/, which
compiles the engine from src/, into $CARGO_TARGET_DIR (default
.bench_build), runs the workload in a scratch directory under .bench_run/,
and prints the result as one JSON object on the last line of standard
output. With --trace 1 the spans of the latest traced run of a workload are
kept in .bench_run/spans-<workload>.tsv, and a layer report goes to standard
error. The exit code is not 0 when the build or the run fails or an output
was wrong.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hw_lifecycle", "olap_scan", "point_lookup", "tpcc_ch")
RUN_DIR = ".bench_run"
# Each run must end within 180 s; the binary's own run is far shorter.
RUN_TIMEOUT_S = 170


def checkout_env():
    """The environment for child processes: temporary files stay in the
    checkout."""
    tmp = os.path.abspath(os.path.join(RUN_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the benchmark binary; returns its path."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "laserbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    env = checkout_env()
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "laserbench")


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    work_dir = os.path.join(RUN_DIR, "%s-%d" % (workload, os.getpid()))
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--dir", work_dir]
    if trace:
        args += ["--spans", os.path.join(RUN_DIR, "spans-%s.tsv" % workload)]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            env=checkout_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("run timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 1
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace == 1)
    if not lines:
        print("run failed with exit code %d and no result" % code, file=sys.stderr)
        return code or 1
    print(lines[-1])
    return code


if __name__ == "__main__":
    sys.exit(main())
