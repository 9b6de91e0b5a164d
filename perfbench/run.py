#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build)/perfbench as a Release build; later runs only re-check it.
The last line of standard output is the result JSON; per-run results and
the traced run's spans are also written under <build dir>/results.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log, timeout):
    """Runs cmd with its output appended to log; exits with the log tail on
    failure."""
    with open(log, "a") as out:
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(Path(log).read_text()[-4000:])
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(build_root):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    log.write_text("")
    if not (build_dir / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(min(os.cpu_count() or 1, 4))
    run_logged(["cmake", "--build", str(build_dir), "--parallel", jobs], log,
               BUILD_TIMEOUT_S)
    return build_dir / "ibsec_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)
    results = build_root / "results"
    results.mkdir(parents=True, exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(results)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
