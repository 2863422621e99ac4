#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
delinq libraries from src/) in Release mode under $CARGO_TARGET_DIR (default
.bench_build), then runs one workload and passes its output through. The
last line of stdout is the JSON result; build output goes to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("static_corpus", "sim_validate", "store_replay")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def build_dir(root: Path) -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = root / base
    return base / "perfbench"


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"timed out: {' '.join(map(str, cmd))}")
    if code != 0:
        raise RuntimeError(f"failed ({code}): {' '.join(map(str, cmd))}")


def build(root: Path) -> Path:
    """Configures and builds perfbench_run; returns the binary's path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no program sources under {root / 'src'}")
    out = build_dir(root)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(root / "perfbench"), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", str(out), "-j", jobs,
                 "--target", "perfbench_run"], BUILD_TIMEOUT_S)
    return out / "perfbench_run"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs that exercise every code path")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    root = repo_root()
    try:
        binary = build(root)
    except (RuntimeError, OSError) as err:
        print(f"error: build: {err}", file=sys.stderr)
        return 1

    work = build_dir(root) / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("error: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = out.rstrip("\n").splitlines()
    if not lines:
        print("error: benchmark printed nothing", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError("unexpected keys")
    except ValueError as err:
        print(f"error: malformed result line: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
