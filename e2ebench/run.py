#!/usr/bin/env python3
"""Build and run the end-to-end mpc_orient + mpc_color benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Run it from the repository root. The benchmark program is compiled from
src/ by e2ebench/CMakeLists.txt into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench); later runs only re-check that build. The program's
stdout is passed through unchanged, so its last line is the result JSON.
--selftest also compares each workload's counts at the reference seed with
the reference counts recorded in e2ebench/workloads.json.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def load_workloads():
    with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
        return json.load(f)


def parse_args(workloads):
    parser = argparse.ArgumentParser(
        prog="e2ebench/run.py", allow_abbrev=False,
        description="End-to-end mpc_orient + mpc_color benchmark.")
    parser.add_argument("--workload", choices=sorted(workloads["workloads"]))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    run_flags = (args.workload, args.seed, args.seconds, args.trace)
    if args.selftest:
        if any(v is not None for v in run_flags):
            parser.error("--selftest takes no other flags")
    elif any(v is None for v in run_flags):
        parser.error("--workload, --seed, --seconds and --trace are required")
    elif args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    elif args.seconds < 1:
        parser.error(f"--seconds must be at least 1, got {args.seconds}")
    return args


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(target), "e2ebench")


def build(out_dir):
    """Configure once, then let the build tool re-check timestamps."""
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"e2ebench: build step failed: {' '.join(cmd)}")
    return os.path.join(out_dir, "e2e_bench")


def source_stamp():
    """Commit (when run from a git checkout) and a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def check_reference_counts(lines, workloads):
    ok = True
    seed = workloads["reference_seed"]
    for line in lines:
        if not line.startswith("{"):
            continue
        row = json.loads(line)
        if row.get("selftest") != "counts" or row["seed"] != seed:
            continue
        want = workloads["workloads"][row["workload"]]["reference_counts"]
        same = row["counts"] == want
        ok &= same
        print(f"{'ok  ' if same else 'FAIL'} {row['workload']} seed {seed}: "
              f"counts {'match' if same else 'differ from'} workloads.json"
              + ("" if same else f" (want {want}, got {row['counts']})"))
    return ok


def main():
    workloads = load_workloads()
    args = parse_args(workloads)
    binary = build(build_dir())
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(json.dumps({"source": source_stamp()}), flush=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode:
        sys.exit(proc.returncode)
    if args.selftest and not check_reference_counts(
            proc.stdout.splitlines(), workloads):
        sys.exit(1)


if __name__ == "__main__":
    main()
