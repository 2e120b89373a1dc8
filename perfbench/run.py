#!/usr/bin/env python3
"""The repo benchmark, as one command.

    python3 perfbench/run.py --workload analytic|paged_rw|fleet \
        --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout. It builds the system and the driver from
source into .bench_build/ (the first run builds everything; later runs
rebuild only what changed),
runs one workload in its own process, and prints the driver's report. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. A result record with the full metric
set and an environment stamp is written to .bench_results/ (or --out).

Exit status: 0 when every answer was right, 1 on a wrong answer, 2 when the
build, the run or the metric set failed.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
RESULTS_DIR = ".bench_results"
BUILD_TYPE = "Release"
# Claims are confirmed on this seed only; it is never used while a change is
# being written (see README.md).
CONFIRM_SEED = 913_742_651


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root):
    """Configures and builds the driver; returns its path or None."""
    build_dir = os.path.join(root, BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, *generator,
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "perfbench_driver", "perfbench_helpers_test"],
    ]
    for step in steps:
        proc = subprocess.run(step, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(build_dir, "perfbench_driver")


def compiler_id(root):
    path = os.path.join(root, BUILD_DIR, "CMakeCache.txt")
    try:
        with open(path) as f:
            cache = f.read()
    except OSError:
        return "unknown"
    cxx = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    if not cxx:
        return "unknown"
    try:
        out = subprocess.run([cxx.group(1), "--version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
        return out.splitlines()[0].strip()
    except (OSError, IndexError):
        return cxx.group(1)


def source_digest(root):
    """SHA-256 over the system's sources and the benchmark: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result record path")
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        spec = load_spec(root)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2

    driver = build(root)
    if driver is None:
        return 2

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out = args.out or os.path.join(RESULTS_DIR, stem + ".json")
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD_DIR, "work")]
    if args.trace:
        cmd += ["--spans-out", os.path.join(RESULTS_DIR, stem + ".spans.jsonl")]
    # Set-up takes well under a second and verification a few seconds, but
    # verification grows with the window, so the limit does too. Up to a
    # 56-second window it stays at 170 s, so a hung driver is stopped before
    # the whole command has run three minutes.
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=max(170, 3 * args.seconds))
    except subprocess.TimeoutExpired:
        log("driver timed out")
        return 2
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if result is None or proc.returncode not in (0, 1):
        log(f"driver exited {proc.returncode} without a result")
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}")
            return 2
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    record = dict(result)
    record["stamp"] = {
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "compiler": compiler_id(root),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "platform": platform.platform(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
