#!/usr/bin/env python3
"""Build and run the ATTILA simulator benchmark.

Usage (from the repository root):

    python3 simbench/run.py --workload shadows --seed 0 --seconds 10 --trace 0

The first call configures and builds the simulator from src/ into
.bench_build/simbench (Release); later calls only re-check the build.
Then it runs one workload in the simbench binary, whose last stdout
line is the result object {"correct", "attempted", "failed",
"metrics"}.  See simbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "simbench"
BINARY = BUILD_DIR / "simbench"


def fail(message):
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    """The environment without ATTILA_* overrides, so every run
    simulates exactly the configuration the benchmark names."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("ATTILA_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "simbench", "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=child_env()).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log})")


def commit():
    """HEAD's commit when the tree is a git checkout, else 'unknown'.
    Reads .git directly so no parent repository is ever consulted."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_hash():
    """SHA-256 over the simulator and benchmark sources, so a record
    names its code even where no git metadata exists."""
    digest = hashlib.sha256()
    for tree in (ROOT / "src", BENCH_DIR):
        for path in sorted(tree.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args, extra = parser.parse_known_args()
    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--commit", commit(),
               "--source-hash", source_hash()] + extra
    return subprocess.run(command, env=child_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
