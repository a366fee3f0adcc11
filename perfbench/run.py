#!/usr/bin/env python3
"""Build the Na Kika benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload edge_hit --seed 1 --seconds 10 --trace 0

Workloads: edge_hit, simm_edge, cluster_miss. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see perfbench/METRICS.md).
The build goes to .bench_build/perfbench under the current directory and is
reused by later runs; the traced run writes its spans next to it. The last
line of standard output is the JSON result; build output goes to stderr.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over the library sources, so a result names the code it measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    if not (ROOT / "src" / "proxy" / "nakika_node.hpp").is_file():
        fail(f"no Na Kika sources under {ROOT / 'src'}; run from the repository root")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", str(BUILD), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return BUILD / "nkbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--src-digest", source_digest(),
           "--trace-dir", str(BUILD / "trace")]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        fail(f"benchmark exited with code {result.returncode}")


if __name__ == "__main__":
    main()
