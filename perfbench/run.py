#!/usr/bin/env python3
"""Host-time benchmark of the adaptive loop.

Run from the repository root:

    python3 perfbench/run.py --workload table4-seq --seed 42 --seconds 40 --trace 0

Builds the repository's libraries and the benchmark program from source into
.bench_build/perfbench (Release), then runs one workload. The program prints
every metric by name with its unit and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 runs the workload once untraced and once
traced and reports the per-layer split. Workload design and the predicted
layer-to-end-to-end mapping: perfbench/design.json.
"""

import argparse
import os
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="table4-seq, table4-codec-k3 or explore-smoke")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))

    # Build output goes to stderr so the program's JSON stays the last line
    # of standard output.
    for cmd in (
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ):
        built = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2

    sys.stdout.flush()
    bench = subprocess.run([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--bench-dir", bench_dir,
        "--out-dir", os.path.join(root, ".bench_build", "perfbench-out"),
    ])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
