#!/usr/bin/env python3
"""Build the layer-ledger benchmark in Release and run one workload.

    python3 layerbench/run.py --workload serve-read|batch-scan|churn \
        --seed N --seconds S --trace 0|1
    python3 layerbench/run.py selftest

Run from the repository root. The library and the benchmark are built
from source into $CARGO_TARGET_DIR/layerbench (default
.bench_build/layerbench); snapshots and trace files go under .bench_out/.
Build output goes to stderr, so the last stdout line is the result JSON.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "lsh_ensemble.h")):
        print("layerbench: library sources not found under %s/src" % ROOT,
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "layerbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("layerbench: build failed: %s" % err, file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.setdefault("LSHE_THREADS", "2")
    if argv[:1] == ["selftest"]:
        cmd = [os.path.join(build_dir, "layerbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "layerbench")] + argv + [
            "--out", os.path.join(ROOT, ".bench_out")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("layerbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
