"""Fixed-seed benchmark for shapefuse: generate, train and evaluate.

Usage, from the repository root:

    python3 perfbench/run.py --workload generate --seed 1 --seconds 20 --trace 0

One closed-loop client runs one workload in this process: it sets up,
warms up, then runs the workload's operation back to back for `--seconds`
and checks every output. With `--trace 0` it prints the end-to-end metrics;
with `--trace 1` it wraps the package's layer functions in spans and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """One BLAS thread, set before numpy is imported. The client is one
    closed loop; with two threads on a 2-core VM, six 300 x 300 matrix
    products took 5 ms or 95 ms depending on the load on the other core."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def parse_args(spec: dict, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up, one warm-up op, at least one measured op")
    return parser.parse_args(argv)


if __name__ == "__main__":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(spec)
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    sys.exit(harness.main(args, spec))
