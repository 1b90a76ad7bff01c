"""Benchmark entry point.

    python3 bench/run.py --workload closed_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  Prints a JSON line of run information (seed, versions, git SHA,
output digest, failure reasons) and, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    # Pin BLAS before numpy loads; set-up launches inherit the environment.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinphase" / "__init__.py").is_file():
        print(f"error: no spinphase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import spinphase

    if Path(spinphase.__file__).resolve().parent != SRC / "spinphase":
        print(f"error: imported spinphase from {spinphase.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    result, info = harness.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), SRC)
    info.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        git_sha=_git_sha(),
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
