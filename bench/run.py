"""Benchmark entry point: time to a checked separation verdict.

Run from the root of a checkout:

    python3 bench/run.py --workload p4-rays --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See bench/README.md.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Default OpenBLAS threading spins workers on a small machine; the
# workloads are single-threaded by design.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not (SRC / "raysep" / "__init__.py").is_file():
        print(f"bench: no raysep sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:       # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import raysep
    if Path(raysep.__file__).resolve().parent != (SRC / "raysep").resolve():
        print(f"bench: raysep imported from {raysep.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
