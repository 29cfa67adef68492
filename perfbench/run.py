"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cginvert is imported from `src/`.
"""

import os
import sys

# one BLAS thread, fixed before NumPy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    if not os.path.isfile(os.path.join(SRC, "cginvert", "__init__.py")):
        print(f"perfbench: no cginvert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
