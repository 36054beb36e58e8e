"""chebcast measured-speedup benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mixture-d8 --seed 1 --seconds 35 --trace 0

Runs one workload in this process at the machine's default BLAS threading,
checks every output against computations made in perfbench/checks.py, prints
each metric by name with its unit, then one line ``perfbench-report {...}``
(what compare.py reads) and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` is the separate traced run that reports the
per-layer metrics. chebcast is imported from the checkout's src/.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    if not (SRC / "chebcast" / "__init__.py").is_file():
        print(f"error: no chebcast sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
