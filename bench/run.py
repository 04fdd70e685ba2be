"""Benchmark of the gdistill library, run from the root of a source checkout.

    python3 bench/run.py --workload pipeline_small --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

The library is imported from ./src of the checkout, never from an installed
copy.  BLAS runs single-threaded: the benchmark has one caller, and on two
cores OpenBLAS threads made 8x8 pipeline latencies swing from 15 to 150 ms.
The last line of stdout is the result as JSON; the exit code is non-zero when
a label or determinism check fails.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "gdistill" / "__init__.py").is_file():
        sys.exit(f"bench: no gdistill sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import gdistill

    if Path(gdistill.__file__).resolve().parent != SRC / "gdistill":
        sys.exit(f"bench: imported gdistill from {gdistill.__file__}, not {SRC}")
    from harness import main

    sys.exit(main())
