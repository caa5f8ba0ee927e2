"""Benchmark command for shrinkcut: one workload per run.

    python3 perfbench/run.py --workload mis-shrink --seed 1 --seconds 35 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics; see perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Pin BLAS/OpenMP pools to one thread before numpy is imported, so a run is
# the plain single-threaded baseline; the harness records the setting.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

# The benchmark's own modules sit beside this script, which is already on
# sys.path; the program is imported from the checkout's src/.
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

try:
    import shrinkcut
except ImportError as exc:
    sys.exit(f"perfbench: cannot import shrinkcut from {SRC}: {exc}")
if Path(shrinkcut.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: imported shrinkcut from {shrinkcut.__file__}, not from {SRC}")

import harness  # noqa: E402

if __name__ == "__main__":
    sys.exit(harness.main(sys.argv[1:], PROCESS_START))
