"""The calibration kernel, in a process of its own.

    python3 benchmark/kernel.py

For each line it reads on standard input it times the kernel once and
writes the seconds taken as one line on standard output; it ends at the
end of its input.  It imports numpy but not charvar, so nothing charvar
does to its own process (BLAS thread settings, GC thresholds, numpy error
state, background threads) can change the kernel's time.  worker.py starts
it after set-up, with the worker's fixed environment.
"""

import sys
import time

import numpy as np

_A = np.random.default_rng(0).standard_normal((8, 8))
_B = np.random.default_rng(1).standard_normal((24, 8))


def kernel_s() -> float:
    """Seconds taken by small matrix products and SVDs with Python
    arithmetic, the same mix as charvar's own work.  Its time tracks the
    machine's speed from moment to moment, so run.py can scale op times
    by it."""
    start = time.perf_counter()
    for _ in range(400):
        _A @ _A.T
        np.linalg.svd(_B, full_matrices=False)
        sum(x * 0.5 for x in range(40))
    return time.perf_counter() - start


def main() -> int:
    for _ in sys.stdin:
        print(repr(kernel_s()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
