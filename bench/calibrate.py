"""Calibration kernels, timed in a helper process: ``python3 bench/calibrate.py KERNEL``.

For each line read on stdin the helper runs the kernel once and writes its
time in seconds on stdout; it exits at end of input.  Running the kernels in
their own long-lived process keeps their speed independent of the runner's
heap, which differs with the seed's inputs.  No kernel touches pencilkit.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

MATRIX = np.random.default_rng(12345).standard_normal((120, 120))


def lapack() -> None:
    """Python integer loop plus a small SVD and QR: tracks dense-kernel workloads."""
    acc = 0
    for i in range(20000):
        acc += i * i
    np.linalg.svd(MATRIX, compute_uv=False)
    np.linalg.qr(MATRIX)


def dict_arith() -> None:
    """A dict of complex values built and summed: tracks sparse-dict workloads."""
    d = {}
    for i in range(20000):
        d[(i * 7919) % 50021] = complex(i, -i)
    acc = 0.0
    for k, v in d.items():
        acc += v.real * k


KERNELS = {"lapack": lapack, "dict": dict_arith}


def main() -> int:
    kernel = KERNELS[sys.argv[1]]
    for _ in sys.stdin:
        t0 = time.perf_counter()
        kernel()
        print(time.perf_counter() - t0, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
