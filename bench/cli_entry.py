"""Traced cli-cold child: ``python3 bench/cli_entry.py SPANS_FILE ARGV...``.

Installs the benchmark's wrappers, runs ``pencilkit.cli.main(ARGV)`` and
writes the recorded spans and kernel calls to SPANS_FILE.  Stdout is the
CLI's own, byte for byte.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tracer import Tracer  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_task()
    import pencilkit.cli

    try:
        return pencilkit.cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
