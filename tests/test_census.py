"""Factorizations over the golden ``analyze`` and ``chains`` commands are counted and pinned.

The census wraps the SVD entry points of ``pencilkit.linalg`` (``svdvals``,
``norm2``, ``thin_svd`` and ``svals_vh``, through which ``singular_values``,
``smallest_right`` and ``kernel`` go) with a counter that hashes each input
matrix, runs every golden ``analyze`` and ``chains`` command in this
process, and counts a call as repeated when the same command has already
passed a bitwise-equal matrix to one of them.  The counts were the same at
one and two BLAS threads.  A change that adds a factorization, or removes
one, updates the pins here deliberately.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from pencilkit import linalg
from pencilkit.cli import EXIT_OK, main
from test_cli_golden import CASES
from test_scale import _strict_json

COMMANDS = [argv for argv in CASES if argv[0] in ("analyze", "chains")]
KERNELS = ("svdvals", "norm2", "thin_svd", "svals_vh")


@pytest.fixture(scope="module")
def census():
    """Per command: calls per kernel, repeated calls, and stdout."""
    mp = pytest.MonkeyPatch()
    seen: set[bytes] = set()
    current: dict = {}

    def counting(name, fn):
        def wrapped(mat, *args):
            key = hashlib.sha1(repr((mat.shape, mat.dtype.str)).encode()
                               + np.ascontiguousarray(mat).tobytes()).digest()
            current["calls"][name] = current["calls"].get(name, 0) + 1
            current["repeats"] += key in seen
            seen.add(key)
            return fn(mat, *args)

        return wrapped

    for name in KERNELS:
        mp.setattr(linalg, name, counting(name, getattr(linalg, name)))
    out = {}
    try:
        for argv in COMMANDS:
            seen.clear()
            current.update(calls={}, repeats=0)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == EXIT_OK
            out[" ".join(argv)] = {**current, "stdout": buf.getvalue()}
    finally:
        mp.undo()
    return out


def test_repeated_factorizations_are_pinned(census):
    assert len(census) == 84
    assert sum(sum(c["calls"].values()) for c in census.values()) == 1038
    assert sum(c["repeats"] for c in census.values()) == 116


def test_chains_takes_one_norm_of_each_section_matrix(census):
    # the left chain reads the norms the right chain computed, through the adjoint
    chains = {cmd: c for cmd, c in census.items() if cmd.startswith("chains")}
    assert chains and all(c["calls"]["norm2"] == 2 for c in chains.values())


def test_chains_stdout_is_strict_json(census):
    for cmd, c in census.items():
        if cmd.startswith("chains"):
            _strict_json(c["stdout"])
