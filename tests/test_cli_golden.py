"""CLI stdout pinned by sha256 digest.

Covers ``analyze`` and ``chains`` on every fixture that builds a pencil at
n = 4, 7, 12, ``spectra --n 4 --steps 3,3`` and ``distance --sections 2,4,8``
on the same fixtures, ``dh-check`` on the two dH templates and on the
dissipative companion of ``diag_reciprocal`` (n = 16),
``examples run --all --seed 0``, ``examples list``, and ``simulate`` on the
poroelasticity template (seeds 0, 1, 2; both residuals run through the
adaptive quadrature), on two series fixtures, and ``approx`` on the four
polynomial-sequence fixtures (which evaluate ``VectorPolynomial.evaluate``
and ``Pencil.evaluate_action``).  A change meant to keep
the output byte-identical (a faster kernel, a refactor) must keep these
digests.

The commands run in one child process with BLAS pinned to one thread: with
more threads some chain vectors move in the last digit.  The digests in
``tests/data/cli_golden.json`` were recorded under the numpy and scipy
versions and CPU features stored beside them; elsewhere a last digit may
move, so the test skips there.  The child also records the exponent of
every section the commands build (``sections`` stores a section far from 1
divided by 2^exponent); all are 0, so the digests pin sections stored as given.

Regenerate the file after an intended output change with
``PYTHONPATH=src python tests/test_cli_golden.py --write``.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import pencilkit
from pencilkit import sections
from pencilkit.cli import main
from pencilkit.fixtures import fixture_names, get_fixture

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _builds_pencil(name: str) -> bool:
    fx = get_fixture(name)
    return "pencil" in fx.build(**fx.default_params)


def _cases() -> list[list[str]]:
    cases = [["--seed", "0", "examples", "run", "--all"], ["examples", "list"]]
    for name in fixture_names():
        if not _builds_pencil(name):
            continue
        for n in (4, 7, 12):
            for cmd in ("analyze", "chains"):
                cases.append([cmd, "--fixture", name, "--n", str(n)])
        cases.append(["spectra", "--fixture", name, "--n", "4", "--steps", "3,3"])
        cases.append(["distance", "--fixture", name, "--sections", "2,4,8"])
    cases.append(["dh-check", "--fixture", "stokes_skeleton"])
    cases.append(["dh-check", "--fixture", "poroelasticity_template"])
    cases.append(["dh-check", "--fixture", "diag_reciprocal", "--use-companion", "--n", "16"])
    for seed in ("0", "1", "2"):
        cases.append(["--seed", seed, "simulate", "--fixture", "poroelasticity_template"])
    cases.append(["simulate", "--fixture", "shift_identity"])
    cases.append(["simulate", "--fixture", "facfac", "--t-max", "0.3"])
    for name in ("approxchain", "rescaled_approxchain", "revdegenerate", "gram_counterexample"):
        cases.append(["approx", "--fixture", name])
    return cases


CASES = _cases()


def _environment() -> dict:
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_features": sorted(simd.get("found", [])),
    }


def _run(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def _record() -> dict:
    """Environment and digests, and the exponents of the sections built on the way."""
    exponents = set()
    post_init = sections.SectionedPencil.__post_init__

    def recorded(self) -> None:
        post_init(self)
        exponents.add(self.exponent)

    sections.SectionedPencil.__post_init__ = recorded  # this process runs nothing else
    digests = {" ".join(argv): _run(argv) for argv in CASES}
    return {"environment": _environment(), "digests": digests,
            "section_exponents": sorted(exponents)}


@pytest.fixture(scope="module")
def golden() -> dict:
    record = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if record["environment"] != _environment():
        pytest.skip(f"digests recorded under {record['environment']}, running {_environment()}")
    return record["digests"]


@pytest.fixture(scope="module")
def child() -> dict:
    src = os.path.dirname(os.path.dirname(pencilkit.__file__))
    env = {**os.environ, "PYTHONPATH": src, **{v: "1" for v in BLAS_VARS}}
    out = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def current(child) -> dict:
    return child["digests"]


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_cli_stdout_matches_golden_digest(argv, golden, current):
    key = " ".join(argv)
    assert key in golden, f"no golden digest for {key!r}; regenerate the file"
    assert current[key] == golden[key]


def test_golden_commands_store_every_section_as_given(child):
    assert child["section_exponents"] == [0]


if __name__ == "__main__":
    # Without arguments print the record; with --write store it (BLAS pinned first).
    if "--write" in sys.argv[1:]:
        env = {**os.environ, **{v: "1" for v in BLAS_VARS}}
        out = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                             env=env, check=True)
        record = json.loads(out.stdout)
        del record["section_exponents"]
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    else:
        print(json.dumps(_record()))
