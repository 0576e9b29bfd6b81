"""Structured operator pencils lambda E - A on sequence spaces.

Finite sections, pointwise spectral classification, singular chains and
vector polynomials, approximate polynomial sequences with the Gram bound,
dissipative-Hamiltonian structure checks, trajectories of E x' = A x with
residual certificates, a registry of worked example pencils, and a JSON
interchange format.

Setting ``PENCILKIT_THREADS`` caps BLAS parallelism.  BLAS reads its thread
count once, when numpy first loads it, so the cap only takes effect when
pencilkit is imported before numpy.  Importing the package loads numpy's
BLAS only; ``scipy.linalg``, with a BLAS of its own, is imported on first
use by the computations that need singular vectors, ``expm``, QZ or
subspace angles (see ``pencilkit.linalg``), so most commands run on a
single BLAS.
"""

import os as _os

if _os.environ.get("PENCILKIT_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["PENCILKIT_THREADS"])

from . import approx, chains, dh, fixtures, odae, operators, sections, serialize, sparsevec, spectra

__version__ = "0.1.0"

# Each module's ``__all__`` is its public API; the package re-exports them all.
__all__ = ["__version__"]
_MODULES = (operators, sparsevec, sections, spectra, chains, approx, dh, odae, fixtures, serialize)
for _module in _MODULES:
    globals().update((_name, getattr(_module, _name)) for _name in _module.__all__)
    __all__ += _module.__all__
del _module
