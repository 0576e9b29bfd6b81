"""Structured operator pencils lambda E - A on sequence spaces.

Finite sections, pointwise spectral classification, singular chains and
vector polynomials, approximate polynomial sequences with the Gram bound,
dissipative-Hamiltonian structure checks, trajectories of E x' = A x with
residual certificates, a registry of worked example pencils, and a JSON
interchange format.

Importing the package runs none of its modules.  It registers each one
(all but ``cli``) in ``sys.modules`` and as ``pencilkit.<module>`` through
``importlib.util.LazyLoader``: the module's code runs on its first attribute
access, after which it is an ordinary module.  ``__getattr__`` (PEP 562)
reads a name from the module whose ``__all__`` holds it.  A top-level
``from . import x`` binds the registered ``x`` without running it, so each
module imports its siblings at the top, and a cold start of the command line
still compiles only what the command runs: ``examples list`` runs
``fixtures``, ``operators`` and ``sparsevec``; ``spectra FILE`` runs
``serialize``, ``operators``, ``sparsevec``, ``sections``, ``linalg`` and
``spectra``; ``chains``, ``distance``, ``dh-check`` and ``analyze`` swap
``spectra`` for the modules they call (README, "Command line", lists them
all).  Tools that walk ``sys.modules`` find every module there, and
touching one runs it.

Setting ``PENCILKIT_THREADS`` caps BLAS parallelism.  BLAS reads its thread
count once, when numpy first loads it, so the cap only takes effect when
pencilkit is imported before numpy.  The package's modules load numpy's
BLAS only; ``scipy.linalg``, with a BLAS of its own, is imported on first
use by the computations that need singular vectors, ``expm``, QZ or
subspace angles (see ``pencilkit.linalg``), so most commands run on a
single BLAS.
"""

import os as _os

if _os.environ.get("PENCILKIT_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["PENCILKIT_THREADS"])

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

# Modules whose ``__all__`` is their public API, in the order ``__getattr__`` searches them.
_PUBLIC = ("operators", "sparsevec", "sections", "spectra", "chains", "approx", "dh", "odae",
           "fixtures", "serialize")


def _register(name: str):
    """Bind ``pencilkit.<name>`` unexecuted; its code runs on first attribute access."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _PUBLIC + ("linalg",):
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    """Read ``name`` from the module that exports it (PEP 562).

    ``__all__`` is every module's ``__all__``, so the package re-exports them
    all.  Nothing is bound here: each lookup reads the module's current
    binding, so a patch of a module shows through the package and is undone
    with it.
    """
    if name == "__all__":
        return ["__version__"] + [n for m in _PUBLIC for n in globals()[m].__all__]
    for m in _PUBLIC:
        module = globals()[m]
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
