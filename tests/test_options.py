"""The settable options of the package are pinned.

Every function and class (dataclasses included) defined at module level in
``pencilkit``, private helpers and fixture builders as well as the names in
``__all__``, is inspected, and each parameter that has a default is listed
here with the ``repr`` of that default.  A new keyword, a dropped one, or a
changed default value is then a deliberate, visible edit of this file: each
independently settable value multiplies the configurations that must be
covered, so none should appear by accident.
"""

import importlib
import inspect
import pkgutil

import pencilkit

OPTIONS = {
    "chains.extract_left_chain": {"tol": "1e-10"},
    "chains.extract_right_chain": {"tol": "1e-10"},
    "chains.verify_singular_polynomial": {"probes": "None"},
    "cli.main": {"argv": "None"},
    "dh.dh_classify": {"tol_ap": "None"},
    "fixtures.Fixture": {"caveat_only": "False"},
    "fixtures._build_kronecker_l": {"k": "2"},
    "fixtures._build_poroelasticity": {
        "seed": "0",
        "d": "3",
        "singular_pressure": "False",
    },
    "fixtures._tail_sum": {"total": "0.0"},
    "odae.Trajectory": {"integral_fn": "None", "residual_classical": "None"},
    "odae.UniquenessReport": {
        "trajectories": "<factory>",
        "max_distance": "0.0",
        "mild_residuals": "<factory>",
    },
    "odae.power_balance_residual": {"tol": "1e-08"},
    "odae.uniqueness_demo": {"n": "12"},
    "operators.DHStructure": {"J": "None", "R": "None"},
    "operators.DenseBlock": {"row_start": "1", "col_start": "1"},
    "operators.Pencil": {"dh": "None"},
    "operators.Space": {"dim": "None"},
    "operators.WeightRule": {
        "value": "1.0",
        "values": "()",
        "start": "1",
        "default": "0.0",
        "shift": "0",
    },
    "operators.Zero": {"space_out": "None"},
    "sparsevec.basis_vec": {"c": "1.0"},
    "sparsevec.vec_iadd": {"c": "None"},
}


def _defaulted_parameters():
    found = {}
    for info in pkgutil.iter_modules(pencilkit.__path__):
        module = importlib.import_module(f"pencilkit.{info.name}")
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue  # imported, pinned where it is defined
            if inspect.isclass(obj) and issubclass(obj, BaseException):
                continue  # exceptions take the message only
            params = inspect.signature(obj).parameters.values()
            defaults = {p.name: repr(p.default) for p in params if p.default is not p.empty}
            if defaults:
                found[f"{info.name}.{name}"] = defaults
    return found


def test_defaulted_parameters_are_pinned():
    assert _defaulted_parameters() == OPTIONS
