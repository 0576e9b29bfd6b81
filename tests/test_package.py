"""How the package exposes its modules: registered on import, run on first use."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pencilkit


def _pencilkit_modules_after(statement: str) -> tuple[list[str], list[str]]:
    """The pencilkit modules in ``sys.modules``, and those run, after ``statement``
    in a fresh interpreter."""
    code = (
        "import json, sys\n"
        f"{statement}\n"
        "mods = {m: v for m, v in sys.modules.items() if m.startswith('pencilkit.')}\n"
        "print(json.dumps([sorted(mods), sorted(m for m, v in mods.items() if type(v) is type(sys))]))\n"
    )
    src = os.path.dirname(os.path.dirname(pencilkit.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_registers_every_module_but_cli_without_running_it():
    registered, run = _pencilkit_modules_after("import pencilkit")
    every = {f"pencilkit.{info.name}" for info in pkgutil.iter_modules(pencilkit.__path__)}
    assert set(registered) == every - {"pencilkit.cli"}
    assert run == []


def test_from_import_of_cli_runs_no_other_module():
    # the import machinery asks the package for ``cli`` before importing it
    assert _pencilkit_modules_after("from pencilkit import cli")[1] == ["pencilkit.cli"]


def test_package_names_follow_patches_of_their_module(monkeypatch):
    original = pencilkit.sections.section

    def fake(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(pencilkit.sections, "section", fake)
    assert pencilkit.section is fake
    monkeypatch.undo()
    assert pencilkit.section is original


def test_no_function_imports_a_sibling_module():
    # A top-level ``from . import x`` binds the registered module without running it, so
    # importing inside a function only duplicates the registration.
    folder = os.path.dirname(pencilkit.__file__)
    hits = set()
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                hits |= {f"{name}:{node.lineno}" for node in ast.walk(fn)
                         if isinstance(node, ast.ImportFrom) and node.level >= 1}
    assert sorted(hits) == []


def _tolerance_literals(tree: ast.AST) -> list[int]:
    """Lines of the float literals from 1e-15 up to 1e-3 in ``tree``: tolerance factors."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            and 1e-15 <= abs(node.value) < 1e-3]


def test_verdict_modules_read_their_tolerances_from_the_linalg_table():
    # A tolerance factor in these modules bypasses the verdict table of ``linalg``; the
    # 1e-300 floors are outside the range.
    folder = os.path.dirname(pencilkit.__file__)
    hits = []
    for name in ("spectra.py", "dh.py", "chains.py"):
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            hits += [f"{name}:{line}" for line in _tolerance_literals(ast.parse(fh.read()))]
    assert hits == []


def _function_tolerance_literals(tree: ast.AST) -> list[str]:
    """Tolerance literals inside a function's body or defaults, not in a named constant."""
    return sorted({f"{fn.name}:{line}" for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for line in _tolerance_literals(fn)})


def test_odae_states_each_tolerance_once():
    # ``odae`` names its tolerances at module level; a literal in a function is a second,
    # unnamed copy of one of them, or a knob a caller's value would have to follow
    with open(os.path.join(os.path.dirname(pencilkit.__file__), "odae.py"), encoding="utf-8") as fh:
        assert _function_tolerance_literals(ast.parse(fh.read())) == []


def test_odae_tolerance_check_flags_each_form():
    source = ("TOL = 1e-8\n"
              "def a(p, traj):\n    return mild_residual(p, traj, tol=1e-8)\n"
              "def b(p, traj, tol=1e-10):\n    return tol\n"
              "def c(val, bound):\n    return val > bound * (1 + 1e-12)\n"
              "def ok(x, tol=TOL):\n    return 0.1 * tol + 2.0**-52 + x / 15.0\n")
    assert _function_tolerance_literals(ast.parse(source)) == ["a:3", "b:4", "c:7"]


def _svals_vh_calls(tree: ast.AST) -> list[int]:
    """Lines of the calls to ``svals_vh``, by bare name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) == "svals_vh")


def test_only_linalg_takes_singular_vectors_from_svals_vh():
    # a nullspace sliced from ``svals_vh`` outside ``linalg`` restates ``kernel`` with a
    # threshold of its own; ``kernel`` keeps the one TOL_POINT rule
    folder = os.path.dirname(pencilkit.__file__)
    hits = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py") and name != "linalg.py":
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                hits += [f"{name}:{line}" for line in _svals_vh_calls(ast.parse(fh.read()))]
    assert hits == []


def test_svals_vh_check_flags_each_form():
    source = ("def a(m):\n    return linalg.svals_vh(m)\n"
              "def b(m):\n    return svals_vh(m, m)\n"
              "def ok(m):\n    return linalg.kernel(m), linalg.svdvals(m), svals_vh\n")
    assert _svals_vh_calls(ast.parse(source)) == [2, 4]


def test_only_sparsevec_chooses_between_a_plan_and_the_vec_iadd_loop():
    # ``vec_combine`` runs the ``vec_iadd`` loop itself where a plan would change the key
    # order; a function elsewhere that calls both keeps a second copy of that choice.
    folder = os.path.dirname(pencilkit.__file__)
    helpers = {"coordinate_plan", "sum_by_coordinate", "vec_combine"}
    hits = []
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".py") or name == "sparsevec.py":
            continue
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                          for node in ast.walk(fn) if isinstance(node, ast.Call)}
                if "vec_iadd" in called and called & helpers:
                    hits.append(f"{name}:{fn.name}")
    assert hits == []


def _power_of_two_arithmetic(tree: ast.AST) -> list[str]:
    """Functions that call ``frexp`` or ``ldexp`` or multiply by ``2.0 ** k``."""

    def pow2(node: ast.AST) -> bool:
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Constant) and node.left.value == 2)

    hits = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func).split(".")[-1] in ("frexp", "ldexp")
                        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                        and (pow2(node.left) or pow2(node.right))):
                    hits.add(fn.name)
    return sorted(hits)


def test_only_sections_does_power_of_two_arithmetic():
    # a section is stored divided by 2^exponent and its values are multiplied back by
    # ``SectionedPencil.unscaled``; a rescale anywhere else handles the scale a second time
    folder = os.path.dirname(pencilkit.__file__)
    hits = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py") and name != "sections.py":
            with open(os.path.join(folder, name), encoding="utf-8") as fh:
                hits += [f"{name}:{fn}" for fn in _power_of_two_arithmetic(ast.parse(fh.read()))]
    assert hits == []


def test_power_of_two_check_flags_each_form():
    source = ("def a(x):\n    return math.frexp(x)[1]\n"
              "def b(x):\n    return np.ldexp(x, 3)\n"
              "def c(m, e):\n    return m * 2.0**-e\n"
              "def d(m, e):\n    return 2.0 ** e * m\n"
              "def ok(m):\n    return m ** 2.0 + 2.0**-52 + m * EPS\n")
    assert _power_of_two_arithmetic(ast.parse(source)) == ["a", "b", "c", "d"]


def test_benchmark_tracer_names_resolve_in_the_package():
    # bench/tracer.py wraps these names for ``--trace 1``; it is parsed, not imported.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("FUNCTIONS", "METHODS")}
    assert sorted(tables) == ["FUNCTIONS", "METHODS"]
    missing = [f"{module}.{name}" for _, module, names in tables["FUNCTIONS"] for name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    # the tracer wraps ``cls.__dict__[name]``, so an inherited method does not count
    missing += [f"{module}.{cls}.{name}" for _, module, cls, names in tables["METHODS"]
                for name in names
                if name not in vars(getattr(importlib.import_module(module), cls, object))]
    assert missing == []
