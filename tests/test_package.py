"""How the package exposes its modules: registered on import, run on first use."""

import ast
import json
import os
import pkgutil
import subprocess
import sys

import pencilkit


def test_import_registers_every_module_but_cli_without_running_it():
    code = (
        "import json, sys\n"
        "import pencilkit\n"
        "mods = {m: v for m, v in sys.modules.items() if m.startswith('pencilkit.')}\n"
        "print(json.dumps([sorted(mods), [m for m, v in mods.items() if type(v) is type(sys)]]))\n"
    )
    src = os.path.dirname(os.path.dirname(pencilkit.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    registered, run = json.loads(out.stdout)
    every = {f"pencilkit.{info.name}" for info in pkgutil.iter_modules(pencilkit.__path__)}
    assert set(registered) == every - {"pencilkit.cli"}
    assert run == []


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


def test_verdict_modules_read_their_tolerances_from_the_linalg_table():
    # A float literal from 1e-15 up to 1e-3 in these modules is a tolerance factor that
    # bypasses the verdict table of ``linalg``; the 1e-300 floors are outside the range.
    folder = os.path.dirname(pencilkit.__file__)
    hits = []
    for name in ("spectra.py", "dh.py", "chains.py"):
        with open(os.path.join(folder, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        hits += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                 and 1e-15 <= abs(node.value) < 1e-3]
    assert hits == []
