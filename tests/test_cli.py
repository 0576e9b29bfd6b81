import ast
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pencilkit
from pencilkit import (
    DenseBlock,
    DHStructure,
    Diagonal,
    Identity,
    L2N,
    Pencil,
    QuadratureError,
    WeightRule,
    finite,
    save_pencil,
)
from pencilkit import chains, cli, linalg, odae
from pencilkit.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def pencil_file(tmp_path):
    p = Pencil(E=Identity(L2N), A=Diagonal(L2N, WeightRule("reciprocal_index")))
    path = tmp_path / "pencil.json"
    save_pencil(p, str(path))
    return str(path)


def test_examples_list(capsys):
    code, out, _ = _run(capsys, "examples", "list")
    assert code == EXIT_OK
    assert "kronecker_L" in out and "caveat-only" in out


def test_examples_run_single(capsys):
    code, out, _ = _run(capsys, "examples", "run", "kronecker_L")
    assert code == EXIT_OK
    assert "overall: pass" in out and "[pass]" in out


@pytest.mark.parametrize("stray", ["kronecker_L", "--all"])
def test_examples_list_rejects_a_fixture_name(capsys, stray):
    code, out, err = _run(capsys, "examples", "list", stray)
    assert code == EXIT_INPUT and out == ""
    assert f"unrecognized arguments: {stray}" in err


def test_examples_run_rejects_a_name_with_all(capsys):
    code, out, err = _run(capsys, "examples", "run", "bogus", "--all")
    assert code == EXIT_INPUT and out == ""
    assert "argument --all: not allowed with argument name" in err


def test_examples_run_needs_a_name_or_all(capsys):
    code, out, err = _run(capsys, "examples", "run")
    assert code == EXIT_INPUT and out == ""
    assert "one of the arguments name --all is required" in err


def test_examples_run_unknown_fixture(capsys):
    code, _, err = _run(capsys, "examples", "run", "nope")
    assert code == EXIT_INPUT and "unknown fixture" in err


@pytest.mark.parametrize(
    "argv", [("analyze", "--fixture", "nope"), ("examples", "run", "nope")]
)
def test_unknown_fixture_message_is_not_quoted(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_INPUT
    assert err.startswith("error: unknown fixture 'nope';")


def test_missing_file_is_input_error(capsys):
    code, _, err = _run(capsys, "analyze", "/does/not/exist.json")
    assert code == EXIT_INPUT and "file not found" in err


@pytest.mark.parametrize("command", ["analyze", "spectra", "chains", "distance", "dh-check"])
def test_file_and_fixture_exclude_each_other(capsys, command):
    # neither is ignored: the FILE need not even exist for the refusal
    code, out, err = _run(capsys, command, "/does/not/exist.json", "--fixture", "kronecker_L")
    assert code == EXIT_INPUT and out == ""
    assert "argument --fixture: not allowed with argument pencil" in err


def test_file_or_fixture_is_required(capsys):
    code, out, err = _run(capsys, "analyze")
    assert code == EXIT_INPUT and out == ""
    assert "one of the arguments pencil --fixture is required" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{tmp}"),
        ("examples", "list", "--out", "{tmp}"),
        ("analyze", "--fixture", "kronecker_L", "--out", "{tmp}/missing/f.txt"),
    ],
    ids=["analyze-directory", "out-directory", "out-missing-parent"],
)
def test_os_error_on_named_path_is_input_error(capsys, tmp_path, argv):
    code, out, err = _run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: [Errno ") and str(tmp_path) in err


def test_overflowing_literal_is_input_error(capsys, tmp_path):
    path = tmp_path / "big.json"
    ident = '{"node": "identity", "space": "l2N"}'
    path.write_text('{"format": 1, "E": ' + ident + ', "A": {"node": "scale", "factor": '
                    + "9" * 400 + ', "op": ' + ident + "}}")
    code, out, err = _run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and "OverflowError" in err


@pytest.mark.parametrize("command", ["analyze", "dh-check"])
def test_dh_factor_on_another_space_is_input_error(capsys, tmp_path, command):
    id3 = {"node": "identity", "space": {"finite": 3}}
    doc = {"format": 1, "E": id3, "A": id3,
           "dh": {"B": {"node": "identity", "space": {"finite": 2}}, "Q": id3}}
    path = tmp_path / "dh.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, command, str(path), "--n", "3")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and "dH pencil: B must map" in err


def test_analyze_pencil_file(capsys, pencil_file):
    code, out, _ = _run(capsys, "analyze", pencil_file, "--n", "4")
    assert code == EXIT_OK
    assert "lambda=0+0i" in out and "verdict=" in out
    assert "stacked sigma_min certificate" in out


def test_analyze_caveat_only_fixture_rejected(capsys):
    code, _, err = _run(capsys, "analyze", "--fixture", "symmetric_not_sa_note")
    assert code == EXIT_INPUT and "caveat-only" in err


@pytest.mark.parametrize("name", ["gram_counterexample", "revdegenerate"])
def test_analyze_sequence_fixture_is_not_called_caveat_only(capsys, name):
    code, _, err = _run(capsys, "analyze", "--fixture", name)
    assert code == EXIT_INPUT
    assert "caveat-only" not in err and "polynomial sequence" in err


def test_spectra_csv(capsys, pencil_file):
    code, out, _ = _run(
        capsys, "spectra", pencil_file, "--rect=0,1,0,1", "--steps", "2,2", "--n", "3"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "re,im,sigma_min,sigma_min_adjoint,verdict"
    assert len(lines) == 5
    # lam = 1 is an eigenvalue of diag(1/j) with E = I
    row = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert row["re"] == "1" and row["verdict"] == "point_singular"


def test_chains_json(capsys):
    code, out, _ = _run(capsys, "chains", "--fixture", "kronecker_L", "--n", "4")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["right"]["minimal_index"] == 2
    assert rep["left"] is None
    assert rep["right"]["verify_residual"] <= 1e-12


def test_approx_csv(capsys):
    code, out, _ = _run(
        capsys, "approx", "--fixture", "approxchain", "--n-values", "1,2", "--probes", "0,1"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,probe_re,probe_im,fwd_residual")
    assert len(lines) == 5


def test_distance_csv_with_caveat_notes(capsys):
    code, out, _ = _run(
        capsys, "distance", "--fixture", "bilateral_weighted", "--sections", "2,4"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("# note:")
    assert "n,stacked_sigma_min,witness_support_center" in lines


def test_distance_values(capsys):
    code, out, _ = _run(
        capsys, "distance", "--fixture", "diag_reciprocal", "--sections", "2,4"
    )
    lines = out.strip().splitlines()
    vals = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert vals[2] == pytest.approx(np.sqrt(2) / 2, abs=1e-13)
    assert vals[4] == pytest.approx(np.sqrt(2) / 4, abs=1e-13)


def test_dh_check_table(capsys):
    code, out, _ = _run(capsys, "dh-check", "--fixture", "stokes_skeleton")
    assert code == EXIT_OK
    assert "structure: ok" in out
    assert "classification: point_singular" in out


def test_dh_check_compresses_the_section_once(capsys, monkeypatch):
    calls = []
    compress = pencilkit.dh.dh_section_mats

    def counting(*args):
        calls.append(args)
        return compress(*args)

    monkeypatch.setattr(pencilkit.dh, "dh_section_mats", counting)
    code, out, _ = _run(capsys, "dh-check", "--fixture", "stokes_skeleton")
    assert code == EXIT_OK and "probe sigma_min:" in out
    assert len(calls) == 1


def test_analyze_and_dh_check_agree_on_a_perturbed_common_kernel(capsys, tmp_path):
    # E, J and R share the kernel vector v, then E and R are shifted by 1e-12 times their
    # norm: sigma_min([E; BQ]) is about 1e-12 * sigma_max, far above rank_tol, below TOL_POINT
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 6, 6))
    v = rng.standard_normal(6)
    proj = np.eye(6) - np.outer(v, v) / (v @ v)
    e, r = (proj @ (x @ x.T + 6 * np.eye(6)) @ proj for x in m[:2])
    e, r = (x + 1e-12 * np.linalg.norm(x, 2) * np.eye(6) for x in (e, r))
    j = proj @ (m[2] - m[2].T) @ proj
    sp = finite(6)
    b = DenseBlock(sp, sp, j - r)
    dh = DHStructure(B=b, Q=Identity(sp), J=DenseBlock(sp, sp, j), R=DenseBlock(sp, sp, r))
    p = Pencil(E=DenseBlock(sp, sp, e), A=b, dh=dh)
    path = tmp_path / "dh.json"
    save_pencil(p, str(path))
    code, out, _ = _run(capsys, "analyze", str(path), "--n", "6")
    assert code == EXIT_OK
    assert [line.split("verdict=")[1] for line in out.splitlines() if "verdict=" in line] == [
        "point_singular"] * 4
    assert "right singular chain: minimal index 0" in out
    assert "common kernel dim 1, classification point_singular" in out
    code, out, _ = _run(capsys, "dh-check", str(path), "--n", "6")
    assert code == EXIT_OK and "common kernel dimension: 1" in out


def test_dh_check_requires_metadata(capsys, pencil_file):
    code, _, err = _run(capsys, "dh-check", pencil_file)
    assert code == EXIT_INPUT and "no dissipative-Hamiltonian metadata" in err


def test_simulate_series_fixture(capsys):
    code, out, _ = _run(
        capsys, "simulate", "--fixture", "shift_identity", "--order", "8",
        "--samples", "3", "--window", "2",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,x1_re,x2_re")
    assert len(lines) == 4


def test_simulate_window_zero_prints_no_coordinates(capsys):
    code, out, _ = _run(
        capsys, "simulate", "--fixture", "shift_identity", "--samples", "2", "--window", "0"
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "t,residual_classical,residual_mild,residual_pbe,hamiltonian"


def test_simulate_unsupported_fixture(capsys):
    code, _, err = _run(capsys, "simulate", "--fixture", "kronecker_L")
    assert code == EXIT_INPUT and "no simulation recipe" in err


def test_bad_arguments_exit_2(capsys):
    assert main(["spectra", "--steps"]) == EXIT_INPUT
    assert main(["no-such-command"]) == EXIT_INPUT


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_chain_tol_is_input_error(capsys, value):
    code, out, err = _run(capsys, "chains", "--fixture", "kronecker_L", "--n", "4", "--tol", value)
    assert code == EXIT_INPUT and out == ""
    assert f"argument --tol: must be finite, got '{value}'" in err


@pytest.mark.parametrize("argv,message", [
    (["chains", "--fixture", "kronecker_L", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["approx", "--fixture", "approxchain", "--probes", "1,zz"],
     "argument --probes: invalid complex value: 'zz'"),
])
def test_junk_number_is_input_error(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    assert message in err


def test_non_finite_t_max_is_input_error(capsys):
    code, out, err = _run(capsys, "simulate", "--fixture", "shift_identity", "--t-max", "nan")
    assert code == EXIT_INPUT and out == ""
    assert "argument --t-max: must be finite, got 'nan'" in err


@pytest.mark.parametrize("argv", [
    ["--fixture", "shift_identity", "--order", "150"],
    ["--fixture", "shift_identity", "--order", "171"],
    ["--fixture", "poroelasticity_template", "--t-max", "1e300"],
])
def test_overflow_in_python_floats_is_input_error(capsys, argv):
    # the growth bound (k/c)^k and the norm of a state overflow as Python floats
    code, out, err = _run(capsys, "simulate", *argv)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith("error: ") and err.endswith("too large for double precision\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["1", "-5"])
def test_series_order_below_two_is_argparse_error(capsys, value):
    code, out, err = _run(capsys, "simulate", "--fixture", "shift_identity", f"--order={value}")
    assert code == EXIT_INPUT and out == ""
    assert f"argument --order: must be at least 2, got '{value}'" in err


def test_series_order_help_states_the_bound(capsys):
    code, out, _ = _run(capsys, "simulate", "--help")
    assert code == EXIT_OK
    assert f"series truncation order (>= {odae.MIN_SERIES_ORDER})" in " ".join(out.split())


def test_non_finite_probe_is_input_error(capsys):
    code, out, err = _run(capsys, "approx", "--fixture", "approxchain", "--probes", "nan,1")
    assert code == EXIT_INPUT and out == ""
    assert "argument --probes: must be finite, got 'nan'" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["simulate", "--samples", "0"], "--samples: must be positive, got '0'"),
        (["simulate", "--samples=-3"], "--samples: must be positive, got '-3'"),
        (["simulate", "--window=-2"], "--window: must be non-negative, got '-2'"),
        (["approx", "--n-values", "0"], "--n-values: must be positive, got '0'"),
        (["approx", "--n-values", "2,-1"], "--n-values: must be positive, got '-1'"),
        (["approx", "--n-values", ","], "--n-values: empty integer list"),
        (["analyze", "--n", "0"], "--n: must be positive, got '0'"),
        (["spectra", "--n=-3"], "--n: must be positive, got '-3'"),
        (["chains", "--n", "0"], "--n: must be positive, got '0'"),
        (["dh-check", "--n=-3"], "--n: must be positive, got '-3'"),
    ],
)
def test_non_positive_count_is_input_error(capsys, argv, message):
    fixture = {
        "simulate": "shift_identity",
        "approx": "approxchain",
        "dh-check": "stokes_skeleton",
    }.get(argv[0], "kronecker_L")
    code, out, err = _run(capsys, argv[0], "--fixture", fixture, *argv[1:])
    assert code == EXIT_INPUT and out == ""
    assert f"argument {message}" in err


@pytest.mark.parametrize("value", ["0", "x", "4,-1"])
def test_bad_sections_list_is_input_error(capsys, value):
    code, out, err = _run(capsys, "distance", "--fixture", "kronecker_L", f"--sections={value}")
    assert code == EXIT_INPUT and out == ""
    assert "argument --sections:" in err


def test_distance_offers_no_window_option(capsys):
    # distance sizes its sections with --sections; a --n would be ignored
    code, out, err = _run(capsys, "distance", "--fixture", "kronecker_L", "--n", "4")
    assert code == EXIT_INPUT and out == ""
    assert "unrecognized arguments: --n 4" in err  # not a clash of the stray 4 with --fixture
    code, out, err = _run(capsys, "distance", "--fixture", "kronecker_L", "--n=4")
    assert code == EXIT_INPUT and out == ""
    assert "unrecognized arguments: --n=4" in err


@pytest.mark.parametrize(
    "argv,stray",
    [
        (("examples", "run", "--all", "--seed", "0"), "--seed 0"),  # --seed belongs before the command
        (("analyze", "--fixture", "kronecker_L", "--bogus", "3", "--n", "4"), "--bogus 3"),
        (("analyze", "pencil.json", "--bogus", "3"), "--bogus 3"),
    ],
)
def test_unknown_option_is_named_before_the_clash_its_values_cause(capsys, argv, stray):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    assert err.endswith(f"error: unrecognized arguments: {stray}\n")


def test_option_value_that_looks_like_an_option_is_still_a_missing_value(capsys):
    code, out, err = _run(capsys, "spectra", "--fixture", "kronecker_L", "--rect", "-2,2,-2,2")
    assert code == EXIT_INPUT and out == ""
    assert err.endswith("error: argument --rect: expected one argument\n")


@pytest.mark.parametrize("steps", ["1,1", "2,1", "0,5"])
def test_spectra_steps_below_two_rejected_before_section(capsys, monkeypatch, steps):
    def no_section(*args, **kwargs):
        raise AssertionError("section built for an invalid grid")

    monkeypatch.setattr("pencilkit.sections.section", no_section)
    code, out, err = _run(capsys, "spectra", "--fixture", "kronecker_L", "--steps", steps)
    assert code == EXIT_INPUT and out == ""
    first_bad = next(x for x in steps.split(",") if int(x) < 2)
    assert f"argument --steps: must be at least 2, got '{first_bad}'" in err


@pytest.mark.parametrize("option,value,message", [
    ("--steps", "3", "needs 2 integer values, got '3'"),
    ("--steps", "3,3,3", "needs 2 integer values, got '3,3,3'"),
    ("--steps", "3,x", "invalid int value: 'x'"),
    ("--rect", "0,1,0", "needs 4 float values, got '0,1,0'"),
    ("--rect", ",", "empty float list"),
])
def test_spectra_grid_shape_is_argparse_error(capsys, option, value, message):
    code, out, err = _run(capsys, "spectra", "--fixture", "kronecker_L", f"{option}={value}")
    assert code == EXIT_INPUT and out == ""
    assert f"argument {option}: {message}" in err


def test_commands_take_arguments_as_the_parser_checked_them():
    # ``_build_parser`` is the one place that knows an argument's shape; a command body
    # that splits an option or converts an ``args`` attribute checks it a second time,
    # with a second message format.
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    hits = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "split":
                hits.append(f"{fn.name}:{node.lineno}")
            elif isinstance(func, ast.Name) and func.id in {"float", "int", "complex"} and any(
                isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "args"
                for arg in node.args for sub in ast.walk(arg)
            ):
                hits.append(f"{fn.name}:{node.lineno}")
    assert hits == []


def test_deeply_nested_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = _run(capsys, "analyze", str(path))
    assert code == EXIT_INPUT and out == ""
    assert "malformed JSON" in err


@pytest.mark.parametrize("rect", ["nan,1,0,1", "inf,1,0,1"])
def test_non_finite_rect_is_input_error_without_warnings(capsys, pencil_file, rect):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, "spectra", pencil_file, f"--rect={rect}")
    assert code == EXIT_INPUT and out == ""
    assert f"argument --rect: must be finite, got '{rect.split(',')[0]}'" in err
    assert [str(w.message) for w in caught] == []


def test_linalg_failure_is_internal_error(capsys, monkeypatch, pencil_file):
    def no_convergence(*blocks):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(linalg, "svals_vh", no_convergence)
    code, out, err = _run(capsys, "analyze", pencil_file, "--n", "4")
    assert code == EXIT_INTERNAL
    assert err == "internal error: SVD did not converge\n"


def test_quadrature_failure_is_internal_error(capsys, monkeypatch):
    def missed(*args, **kwargs):
        raise QuadratureError("quadrature estimate above tolerance")

    monkeypatch.setattr(odae, "adaptive_simpson_vec", missed)
    code, _, err = _run(
        capsys, "simulate", "--fixture", "shift_identity", "--order", "8", "--samples", "3",
    )
    assert code == EXIT_INTERNAL
    assert err == "internal error: quadrature estimate above tolerance\n"


def test_non_finite_chains_report_is_internal_error(capsys, monkeypatch):
    # a finite input that yields a NaN residual is the code's fault, not the input's
    monkeypatch.setattr(chains, "verify_singular_polynomial", lambda *args, **kwargs: float("nan"))
    code, out, err = _run(capsys, "chains", "--fixture", "kronecker_L", "--n", "4")
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("internal error: chains report: ") and err.count("\n") == 1


def test_misspelled_pencil_key_is_input_error(capsys, tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({
        "format": 1,
        "E": {"node": "identity", "space": "l2N"},
        "A": {"node": "diagonal", "space": "l2N", "weights": {"kind": "constant", "valu": 2}},
    }))
    code, out, err = _run(capsys, "analyze", str(path), "--n", "4")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"error: {path}: ") and "'valu'" in err
    assert err.count("\n") == 1


def test_non_string_tag_is_input_error(capsys, tmp_path):
    path = tmp_path / "tag.json"
    identity = {"node": "identity", "space": "l2N"}
    path.write_text(json.dumps({"format": 1, "E": identity, "A": {"node": ["identity"], "space": "l2N"}}))
    code, out, err = _run(capsys, "analyze", str(path), "--n", "4")
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"error: {path}: not an operator node: ")
    assert err.count("\n") == 1


def test_key_error_is_internal_error(capsys, monkeypatch):
    def lookup_fault(args):
        raise KeyError("missing")

    monkeypatch.setitem(cli._COMMANDS, "analyze", lookup_fault)
    code, out, err = _run(capsys, "analyze", "--fixture", "kronecker_L")
    assert code == EXIT_INTERNAL and out == ""
    assert err == "internal error: 'missing'\n"


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = _run(capsys, "examples", "list", "--out", str(target))
    assert code == EXIT_OK and out == ""
    assert "kronecker_L" in target.read_text()


def test_repeated_invocations_are_byte_identical(capsys):
    _, out1, _ = _run(capsys, "examples", "run", "poroelasticity_template")
    _, out2, _ = _run(capsys, "examples", "run", "poroelasticity_template")
    assert out1 == out2


def test_examples_run_leaves_scipy_integrate_unimported():
    code = (
        "import sys\n"
        "from pencilkit.cli import main\n"
        "rc = main(['examples', 'run', 'poroelasticity_template'])\n"
        "print(rc, 'scipy.integrate' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(pencilkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"


def test_values_only_commands_leave_scipy_linalg_unimported(tmp_path):
    rng = np.random.default_rng(0)
    sp = finite(12)
    regular = str(tmp_path / "regular.json")
    save_pencil(Pencil(E=DenseBlock(sp, sp, rng.standard_normal((12, 12))),
                       A=DenseBlock(sp, sp, rng.standard_normal((12, 12)))), regular)
    commands = [
        ["examples", "list"],
        ["spectra", regular, "--n", "12", "--steps", "3,3"],
        ["chains", regular, "--n", "12"],
        ["approx", "--fixture", "approxchain"],
        ["simulate", "--fixture", "shift_identity"],
        ["dh-check", "--fixture", "diag_reciprocal", "--use-companion", "--n", "16"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import pencilkit.cli\n"
        "print('import', 'scipy.linalg' in sys.modules)\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = pencilkit.cli.main(argv)\n"
        "    print(argv[0], rc, 'scipy.linalg' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(pencilkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["import False"] + [f"{c[0]} 0 False" for c in commands]


def test_vector_svd_commands_leave_scipy_linalg_unimported(tmp_path):
    # their matrices, or for a stack the triangle of its QR, stay at or below linalg.NUMPY_CAP,
    # so numpy takes the vector SVDs; the 1024 x 512 stack of a 512 window is above the cap
    rng = np.random.default_rng(0)
    sp = finite(12)
    regular, chained = str(tmp_path / "regular.json"), str(tmp_path / "chained.json")
    save_pencil(Pencil(E=DenseBlock(sp, sp, rng.standard_normal((12, 12))),
                       A=DenseBlock(sp, sp, rng.standard_normal((12, 12)))), regular)
    save_pencil(pencilkit.get_fixture("kronecker_L").build()["pencil"], chained)
    commands = [
        ["analyze", chained, "--n", "7"],
        ["analyze", regular, "--n", "12"],
        ["chains", chained, "--n", "7"],
        ["distance", "--fixture", "diag_reciprocal", "--sections", "4,8,16,32"],
        ["distance", "--fixture", "diag_reciprocal", "--sections", "512"],
        ["dh-check", "--fixture", "stokes_skeleton"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import pencilkit.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = pencilkit.cli.main(argv)\n"
        "    print(argv[0], rc, 'scipy.linalg' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(pencilkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [f"{c[0]} 0 False" for c in commands]


def _readme_module_table():
    """README's table of the pencilkit modules each command runs, and its --fixture rule.

    Returns ``{command: (modules, {condition: modules})}`` with "those of `X`"
    resolved, and ``(added, removed, {condition: modules})`` for a FILE command
    given ``--fixture`` instead.
    """
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("| command | pencilkit modules |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rule = re.search(r"With `--fixture` in place of `FILE`, (.*?\))", text, re.S).group(1)

    def modules(cell: str):
        always, when = set(), {}
        for clause in re.split(r"[,;] ", " ".join(cell.split())):
            clause = clause.removeprefix("and ")
            names = re.findall(r"`(\w+)`", clause.split(" for ")[0])
            if clause.startswith("those of "):
                always |= resolved[names[0]][0]
            elif " for " in clause:
                when[clause.split(" for ", 1)[1]] = set(names)
            else:
                always |= set(names)
        return always, when

    resolved = {}
    for row in table.splitlines():
        command, cell = re.fullmatch(r"\| `([^`]+)` \| (.*) \|", row).groups()
        resolved[command.removesuffix(" FILE")] = modules(cell)
    replaced = re.match(r"`(\w+)` replaces `(\w+)`, and the builder adds what it uses \((.*)\)",
                        " ".join(rule.split()))
    fixture_rule = ({replaced.group(1)}, {replaced.group(2)}, modules(replaced.group(3))[1])
    return resolved, fixture_rule


def _expected_modules(argv, facts) -> set:
    """README's modules for ``argv``; a condition holds when it names one of ``facts``."""
    table, (added, removed, builder) = _readme_module_table()
    words = argv[:2] if argv[0] == "examples" else argv[:1]
    key = " ".join(words) + (" --fixture F" if argv[0] in ("approx", "simulate") else "")
    always, when = table[key]
    if "--fixture" in argv and key == argv[0]:  # a FILE command given a fixture
        always = always - removed | added
        when = {**when, **builder}
    return always.union(*(mods for cond, mods in when.items() if any(f in cond for f in facts)))


def test_commands_load_only_the_pencilkit_modules_they_run(tmp_path):
    rng = np.random.default_rng(0)
    sp = finite(6)
    regular, with_dh = str(tmp_path / "regular.json"), str(tmp_path / "dh.json")
    save_pencil(Pencil(E=DenseBlock(sp, sp, rng.standard_normal((6, 6))),
                       A=DenseBlock(sp, sp, rng.standard_normal((6, 6)))), regular)
    save_pencil(pencilkit.get_fixture("stokes_skeleton").build()["pencil"], with_dh)
    # Every module sits in sys.modules from the package import on; one whose
    # code has not run yet still has LazyLoader's module type.
    code = (
        "import contextlib, io, json, sys\n"
        "import pencilkit.cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert pencilkit.cli.main(argv) == 0\n"
        "print(json.dumps([m for m, mod in sys.modules.items()\n"
        "                  if m.startswith('pencilkit.') and type(mod) is type(sys)]))\n"
    )
    src = os.path.dirname(os.path.dirname(pencilkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def loaded(*argv):
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        return {m.removeprefix("pencilkit.") for m in json.loads(out.stdout)}

    assert loaded() == {"cli"}
    # each command with the README conditions that its input meets
    cases = [
        (("examples", "list"), ()),
        (("spectra", regular, "--n", "6", "--steps", "3,3"), ()),
        (("chains", regular, "--n", "6"), ()),
        (("analyze", regular, "--n", "6"), ()),
        (("analyze", with_dh, "--n", "6"), ("dH data",)),
        (("distance", "--fixture", "diag_reciprocal"), ()),
        (("distance", "--fixture", "shift_identity"), ("shift_identity",)),
        (("dh-check", "--fixture", "stokes_skeleton"), ()),
        (("approx", "--fixture", "approxchain"), ()),
        (("simulate", "--fixture", "shift_identity"), ()),
        (("simulate", "--fixture", "poroelasticity_template"), ("poroelasticity_template",)),
    ]
    for argv, facts in cases:
        assert loaded(*argv) == {"cli"} | _expected_modules(argv, facts), argv


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or os.cpu_count() == 1,
    reason="needs /proc/self/task and more than one CPU",
)
def test_pencilkit_threads_caps_blas_threads():
    code = (
        "import os\n"
        "import pencilkit.cli\n"
        "print(len(os.listdir('/proc/self/task')))\n"
    )
    src = os.path.dirname(os.path.dirname(pencilkit.__file__))
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env.update(PYTHONPATH=src, PENCILKIT_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1"]


def _cli_error_rewraps(tree: ast.AST) -> list[str]:
    """Functions with an ``except`` that raises ``CLIError``, save ``get_fixture``'s ``KeyError``.

    ``main`` reports a library ``ValueError`` as the same ``error: ...`` line with
    exit 2, so a handler that turns one into ``CLIError`` repeats it.  Only an
    unknown fixture name needs it: ``get_fixture`` raises ``KeyError``, which
    ``main`` reports as internal (exit 3).
    """
    hits = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Try):
                continue
            called = {ast.unparse(sub.func) for stmt in node.body for sub in ast.walk(stmt)
                      if isinstance(sub, ast.Call)}
            for handler in node.handlers:
                rewraps = any(isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Call)
                              and ast.unparse(sub.exc.func) == "CLIError"
                              for sub in ast.walk(handler))
                unknown_fixture = (called == {"fixtures.get_fixture"}
                                   and handler.type is not None
                                   and ast.unparse(handler.type) == "KeyError")
                if rewraps and not unknown_fixture:
                    hits.add(fn.name)
    return sorted(hits)


def test_cli_does_not_rewrap_library_errors():
    with open(cli.__file__, encoding="utf-8") as fh:
        assert _cli_error_rewraps(ast.parse(fh.read())) == []


def test_rewrap_check_flags_each_form():
    source = ("def a(path):\n    try:\n        return serialize.load_pencil(path)\n"
              "    except serialize.FormatError as exc:\n        raise CLIError(str(exc)) from exc\n"
              "def b():\n    try:\n        run()\n    except ValueError:\n"
              "        raise CLIError('x')\n"
              "def c(name):\n    try:\n        fixtures.get_fixture(name)\n"
              "    except (KeyError, ValueError) as exc:\n        raise CLIError(exc.args[0])\n"
              "def d(name):\n    try:\n        fixtures.get_fixture(name).build()\n"
              "    except KeyError as exc:\n        raise CLIError(exc.args[0])\n"
              "def ok(name):\n    try:\n        fx = fixtures.get_fixture(name)\n"
              "    except KeyError as exc:\n        raise CLIError(exc.args[0]) from exc\n"
              "def ok2():\n    try:\n        run()\n    except ValueError as exc:\n"
              "        raise RuntimeError(str(exc)) from exc\n")
    assert _cli_error_rewraps(ast.parse(source)) == ["a", "b", "c", "d"]


def test_malformed_pencil_file_is_the_library_message(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1}')
    with pytest.raises(pencilkit.FormatError) as caught:
        pencilkit.load_pencil(str(path))
    code, out, err = _run(capsys, "analyze", str(path))
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {caught.value}\n")


def test_dh_check_without_metadata_prints_one_error_line(capsys, pencil_file):
    code, out, err = _run(capsys, "dh-check", pencil_file)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: pencil carries no dissipative-Hamiltonian metadata\n"
