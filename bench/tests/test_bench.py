"""Self-tests of the benchmark harness (run: python3 -m pytest bench/tests).

They run tiny-size workloads, so they check wiring and oracles, not speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins the BLAS thread variables first)

workloads, tracer = run.import_workloads()

import pencilkit  # noqa: E402
import pencilkit.cli  # noqa: E402,F401

# per-layer metric -> workloads on which it must be non-zero (from README's
# layer table); failure counters are expected to stay at zero.
EXERCISED = {
    "import.pencilkit_s": run.WORKLOAD_NAMES,
    "import.scipy_linalg_s": run.WORKLOAD_NAMES,
    "import.scipy_integrate_s": run.WORKLOAD_NAMES,
    "cli.main_calls": ("cli-cold",),
    "cli.self_s": ("cli-cold",),
    "serialize.load_calls": ("cli-cold", "chain-scan"),
    "serialize.load_s": ("cli-cold", "chain-scan"),
    "fixtures.build_s": ("cli-cold", "sparse-trajectories"),
    "fixtures.checks_s": ("cli-cold", "sparse-trajectories"),
    "operators.apply_calls": ("cli-cold", "sparse-trajectories"),
    "operators.apply_s": ("cli-cold", "sparse-trajectories"),
    "sections.section_calls": ("dense-sweep", "chain-scan", "sparse-trajectories"),
    "sections.section_s": ("dense-sweep", "chain-scan", "sparse-trajectories"),
    "sections.certificate_calls": ("cli-cold", "dense-sweep"),
    "sections.certificate_s": ("cli-cold", "dense-sweep"),
    "sections.svd_calls": ("cli-cold", "dense-sweep"),
    "spectra.classify_calls": ("cli-cold", "dense-sweep"),
    "spectra.classify_s": ("cli-cold", "dense-sweep"),
    "spectra.grid_s": ("cli-cold",),
    "spectra.svd_flops_computed": ("cli-cold", "dense-sweep"),
    "chains.extract_calls": ("cli-cold", "chain-scan"),
    "chains.extract_s": ("cli-cold", "chain-scan"),
    "chains.found_ratio": ("cli-cold", "chain-scan"),
    "chains.svd_per_extract": ("cli-cold", "chain-scan"),
    "chains.verify_s": ("cli-cold", "chain-scan", "sparse-trajectories"),
    "chains.reduce_s": ("chain-scan",),
    "approx.residuals_s": ("cli-cold", "sparse-trajectories"),
    "approx.gram_s": ("cli-cold", "sparse-trajectories"),
    "dh.classify_calls": ("cli-cold", "dense-sweep"),
    "dh.classify_s": ("cli-cold", "dense-sweep"),
    "dh.verify_s": ("cli-cold", "dense-sweep"),
    "dh.kernel_s": ("cli-cold", "dense-sweep"),
    "dh.svd_calls": ("cli-cold", "dense-sweep"),
    "odae.series_s": ("cli-cold", "sparse-trajectories"),
    "odae.polynomial_s": ("sparse-trajectories",),
    "odae.mild_residual_s": ("cli-cold", "sparse-trajectories"),
    "odae.power_balance_s": ("cli-cold", "sparse-trajectories"),
    "odae.quadrature_calls": ("cli-cold", "sparse-trajectories"),
    "odae.quadrature_s": ("cli-cold", "sparse-trajectories"),
    "linalg.svd_calls": ("dense-sweep", "chain-scan"),
    "linalg.svd_full_calls": ("dense-sweep", "chain-scan"),
    "linalg.svd_s": ("dense-sweep", "chain-scan"),
    "linalg.svd_flops_computed": ("dense-sweep", "chain-scan"),
    "linalg.svd_bytes_computed": ("dense-sweep", "chain-scan"),
    "linalg.svd_max_dim": ("dense-sweep", "chain-scan"),
    "linalg.svd_repeat_ratio": ("dense-sweep",),
    "linalg.eig_calls": ("dense-sweep", "sparse-trajectories"),
    "linalg.eig_s": ("dense-sweep", "sparse-trajectories"),
    "trace.overhead_ratio": (),
}
ZERO_ON_SEED = ("cli.digest_mismatches", "serialize.errors", "fixtures.checks_failed",
                "odae.quadrature_errors")


def bench_run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def tiny_runs(request):
    return request.param, bench_run(request.param, 0), bench_run(request.param, 1)


def test_tiny_runs_are_correct_and_complete(tiny_runs):
    name, plain, traced = tiny_runs
    for res in (plain, traced):
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, (name, res)
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert set(traced["metrics"]) == set(tracer.LAYER_METRICS)
    for key, m in plain["metrics"].items():
        assert m["value"] > 0 and m["unit"] == run.END_TO_END[key]


def test_layer_metrics_exercised(tiny_runs):
    """Catches a wrapper that misses a binding: its layer would read zero."""
    name, _, traced = tiny_runs
    assert set(EXERCISED) | set(ZERO_ON_SEED) == set(tracer.LAYER_METRICS)
    metrics = traced["metrics"]
    for key, where in EXERCISED.items():
        if name in where:
            assert metrics[key]["value"] > 0, (name, key)
    for key in ZERO_ON_SEED:
        assert metrics[key]["value"] == 0, (name, key)


def test_install_patches_every_binding_and_uninstall_restores():
    originals = {}
    for _, modname, names in tracer.FUNCTIONS:
        for fname in names:
            originals[id(getattr(sys.modules[modname], fname))] = fname
    tr = tracer.Tracer()
    tr.install()
    try:
        for modname, mod in list(sys.modules.items()):
            if modname == "pencilkit" or modname.startswith("pencilkit."):
                for attr, val in vars(mod).items():
                    assert id(val) not in originals, f"{modname}.{attr} still unwrapped"
        assert pencilkit.section is pencilkit.odae.section is pencilkit.sections.section
        assert pencilkit.dh.operator_matrix is pencilkit.sections.operator_matrix
    finally:
        tr.uninstall()
    assert not hasattr(pencilkit.sections.section, "__wrapped_by_tracer__")
    assert not hasattr(pencilkit.StructuredOperator.apply, "__wrapped_by_tracer__")


def test_recursion_and_nesting_count_once():
    s = pencilkit.section(pencilkit.get_fixture("kronecker_L").build(k=2)["pencil"], 3)
    tr = tracer.Tracer()
    tr.install()
    try:
        pencilkit.classify_point(s, pencilkit.INFINITY)
        pencilkit.extract_left_chain(s)
    finally:
        tr.uninstall()
    m = tracer.finalize(tracer.collect(tr.spans, tr.kernels))
    assert m["spectra.classify_calls"] == 1
    assert m["chains.extract_calls"] == 1
    assert m["chains.svd_per_extract"] > 0
    assert [sp.name for sp in tr.spans].count("spectra.classify_point") == 1


CLI_COMMANDS = (
    ["examples", "list"],
    ["analyze", "--fixture", "kronecker_L", "--n", "4"],
    ["chains", "--fixture", "kronecker_L", "--n", "3"],
    ["dh-check", "--fixture", "stokes_skeleton"],
    ["simulate", "--fixture", "shift_identity"],
)


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda a: " ".join(a))
def test_cli_stdout_identical_with_tracing(argv, tmp_path):
    plain = subprocess.run([sys.executable, "-m", "pencilkit.cli"] + argv, env=run.child_env(),
                           cwd=ROOT, capture_output=True, timeout=120)
    traced = subprocess.run([sys.executable, str(BENCH / "cli_entry.py"),
                             str(tmp_path / "spans.jsonl")] + argv,
                            env=run.child_env(), cwd=ROOT, capture_output=True, timeout=120)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    spans, _ = tracer.load_dump(str(tmp_path / "spans.jsonl"))
    assert spans[0]["name"] == "cli.main"


def _failures(tasks) -> int:
    tally = run.Tally({})
    for task in tasks:
        run.run_task(task, run.Context(), tally)
    return tally.failed


def test_wrong_expected_minimal_index_is_a_failure(tmp_path):
    tasks = [t for t in workloads.chain_scan(5, True, str(tmp_path)) if t.kind == "kronecker_L"]
    assert _failures(tasks) == 0
    tasks[0].expect["right"] += 1
    assert _failures(tasks) == 1


def test_wrong_expected_verdict_is_a_failure(tmp_path):
    tasks = [t for t in workloads.dense_sweep(5, True, str(tmp_path))
             if t.kind in ("classify_infinity", "dh_poroelasticity")]
    assert _failures(tasks) == 0
    tasks[0].expect["verdict"] = "point_singular"
    tasks[-1].expect["classification"] = "regular_candidate"
    assert _failures(tasks) == 2


def test_wrong_cli_answer_is_a_failure(tmp_path):
    tasks = [t for t in workloads.cli_cold(5, True, str(tmp_path)) if t.kind == "chains"][:1]
    assert _failures(tasks) == 0
    tasks[0].expect["right"] = 3
    assert _failures(tasks) == 1


def test_fails_without_package_source(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero, silently."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "out", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "dense-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
