"""Command-line interface tying the analysis modules together.

Subcommands: analyze, spectra, chains, approx, distance, dh-check,
simulate, examples (``examples list`` and ``examples run NAME|--all``).  All
numeric output uses 17 significant digits and deterministic ordering, so
identical inputs give byte-identical output at a fixed BLAS thread count;
across thread counts the last digits of near-singular results can move.
``PENCILKIT_THREADS=1`` pins the count.
Exit codes: 0 success, 1 verdict failure in ``examples run``, 2 input
error (a ``ValueError``, ``CLIError`` among them, or an OS error on a
pencil or ``--out`` path), 3
internal failure (a linear-algebra kernel that did not converge, a
quadrature that missed its tolerance, a ``chains`` report holding a
non-finite number, or a ``KeyError``: no input reaches one, since unknown
fixture names and malformed pencil files are reported as input errors
first).  ``_build_parser`` checks the shape of every
argument, and its errors read ``argument --X: ...`` (exit 2): numeric options
(``--rect``, ``--probes``, ``--tol``, ``--t-max``) must be finite, counts
(``--n``, ``--samples``, ``--n-values``, ``--sections``) positive,
``simulate --order`` at least 2, and ``spectra --steps`` at least 2 per axis.
A pencil FILE and ``--fixture`` exclude each other, one of them is required,
and ``examples run`` takes a fixture NAME or ``--all``.  An option that a
subcommand does not know is named first, with the values after it
(``unrecognized arguments: --seed 0``).  The ``_cmd_*``
functions receive checked values, and print values computed on a section in
the input's units through ``_fmt_unscaled`` (one that overflows is exit 2).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from . import approx, chains, dh, fixtures, linalg, odae, sections, serialize, sparsevec, spectra

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class CLIError(ValueError):
    """Input error; ``main`` reports it as it reports a library ``ValueError`` (exit 2)."""


def _load(path: str):
    if not os.path.exists(path):
        raise CLIError(f"{path}: file not found")
    return serialize.load_pencil(path)


def _seed_param(name: str, seed: int) -> dict:
    """--seed as a build parameter of the fixtures that take one."""
    try:
        fx = fixtures.get_fixture(name)
    except KeyError as exc:
        raise CLIError(exc.args[0]) from exc
    return {"seed": seed} if "seed" in fx.default_params else {}


def _fixture_data(args) -> dict:
    params = _seed_param(args.fixture, args.seed)  # first: it turns an unknown name into a CLIError
    return fixtures.get_fixture(args.fixture).build(**params)


def _target_data(args) -> dict:
    """Fixture data from --fixture, or ``{"pencil": ...}`` from a JSON path."""
    if args.fixture is None:
        return {"pencil": _load(args.pencil)}
    data = _fixture_data(args)
    if "pencil" not in data:
        if fixtures.get_fixture(args.fixture).caveat_only:
            raise CLIError(f"fixture {args.fixture!r} is caveat-only and builds no pencil")
        raise CLIError(f"fixture {args.fixture!r} builds a polynomial sequence, not a pencil")
    return data


def _target_pencil(args):
    """Pencil from --fixture or from a JSON path, with its caveat notes."""
    data = _target_data(args)
    return data["pencil"], tuple(data.get("notes", ()))


def _finite_float(text: str) -> float:
    """argparse type of the real-valued options: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _finite_complex(text: str) -> complex:
    """Item type of ``approx --probes``: a finite complex, ``i`` or ``j`` as the unit."""
    try:
        value = complex(text.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid complex value: {text!r}") from None
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _int_at_least(lo: int):
    """argparse type of the integer options: an integer >= ``lo``."""
    words = {0: "non-negative", 1: "positive"}.get(lo, f"at least {lo}")

    def integer(text: str) -> int:
        value = _int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be {words}, got {text!r}")
        return value

    return integer


def _series_order(text: str) -> int:
    """argparse type of ``simulate --order``: an integer >= ``odae.MIN_SERIES_ORDER``.

    The bound is read when argparse calls this, so building the parser runs no ``odae``.
    """
    return _int_at_least(odae.MIN_SERIES_ORDER)(text)


def _list_of(item, count: int | None):
    """argparse type of a comma-separated list of ``item`` values, ``count`` of them if given.

    Blank entries are skipped.  Messages name an item by the last word of its
    type's ``__name__`` (``integer``, ``float``, ``complex``), as argparse does.
    """
    noun = item.__name__.rsplit("_", 1)[-1]

    def parse(text: str) -> list:
        vals = [item(s.strip()) for s in text.split(",") if s.strip()]
        if not vals:
            raise argparse.ArgumentTypeError(f"empty {noun} list")
        if count is not None and len(vals) != count:
            raise argparse.ArgumentTypeError(f"needs {count} {noun} values, got {text!r}")
        return vals

    return parse


def _fmt_unscaled(s: sections.SectionedPencil, value: float, name: str) -> str:
    """``value``, computed on the stored matrices of ``s``, formatted in the input's units."""
    return sparsevec._fmt(s.unscaled(value, name))


def _emit(lines, out_path: str | None):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    p, notes = _target_pencil(args)
    s = sections.section(p, args.n)
    lines = [
        f"window n={args.n}: {s.shape[0]}x{s.shape[1]} section "
        f"({s.window_in.space.kind} -> {s.window_out.space.kind})"
    ]
    for note in notes:
        lines.append(f"note: {note}")
    for lam in (0.0, 1.0, 1.0j, spectra.INFINITY):
        pc = spectra.classify_point(s, lam)
        label = "inf" if lam == spectra.INFINITY else f"{complex(lam).real:g}{complex(lam).imag:+g}i"
        smin = _fmt_unscaled(s, pc.sigma_min, f"sigma_min at lambda={label}")
        lines.append(f"lambda={label}: sigma_min={smin} verdict={pc.verdict}")
    cert = sections.distance_to_singularity_bound(s)
    lines.append("stacked sigma_min certificate: " + _fmt_unscaled(s, cert.value, "certificate"))
    rep = chains.extract_right_chain(s)
    if rep is None:
        lines.append("right singular chain: none (section is regular)")
    else:
        lines.append(f"right singular chain: minimal index {rep.minimal_index}")
    if p.dh is not None:
        drep = dh.dh_classify(s, p.dh)
        lines.append(
            "dh: structure "
            + ("ok" if drep.diagnostics.structure_ok else "VIOLATED")
            + f", common kernel dim {drep.common_kernel_dim}, "
            + f"classification {drep.classification}"
        )
    lines.append("verdicts describe the chosen section, not the infinite object")
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_spectra(args) -> int:
    p, notes = _target_pencil(args)
    s = sections.section(p, args.n)
    lines = [f"# note: {n}" for n in notes]
    lines.append("re,im,sigma_min,sigma_min_adjoint,verdict")
    for pc in spectra.spectra_grid(s, args.rect, args.steps):
        lam = complex(pc.lam)
        lines.append(f"{sparsevec._fmt(lam.real)},{sparsevec._fmt(lam.imag)},"
                     f"{_fmt_unscaled(s, pc.sigma_min, f'sigma_min at {lam}')},"
                     f"{_fmt_unscaled(s, pc.sigma_min_adjoint, f'sigma_min_adjoint at {lam}')},"
                     f"{pc.verdict}")
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_chains(args) -> int:
    p, notes = _target_pencil(args)
    s = sections.section(p, args.n)
    report: dict = {"window_n": args.n, "notes": list(notes)}
    extractors = {"right": chains.extract_right_chain, "left": chains.extract_left_chain}
    for side, extract in extractors.items():
        rep = extract(s, linalg.TOL_CHAIN if args.tol is None else args.tol)
        if rep is None:
            report[side] = None
            continue
        check = chains.verify_singular_polynomial(s, chains.chain_to_polynomial(rep), side=side)
        report[side] = {
            "side": side, "minimal_index": rep.minimal_index,
            "residuals": [s.unscaled(r, f"{side} chain residual") for r in rep.residuals],
            "verify_residual": s.unscaled(check, f"{side} verify_residual"),
            "window_indices": list(rep.window_indices),
            "vectors": [[[z.real, z.imag] for z in v] for v in rep.chain],
        }
    try:
        line = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a non-finite number in the report is the code's fault
        raise RuntimeError(f"chains report: {exc}") from exc
    _emit([line], args.out)
    return EXIT_OK


def _cmd_approx(args) -> int:
    data = _fixture_data(args)
    if "sequence" not in data:
        raise CLIError(f"fixture {args.fixture!r} provides no polynomial sequence")
    seq = data["sequence"]
    gram = approx.gram_lower_bound(seq, args.n_values)
    lmin = dict(zip(gram.n_values, gram.lambda_min))
    lines = ["n,probe_re,probe_im,fwd_residual,rev_residual,p_norm,revp_norm,gram_lambda_min"]
    for r in approx.sequence_residuals(data.get("pencil"), seq, args.probes, args.n_values):
        residuals = (["", ""] if r.forward is None
                     else [sparsevec._fmt(r.forward), sparsevec._fmt(r.reverse)])
        lines.append(",".join([str(r.n), sparsevec._fmt(r.probe.real),
                               sparsevec._fmt(r.probe.imag), *residuals,
                               sparsevec._fmt(r.p_norm), sparsevec._fmt(r.revp_norm),
                               sparsevec._fmt(lmin[r.n])]))
    _emit(lines, args.out)
    return EXIT_OK


def _witness_support_center(cert, window) -> float:
    w = np.abs(cert.witness) ** 2
    total = float(w.sum())
    if total == 0:
        return 0.0
    idx = np.asarray(window.indices, dtype=float)
    return float((idx * w).sum() / total)


def _cmd_distance(args) -> int:
    p, notes = _target_pencil(args)
    lines = [f"# note: {n}" for n in notes]
    lines.append("n,stacked_sigma_min,witness_support_center")
    for n in args.sections:
        s = sections.section(p, n)
        cert = sections.distance_to_singularity_bound(s)
        center = _witness_support_center(cert, s.window_in)
        value = _fmt_unscaled(s, cert.value, f"stacked sigma_min at n={n}")
        lines.append(f"{n},{value},{sparsevec._fmt(center)}")
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_dh_check(args) -> int:
    data = _target_data(args)
    notes = data.get("notes", ())
    target = data.get("dh_pencil", data["pencil"]) if args.use_companion else data["pencil"]
    rep = dh.dh_classify(sections.section(target, args.n), target.dh)
    s = rep.mats.section

    def margin(label: str, value: float) -> str:
        return f"  {label}: {_fmt_unscaled(s, value, label.strip())}"

    lines = [f"note: {n}" for n in notes]
    d = rep.diagnostics
    lines += [
        f"structure: {'ok' if d.structure_ok else 'VIOLATED'}",
        margin("Q*E selfadjoint defect ", d.qe_selfadjoint_defect),
        margin("Q*E smallest eigenvalue", d.qe_min_eig),
        margin("sym(B) largest eigenvalue", d.b_sym_max_eig),
        f"  sigma_min(Q)           : {sparsevec._fmt(d.q_sigma_min)}",
    ]
    if d.j_skew_defect is not None:
        lines.append(margin("J skew defect          ", d.j_skew_defect))
    if d.r_min_eig is not None:
        lines.append(margin("R smallest eigenvalue  ", d.r_min_eig))
    lines += [
        f"common kernel dimension: {rep.common_kernel_dim}",
        f"stacked sigma_min      : {_fmt_unscaled(s, rep.stacked_sigma_min, 'stacked sigma_min')}",
        "probe sigma_min:",
    ]
    for lam, sv in dh.probe_sigma_min(rep.mats):
        label = f"{sparsevec._fmt(lam.real)}{lam.imag:+.17g}i"
        lines.append(f"  {label} : {_fmt_unscaled(s, sv, 'probe sigma_min at ' + label)}")
    lines += [
        f"classification: {rep.classification}",
        "maximal dissipativity is automatic in finite dimensions (reported, not tested)",
    ]
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    data = _fixture_data(args)
    t_grid = np.linspace(0.0, args.t_max, args.samples)
    p = data.get("pencil")
    if "generator" in data:
        traj = odae.series_solution(p, data["generator"], t_grid, order=args.order)
        mild = odae.mild_residual(p, traj)
        pbe = ham = None
    elif "x0" in data:
        traj = fixtures.integrator_trajectory(data, t_grid, data["x0"])
        mild = odae.mild_residual(p, traj)
        pbe, ham = odae.power_balance_residual(p, traj)
    else:
        raise CLIError(f"fixture {args.fixture!r} has no simulation recipe")
    w = args.window
    header = ["t"]
    header += [f"x{j}_re" for j in range(1, w + 1)] + [f"x{j}_im" for j in range(1, w + 1)]
    header += ["residual_classical", "residual_mild", "residual_pbe", "hamiltonian"]
    lines = [",".join(header)]
    for i, t in enumerate(traj.times):
        state = traj.states[i]
        row = [sparsevec._fmt(float(t))]
        row += [sparsevec._fmt(complex(state.get(j, 0.0)).real) for j in range(1, w + 1)]
        row += [sparsevec._fmt(complex(state.get(j, 0.0)).imag) for j in range(1, w + 1)]
        rc = traj.residual_classical[i] if traj.residual_classical is not None else float("nan")
        row.append(sparsevec._fmt(float(rc)))
        row.append(sparsevec._fmt(float(mild[i])))
        row.append(sparsevec._fmt(float(pbe[i])) if pbe is not None else "nan")
        row.append(sparsevec._fmt(float(ham[i])) if ham is not None else "nan")
        lines.append(",".join(row))
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_examples(args) -> int:
    if args.action == "list":
        lines = []
        for name in fixtures.fixture_names():
            fx = fixtures.get_fixture(name)
            tag = " (caveat-only)" if fx.caveat_only else ""
            lines.append(f"{name}{tag}: {fx.description}")
        _emit(lines, args.out)
        return EXIT_OK
    names = fixtures.fixture_names() if args.all else [args.name]
    lines = []
    any_failed = False
    for name in names:
        lines.append(f"== {name} ==")
        results = fixtures.run_fixture(name, **_seed_param(name, args.seed))
        for res in results:
            status = "pass" if res.passed else "FAIL"
            any_failed = any_failed or not res.passed
            lines.append(f"  [{status}] {res.name}: {res.detail}")
    lines.append("overall: " + ("FAIL" if any_failed else "pass"))
    _emit(lines, args.out)
    return EXIT_VERDICT if any_failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    class Command(argparse.ArgumentParser):
        """Names an option it does not know, and the values after it, before any other error.

        argparse hands those values to a positional, so ``examples run --all --seed 0``
        read "argument name: not allowed with argument --all".  A parser with
        subcommands leaves their options to them.
        """

        def parse_known_args(self, args, namespace):
            unknown, stray, takes_next = [], False, False
            for arg in args if self._subparsers is None else ():
                if arg == "--":
                    break
                # None for a value; else (action, ..., "=value"), a list of them from Python 3.12.7
                found = None if takes_next else self._parse_optional(arg)
                takes_next = False  # "--rect -2,2,-2,2" stays "--rect: expected one argument"
                if found is not None:
                    action, *_, value = found[0] if isinstance(found, list) else found
                    stray = action is None
                    takes_next = not stray and value is None and action.nargs != 0
                if stray:
                    unknown.append(arg)
            if unknown:
                self.error(f"unrecognized arguments: {' '.join(unknown)}")
            return super().parse_known_args(args, namespace)

    ap = argparse.ArgumentParser(
        prog="pencilkit",
        description="spectral analysis of operator pencils and their differential-algebraic equations",
    )
    ap.add_argument("--seed", type=int, default=0, help="seed for all randomness (default 0)")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=Command)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write output to a file instead of stdout")
    target = argparse.ArgumentParser(add_help=False, parents=[output])
    source = target.add_mutually_exclusive_group(required=True)
    source.add_argument("pencil", nargs="?", help="pencil description (JSON)")
    source.add_argument("--fixture", help="use a named fixture instead of a JSON file")
    windowed = argparse.ArgumentParser(add_help=False, parents=[target])
    windowed.add_argument(
        "--n", type=_int_at_least(1), default=8, help="section window size (default 8)"
    )

    sub.add_parser("analyze", parents=[windowed], help="structure and classification summary")

    sp = sub.add_parser("spectra", parents=[windowed], help="sigma_min classification grid (CSV)")
    sp.add_argument("--rect", type=_list_of(_finite_float, 4), default="-2,2,-2,2",
                    help="re_min,re_max,im_min,im_max")
    sp.add_argument("--steps", type=_list_of(_int_at_least(2), 2), default="9,9",
                    help="n_re,n_im (>= 2 each)")

    sp = sub.add_parser(
        "chains", parents=[windowed], help="singular chain extraction report (JSON)"
    )
    sp.add_argument("--tol", type=_finite_float)

    sp = sub.add_parser("approx", parents=[output],
                        help="approximate polynomial sequence residuals (CSV)")
    sp.add_argument("--fixture", required=True)
    sp.add_argument("--probes", type=_list_of(_finite_complex, None), default="0,1,-1,1+1i")
    sp.add_argument("--n-values", type=_list_of(_int_at_least(1), None), default="1,2,3,4,5,6",
                    dest="n_values")

    sp = sub.add_parser(
        "distance", parents=[target], help="stacked sigma_min sweep over sections (CSV)"
    )
    sp.add_argument("--sections", type=_list_of(_int_at_least(1), None), default="2,4,8,16")

    sp = sub.add_parser(
        "dh-check", parents=[windowed], help="dissipative-Hamiltonian structure report"
    )
    sp.add_argument(
        "--use-companion",
        action="store_true",
        help="use the fixture's dissipative companion pencil when it has one",
    )

    sp = sub.add_parser("simulate", parents=[output], help="trajectory with residual columns (CSV)")
    sp.add_argument("--fixture", required=True)
    sp.add_argument("--order", type=_series_order, default=10,
                    help="series truncation order (>= 2)")
    sp.add_argument("--t-max", type=_finite_float, default=1.0, dest="t_max")
    sp.add_argument("--samples", type=_int_at_least(1), default=11)
    sp.add_argument("--window", type=_int_at_least(0), default=8, help="state coordinates to print")

    sp = sub.add_parser("examples", help="list fixtures or run their check suites")
    actions = sp.add_subparsers(dest="action", required=True)
    actions.add_parser("list", parents=[output], help="list the fixtures")
    sp = actions.add_parser("run", parents=[output], help="run fixture check suites")
    which = sp.add_mutually_exclusive_group(required=True)
    which.add_argument("name", nargs="?", help="fixture name")
    which.add_argument("--all", action="store_true", help="run every fixture")

    return ap


_COMMANDS = {
    "analyze": _cmd_analyze,
    "spectra": _cmd_spectra,
    "chains": _cmd_chains,
    "approx": _cmd_approx,
    "distance": _cmd_distance,
    "dh-check": _cmd_dh_check,
    "simulate": _cmd_simulate,
    "examples": _cmd_examples,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[args.command](args)
    except (FloatingPointError, OverflowError) as exc:  # finite input, out-of-range result
        print(f"error: {exc}: the input is too large for double precision", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, KeyError, RuntimeError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first; RuntimeError
        # covers odae.QuadratureError
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
