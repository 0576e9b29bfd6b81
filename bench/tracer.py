"""Spans and kernel counters recorded from outside the pencilkit package.

``Tracer.install`` wraps the public functions of every pencilkit module and
the scipy/numpy linear-algebra kernels they call, without editing the
package:

- every namespace that binds a wrapped function (``from .sections import
  section`` in ``odae``, the re-exports in ``pencilkit/__init__``) gets the
  wrapper, found by identity over ``sys.modules``;
- a call creates a span (layer, name, start, end, parent id); a direct
  recursion into the same function (``classify_point`` at ``INFINITY``)
  does not open a second span;
- layer metrics count only the outermost call of their function set, so a
  nested ``extract_left_chain -> extract_right_chain`` is one extraction;
- kernel calls (SVD family and Hermitian eigensolvers) are attributed to
  the innermost open span.  Their flops and bytes are computed from the
  matrix shapes with textbook operation counts, not measured.

Kernel calls made while no pencilkit span is open (the benchmark's own
oracles) are not recorded.  Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
from time import perf_counter

# (layer, module, public functions wrapped in that module)
FUNCTIONS = (
    ("cli", "pencilkit.cli", ("main",)),
    ("serialize", "pencilkit.serialize", ("load_pencil", "pencil_from_json")),
    ("fixtures", "pencilkit.fixtures",
     ("run_fixture", "get_fixture", "verify_singular_function", "integrator_trajectory")),
    ("sections", "pencilkit.sections",
     ("section", "operator_matrix", "distance_to_singularity_bound", "joint_kernel_defect",
      "numerical_rank_tol")),
    ("spectra", "pencilkit.spectra", ("classify_point", "spectra_grid", "regularity_disc")),
    ("chains", "pencilkit.chains",
     ("extract_right_chain", "extract_left_chain", "chain_to_polynomial",
      "verify_singular_polynomial", "reduce_polynomial", "polynomial_roots_check")),
    ("approx", "pencilkit.approx",
     ("sequence_residuals", "gram_lower_bound", "approx_kernel_sequence")),
    ("dh", "pencilkit.dh",
     ("dh_classify", "verify_dh_structure", "dh_common_kernel", "dh_kernel_EJR",
      "dh_section_mats", "subspace_angle")),
    ("odae", "pencilkit.odae",
     ("series_solution", "polynomial_solution", "mild_residual", "power_balance_residual",
      "uniqueness_demo", "adaptive_simpson_vec", "adaptive_simpson_scalar")),
)

# (layer, module, class, methods)
METHODS = (
    ("operators", "pencilkit.operators", "StructuredOperator", ("apply",)),
    ("operators", "pencilkit.operators", "Pencil", ("evaluate_action",)),
)

# Outcome recorded on a span from the wrapped call's return value.
PROBES = {
    "chains.extract_right_chain": lambda out: out is not None,
    "chains.extract_left_chain": lambda out: out is not None,
    "fixtures.checks": lambda out: sum(1 for r in out if not r.passed),
}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "fn", "task", "start", "end", "error", "note")

    def __init__(self, sid, parent, layer, name, fn, task):
        self.id, self.parent, self.layer, self.name = sid, parent, layer, name
        self.fn, self.task = fn, task
        self.start = self.end = 0.0
        self.error = False
        self.note = None

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "layer": self.layer, "name": self.name,
                "task": self.task, "start": self.start, "end": self.end,
                "error": self.error, "note": self.note}


@dataclasses.dataclass
class Kernel:
    span: int
    layer: str
    kind: str          # "svd" or "eig"
    name: str
    m: int
    n: int
    vectors: bool
    flops: float
    nbytes: float
    seconds: float
    repeat: bool


def _svd_flops(m: int, n: int, uv: bool, full: bool) -> float:
    """Golub & Van Loan operation counts for a real m x n SVD."""
    m, n = max(m, n), min(m, n)
    if not uv:
        return 4.0 * m * n * n - 4.0 * n**3 / 3.0
    if full:
        return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    return 6.0 * m * n * n + 20.0 * n**3


def _eig_flops(n: int, vectors: bool) -> float:
    return 9.0 * n**3 if vectors else 4.0 * n**3 / 3.0


def _complex_factor(a) -> float:
    return 4.0 if a.dtype.kind == "c" else 1.0


class Tracer:
    """Recorder for one process; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kernels: list[Kernel] = []
        self.stack: list[int] = []
        self.task = 0
        self._seen: set = set()
        self._restore: list = []

    # -- bookkeeping --------------------------------------------------------

    def begin_task(self) -> None:
        """Start a new benchmark task; repeat detection is per task."""
        self.task += 1
        self._seen = set()

    def _span_wrapper(self, layer: str, name: str, fn):
        spans, stack = self.spans, self.stack
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]].fn is fn:
                return fn(*args, **kwargs)
            span = Span(len(spans), stack[-1] if stack else None, layer, name, fn, self.task)
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if probe is not None:
                span.note = probe(out)
            return out

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _kernel_wrapper(self, kind: str, name: str, fn, shape_of):
        spans, stack, kernels = self.spans, self.stack, self.kernels

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            info = shape_of(*args, **kwargs)
            if info is None:
                return fn(*args, **kwargs)
            a, vectors, flops, out_elems = info
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            repeat = False
            if kind == "svd":
                key = (a.shape, a.dtype.str, hashlib.blake2b(a.tobytes(), digest_size=16).digest())
                repeat = key in self._seen
                self._seen.add(key)
            span = spans[stack[-1]]
            m, n = (a.shape + (1,))[:2]
            kernels.append(Kernel(span.id, span.layer, kind, name, int(m), int(n), vectors,
                                  flops * _complex_factor(a),
                                  float(a.itemsize * (a.size + out_elems)), dt, repeat))
            return out

        return wrapper

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy as np
        import scipy.linalg

        import pencilkit
        import pencilkit.cli  # noqa: F401  (not imported by the package itself)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "pencilkit" or k.startswith("pencilkit."))]
        for layer, modname, names in FUNCTIONS:
            home = sys.modules[modname]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._span_wrapper(layer, f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapped)
        for layer, modname, clsname, names in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            for meth in names:
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._span_wrapper(layer, f"{layer}.{meth}", orig))

        registry = sys.modules["pencilkit.fixtures"].REGISTRY
        for key, fx in list(registry.items()):
            patched = dataclasses.replace(
                fx,
                build=self._span_wrapper("fixtures", "fixtures.build", fx.build),
                checks=self._span_wrapper("fixtures", "fixtures.checks", fx.checks),
            )
            self._restore.append((registry, key, fx))
            registry[key] = patched

        def svd_shape(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            a = np.asarray(a)
            m, n = a.shape
            k = min(m, n)
            out = (m * m + n * n if full_matrices else (m + n) * k) + k if compute_uv else k
            return a, compute_uv, _svd_flops(m, n, compute_uv, full_matrices), out

        def svdvals_shape(a, *args, **kwargs):
            a = np.asarray(a)
            return a, False, _svd_flops(*a.shape, False, False), min(a.shape)

        def norm_shape(x, ord=None, axis=None, keepdims=False):
            if ord not in (2, -2) or axis is not None:
                return None
            x = np.asarray(x)
            if x.ndim != 2:
                return None
            return x, False, _svd_flops(*x.shape, False, False), min(x.shape)

        def eigh_shape(a, *args, **kwargs):
            a = np.asarray(a)
            n = a.shape[-1]
            return a, True, _eig_flops(n, True), n + n * n

        def eigvalsh_shape(a, *args, **kwargs):
            a = np.asarray(a)
            n = a.shape[-1]
            return a, False, _eig_flops(n, False), n

        for owner, attr, kind, shape_of in (
            (scipy.linalg, "svd", "svd", svd_shape),
            (scipy.linalg, "svdvals", "svd", svdvals_shape),
            (np.linalg, "norm", "svd", norm_shape),
            (np.linalg, "eigh", "eig", eigh_shape),
            (np.linalg, "eigvalsh", "eig", eigvalsh_shape),
        ):
            self._set(owner, attr,
                      self._kernel_wrapper(kind, f"{owner.__name__}.{attr}",
                                           getattr(owner, attr), shape_of))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every recorded span and kernel call as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": s.to_json()}) + "\n")
            for k in self.kernels:
                fh.write(json.dumps({"kernel": dataclasses.asdict(k)}) + "\n")


def load_dump(path: str) -> tuple[list[dict], list[dict]]:
    spans, kernels = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "span" in rec:
                spans.append(rec["span"])
            else:
                kernels.append(rec["kernel"])
    return spans, kernels


# ---------------------------------------------------------------------------
# per-layer metrics
#
# ``collect`` reduces the spans and kernels of one pass to additive raw
# sums; ``merge`` adds raw sums of several processes (cli-cold children);
# ``finalize`` turns them into the named per-layer metrics.

# metric -> (unit, function names whose outermost spans it sums)
SPAN_METRICS = {
    "cli.main": ("cli.main",),
    "serialize.load": ("serialize.load_pencil", "serialize.pencil_from_json"),
    "fixtures.build": ("fixtures.build",),
    "fixtures.checks": ("fixtures.checks",),
    "operators.apply": ("operators.apply", "operators.evaluate_action"),
    "sections.section": ("sections.section",),
    "sections.assembly": ("sections.section", "sections.operator_matrix"),
    "sections.certificate": ("sections.distance_to_singularity_bound",
                             "sections.joint_kernel_defect"),
    "spectra.classify": ("spectra.classify_point",),
    "spectra.grid": ("spectra.spectra_grid",),
    "chains.extract": ("chains.extract_right_chain", "chains.extract_left_chain"),
    "chains.verify": ("chains.verify_singular_polynomial",),
    "chains.reduce": ("chains.reduce_polynomial",),
    "approx.residuals": ("approx.sequence_residuals",),
    "approx.gram": ("approx.gram_lower_bound",),
    "dh.classify": ("dh.dh_classify",),
    "dh.verify": ("dh.verify_dh_structure",),
    "dh.kernel": ("dh.dh_common_kernel", "dh.dh_kernel_EJR"),
    "odae.series": ("odae.series_solution",),
    "odae.polynomial": ("odae.polynomial_solution",),
    "odae.mild_residual": ("odae.mild_residual",),
    "odae.power_balance": ("odae.power_balance_residual",),
    "odae.quadrature": ("odae.adaptive_simpson_vec", "odae.adaptive_simpson_scalar"),
}

# Published per-layer metrics (name -> unit), in the order they are reported.
LAYER_METRICS = {
    "import.pencilkit_s": "s",
    "import.scipy_linalg_s": "s",
    "import.scipy_integrate_s": "s",
    "cli.main_calls": "count",
    "cli.self_s": "s",
    "cli.digest_mismatches": "count",
    "serialize.load_calls": "count",
    "serialize.load_s": "s",
    "serialize.errors": "count",
    "fixtures.build_s": "s",
    "fixtures.checks_s": "s",
    "fixtures.checks_failed": "count",
    "operators.apply_calls": "count",
    "operators.apply_s": "s",
    "sections.section_calls": "count",
    "sections.section_s": "s",
    "sections.certificate_calls": "count",
    "sections.certificate_s": "s",
    "sections.svd_calls": "count",
    "spectra.classify_calls": "count",
    "spectra.classify_s": "s",
    "spectra.grid_s": "s",
    "spectra.svd_flops_computed": "flop",
    "chains.extract_calls": "count",
    "chains.extract_s": "s",
    "chains.found_ratio": "ratio",
    "chains.svd_per_extract": "ratio",
    "chains.verify_s": "s",
    "chains.reduce_s": "s",
    "approx.residuals_s": "s",
    "approx.gram_s": "s",
    "dh.classify_calls": "count",
    "dh.classify_s": "s",
    "dh.verify_s": "s",
    "dh.kernel_s": "s",
    "dh.svd_calls": "count",
    "odae.series_s": "s",
    "odae.polynomial_s": "s",
    "odae.mild_residual_s": "s",
    "odae.power_balance_s": "s",
    "odae.quadrature_calls": "count",
    "odae.quadrature_s": "s",
    "odae.quadrature_errors": "count",
    "linalg.svd_calls": "count",
    "linalg.svd_full_calls": "count",
    "linalg.svd_s": "s",
    "linalg.svd_flops_computed": "flop",
    "linalg.svd_bytes_computed": "B",
    "linalg.svd_max_dim": "count",
    "linalg.svd_repeat_ratio": "ratio",
    "linalg.eig_calls": "count",
    "linalg.eig_s": "s",
    "trace.overhead_ratio": "ratio",
}

EXTRACT_NAMES = set(SPAN_METRICS["chains.extract"])


def _get(rec, key):
    return rec[key] if isinstance(rec, dict) else getattr(rec, key)


def collect(spans: list, kernels: list) -> dict:
    """Additive raw sums for one set of spans and kernel calls.

    ``spans`` may be ``Span`` objects or their JSON dicts; parent ids index
    into the same list, so pass a whole process's spans (or a slice whose
    parents all lie inside it, keyed by id).
    """
    by_id = {_get(s, "id"): s for s in spans}
    raw: dict = {}

    def add(key, value):
        raw[key] = raw.get(key, 0) + value

    for metric, names in SPAN_METRICS.items():
        names = set(names)
        for s in spans:
            if _get(s, "name") not in names:
                continue
            p = _get(s, "parent")
            while p is not None and p in by_id:
                if _get(by_id[p], "name") in names:
                    break
                p = _get(by_id[p], "parent")
            else:
                add(metric + ".calls", 1)
                add(metric + ".s", _get(s, "end") - _get(s, "start"))
                add(metric + ".errors", 1 if _get(s, "error") else 0)
                note = _get(s, "note")
                if note is not None:
                    add(metric + ".note", int(note))

    child_time: dict = {}
    for s in spans:
        p = _get(s, "parent")
        if p is not None:
            child_time[p] = child_time.get(p, 0.0) + _get(s, "end") - _get(s, "start")
    for s in spans:
        if _get(s, "name") == "cli.main":
            add("cli.self_s", _get(s, "end") - _get(s, "start") - child_time.get(_get(s, "id"), 0.0))

    raw.setdefault("linalg.svd_max_dim", 0)
    for k in kernels:
        kind, layer = _get(k, "kind"), _get(k, "layer")
        if kind == "eig":
            add("linalg.eig_calls", 1)
            add("linalg.eig_s", _get(k, "seconds"))
            continue
        add("linalg.svd_calls", 1)
        add("linalg.svd_full_calls", 1 if _get(k, "vectors") else 0)
        add("linalg.svd_s", _get(k, "seconds"))
        add("linalg.svd_flops_computed", _get(k, "flops"))
        add("linalg.svd_bytes_computed", _get(k, "nbytes"))
        add("linalg.svd_repeats", 1 if _get(k, "repeat") else 0)
        raw["linalg.svd_max_dim"] = max(raw["linalg.svd_max_dim"], _get(k, "m"), _get(k, "n"))
        add(f"{layer}.svd_calls", 1)
        add(f"{layer}.svd_flops", _get(k, "flops"))
        span = by_id.get(_get(k, "span"))
        if span is not None and _get(span, "name") in EXTRACT_NAMES:
            add("chains.extract_svd_calls", 1)
    return raw


def merge(raws: list[dict]) -> dict:
    out: dict = {}
    for raw in raws:
        for key, value in raw.items():
            if key == "linalg.svd_max_dim":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def finalize(raw: dict) -> dict:
    """Named per-layer metrics (all but the import, digest and overhead ones)."""
    g = lambda key: raw.get(key, 0)  # noqa: E731
    extracts = g("chains.extract.calls")
    svds = g("linalg.svd_calls")
    return {
        "cli.main_calls": g("cli.main.calls"),
        "cli.self_s": g("cli.self_s"),
        "serialize.load_calls": g("serialize.load.calls"),
        "serialize.load_s": g("serialize.load.s"),
        "serialize.errors": g("serialize.load.errors"),
        "fixtures.build_s": g("fixtures.build.s"),
        "fixtures.checks_s": g("fixtures.checks.s"),
        "fixtures.checks_failed": g("fixtures.checks.note"),
        "operators.apply_calls": g("operators.apply.calls"),
        "operators.apply_s": g("operators.apply.s"),
        "sections.section_calls": g("sections.section.calls"),
        "sections.section_s": g("sections.assembly.s"),
        "sections.certificate_calls": g("sections.certificate.calls"),
        "sections.certificate_s": g("sections.certificate.s"),
        "sections.svd_calls": g("sections.svd_calls"),
        "spectra.classify_calls": g("spectra.classify.calls"),
        "spectra.classify_s": g("spectra.classify.s"),
        "spectra.grid_s": g("spectra.grid.s"),
        "spectra.svd_flops_computed": g("spectra.svd_flops"),
        "chains.extract_calls": extracts,
        "chains.extract_s": g("chains.extract.s"),
        "chains.found_ratio": g("chains.extract.note") / extracts if extracts else 0.0,
        "chains.svd_per_extract": g("chains.extract_svd_calls") / extracts if extracts else 0.0,
        "chains.verify_s": g("chains.verify.s"),
        "chains.reduce_s": g("chains.reduce.s"),
        "approx.residuals_s": g("approx.residuals.s"),
        "approx.gram_s": g("approx.gram.s"),
        "dh.classify_calls": g("dh.classify.calls"),
        "dh.classify_s": g("dh.classify.s"),
        "dh.verify_s": g("dh.verify.s"),
        "dh.kernel_s": g("dh.kernel.s"),
        "dh.svd_calls": g("dh.svd_calls"),
        "odae.series_s": g("odae.series.s"),
        "odae.polynomial_s": g("odae.polynomial.s"),
        "odae.mild_residual_s": g("odae.mild_residual.s"),
        "odae.power_balance_s": g("odae.power_balance.s"),
        "odae.quadrature_calls": g("odae.quadrature.calls"),
        "odae.quadrature_s": g("odae.quadrature.s"),
        "odae.quadrature_errors": g("odae.quadrature.errors"),
        "linalg.svd_calls": svds,
        "linalg.svd_full_calls": g("linalg.svd_full_calls"),
        "linalg.svd_s": g("linalg.svd_s"),
        "linalg.svd_flops_computed": g("linalg.svd_flops_computed"),
        "linalg.svd_bytes_computed": g("linalg.svd_bytes_computed"),
        "linalg.svd_max_dim": g("linalg.svd_max_dim"),
        "linalg.svd_repeat_ratio": g("linalg.svd_repeats") / svds if svds else 0.0,
        "linalg.eig_calls": g("linalg.eig_calls"),
        "linalg.eig_s": g("linalg.eig_s"),
    }
