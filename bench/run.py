"""pencilkit benchmark: four seeded closed-loop workloads, one command.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (see bench/README.md).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import os

# Pinned before numpy is imported, here and (through the environment) in
# every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

WORKLOAD_NAMES = ("cli-cold", "dense-sweep", "chain-scan", "sparse-trajectories")
# The calibration kernel each workload's times are rescaled by: the one whose
# slow-downs on a shared host track the workload's best (see Calibrator).
CALIBRATION = {"cli-cold": "interpreter", "dense-sweep": "lapack", "chain-scan": "lapack",
               "sparse-trajectories": "dict"}
END_TO_END = {"wall_ref_s": "s", "task_ref_s_p50": "s", "task_ref_s_p90": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# fresh-interpreter probes

def _probe_ready(cmd: list[str]) -> float:
    """Seconds from spawning ``cmd`` until it prints its ready timestamp."""
    t0 = time.monotonic()
    out = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                         timeout=CHILD_TIMEOUT, check=True)
    return float(out.stdout.decode().split()[-1]) - t0


def setup_seconds(workload: str, seed: int, tiny: bool) -> float:
    """Median over fresh interpreters of start -> ready for the first task.

    In reference seconds, each probe rescaled by the fresh-interpreter
    calibration kernel timed around it.
    """
    if workload == "cli-cold":
        cmd = [sys.executable, "-c", "import pencilkit.cli, time; print(time.monotonic())"]
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
               "--seed", str(seed)] + (["--tiny"] if tiny else [])
    cal = Calibrator("interpreter")
    probes = []
    for _ in range(1 if tiny else SETUP_PROBES):
        cal.sample()
        probes.append(_probe_ready(cmd))
    cal.sample()
    return median([cal.rescale(dt, i) for i, dt in enumerate(probes)])


def import_seconds() -> dict:
    """Cumulative import times from ``-X importtime`` of fresh interpreters.

    ``pencilkit.cli`` nests the package import (numpy and scipy.linalg
    included), so the larger of the two lines is the package's import time.
    """
    wanted = {"pencilkit": "import.pencilkit_s", "pencilkit.cli": "import.pencilkit_s",
              "scipy.linalg": "import.scipy_linalg_s",
              "scipy.integrate": "import.scipy_integrate_s"}
    runs = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import pencilkit.cli, scipy.integrate"],
                             env=child_env(), cwd=ROOT, capture_output=True,
                             timeout=CHILD_TIMEOUT, check=True)
        got = dict.fromkeys(set(wanted.values()), 0.0)
        for line in out.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in wanted and parts[1].strip().isdigit():
                key = wanted[parts[2].strip()]
                got[key] = max(got[key], int(parts[1]) * 1e-6)
        runs.append(got)
    return {k: median([r[k] for r in runs]) for k in runs[0]}


# ---------------------------------------------------------------------------
# running tasks

class Context:
    """What a task may use: the CLI launcher (traced or not) and the tracer."""

    def __init__(self, span_dir: Path | None = None):
        self.tracer = None          # in-process tracer while a traced pass runs
        self.trace_cli = False      # cli-cold: launch through cli_entry.py
        self.span_dir = span_dir    # where traced CLI children write their spans
        self.span_files: list[Path] = []

    def begin_task(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_task()

    def cli(self, argv: list[str]):
        if self.trace_cli:
            path = self.span_dir / f"task-{len(self.span_files)}.jsonl"
            self.span_files.append(path)
            cmd = [sys.executable, str(BENCH / "cli_entry.py"), str(path)] + argv
        else:
            cmd = [sys.executable, "-m", "pencilkit.cli"] + argv
        return subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              timeout=CHILD_TIMEOUT)


# ---------------------------------------------------------------------------
# calibration: task times rescaled to a reference machine speed

class Calibrator:
    """Times a fixed kernel alongside the tasks, to track the host's speed.

    The shared host this was built on changes speed by up to 1.8x for
    seconds at a time, and memory-heavy code slows more than compact code.
    A task's time divided by the time of a kernel like it, run on the same
    vCPU just before and just after the task, is steady to a few percent
    through those swings.  Times are reported as *reference seconds*:
    time * ref_s / kernel time, i.e. seconds on a host where the kernel
    takes ref_s (about its fast-phase time on the host it was tuned on, an
    Intel Xeon with 2 vCPUs).  No kernel touches pencilkit, so a change to
    the package moves only the tasks.

    ``interpreter`` times a fresh interpreter importing numpy; the other
    kernels run in a helper process (bench/calibrate.py).
    """

    # kernel -> (ref_s, seconds between samples)
    KERNELS = {"interpreter": (0.15, 1.0), "lapack": (0.003, 0.05), "dict": (0.0065, 0.05)}

    def __init__(self, kernel: str):
        self.ref_s, self.period_s = self.KERNELS[kernel]
        self.helper = None
        self.samples: list[float] = []
        if kernel != "interpreter":
            self.helper = subprocess.Popen([sys.executable, str(BENCH / "calibrate.py"), kernel],
                                           stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                           text=True, cwd=ROOT)
            self.sample()  # warms the helper; discarded
        self.samples: list[float] = []
        self.last = -float("inf")

    def close(self) -> None:
        if self.helper is not None:
            self.helper.stdin.close()
            self.helper.wait(timeout=CHILD_TIMEOUT)
            self.helper.stdout.close()
            self.helper = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.helper is not None and exc[0] is not None:
            self.helper.kill()
        self.close()

    def sample(self) -> None:
        if self.helper is None:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT,
                           capture_output=True, timeout=CHILD_TIMEOUT, check=True)
            self.samples.append(time.perf_counter() - t0)
        else:
            self.helper.stdin.write("\n")
            self.helper.stdin.flush()
            self.samples.append(float(self.helper.stdout.readline()))
        self.last = time.perf_counter()

    def maybe_sample(self) -> int:
        """Sample if a period has passed; returns the index of the latest sample."""
        if time.perf_counter() - self.last >= self.period_s:
            self.sample()
        return len(self.samples) - 1

    def rescale(self, dt: float, before: int) -> float:
        """``dt`` in reference seconds, by the median of the two samples just
        before and the two just after it (one sample's jitter is smoothed
        out; the host's speed phases last longer than that window)."""
        near = self.samples[max(before - 1, 0):before + 3]
        return dt * self.ref_s / median(near)


def stdout_digest(out) -> str:
    return hashlib.sha256(out.stdout).hexdigest()


class Tally:
    def __init__(self, digests: dict):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests = digests
        self.digest_mismatches: set[str] = set()


def run_task(task, ctx: Context, tally: Tally) -> float:
    """Time one task, then check its answer outside the timed region."""
    ctx.begin_task()
    t0 = time.perf_counter()
    try:
        out = task.run(ctx)
        error = None
    except Exception as exc:  # a raising task is a failed task, not a crash
        out, error = None, exc
    dt = time.perf_counter() - t0
    tally.attempted += 1
    ok = False
    if error is None:
        try:
            ok = bool(task.check(out, task.expect))
        except Exception as exc:
            error = exc
    if not ok:
        tally.failed += 1
        tally.failures.append(f"{task.kind} {task.expect}: {error!r}" if error else
                              f"{task.kind} {task.expect}: wrong answer")
    if task.digest_key is not None and out is not None:
        if tally.digests.get(task.digest_key) != stdout_digest(out):
            tally.digest_mismatches.add(task.digest_key)
    return dt


def run_pass(tasks, ctx, tally, cal: Calibrator) -> list[tuple[float, int]]:
    """Each task's latency and the index of the calibration sample before it."""
    out = []
    for task in tasks:
        before = cal.maybe_sample()
        out.append((run_task(task, ctx, tally), before))
    return out


def rescaled(passes: list[list[tuple[float, int]]], cal: Calibrator) -> list[list[float]]:
    """Latencies in reference seconds, indexed [task][pass]."""
    return [[cal.rescale(dt, before) for dt, before in times] for times in zip(*passes)]


def traced_pass(name, tasks, ctx, tally, cal, tracer_mod, tracer) -> tuple[list, dict]:
    """One pass with tracing on; returns its task latencies and raw layer sums."""
    if name == "cli-cold":
        first = len(ctx.span_files)
        ctx.trace_cli = True
        try:
            times = run_pass(tasks, ctx, tally, cal)
        finally:
            ctx.trace_cli = False
        return times, tracer_mod.merge([tracer_mod.collect(*tracer_mod.load_dump(str(path)))
                                       for path in ctx.span_files[first:] if path.exists()])
    s0, k0 = len(tracer.spans), len(tracer.kernels)
    ctx.tracer = tracer
    tracer.install()
    try:
        times = run_pass(tasks, ctx, tally, cal)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    return times, tracer_mod.collect(tracer.spans[s0:], tracer.kernels[k0:])


def warm_up(name, tasks, ctx, tally) -> None:
    """Run the first task of each kind once, so lazy imports and buffers settle.

    A cli-cold task is a fresh interpreter each time: one run is enough to
    write the bytecode cache of a new checkout.
    """
    if name == "cli-cold":
        tasks = tasks[:1]
    seen = set()
    for task in tasks:
        if task.kind not in seen:
            seen.add(task.kind)
            run_task(task, ctx, tally)


# ---------------------------------------------------------------------------
# environment record

def environment(seed: int, workload: str, tasks_per_pass: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "seed": seed, "workload": workload, "tasks_per_pass": tasks_per_pass}


# ---------------------------------------------------------------------------
# one workload

def import_workloads():
    if not (SRC / "pencilkit" / "__init__.py").is_file():
        sys.exit(f"error: package source not found at {SRC / 'pencilkit'}; "
                 "run from the root of a pencilkit checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import pencilkit

    if Path(pencilkit.__file__).resolve().parent != SRC / "pencilkit":
        sys.exit(f"error: imported pencilkit from {pencilkit.__file__}, not from {SRC}")
    import tracer
    import workloads

    return workloads, tracer


def percentile_90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else values[0]


def pin_to_one_cpu() -> None:
    """Keep the runner and its children on one vCPU, the one calibration measures.

    The vCPUs of a shared host change speed independently of each other.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workloads, tracer_mod = import_workloads()
    pin_to_one_cpu()
    setup_s = setup_seconds(name, seed, tiny)
    imports = import_seconds() if trace else {}
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = workloads.WORKLOADS[name](seed, tiny, str(workdir))
        span_dir = OUT / f"spans-{name}-seed{seed}"
        if trace and name == "cli-cold":
            shutil.rmtree(span_dir, ignore_errors=True)
            span_dir.mkdir(parents=True)
        ctx = Context(span_dir)
        tally = Tally(json.loads(DIGESTS.read_text(encoding="utf-8")) if name == "cli-cold" else {})
        warm_up(name, tasks, ctx, tally)

        tracer = tracer_mod.Tracer() if trace and name != "cli-cold" else None
        untraced, traced, raws = [], [], []
        with Calibrator(CALIBRATION[name]) as cal:
            start = time.perf_counter()
            # A traced run alternates untraced and traced passes, at least one each.
            while (time.perf_counter() - start < seconds
                   or (trace and not (traced and untraced))):
                if trace and len(traced) < len(untraced):
                    times, raw = traced_pass(name, tasks, ctx, tally, cal, tracer_mod, tracer)
                    traced.append(times)
                    raws.append(raw)
                else:
                    untraced.append(run_pass(tasks, ctx, tally, cal))
            cal.sample()  # brackets the last task
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            tracer.dump(str(span_dir) + ".jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli-cold"
                               else resource.RUSAGE_SELF)
    result = {
        "env": environment(seed, name, len(tasks)),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:20],
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "digest_mismatches": sorted(tally.digest_mismatches),
        "calibration": {"samples": len(cal.samples), "median_s": median(cal.samples),
                        "ref_s": cal.ref_s},
    }
    latencies = rescaled(untraced, cal)
    task_ref_s = [median(times) for times in latencies]
    if trace:
        layers = {}
        per_pass = [tracer_mod.finalize(raw) for raw in raws]
        for key in per_pass[0]:
            layers[key] = median([p[key] for p in per_pass])
        layers.update(imports)
        layers["cli.digest_mismatches"] = len(tally.digest_mismatches)
        traced_ref_s = [median(times) for times in rescaled(traced, cal)]
        layers["trace.overhead_ratio"] = sum(traced_ref_s) / sum(task_ref_s) - 1.0
        result["metrics"] = {k: {"value": layers[k], "unit": u}
                             for k, u in tracer_mod.LAYER_METRICS.items()}
    else:
        samples = [t for times in latencies for t in times]
        values = {
            "wall_ref_s": sum(task_ref_s),
            "task_ref_s_p50": median(samples),
            "task_ref_s_p90": percentile_90(samples),
            "setup_s": setup_s,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return result


def report(result: dict, seconds: float, trace: bool) -> None:
    env = result["env"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"# pencilkit benchmark: workload={env['workload']} seed={env['seed']} "
          f"seconds={seconds:g} trace={int(trace)}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# passes: untraced={result['untraced_passes']} traced={result['traced_passes']}; "
          f"tasks per pass={env['tasks_per_pass']}")
    c = result["calibration"]
    print(f"# calibration: {c['samples']} samples, median {c['median_s']:.6g} s, "
          f"reference {c['ref_s']:g} s")
    for line in result["failures"]:
        print(f"# FAILED {line}")
    for key in result["digest_mismatches"]:
        print(f"# stdout digest differs from digests.json: {key}")
    width = max(len(k) for k in [*result["metrics"], "cli.digest_mismatches"]) + 2
    for key, m in result["metrics"].items():
        note = ""
        if key.startswith("task_ref_s_p"):
            n = result["untraced_passes"] * env["tasks_per_pass"]
            note = f"  (of {n} task latencies{', fewer than 10 beyond p90' if n < 100 else ''})"
        print(f"{key:<{width}}{m['value']:.6g} {m['unit']}{note}")
    print(f"{'failed_ratio':<{width}}{failed / attempted if attempted else 0.0:.6g} ratio"
          f"  ({failed} of {attempted} tasks)")
    if env["workload"] == "cli-cold" and not trace:
        print(f"{'cli.digest_mismatches':<{width}}{len(result['digest_mismatches'])} count")


def final_line(result: dict) -> str:
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


# ---------------------------------------------------------------------------
# entry points

def setup_probe(workload: str, seed: int, tiny: bool) -> None:
    workloads, _ = import_workloads()
    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.WORKLOADS[workload](seed, tiny, str(workdir))
        print(time.monotonic(), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_digests() -> None:
    """Store the stdout digests of the seed-independent cli-cold commands."""
    workloads, _ = import_workloads()
    workdir = WORK / f"digests-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context()
        digests = {}
        for task in workloads.cli_cold(0, False, str(workdir)):
            if task.digest_key is not None:
                out = task.run(ctx)
                if not task.check(out, task.expect):
                    sys.exit(f"error: {task.digest_key!r} gives a wrong answer; digests not written")
                digests[task.digest_key] = stdout_digest(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                             timeout=CHILD_TIMEOUT + 4 * args.seconds + 600)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest input sizes (self-tests)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-digests", action="store_true",
                    help="store the stdout digests of the seed-independent cli-cold commands")
    args = ap.parse_args(argv)
    if args.write_digests:
        write_digests()
        return 0
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.tiny)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    report(result, args.seconds, bool(args.trace))
    print(final_line(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
