"""Timing, checking and reporting of one benchmark run.

A run repeats its workload's job list ("a pass") while the time budget lasts,
always at least once, and reports the median pass. With tracing off it reports
the end-to-end metrics; with tracing on it alternates untraced and traced
passes and reports the per-layer metrics of the median traced pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import tracing, workloads

SETUP_REPEATS = 3

WARM_UP = (
    "from corrdecay.coupling import build_coupling_matrices\n"
    "from corrdecay.lattice import LatticeSpec, generate_lattice\n"
    "from corrdecay.spectral import gamma_max_only\n"
    "gamma_max_only(build_coupling_matrices(generate_lattice(LatticeSpec(2, 8, 0.4))))\n"
)

SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import corrdecay\n" + WARM_UP +
    "print(time.perf_counter() - t0)\n"
)

IMPORT_CLI_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import corrdecay.cli\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Settings:
    root: Path  # checkout root, holding src/ and perfbench/
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    references: dict
    spec: dict  # BENCHMARK.json: the metric names and units to report
    nproc: int

    @property
    def pool_threads(self) -> int:
        """Threads of the sweep's pool: 2, capped at nproc."""
        return min(2, self.nproc)

    @property
    def variant(self) -> int:
        return self.seed % workloads.VARIANTS

    @property
    def bench_dir(self) -> Path:
        return self.root / "perfbench"

    def child_env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["CORRDECAY_THREADS"] = "1"  # exact-diag sector pool of the CLI children
        return env


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outcomes: list  # (job name, values dict | None, error text | None, seconds)
    traced: bool = False
    tracer: tracing.Tracer | None = None
    t_start: float = 0.0
    bytes_written: int = 0
    failures: list = field(default_factory=list)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; children is the largest waited-for child
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def _timed_children(settings: Settings, code: str, repeats: int) -> list:
    """Seconds printed by `repeats` fresh interpreters running `code`."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], env=settings.child_env(),
                              cwd=settings.root, capture_output=True, text=True,
                              timeout=workloads.CHILD_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _fresh_workdir(settings: Settings) -> Path:
    work = settings.bench_dir / "work" / settings.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def job_context(settings: Settings, runner) -> dict:
    """What the jobs of one pass share: thread pool size, an empty work directory, CLI runner."""
    return {"pool_threads": settings.pool_threads, "workdir": _fresh_workdir(settings),
            "runner": runner}


def run_pass(settings: Settings, runner, tracer: tracing.Tracer | None = None) -> Pass:
    """Run the job list once; time it, and trace it if a tracer is given."""
    ctx = job_context(settings, runner)
    work = ctx["workdir"]
    jobs = workloads.build_jobs(settings.workload, settings.size, settings.variant, ctx)
    outcomes = []

    def run_all():
        for job in jobs:
            start = time.perf_counter()
            try:
                values, error = job.run(), None
            except Exception as exc:  # a failed operation is counted, never fatal
                values, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((job.name, values, error, time.perf_counter() - start))

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    if tracer is None:
        run_all()
    else:
        with tracer.installed():
            run_all()
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    done = Pass(wall_s=wall, cpu_s=cpu, outcomes=outcomes, traced=tracer is not None,
                tracer=tracer, t_start=t0, bytes_written=_dir_bytes(work))
    done.failures = check(settings, outcomes)
    return done


def check(settings: Settings, outcomes: list) -> list:
    """Failed operations of one pass: errors plus values outside their reference tolerance."""
    refs = settings.references.get(settings.size, {}).get(settings.workload, {})
    failures = []
    for name, values, error, _ in outcomes:
        problems = [error] if error else workloads.mismatches(values, refs.get(name))
        if problems:
            failures.append({"job": name, "problems": problems})
    return failures


def cli_runner(settings: Settings):
    """How CLI jobs run: fresh children normally, in-process when traced."""
    if settings.trace:
        return workloads.inprocess_runner
    return workloads.subprocess_runner(settings.child_env(), settings.root)


def warm_up(settings: Settings) -> None:
    """Make the set-up's warm-up call in this process, outside the timed passes."""
    import corrdecay

    src = (settings.root / "src").resolve()
    if not Path(corrdecay.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"corrdecay imported from {corrdecay.__file__}, not from {src}")
    exec(compile(WARM_UP, "<warm-up>", "exec"), {})


def measure(settings: Settings) -> tuple[dict, dict]:
    """One benchmark run: (result line for the driver, detailed record for the results file)."""
    warm_up(settings)
    setup = [] if settings.trace else _timed_children(settings, SETUP_CHILD, SETUP_REPEATS)
    runner = cli_runner(settings)
    if settings.trace:
        # the first pass in a process runs a few percent slower (first touch of
        # large arrays); discard it so that it does not bias trace.overhead_s
        run_pass(settings, runner)
    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        if settings.trace:
            passes.append(run_pass(settings, runner))
            passes.append(run_pass(settings, runner, tracing.Tracer()))
            last = passes[-1].wall_s + passes[-2].wall_s
        else:
            passes.append(run_pass(settings, runner))
            last = passes[-1].wall_s
        if time.perf_counter() - begin + last > settings.seconds:
            break

    units = {m["name"]: m["unit"] for m in settings.spec["end_to_end"] + settings.spec["per_layer"]}
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    if settings.trace:
        metrics = layer_metrics(settings, passes)
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "peak_rss_mib": _peak_rss_mib(),
        }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "environment": environment(settings),
        "error_rate": failed / attempted,
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "traced": p.traced,
                    "job_seconds": {name: secs for name, _, _, secs in p.outcomes},
                    "values": {name: values for name, values, _, _ in p.outcomes},
                    "failures": p.failures} for p in passes],
        "setup_s_samples": setup,
        "result": line,
    }
    if settings.trace:
        chosen = _median_pass([p for p in passes if p.traced])
        record["spans"] = [vars(s) for s in chosen.tracer.spans]
    return line, record


def _median_pass(passes: list) -> Pass:
    ranked = sorted(passes, key=lambda p: p.wall_s)
    return ranked[(len(ranked) - 1) // 2]


def layer_metrics(settings: Settings, passes: list) -> dict:
    """Per-layer metrics of the median traced pass; self times add up to its wall time."""
    chosen = _median_pass([p for p in passes if p.traced])
    untraced = statistics.median(p.wall_s for p in passes if not p.traced)
    tracer = chosen.tracer
    totals, remainder = tracing.self_times(tracer.spans, chosen.t_start,
                                           chosen.t_start + chosen.wall_s)
    counts = tracer.counts

    def per(num, den, scale):
        return scale * num / den if den else 0.0

    metrics = {m["name"]: 0.0 for m in settings.spec["per_layer"]}
    metrics.update(totals)
    for name in metrics:
        if name in counts:
            metrics[name] = counts[name]
    metrics["kspace.us_per_point"] = per(totals["kspace.grid_busy_s"], counts["kspace.points"], 1e6)
    metrics["sdp.ms_per_iter"] = per(totals["sdp.lowrank_busy_s"], counts["sdp.iterations"], 1e3)
    metrics["sdp.converged_frac"] = per(counts["sdp.converged"], counts["sdp.lowrank_calls"], 1)
    metrics["sdp.escape_verified_frac"] = per(counts["sdp.escape_verified"],
                                              counts["sdp.lowrank_calls"], 1)
    metrics["exactdiag.ms_per_matvec"] = per(totals["exactdiag.matvec_busy_s"],
                                             counts["exactdiag.matvec_calls"], 1e3)
    for span in tracer.spans:
        if span.name == "corrdecay.cli.main":
            metrics[f"cli.{span.info['subcommand']}_s"] += span.end - span.start
    if settings.workload == "cli":
        metrics["cli.import_s"] = statistics.median(
            _timed_children(settings, IMPORT_CLI_CHILD, SETUP_REPEATS))
        metrics["cli.bytes_written"] = chosen.bytes_written
    metrics["trace.wall_s"] = chosen.wall_s
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = chosen.wall_s - untraced
    metrics["trace.remainder_s"] = remainder
    return metrics


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(settings: Settings) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": settings.workload,
        "seed": settings.seed,
        "variant": settings.variant,
        "size": settings.size,
        "seconds": settings.seconds,
        "trace": settings.trace,
        "nproc": settings.nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "thread_env": {var: os.environ.get(var) for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "pool_threads": settings.pool_threads,
        "cli_threads": settings.child_env()["CORRDECAY_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(settings.root),
        "source_sha256": _source_digest(settings.root),
    }


def load_references(bench_dir: Path) -> dict:
    return json.loads((bench_dir / "references.json").read_text())


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())
