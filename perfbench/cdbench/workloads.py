"""The four workloads as job lists.

A job is one operation the benchmark times and checks: it calls into
corrdecay and returns the named values that the stored references hold for
it. A job fails if it raises, if its solver reports non-convergence, if a
CLI child exits non-zero, or if an invariant it checks does not hold.

The seed picks one of ``VARIANTS`` input variants per workload. Only inputs
whose cost does not depend on their values vary with it (disorder draws,
Haar sample seeds, the random cross-check matrix), so the work done, and the
exact work counts, stay the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Jobs call corrdecay through module attributes, looked up at call time, so
# that a traced pass sees the tracer's wrappers (see tracing.py).
from corrdecay import bounds, coupling, exactdiag, kspace, lattice, sdp, spectral, sweep

VARIANTS = 8
WORKLOADS = ("scaling", "sdp", "exact", "cli")
SIZES = ("full", "tiny")
CHILD_TIMEOUT_S = 120

X, Z = (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)

# Sizes per workload, chosen so that a `full` pass takes about 5 s and a run
# reports the median of several passes. `scaling` uses the sizes of
# acceptance criterion 5 up to 1D N=2163; `tiny` exercises the same code paths
# in well under a second.
PLANS = {
    "full": {
        # 1D polarization along the chain, 2D along x, 3D along z (criterion 5)
        "scaling": {"sizes": {1: [100, 185, 342, 633, 1171, 2163],
                              2: [2, 8, 14, 20, 27, 33, 40],
                              3: [2, 4, 5, 7, 9, 10, 12]},
                    "kgrid_n": 2163, "sweep_sizes": [8, 12, 16, 20], "realizations": 4},
        "sdp": {"chain": [250, 500], "plane": [10, 14, 20], "crosscheck_n": 40},
        "exact": {"chain": [12, 13], "lanczos_n": 13, "haar_n": 12, "haar_samples": 50},
        "cli": {"gamma_n": 20, "analyze_n": 12, "kspace_n": 12},
    },
    "tiny": {
        "scaling": {"sizes": {1: [10, 20, 40], 2: [2, 3, 4], 3: [2, 3, 4]},
                    "kgrid_n": 40, "sweep_sizes": [3, 4, 5], "realizations": 2},
        "sdp": {"chain": [20], "plane": [4], "crosscheck_n": 10},
        "exact": {"chain": [6, 8], "lanczos_n": 8, "haar_n": 6, "haar_samples": 100},
        "cli": {"gamma_n": 4, "analyze_n": 6, "kspace_n": 4},
    },
}

SCALING_POL = {1: Z, 2: X, 3: Z}
SPACING = 0.4
EXACT_SPACING = 0.2

# (value-name prefix, kind, tolerance): none looser than the acceptance suite
# uses for the same quantity (1e-5 SDP cross-validation, 1e-9 exact diag).
TOLERANCES = [
    ("gamma_max", "rel", 1e-9),
    ("kgrid_max", "rel", 1e-9),
    ("sdp_value", "rel", 1e-5),
    ("rounded_value", "rel", 1e-5),
    ("rstar_exact", "rel", 1e-9),
    ("haar_mean", "rel", 1e-9),
    ("alpha", "abs", 1e-6),
]


class JobFailure(Exception):
    """An invariant or status check inside a job did not hold."""


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    varies: bool = False  # depends on the seed's variant (references stored per variant)


def tolerance(key: str):
    for prefix, kind, tol in TOLERANCES:
        if key.startswith(prefix):
            return kind, tol
    raise KeyError(f"no tolerance defined for value {key!r}")


def mismatches(values: dict, reference: dict | None) -> list:
    """Human-readable differences between a job's values and its reference."""
    if reference is None:
        return ["no stored reference"]
    problems = []
    for key in sorted(set(values) | set(reference)):
        if key not in values or key not in reference:
            problems.append(f"{key}: present in only one of result/reference")
            continue
        kind, tol = tolerance(key)
        got, want = float(values[key]), float(reference[key])
        err = abs(got - want) if kind == "abs" else abs(got - want) / max(abs(want), 1e-300)
        if not err <= tol:
            problems.append(f"{key}: {got!r} vs reference {want!r} ({kind} err {err:.3g} > {tol})")
    return problems


def variant_seed(workload: str, variant: int) -> int:
    return 1000 * (WORKLOADS.index(workload) + 1) + variant


def _mats(dim, n1, pol, spacing=SPACING):
    spec = lattice.LatticeSpec(dimension=dim, n_per_axis=n1, spacing=spacing, polarization=pol)
    return coupling.build_coupling_matrices(lattice.build_array(spec))


def random_unit_diag_psd(n: int, seed: int) -> np.ndarray:
    """Random PSD matrix with unit diagonal, drawn as in the SDP cross-validation test."""
    a = np.random.default_rng(seed).standard_normal((n, n + 2))
    g = a @ a.T
    dinv = 1.0 / np.sqrt(np.diag(g))
    return g * np.outer(dinv, dinv)


# ------------------------------------------------------------------ scaling

def scaling_jobs(plan, variant, ctx):
    jobs = []
    for dim, sizes in plan["sizes"].items():
        for n1 in sizes:
            def point(dim=dim, n1=n1):
                value = spectral.gamma_max_only(_mats(dim, n1, SCALING_POL[dim]))
                ctx[(dim, n1)] = value
                return {"gamma_max": value}
            jobs.append(Job(f"gamma_max/{dim}d/n{n1}", point))

        def fit(dim=dim, sizes=sizes):
            values = [ctx[(dim, n1)] for n1 in sizes]  # KeyError if a point failed
            return {"alpha": sweep.fit_power_law([n1**dim for n1 in sizes], values).alpha}
        jobs.append(Job(f"fit/{dim}d", fit))

    def kgrid(n1=plan["kgrid_n"]):
        grid = kspace.gamma_max_finite_grid(1, SPACING, "parallel", n1)
        dense = ctx.get((1, n1))
        if dense is not None and abs(grid - dense) > 0.10 * dense:  # criterion 7
            raise JobFailure(f"k-grid {grid} and dense {dense} differ by more than 10%")
        return {"kgrid_max": grid}
    jobs.append(Job(f"kgrid/1d/n{plan['kgrid_n']}", kgrid))

    def disorder_sweep():
        disorder = sweep.DisorderSpec(eta=0.05, n_realizations=plan["realizations"],
                                      seed=variant_seed("scaling", variant))
        table = sweep.run_sweep(sweep.SweepPlan(dimension=2, spacing=SPACING, polarization=X,
                                                n_1d_values=plan["sweep_sizes"],
                                                disorder=disorder),
                                threads=ctx["pool_threads"])
        failed = [row.error for row in table.rows if row.error is not None]
        if failed:
            raise JobFailure(f"sweep rows failed: {failed}")
        return {f"gamma_max_mean/n{row.n_atoms}": row.value for row in table.rows}
    jobs.append(Job(f"sweep/v{variant}", disorder_sweep, varies=True))
    return jobs


# ---------------------------------------------------------------------- sdp

def sdp_jobs(plan, variant, ctx):
    jobs = []
    for dim, sizes, pol in ((1, plan["chain"], X), (2, plan["plane"], Z)):
        for n1 in sizes:
            def solve(dim=dim, n1=n1, pol=pol):
                mats = _mats(dim, n1, pol)
                problem = sdp.SdpProblem.from_coupling(mats)
                sol = sdp.solve_low_rank(problem, seed=0)
                if not sol.converged:
                    raise JobFailure(f"SDP did not converge in {sol.iterations} iterations")
                sdp.sdp_certificates(problem, sol, spectral.gamma_max_only(mats), mats.gamma0)
                rounded = sdp.round_to_product_state(sol, problem)
                return {"sdp_value": sol.value, "rounded_value": rounded.value}
            jobs.append(Job(f"lowrank/{dim}d/n{n1}", solve))

    def crosscheck(n=plan["crosscheck_n"]):
        gamma = random_unit_diag_psd(n, variant_seed("sdp", variant))
        problem = sdp.SdpProblem(gtilde=gamma - np.eye(n), n=n)
        low = sdp.solve_low_rank(problem, seed=0)
        proj = sdp.solve_projection(problem)
        if not (low.converged and proj.converged):
            raise JobFailure("a solver did not converge on the cross-check matrix")
        scale = max(abs(low.value), abs(proj.value), 1e-12)
        if abs(low.value - proj.value) > 1e-5 * scale:  # criterion 4
            raise JobFailure(f"solvers disagree: {low.value} vs {proj.value}")
        mats = coupling.CouplingMatrices(gamma=gamma, jmat=np.zeros_like(gamma), gamma0=1.0, n=n)
        gmax = spectral.gamma_max_only(mats)
        sdp.sdp_certificates(problem, low, gmax)
        sdp.sdp_certificates(problem, proj, gmax)
        return {"sdp_value": low.value}
    jobs.append(Job(f"crosscheck/v{variant}/n{plan['crosscheck_n']}", crosscheck, varies=True))
    return jobs


# -------------------------------------------------------------------- exact

def exact_jobs(plan, variant, ctx):
    jobs = []
    for n in plan["chain"]:
        def solve(n=n):
            mats = _mats(1, n, X, spacing=EXACT_SPACING)
            exact = exactdiag.exact_rstar(mats).rstar_exact
            report = bounds.bounds_report(spectral.decompose(mats), mats)
            slack = 1e-8 * max(1.0, exact)  # criterion 3
            if not report.lb_best <= exact + slack or not exact <= report.ub + slack:
                raise JobFailure(f"sandwich violated: {report.lb_best} <= {exact} <= {report.ub}")
            ctx[("exact", n)] = exact
            return {"rstar_exact": exact}
        jobs.append(Job(f"exact/n{n}", solve))

    # every sector through Lanczos, which by default starts only above N=14
    def lanczos(n=plan["lanczos_n"]):
        mats = _mats(1, n, X, spacing=EXACT_SPACING)
        exact = exactdiag.exact_rstar(mats, force_method="lanczos").rstar_exact
        dense = ctx.get(("exact", n))
        if dense is not None and abs(exact - dense) > 1e-9 * dense:  # criterion 11
            raise JobFailure(f"Lanczos {exact} and dense {dense} differ by more than 1e-9")
        return {"rstar_exact": exact}
    jobs.append(Job(f"exact-lanczos/n{plan['lanczos_n']}", lanczos))

    def haar(n=plan["haar_n"]):
        mats = _mats(1, n, X, spacing=EXACT_SPACING)
        stats = exactdiag.haar_rate_samples(mats, plan["haar_samples"],
                                            seed=variant_seed("exact", variant))
        target = bounds.typical_rate(n, mats.gamma0)
        if abs(stats.mean - target) > 0.02 * target:  # criterion 9
            raise JobFailure(f"Haar mean {stats.mean} is not within 2% of {target}")
        return {"haar_mean": stats.mean}
    jobs.append(Job(f"haar/v{variant}/n{plan['haar_n']}", haar, varies=True))
    return jobs


# ---------------------------------------------------------------------- cli

def subprocess_runner(env: dict, cwd: Path):
    """Run one `corrdecay` CLI invocation in a fresh interpreter; return its exit code."""
    def run(argv):
        try:
            done = subprocess.run([sys.executable, "-m", "corrdecay.cli", *argv], env=env,
                                  cwd=cwd, capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return -1
        return done.returncode
    return run


def inprocess_runner(argv):
    """Call `corrdecay.cli.main(argv)` in this process with its output discarded."""
    from corrdecay import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            return exc.code if isinstance(exc.code, int) else 2


def cli_jobs(plan, variant, ctx):
    work: Path = ctx["workdir"]
    run = ctx["runner"]

    def invoke(*argv):
        code = run([str(a) for a in argv])
        if code != 0:
            raise JobFailure(f"corrdecay {argv[0]} exited with code {code}")

    def read_json(path):
        return json.loads((work / path).read_text())

    n_gamma = plan["gamma_n"] ** 2

    def gamma():
        invoke("gamma", "--dim", 2, "--n", plan["gamma_n"], "--d", SPACING, "--pol", "x",
               "--eta", 0.05, "--seed", variant_seed("cli", variant),
               "--output-format", "both", "--out", work / "gamma")
        for name in ("gamma.bin", "jmat.bin"):
            size = (work / "gamma" / name).stat().st_size
            if size != 16 + 8 * n_gamma**2:
                raise JobFailure(f"{name} holds {size} bytes, expected {16 + 8 * n_gamma**2}")
        if (work / "gamma" / "coupling.csv").stat().st_size == 0:
            raise JobFailure("coupling.csv is empty")
        return {}

    def analyze_file():
        invoke("analyze", "--gamma-file", work / "gamma" / "gamma.bin", "--sdp-max-n", 100,
               "--out", work / "analyze_file")
        return {"gamma_max": read_json("analyze_file/analysis.json")["spectral"]["gamma_max"]}

    def analyze_chain():
        invoke("analyze", "--dim", 1, "--n", plan["analyze_n"], "--d", EXACT_SPACING,
               "--pol", "x", "--out", work / "analyze_chain")
        doc = read_json("analyze_chain/analysis.json")
        return {"gamma_max": doc["spectral"]["gamma_max"], "sdp_value": doc["sdp"]["value"],
                "rstar_exact": doc["exact"]["rstar_exact"]}

    def kspace_grid():
        invoke("kspace", "--dim", 3, "--n", plan["kspace_n"], "--d", SPACING,
               "--pol-tag", "parallel", "--out", work / "kspace")
        return {"kgrid_max": read_json("kspace/kspace.json")["gamma_max_grid"]}

    return [
        Job(f"gamma/v{variant}/2d/n{plan['gamma_n']}", gamma, varies=True),
        Job(f"analyze-file/v{variant}/2d/n{plan['gamma_n']}", analyze_file, varies=True),
        Job(f"analyze/1d/n{plan['analyze_n']}", analyze_chain),
        Job(f"kspace/3d/n{plan['kspace_n']}", kspace_grid),
    ]


BUILDERS = {"scaling": scaling_jobs, "sdp": sdp_jobs, "exact": exact_jobs, "cli": cli_jobs}


def build_jobs(workload: str, size: str, variant: int, ctx: dict) -> list:
    return BUILDERS[workload](PLANS[size][workload], variant, ctx)
