"""N-sweeps of collective-rate quantities and power-law fits with a fit-quality gate.

Sweep points, and the disorder realizations within a point, run one after another
in the calling thread; each realization draws from its own (point, realization) seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .bounds import bounds_report
from .coupling import build_coupling_matrices
from .errors import ConfigError
from .lattice import (LatticeSpec, _check_number, _rng, build_array, check_disorder,
                      check_geometry, unit_polarization)
from .sdp import SdpProblem, solve_low_rank
from .spectral import decompose, gamma_max_only

QUANTITIES = ("gamma_max", "sdp_estimate", "lb_best", "ub")


@dataclass
class DisorderSpec:
    """Ensemble recipe: displacement scale, realization count and base seed."""

    eta: float
    n_realizations: int
    seed: int

    def __post_init__(self):
        check_disorder(self.eta)
        for name in ("n_realizations", "seed"):
            _check_number(name, getattr(self, name), Integral)
        if self.n_realizations < 1:
            raise ConfigError("disorder needs n_realizations >= 1")


@dataclass
class SweepPlan:
    """One scaling sweep: geometry family, sizes and the quantity to record."""

    dimension: int
    spacing: float
    polarization: tuple
    n_1d_values: list
    quantity: str = "gamma_max"
    disorder: DisorderSpec | None = None

    def __post_init__(self):
        check_geometry(self.dimension, self.spacing)
        self.polarization = unit_polarization(self.polarization)
        if self.quantity not in QUANTITIES:
            raise ConfigError(f"quantity must be one of {QUANTITIES}")
        sizes = list(self.n_1d_values)
        if not all(isinstance(n, Integral) and not isinstance(n, bool) and n >= 1 for n in sizes):
            raise ConfigError(f"n_1d_values must be integers >= 1, got {sizes}")
        if len(sizes) < 3:
            raise ConfigError("a sweep needs at least 3 points")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("n_1d_values must be strictly increasing")
        self.n_1d_values = sizes


@dataclass
class SweepRow:
    n_atoms: int
    value: float
    stderr: float | None = None
    error: str | None = None


@dataclass
class SweepTable:
    rows: list = field(default_factory=list)

    def clean(self):
        return [r for r in self.rows if r.error is None]


def csv_row_writer(fh):
    """Write the sweep CSV header to fh and return the callback that appends one row."""
    fh.write("n_atoms,value,stderr\n")

    def write_row(row: SweepRow):
        se = "" if row.stderr is None else f"{row.stderr:.17g}"
        fh.write(f"{row.n_atoms},{row.value:.17g},{se}\n")  # failed rows hold nan
        fh.flush()

    return write_row


def sweep_sizes(n_min: int, n_max: int, count: int, mode: str = "geometric") -> list:
    """Distinct integer N_1D values between n_min and n_max.

    Geometric spacing by default; linear on request.
    """
    if mode not in ("geometric", "linear"):
        raise ConfigError("mode must be 'geometric' or 'linear'")
    if n_min < 2 or n_max <= n_min or count < 3:
        raise ConfigError("need 2 <= n_min < n_max and count >= 3")
    if mode == "geometric":
        raw = np.geomspace(n_min, n_max, count)
    else:
        raw = np.linspace(n_min, n_max, count)
    return sorted(set(int(round(x)) for x in raw))


def _evaluate_point(plan: SweepPlan, n_1d: int, eta: float, seed: int) -> float:
    spec = LatticeSpec(dimension=plan.dimension, n_per_axis=n_1d, spacing=plan.spacing,
                       polarization=plan.polarization, disorder_eta=eta, seed=seed)
    mats = build_coupling_matrices(build_array(spec))
    if plan.quantity == "gamma_max":
        return gamma_max_only(mats)
    if plan.quantity == "sdp_estimate":
        start_seed = 0 if plan.disorder is None else plan.disorder.seed  # of the SDP start
        sol = solve_low_rank(SdpProblem.from_coupling(mats), seed=start_seed)
        sol.require_converged()  # an unconverged point is flagged in its row
        return sol.rstar_estimate
    report = bounds_report(decompose(mats), mats)
    return report.lb_best if plan.quantity == "lb_best" else report.ub


def run_sweep(plan: SweepPlan, threads: int = 1, on_row=None) -> SweepTable:
    """Evaluate the planned quantity at every size, averaging any disorder ensemble.

    Rows are emitted in N order (on_row callback) as each point finishes. Per-point
    failures are recorded in the row and the sweep continues. threads is read nowhere;
    it stays only because the benchmark under perfbench/ passes it.
    """
    dis = plan.disorder
    eta = 0.0 if dis is None else dis.eta
    r_count = 1 if eta == 0 else dis.n_realizations
    table = SweepTable()
    for p_idx, n_1d in enumerate(plan.n_1d_values):
        vals, errors = [], []
        for r_idx in range(r_count):
            seed = 0 if eta == 0 else int(  # from the SeedSequence of _rng's seed rule
                _rng(dis.seed, p_idx, r_idx).bit_generator.seed_seq.generate_state(1)[0])
            try:
                vals.append(_evaluate_point(plan, n_1d, eta, seed))
            except Exception as exc:  # per-point failure must not kill the sweep
                errors.append(f"{type(exc).__name__}: {exc}")
        error = "; ".join(errors) or None
        row = SweepRow(n_atoms=n_1d**plan.dimension, value=float("nan"), error=error)
        if vals:  # the mean over the realizations that ran, flagged partial if any failed
            row.value = float(np.mean(vals))
            row.error = f"partial: {error}" if error else None
            if len(vals) > 1:
                row.stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
        table.rows.append(row)
        if on_row is not None:
            on_row(row)
    return table


@dataclass
class ScalingFit:
    """Power-law fit value = beta * N^alpha from ordinary least squares in logs.

    1-sigma intervals come from the linear-fit covariance; accepted requires
    r_squared >= 0.95 and a non-degenerate response.
    """

    alpha: float
    beta: float
    alpha_ci_1sigma: float
    beta_ci_1sigma: float
    r_squared: float
    accepted: bool
    degenerate: bool = False

    def to_dict(self):
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "alpha_ci": self.alpha_ci_1sigma,
            "beta_ci": self.beta_ci_1sigma,
            "r_squared": self.r_squared,
            "accepted": self.accepted,
            "degenerate": self.degenerate,
        }

    def to_json(self):
        return json.dumps(self.to_dict())


R_SQUARED_GATE = 0.95


def fit_power_law(n_atoms, values) -> ScalingFit:
    """Fit value = beta * N^alpha by OLS on (log N, log value), covariance scaled by rss/(n-2).

    Requires >= 3 points, finite positive sizes (two or more distinct) and finite positive
    values. A zero-variance response is reported as alpha = 0, beta = the common value,
    degenerate and rejected (r_squared is meaningless there and reported as 0).
    """
    sizes = np.asarray(n_atoms, dtype=float)
    yvals = np.asarray(values, dtype=float)
    if sizes.size < 3 or sizes.shape != yvals.shape:
        raise ConfigError("power-law fit needs at least 3 (size, value) pairs")
    # distinct in log space: sizes equal to within rounding would make the fit singular
    if not (np.all((0 < sizes) & (sizes < np.inf)) and np.ptp(np.log(sizes)) > 0):
        raise ConfigError("power-law fit needs finite positive sizes, at least two distinct")
    if not np.all((0 < yvals) & (yvals < np.inf)):
        raise ConfigError("power-law fit needs positive finite values")
    x, y = np.log(sizes), np.log(yvals)

    tss = float(np.sum((y - y.mean()) ** 2))
    if tss < 1e-28:
        return ScalingFit(alpha=0.0, beta=float(np.exp(y.mean())),
                          alpha_ci_1sigma=0.0, beta_ci_1sigma=0.0,
                          r_squared=0.0, accepted=False, degenerate=True)

    (alpha, intercept), cov = np.polyfit(x, y, 1, cov=True)
    r2 = 1.0 - float(np.sum((y - (alpha * x + intercept)) ** 2)) / tss
    beta = float(np.exp(intercept))
    return ScalingFit(
        alpha=float(alpha),
        beta=beta,
        alpha_ci_1sigma=float(np.sqrt(cov[0, 0])),
        beta_ci_1sigma=beta * float(np.sqrt(cov[1, 1])),
        r_squared=r2,
        accepted=bool(r2 >= R_SQUARED_GATE),
    )


def fit_table(table: SweepTable) -> ScalingFit:
    rows = table.clean()
    return fit_power_law([r.n_atoms for r in rows], [r.value for r in rows])
