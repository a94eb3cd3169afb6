"""Closed-form bounds on the maximal many-body decay rate and the derived
driven-dissipative quantities (burst onset and timescale, pump thresholds,
Markovianity size limits, crossover atom numbers)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrices, offdiagonal_sum
from .errors import ConfigError
from .kspace import asymptotic_prefactors
from .lattice import check_geometry
from .spectral import SpectralSummary

RANK_TOL = 1e-10  # eigenvalues above RANK_TOL * gamma_max count toward the numerical rank


@dataclass
class BoundsReport:
    """All analytic lower/upper bounds on the maximal decay rate r_star.

    lb_trivial is the fully-excited-state rate N*gamma0; lb_product the best
    uniform product-state rate; lb_delocalized the dominant-mode bound
    N*gamma_max / (4 (delta^2 + 1)); ub the product-approximation upper bound
    (N/2)(3*gamma_max - gamma0). in_phase flags an all-nonnegative coupling
    matrix, for which r_star tracks the interaction sum s_sum.
    """

    n: int
    gamma0: float
    gamma_max: float
    delta: float
    s_sum: float
    lb_trivial: float
    lb_product: float
    lb_delocalized: float
    lb_best: float
    ub: float
    in_phase: bool


def product_state_rate(theta: float, n: int, gamma0: float, s_sum: float) -> float:
    """Decay rate of the uniform product ansatz at mixing angle theta."""
    return 0.5 * n * gamma0 * (1.0 - math.cos(theta)) + 0.25 * s_sum * math.sin(theta) ** 2


def product_state_max(n: int, gamma0: float, s_sum: float) -> float:
    """Closed-form maximum of product_state_rate over theta.

    (N*gamma0 + S)^2 / (4S) when S >= N*gamma0 (optimum at cos(theta) =
    -N*gamma0/S), else N*gamma0 from the fully excited state.
    """
    ng = n * gamma0
    if s_sum >= ng and s_sum > 0:
        return (ng + s_sum) ** 2 / (4.0 * s_sum)
    return ng


def bounds_report(summary: SpectralSummary, mats: CouplingMatrices) -> BoundsReport:
    """Assemble every analytic bound for one decoherence matrix."""
    n = mats.n
    g0 = mats.gamma0
    s_sum = offdiagonal_sum(mats)
    lb_trivial = n * g0
    lb_product = product_state_max(n, g0, s_sum)
    lb_deloc = n * summary.gamma_max / (4.0 * (summary.delta**2 + 1.0))
    return BoundsReport(
        n=n,
        gamma0=g0,
        gamma_max=summary.gamma_max,
        delta=summary.delta,
        s_sum=s_sum,
        lb_trivial=lb_trivial,
        lb_product=lb_product,
        lb_delocalized=lb_deloc,
        lb_best=max(lb_trivial, lb_product, lb_deloc),
        ub=0.5 * n * (3.0 * summary.gamma_max - g0),
        in_phase=bool(np.all(mats.gamma >= 0.0)),
    )


def spin_wave_rate(m: int, n: int, gamma_max: float, gamma0: float) -> float:
    """Rate after m collective jumps from full excitation (brightest channel).

    [(N-m)(N-m-1) gamma0 + m (N-m) gamma_max] / (N-1); m = 0 gives N*gamma0,
    m = N gives 0.
    """
    if n < 2:
        raise ConfigError("spin-wave rate needs n >= 2")
    if not 0 <= m <= n:
        raise ConfigError(f"excitation index m = {m} outside [0, {n}]")
    return ((n - m) * (n - m - 1) * gamma0 + m * (n - m) * gamma_max) / (n - 1)


def optimal_m(n: int, gamma_max: float, gamma0: float) -> int:
    """Jump count maximizing spin_wave_rate, rounded to the nearest integer.

    Continuous optimum (N/2)(1 + 2/N + ((N-1)/N) gamma0/(gamma0 - gamma_max));
    independent emitters (gamma_max = gamma0) peak at m = 0. Ties round to
    even, and the result is clamped to [0, N].
    """
    if n < 2:
        raise ConfigError("optimal_m needs n >= 2")
    if not (0 < gamma0 < np.inf and 0 <= gamma_max < np.inf):
        raise ConfigError("optimal_m needs 0 < gamma0 and 0 <= gamma_max, both finite")
    if gamma_max == gamma0:
        return 0
    m_cont = 0.5 * n * (1.0 + 2.0 / n + (n - 1.0) / n * gamma0 / (gamma0 - gamma_max))
    m_round = int(np.rint(m_cont))  # rint ties to even
    return min(max(m_round, 0), n)


def burst_slope(mats: CouplingMatrices) -> float:
    """Initial slope of the decay rate from full excitation.

    ||gamma||_F^2 - 2 N gamma0^2; positive means a superradiant burst.
    """
    fro2 = float(np.sum(mats.gamma**2))
    return fro2 - 2.0 * mats.n * mats.gamma0**2


def burst_slope_upper_bound(summary: SpectralSummary, r_star: float) -> float:
    """Cap on the initial slope in terms of r_star and the numerical rank.

    (16/N^2) (1 + delta^2)^2 rank(gamma) r_star^2 - 2 N gamma0^2, with the
    rank counted from the summary's eigenvalues at threshold
    RANK_TOL * gamma_max (finite arrays are numerically full rank, which
    makes this a loose but honest cap).
    """
    rank = int(np.sum(summary.eigenvalues > RANK_TOL * max(summary.gamma_max, 1e-300)))
    n = summary.n
    return ((16.0 / n**2) * (1.0 + summary.delta**2) ** 2 * rank * r_star**2
            - 2.0 * n * summary.gamma0**2)


@dataclass
class BurstTime:
    """Superradiant burst timescale estimate for a D-dimensional array.

    t_r is the inverse maximal decay rate per atom 1/(beta N^alpha gamma0);
    tau0 = t_r * log(1/(2 gamma0 t_r)). degenerate flags a log argument <= 1
    (no burst-time separation of scales; tau0 is reported as 0 there).
    """

    tau0: float
    t_r: float
    degenerate: bool


def burst_time(dimension: int, spacing: float, n: int,
               alpha: float | None = None, beta: float | None = None,
               gamma0: float = 1.0) -> BurstTime:
    """Burst peak time and per-atom decay time for an N-atom D-dim array.

    alpha/beta default to the asymptotic array values at this spacing; pass
    explicit values to probe other regimes (e.g. alpha = 1, beta = 1 for
    all-to-all coupling, giving tau0 ~ log(N/2)/(N gamma0)).
    """
    if not (1 <= n < np.inf and 0 < gamma0 < np.inf):
        raise ConfigError(f"burst_time needs n >= 1 and 0 < gamma0 < inf, got {n}, {gamma0}")
    if alpha is None or beta is None:
        pref = asymptotic_prefactors(dimension, spacing)
        alpha = pref.alpha if alpha is None else alpha
        beta = pref.beta if beta is None else beta
    per_atom = beta * float(n) ** alpha * gamma0
    if not 0 < per_atom < np.inf:
        raise ConfigError(f"per-atom rate must be positive and finite, got {per_atom}")
    t_r = 1.0 / per_atom
    log_arg = 1.0 / (2.0 * gamma0 * t_r)
    if log_arg <= 1.0:
        return BurstTime(tau0=0.0, t_r=t_r, degenerate=True)
    return BurstTime(tau0=t_r * math.log(log_arg), t_r=t_r, degenerate=False)


def markov_limit(dimension: int, spacing: float, omega0_over_gamma0: float = 1e8) -> float:
    """Largest admissible N_1D before photon retardation breaks Markovianity.

    (omega0/gamma0)^{2/(D+1)} * f(k0 d) with f(x) = x^{(D-1)/(D+1)} for
    x <= 1 and 1/x beyond.
    """
    check_geometry(dimension, spacing)
    if not omega0_over_gamma0 > 0:
        raise ConfigError("omega0/gamma0 must be positive")
    x = 2.0 * np.pi * spacing
    f = x ** ((dimension - 1.0) / (dimension + 1.0)) if x <= 1.0 else 1.0 / x
    return float(omega0_over_gamma0 ** (2.0 / (dimension + 1.0)) * f)


def crossover_n_crit(dimension: int, spacing: float) -> float:
    """Atom number where the rate scaling turns superlinear (2D/3D only).

    16 (k0 d)^6 / (81 pi^2) in 2D and 125 (k0 d)^6 / 27 in 3D; 1D arrays
    never reach a superlinear regime.
    """
    check_geometry(dimension, spacing)
    if dimension == 1:
        raise ConfigError("no superlinear crossover exists for 1D arrays")
    kd6 = (2.0 * np.pi * spacing) ** 6
    if dimension == 2:
        return 16.0 * kd6 / (81.0 * np.pi**2)
    return 125.0 * kd6 / 27.0


@dataclass
class DrivenReport:
    """Driven-dissipative figures of merit derived from the bound sandwich.

    eta_c is the coherent-drive threshold (gamma0/2) sqrt(1 + gamma_max/gamma0);
    the incoherent-pump cap 2*r_star/N is reported both from the best lower
    bound (conservative) and the upper bound (permissive). n_crit is None
    for 1D arrays, where no superlinear crossover exists.
    """

    eta_c: float
    w_star_ub_conservative: float
    w_star_ub_permissive: float
    r_dot0: float
    r_dot0_upper: float
    burst: bool
    tau0: float
    t_r: float
    burst_time_degenerate: bool
    markov_limit_n1d: float
    n_crit: float | None


def drive_threshold(gamma_max: float, gamma0: float) -> float:
    """Critical coherent pump strength (gamma0/2) sqrt(1 + gamma_max/gamma0)."""
    return 0.5 * gamma0 * math.sqrt(1.0 + gamma_max / gamma0)


def driven_report(summary: SpectralSummary, bounds: BoundsReport,
                  mats: CouplingMatrices, dimension: int, spacing: float) -> DrivenReport:
    """Compose threshold, burst and Markovianity diagnostics for one array."""
    g0 = mats.gamma0
    slope = burst_slope(mats)
    bt = burst_time(dimension, spacing, mats.n, gamma0=g0)
    n_crit = crossover_n_crit(dimension, spacing) if dimension in (2, 3) else None
    return DrivenReport(
        eta_c=drive_threshold(summary.gamma_max, g0),
        w_star_ub_conservative=2.0 * bounds.lb_best / mats.n,
        w_star_ub_permissive=2.0 * bounds.ub / mats.n,
        r_dot0=slope,
        r_dot0_upper=burst_slope_upper_bound(summary, bounds.ub),
        burst=bool(slope > 0.0),
        tau0=bt.tau0,
        t_r=bt.t_r,
        burst_time_degenerate=bt.degenerate,
        markov_limit_n1d=markov_limit(dimension, spacing),
        n_crit=n_crit,
    )


def observable_rate_bounds(r_star: float, a_norm: float | None = None,
                           k: int | None = None, q: int | None = None,
                           gamma0: float = 1.0) -> dict:
    """Caps on the rate of change of observables implied by r_star.

    A bounded positive operator of norm a_norm changes at most r_star*a_norm
    per unit time; a sum of q k-local bounded terms at most
    2*k*q*sqrt(gamma0*r_star). At least one input group must be present.
    """
    if not (0 <= r_star < np.inf and 0 < gamma0 < np.inf):
        raise ConfigError(f"need 0 <= r_star and 0 < gamma0, both finite, got {r_star}, {gamma0}")
    out = {}
    if a_norm is not None:
        if not 0 <= a_norm < np.inf:
            raise ConfigError(f"a_norm must be non-negative and finite, got {a_norm}")
        out["positive_operator_bound"] = r_star * a_norm
    if k is not None and q is not None:
        if not (1 <= k < np.inf and 1 <= q < np.inf):
            raise ConfigError(f"k and q must be finite and >= 1, got {k}, {q}")
        out["local_observable_bound"] = 2.0 * k * q * math.sqrt(gamma0 * r_star)
    if not out:
        raise ConfigError("provide a_norm and/or both k and q")
    return out


def typical_rate(n: int, gamma0: float) -> float:
    """Haar-average decay rate N*gamma0/2."""
    return 0.5 * n * gamma0
