"""Diagonally-constrained SDP relaxation of the best product-state decay rate:

    maximize (1/4) Tr(Gtilde X)   over   X >= 0 (PSD), X_ii <= 1,

with Gtilde the coupling matrix minus its diagonal. Two self-contained
solvers: a low-rank factorized ascent (primary) and a full-matrix splitting
method (reference oracle), plus a rank-2 rounding back to product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrices
from .errors import CertificateError, ConfigError
from .lattice import _rng

CONVERGENCE_WINDOW = 25  # iterations over which the relative objective must settle
DEFAULT_TOL = 1e-8
PROJECTION_MAX_N = 400  # the reference solver eigendecomposes every iteration


@dataclass
class SdpProblem:
    """Zero-diagonal symmetric coupling matrix of the classical XY objective."""

    gtilde: np.ndarray
    n: int

    def __post_init__(self):
        g = np.asarray(self.gtilde, dtype=float)
        if g.shape != (self.n, self.n):
            raise ConfigError("gtilde must be n x n")
        if np.abs(np.diag(g)).max(initial=0.0) > 1e-12:
            raise ConfigError("gtilde must have zero diagonal (within 1e-12)")
        if not np.allclose(g, g.T, atol=1e-12):
            raise ConfigError("gtilde must be symmetric")
        self.gtilde = g

    @classmethod
    def from_coupling(cls, mats: CouplingMatrices) -> "SdpProblem":
        gt = mats.gamma - mats.gamma0 * np.eye(mats.n)
        return cls(gtilde=gt, n=mats.n)


@dataclass
class SdpSolution:
    """Solver output: objective value, Gram factor and convergence data.

    rstar_estimate = value + N*gamma0/2 embeds the optimum into a half-excited
    product state; rstar_upper_from_sdp = N*gamma0 + 6*value is the certified
    upper bound on the true maximal rate.
    """

    value: float
    factor: np.ndarray
    rank: int
    iterations: int
    feasibility_max_diag: float
    converged: bool
    rstar_estimate: float
    rstar_upper_from_sdp: float
    rank_escape_verified: bool | None = None

    def to_dict(self):
        return {
            "value": self.value,
            "rank": self.rank,
            "iterations": self.iterations,
            "converged": self.converged,
            "rstar_estimate": self.rstar_estimate,
            "rstar_upper_from_sdp": self.rstar_upper_from_sdp,
        }


def _objective(gtilde, v):
    return 0.25 * float(np.sum(v * (gtilde @ v)))


def _project_rows(v):
    """Scale any row with norm > 1 back onto the unit ball (x / 1.0 is exact)."""
    return v / np.maximum(np.linalg.norm(v, axis=1), 1.0)[:, None]


def default_rank(n: int) -> int:
    """ceil(sqrt(2N)): above the rank bound where factorized ascent is safe."""
    return max(2, math.ceil(math.sqrt(2.0 * n)))


def _solution_from_factor(problem, v, iterations, converged, gamma0):
    value = _objective(problem.gtilde, v)
    diag = float(np.sum(v**2, axis=1).max())
    n = problem.n
    return SdpSolution(
        value=value,
        factor=v,
        rank=v.shape[1],
        iterations=iterations,
        feasibility_max_diag=diag,
        converged=converged,
        rstar_estimate=value + 0.5 * n * gamma0,
        rstar_upper_from_sdp=n * gamma0 + 6.0 * value,
    )


def _ascend(gtilde, v, max_iters, tol):
    """Projected gradient ascent with Barzilai-Borwein steps on the factor."""
    spectral_scale = max(float(np.abs(gtilde).sum(axis=1).max()), 1e-12)
    step = 1.0 / spectral_scale
    grad = 0.5 * (gtilde @ v)
    # f = (1/4) Tr(V^T Gtilde V) = (1/2) sum(V * grad): one product per iteration
    best_f = f = 0.5 * float(np.sum(v * grad))
    best_v = v.copy()
    history = [f]
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        v_new = _project_rows(v + step * grad)
        grad_new = 0.5 * (gtilde @ v_new)
        dv = v_new - v
        dg = grad_new - grad
        denom = float(np.sum(dv * dg))
        num = float(np.sum(dv * dv))
        if abs(denom) > 1e-300:
            step = min(max(abs(num / denom), 1e-3 / spectral_scale), 1e6 / spectral_scale)
        v, grad = v_new, grad_new
        f = 0.5 * float(np.sum(v * grad))
        history.append(f)
        if f > best_f:
            best_f, best_v = f, v.copy()
        if it >= CONVERGENCE_WINDOW:
            span = max(history[-CONVERGENCE_WINDOW:]) - min(history[-CONVERGENCE_WINDOW:])
            if span <= tol * max(1.0, abs(f)):
                return best_v, best_f, iterations, True
    return best_v, best_f, iterations, False


def solve_low_rank(problem: SdpProblem, rank: int | None = None, seed: int = 0,
                   max_iters: int = 20000, tol: float = DEFAULT_TOL,
                   rank_escape: bool = True, gamma0: float = 1.0) -> SdpSolution:
    """Factorized solver: ascend (1/4) Tr(Gtilde V V^T) over rows ||v_i|| <= 1.

    Rows start uniform on the unit sphere (seeded, deterministic). After
    convergence at the working rank the solve is repeated warm-started at
    rank + 1; agreement within 1e-6 relative certifies no local-maximum
    escape was available (rank_escape_verified).
    """
    n = problem.n
    r = default_rank(n) if rank is None else rank
    if not 2 <= r <= n:
        raise ConfigError(f"rank must be in [2, {n}]")
    rng = _rng(seed)
    v0 = rng.standard_normal((n, r))
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    v, f, iters, converged = _ascend(problem.gtilde, v0, max_iters, tol)
    total_iters = iters

    escape_ok = None
    if rank_escape and converged:
        escape_ok = True
        for _ in range(3):
            bump = 1e-3 * rng.standard_normal((n, 1))
            v_up = _project_rows(np.hstack([v, bump]))
            v2, f2, iters2, conv2 = _ascend(problem.gtilde, v_up, max_iters, tol)
            total_iters += iters2
            if f2 <= f + 1e-6 * max(1.0, abs(f)):
                break
            # escaped a spurious local maximum: adopt and re-verify
            escape_ok = False
            v, f, converged = v2, f2, conv2
        else:
            escape_ok = False

    sol = _solution_from_factor(problem, v, total_iters, converged, gamma0)
    sol.rank_escape_verified = escape_ok
    return sol


def solve_projection(problem: SdpProblem, max_iters: int = 20000,
                     tol: float = DEFAULT_TOL, rho: float | None = None,
                     gamma0: float = 1.0) -> SdpSolution:
    """Reference solver: operator splitting over the PSD cone and the diagonal box.

    Alternates a PSD eigenvalue-clipping projection (absorbing the linear
    objective) with a diagonal clip, coupled through a scaled dual variable.
    Dense eigendecomposition every iteration limits it to N <= 400.
    """
    n = problem.n
    if n > PROJECTION_MAX_N:
        raise ConfigError(f"projection solver is limited to N <= {PROJECTION_MAX_N}")
    c = 0.25 * problem.gtilde
    if rho is None:
        rho = max(float(np.linalg.norm(c, 2)), 1e-6)
    z = np.zeros((n, n))
    u = np.zeros((n, n))
    history = []
    converged = False
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        # PSD step: argmax <C,X> - rho/2 ||X - Z + U||^2 over the PSD cone
        vals, vecs = np.linalg.eigh(z - u + c / rho)
        pos = vals > 0
        x = (vecs[:, pos] * vals[pos]) @ vecs[:, pos].T
        # diagonal step: clip X_ii + U_ii to <= 1 (off-diagonal unconstrained)
        z = x + u
        dz = np.diag(z).copy()
        np.fill_diagonal(z, np.minimum(dz, 1.0))
        u = u + x - z
        f = 0.25 * float(np.sum(problem.gtilde * z))
        history.append(f)
        if it >= CONVERGENCE_WINDOW:
            span = max(history[-CONVERGENCE_WINDOW:]) - min(history[-CONVERGENCE_WINDOW:])
            primal = float(np.linalg.norm(x - z))
            if span <= tol * max(1.0, abs(f)) and primal <= math.sqrt(n) * 1e-7:
                converged = True
                break

    # exact feasible point: clip eigenvalues, then rescale the diagonal
    vals, vecs = np.linalg.eigh(0.5 * (z + z.T))
    pos = vals > 0
    x_feas = (vecs[:, pos] * vals[pos]) @ vecs[:, pos].T
    diag = np.diag(x_feas)
    scale = np.where(diag > 1.0, 1.0 / np.sqrt(np.maximum(diag, 1e-300)), 1.0)
    x_feas = x_feas * np.outer(scale, scale)
    vals, vecs = np.linalg.eigh(x_feas)
    keep = vals > 1e-12 * max(vals.max(initial=0.0), 1.0)
    factor = vecs[:, keep] * np.sqrt(vals[keep])
    if factor.shape[1] == 0:
        factor = np.zeros((n, 1))
    return _solution_from_factor(problem, factor, iterations, converged, gamma0)


@dataclass
class ProductRounding:
    """Planar spin angles and objective of the rank-2 rounded solution."""

    angles: np.ndarray
    value: float


def round_to_product_state(solution: SdpSolution, problem: SdpProblem,
                           tol: float = 1e-10, max_sweeps: int = 500) -> ProductRounding:
    """Rank-2 rounding: project the factor onto its top-2 principal subspace,
    normalize each row to a planar unit spin, then polish by single-spin
    updates until no move improves the XY objective by more than tol.

    The rounded value is a true product-state witness, so it never exceeds
    the SDP optimum. It can exceed the reported solution.value, which stops
    short of the optimum, by up to the solver's stopping tolerance (about
    1e-9 relative at the default tol=1e-8).
    """
    v = solution.factor
    if v is None or v.ndim != 2:
        raise ConfigError("solution carries no factor to round")
    # top-2 right-singular directions of the factor
    _, _, vt = np.linalg.svd(v, full_matrices=False)
    basis = vt[: min(2, vt.shape[0])].T
    s = v @ basis
    if s.shape[1] < 2:
        s = np.column_stack([s, np.zeros(problem.n)])
    norms = np.linalg.norm(s, axis=1)
    s[norms < 1e-12] = np.array([1.0, 0.0])
    s /= np.linalg.norm(s, axis=1, keepdims=True)

    gtilde = problem.gtilde
    x = np.ascontiguousarray(s[:, 0])
    y = np.ascontiguousarray(s[:, 1])
    for _ in range(max_sweeps):
        improved = False
        for i, row in enumerate(gtilde):
            bx = float(row @ x)
            by = float(row @ y)
            nrm = math.hypot(bx, by)
            if nrm < 1e-300:
                continue
            # moving spin i to b/|b| changes the objective by (|b| - s_i.b)/2
            gain = 0.5 * (nrm - (x[i] * bx + y[i] * by))
            if gain > tol:
                x[i] = bx / nrm
                y[i] = by / nrm
                improved = True
        if not improved:
            break
    value = 0.25 * float(x @ (gtilde @ x) + y @ (gtilde @ y))
    return ProductRounding(angles=np.arctan2(y, x), value=value)


def sdp_certificates(problem: SdpProblem, solution: SdpSolution, gamma_max: float,
                     gamma0: float = 1.0, slack: float = 1e-6) -> dict:
    """Check the trace-inequality cap value <= (N/4)(gamma_max - gamma0).

    A violation beyond the slack means the solver returned an infeasible
    point and is treated as a hard error.
    """
    cap = 0.25 * problem.n * (gamma_max - gamma0)
    if solution.value > cap + slack:
        raise CertificateError(
            f"SDP value {solution.value:.9g} exceeds the analytic cap {cap:.9g}"
        )
    if solution.feasibility_max_diag > 1.0 + 1e-8:
        raise CertificateError(
            f"factor diagonal {solution.feasibility_max_diag:.9g} violates X_ii <= 1"
        )
    return {
        "cap": cap,
        "value": solution.value,
        "cap_slack": cap - solution.value,
        "rstar_estimate": solution.rstar_estimate,
        "rstar_upper_from_sdp": solution.rstar_upper_from_sdp,
    }
