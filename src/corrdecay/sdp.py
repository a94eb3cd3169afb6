"""Diagonally-constrained SDP relaxation of the best product-state decay rate:

    maximize (1/4) Tr(Gtilde X)   over   X >= 0 (PSD), X_ii <= 1,

with Gtilde the coupling matrix minus its diagonal. A low-rank ascent, its rank
grown while a dual bound leaves a gap (primary), a full-matrix splitting method
(reference oracle), and a rank-2 rounding back to product states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrices, _mirror_blocks, centrosymmetric, check_symmetric_matrix
from .errors import CertificateError, ConfigError, SolverConvergenceError
from .lattice import _rng

CONVERGENCE_WINDOW = 25  # iterations over which the relative objective must settle
DEFAULT_TOL = 1e-8
PROJECTION_MAX_N = 400  # the reference solver eigendecomposes every iteration
START_RANK = 8  # the optimum's numerical rank is 4-20 on the chains and planes measured
GAP_TOL = 1e-3  # largest certified relative gap of a converged result; above it the rank doubles
GROWTH_SCALE = 0.5  # rms row norm of the columns added when the rank grows
ROUND_TOL = 1e-10  # smallest objective gain that moves a spin in the rounding polish
ROUND_MAX_SWEEPS = 500
CAP_SLACK = 1e-6  # absolute excess over the analytic cap that a certificate forgives


@dataclass
class SdpProblem:
    """Zero-diagonal (each entry within 1e-12) symmetric n x n coupling matrix of the classical
    XY objective, and the gamma0 of the coupling matrix it came from (for the rate estimates)."""

    gtilde: np.ndarray
    n: int
    gamma0: float = 1.0

    def __post_init__(self):
        g = np.asarray(self.gtilde, dtype=float)
        if g.shape != (self.n, self.n):
            raise ConfigError("gtilde must be n x n")
        check_symmetric_matrix(g)
        if np.abs(np.diag(g)).max(initial=0.0) > 1e-12:
            raise ConfigError("gtilde must have zero diagonal (within 1e-12)")
        self.gtilde = g

    @classmethod
    def from_coupling(cls, mats: CouplingMatrices) -> "SdpProblem":
        gt = mats.gamma.copy()
        np.fill_diagonal(gt, 0.0)
        return cls(gtilde=gt, n=mats.n, gamma0=mats.gamma0)


@dataclass
class SdpSolution:
    """Solver output: objective value, its dual bound, Gram factor and convergence data.

    The optimum lies in [value, dual_bound]; converged: the certified gap is <= GAP_TOL, for
    either solver. rstar_estimate = value + N*gamma0/2 embeds the factor into a half-excited
    product state; rstar_upper_from_sdp = N*gamma0 + 6*dual_bound bounds the maximal rate.
    """

    value: float
    dual_bound: float
    factor: np.ndarray
    rank: int
    iterations: int
    feasibility_max_diag: float
    rstar_estimate: float
    rstar_upper_from_sdp: float
    rank_escape_verified: bool | None = None
    rounds: int = 1

    @property
    def gap(self) -> float:  # relative: (dual_bound - value) / max(1, value)
        return (self.dual_bound - self.value) / max(1.0, self.value)

    @property
    def converged(self) -> bool:
        return self.gap <= GAP_TOL

    def require_converged(self) -> None:
        """Raise SolverConvergenceError (exit 4) unless the result is converged."""
        if not self.converged:
            raise SolverConvergenceError(f"certified SDP gap {self.gap:.3g} > GAP_TOL {GAP_TOL:g}")

    def to_dict(self):
        keys = ("value", "dual_bound", "gap", "rank", "rounds", "iterations", "converged",
                "rstar_estimate", "rstar_upper_from_sdp")
        return {key: getattr(self, key) for key in keys}


def _project_rows(v):
    """Scale any row with norm > 1 back onto the unit ball (x / 1.0 is exact)."""
    return v / np.maximum(np.linalg.norm(v, axis=1), 1.0)[:, None]


def _certificate(gtilde, v):
    """(value, dual bound) of a factor V with rows ||v_i|| <= 1. With C = Gtilde/4,
    y_i = max(0, (C V V^T)_ii) and S = Diag(y) - C, the point y + max(0, -lambda_min(S)) is
    dual feasible, so by weak duality sum(y) + N max(0, -lambda_min(S)) (one values-only
    eigvalsh) bounds every (1/4) Tr(Gtilde X). The value sums the rows that y clips at 0 in
    the same order, so value <= bound holds exactly."""
    rows = 0.25 * np.einsum("ij,ij->i", gtilde @ v, v)
    y = np.maximum(rows, 0.0)
    s = -0.25 * gtilde
    s.flat[:: len(y) + 1] += y
    lam = float(np.linalg.eigvalsh(s)[0])
    return float(rows.sum()), float(y.sum()) + len(y) * max(0.0, -lam)


def _solution(problem, v, iterations, **extra):
    value, dual = _certificate(problem.gtilde, v)
    return SdpSolution(
        value=value,
        dual_bound=dual,
        factor=v,
        rank=v.shape[1],
        iterations=iterations,
        feasibility_max_diag=float(np.sum(v**2, axis=1).max()),
        rstar_estimate=value + 0.5 * problem.n * problem.gamma0,
        rstar_upper_from_sdp=problem.n * problem.gamma0 + 6.0 * dual,
        **extra,
    )


def _settled(history, it, tol) -> bool:
    """Span stop of both solvers: the last CONVERGENCE_WINDOW objective values agree to tol."""
    if it < CONVERGENCE_WINDOW:
        return False
    window = history[-CONVERGENCE_WINDOW:]
    return max(window) - min(window) <= tol * max(1.0, abs(window[-1]))


def _product(gtilde, r):
    """product(v, out), which writes gtilde @ v into out for (N, r) factors v. An even-N
    centrosymmetric gtilde (coupling.centrosymmetric), [[A, B J], [J B, J A J]] with J the
    row reversal, multiplies through K = [(A + B)/2, (A - B)/2], its two parity blocks
    (coupling._mirror_blocks over the grid (N,)) halved, reading N^2/2 numbers per product:
    with W = [v1 + J v2, v1 - J v2] and R = K W, the top half is R0 + R1 and the
    row-reversed bottom half is R0 - R1. Any other gtilde is one dense matmul."""
    n = len(gtilde)
    if n % 2 or not centrosymmetric(gtilde):
        return lambda v, out: np.matmul(gtilde, v, out=out)
    m = n // 2
    k = np.empty((2, m, m))
    for half, block in zip(k, _mirror_blocks(gtilde, (n,))):
        np.multiply(block, 0.5, out=half)
    w, res = np.empty((2, m, r)), np.empty((2, m, r))

    def product(v, out):
        top, bottom = v[:m], v[:m - 1:-1]  # bottom = J v2
        np.add(top, bottom, out=w[0])
        np.subtract(top, bottom, out=w[1])
        np.matmul(k, w, out=res)
        np.add(res[0], res[1], out=out[:m])
        np.subtract(res[0], res[1], out=out[:m - 1:-1])

    return product


def _ascend(gtilde, v, max_iters, tol):
    """Projected gradient ascent with Barzilai-Borwein steps on the factor, in place on
    buffers allocated once: each step is v <- rows of v + step * grad scaled onto the
    unit ball, with one gtilde product (_product) per iteration."""
    spectral_scale = max(float(np.abs(gtilde).sum(axis=1).max()), 1e-12)
    step_min, step_max = 1e-3 / spectral_scale, 1e6 / spectral_scale
    step = 1.0 / spectral_scale
    v = v.copy()  # the caller's start is not overwritten
    product = _product(gtilde, v.shape[1])
    grad, v_new, grad_new, dv, dg = (np.empty_like(v) for _ in range(5))
    nrm = np.empty(len(v))
    product(v, grad)
    grad *= 0.5
    # f = (1/4) Tr(V^T Gtilde V) = (1/2) sum(V * grad): one product per iteration
    best_f = f = 0.5 * float(np.vdot(v, grad))
    best_v = v.copy()
    history = [f]
    it = 0
    for it in range(1, max_iters + 1):
        np.multiply(grad, step, out=v_new)
        v_new += v
        np.einsum("ij,ij->i", v_new, v_new, out=nrm)
        np.sqrt(nrm, out=nrm)
        np.maximum(nrm, 1.0, out=nrm)  # rows with norm > 1 back onto the unit ball
        v_new /= nrm[:, None]
        product(v_new, grad_new)
        grad_new *= 0.5
        np.subtract(v_new, v, out=dv)
        np.subtract(grad_new, grad, out=dg)
        denom = float(np.vdot(dv, dg))
        if abs(denom) > 1e-300:
            step = min(max(abs(float(np.vdot(dv, dv)) / denom), step_min), step_max)
        v, v_new, grad, grad_new = v_new, v, grad_new, grad
        f = 0.5 * float(np.vdot(v, grad))
        history.append(f)
        if f > best_f:
            best_f = f
            np.copyto(best_v, v)
        if _settled(history, it, tol):
            break
    return best_v, it


def solve_low_rank(problem: SdpProblem, rank: int | None = None, seed: int = 0,
                   max_iters: int = 20000, tol: float = DEFAULT_TOL) -> SdpSolution:
    """Factorized solver: ascend (1/4) Tr(Gtilde V V^T) over rows ||v_i|| <= 1.

    Rows start uniform on the unit sphere (seeded) at rank min(START_RANK, N) or
    the given rank. Each ascent round stops by the objective-span rule (tol) or when
    max_iters, which bounds all rounds together, is spent. While a round's result is
    not converged and budget remains, the rank doubles (up to N) with seeded random
    columns, warm-started. rank_escape_verified repeats the returned verdict.
    """
    n = problem.n
    r = min(START_RANK, n) if rank is None else rank
    if not 1 <= r <= n:
        raise ConfigError(f"rank must be in [1, {n}]")
    rng = _rng(seed)
    v = rng.standard_normal((n, r))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    total_iters = rounds = 0
    while True:
        v, iters = _ascend(problem.gtilde, v, max_iters - total_iters, tol)
        total_iters += iters
        rounds += 1
        sol = _solution(problem, v, total_iters, rounds=rounds)
        sol.rank_escape_verified = sol.converged
        if sol.converged or r == n or total_iters >= max_iters:
            return sol
        # seeded random new columns; the warm-started ascent grows their
        # component along negative curvature of S, as a power iteration would
        grown = min(2 * r, n)
        block = rng.standard_normal((n, grown - r)) * (GROWTH_SCALE / math.sqrt(grown - r))
        v, r = _project_rows(np.hstack([v, block])), grown


def solve_projection(problem: SdpProblem, max_iters: int = 20000,
                     tol: float = DEFAULT_TOL) -> SdpSolution:
    """Reference solver: operator splitting over the PSD cone and the diagonal box.

    Alternates a PSD eigenvalue-clipping projection (absorbing the linear
    objective) with a diagonal clip, coupled through a scaled dual variable
    with penalty rho = ||Gtilde/4||_2. Dense eigendecomposition every iteration
    limits it to N <= 400.
    """
    n = problem.n
    if n > PROJECTION_MAX_N:
        raise ConfigError(f"projection solver is limited to N <= {PROJECTION_MAX_N}")
    c = 0.25 * problem.gtilde
    rho = max(float(np.linalg.norm(c, 2)), 1e-6)
    z = np.zeros((n, n))
    u = np.zeros((n, n))
    history = []
    it = 0
    for it in range(1, max_iters + 1):
        # PSD step: argmax <C,X> - rho/2 ||X - Z + U||^2 over the PSD cone
        vals, vecs = np.linalg.eigh(z - u + c / rho)
        pos = vals > 0
        x = (vecs[:, pos] * vals[pos]) @ vecs[:, pos].T
        # diagonal step: clip X_ii + U_ii to <= 1 (off-diagonal unconstrained)
        z = x + u
        np.fill_diagonal(z, np.minimum(np.diag(z), 1.0))
        u = u + x - z
        f = 0.25 * float(np.sum(problem.gtilde * z))
        history.append(f)
        if _settled(history, it, tol) and float(np.linalg.norm(x - z)) <= math.sqrt(n) * 1e-7:
            break

    # exact feasible point: a factor of the eigenvalue-clipped Z, rows with
    # X_ii > 1 scaled onto the unit ball (X -> D X D with D_ii = 1/sqrt(X_ii))
    vals, vecs = np.linalg.eigh(0.5 * (z + z.T))
    keep = vals > 1e-12 * max(vals.max(initial=0.0), 1.0)
    factor = _project_rows(vecs[:, keep] * np.sqrt(vals[keep]))
    if factor.shape[1] == 0:
        factor = np.zeros((n, 1))
    return _solution(problem, factor, it)


@dataclass
class ProductRounding:
    """Planar spin angles and objective of the rank-2 rounded solution."""

    angles: np.ndarray
    value: float


def round_to_product_state(solution: SdpSolution, problem: SdpProblem) -> ProductRounding:
    """Rank-2 rounding: project the factor onto its top-2 principal subspace,
    normalize each row to a planar unit spin, then polish by single-spin updates
    until no move improves the XY objective by more than ROUND_TOL (at most
    ROUND_MAX_SWEEPS sweeps).

    The rounded value is a feasible rank-2 point, so it never exceeds the SDP
    optimum and hence never exceeds solution.dual_bound. It can exceed
    solution.value, which is a lower bound that stops short of the optimum
    (measured: 2.3e-7 relative on the N=2000 x-chain at the default tol=1e-8).
    """
    v = solution.factor
    # top-2 right-singular directions of the factor (a rank-1 factor pads with 0)
    _, _, vt = np.linalg.svd(v, full_matrices=False)
    s = np.zeros((problem.n, 2))
    s[:, : min(2, vt.shape[0])] = v @ vt[:2].T
    s[np.linalg.norm(s, axis=1) < 1e-12] = (1.0, 0.0)
    s /= np.linalg.norm(s, axis=1, keepdims=True)

    gtilde = problem.gtilde
    xy = np.ascontiguousarray(s.T)  # (2, N): one product per visited row
    x, y = xy
    rows = list(gtilde)
    for _ in range(ROUND_MAX_SWEEPS):
        improved = False
        for i, row in enumerate(rows):
            bx, by = (xy @ row).tolist()
            nrm = math.hypot(bx, by)
            if nrm < 1e-300:
                continue
            # moving spin i to b/|b| changes the objective by (|b| - s_i.b)/2
            gain = 0.5 * (nrm - (x[i] * bx + y[i] * by))
            if gain > ROUND_TOL:
                x[i], y[i] = bx / nrm, by / nrm
                improved = True
        if not improved:
            break
    value = 0.25 * float(x @ (gtilde @ x) + y @ (gtilde @ y))
    return ProductRounding(angles=np.arctan2(y, x), value=value)


def sdp_certificates(problem: SdpProblem, solution: SdpSolution, gamma_max: float,
                     gamma0: float | None = None) -> dict:
    """Check the trace-inequality cap value <= (N/4)(gamma_max - gamma0) and
    value <= dual_bound; gamma0 defaults to problem.gamma0.

    A violation (of the cap beyond CAP_SLACK) means the solver returned an
    infeasible point or a wrong bound and is treated as a hard error.
    """
    gamma0 = problem.gamma0 if gamma0 is None else gamma0
    cap = 0.25 * problem.n * (gamma_max - gamma0)
    value, diag, dual = solution.value, solution.feasibility_max_diag, solution.dual_bound
    if value > cap + CAP_SLACK:
        raise CertificateError(f"SDP value {value:.9g} exceeds the analytic cap {cap:.9g}")
    if diag > 1.0 + 1e-8:
        raise CertificateError(f"factor diagonal {diag:.9g} violates X_ii <= 1")
    if dual < value:
        raise CertificateError(f"dual bound {dual:.9g} is below the SDP value {value:.9g}")
    return {
        "cap": cap,
        "value": value,
        "dual_bound": dual,
        "cap_slack": cap - value,
        "rstar_estimate": solution.rstar_estimate,
        "rstar_upper_from_sdp": solution.rstar_upper_from_sdp,
    }
