"""Exact many-body verification: excitation-sector spectra of the auxiliary
decay Hamiltonian and Haar-random typicality sampling.

The auxiliary Hamiltonian sum_ij Gamma_ij sigma+_i sigma-_j conserves the
excitation number, so it block-diagonalizes into sectors labelled by m, the
number of de-excited qubits (m = 0 is fully excited). Sector bases are
bitmasks (bit i set = qubit i excited) sorted ascending, with searchsorted
index lookup. Each basis builds its Gamma-independent hop table once; the
table drives both the matrix-free matvec and the dense sector build. Haar
sampling needs no sector: a state's rate is Tr(Gamma C) over its N x N
single-excitation coherence matrix C. Flipping every qubit maps sector m
onto sector N - m up to a shift by gamma0 (N - 2m), so exact_rstar solves
only m <= N/2. Note this is a 2^N-space diagonalization;
the N x N matrix eigenproblem lives in spectral.py and is a different, much
cheaper beast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .coupling import CouplingMatrices, check_coupling_matrix
from .errors import ConfigError, SolverConvergenceError
from .lattice import _check_number, _rng

MAX_QUBITS = 23  # largest N measured: a d = 0.2 chain takes 112 s and 796 MiB (2 cores, OpenBLAS)
MAX_DENSE_DIM = 300  # measured crossover about 200 (chains, N = 11-17); dense costs < 1 ms more
MAX_QUBITS_HAAR = 14
LANCZOS_CHECK = 4  # Lanczos steps between convergence tests, each one tridiagonal eigh


def _sector_states(n: int, n_excited: int) -> np.ndarray:
    """Ascending n-qubit bitmasks with n_excited bits set (none for -1), by a popcount filter."""
    states = np.arange(1 << n, dtype=np.uint64)
    return states[np.bitwise_count(states) == n_excited]


@dataclass
class SectorBasis:
    """Computational basis of one excitation sector of N qubits.

    The bitmask -> position index map is realized by binary search over the
    sorted mask array (see position()). The hop table (hops) is built once per
    basis and read by every operator application.
    """

    n: int
    m_ground: int
    states: np.ndarray  # uint64 bitmasks, sorted ascending

    @property
    def dim(self) -> int:
        return self.states.size

    @cached_property
    def hops(self) -> tuple[np.ndarray, np.ndarray]:
        """Single-excitation hops to and from the sector one excitation below.

        Returns int32 tables (down, up) of shapes (n, dim_below) and (n_excited,
        dim), C-contiguous and independent of Gamma. down[j, t] is the index of
        state t of the sector below with qubit j excited, or dim where qubit j is
        already excited in t. up[a, s] is i * dim_below + t, where i is the a-th
        excited qubit of state s (ascending) and t is s with qubit i de-excited.
        Every pair hop sigma+_i sigma-_j passes through one state t of the sector
        below, so the two tables, 4 * (n * dim_below + n_excited * dim) bytes,
        stand for all dim * n_excited * (n - n_excited) pair hops: 1.1 bytes per
        hop in the middle sector at N = 20 (1.9 at N = 13).
        """
        n_exc = self.n - self.m_ground
        below = SectorBasis(self.n, self.m_ground + 1, _sector_states(self.n, n_exc - 1))
        up, rest = np.empty((n_exc, self.dim), dtype=np.int32), self.states.copy()
        for a in range(n_exc):  # one row at a time: the transients stay a few vectors long
            bit = rest & (~rest + np.uint64(1))  # the lowest excited qubit not yet taken
            up[a] = np.bitwise_count(bit - np.uint64(1)) * np.int64(below.dim) + \
                below.position(self.states ^ bit)
            rest ^= bit
        down = np.full(self.n * below.dim, self.dim, dtype=np.int32)
        down[up] = np.arange(self.dim)  # down[up[a, s]] = s, broadcast over the rows a
        return down.reshape(self.n, below.dim), up

    @classmethod
    def build(cls, n: int, m_ground: int) -> "SectorBasis":
        if not 0 <= m_ground <= n:
            raise ConfigError(f"m_ground = {m_ground} outside [0, {n}]")
        return cls(n=n, m_ground=m_ground, states=_sector_states(n, n - m_ground))

    def position(self, mask) -> np.ndarray:
        """Index of each bitmask within the sorted sector basis."""
        return np.searchsorted(self.states, mask)


def sector_matvec(mats: CouplingMatrices, basis: SectorBasis, v: np.ndarray) -> np.ndarray:
    """Apply the auxiliary Hamiltonian restricted to one sector, matrix-free.

    v is one vector of length dim or a (dim, k) block of k vectors, real or
    complex. Every pair term sigma+_i sigma-_j (the diagonal i = j included)
    runs through the sector one excitation below, from the cached hop table:
    gather sigma-_j v for every qubit j, mix the qubits with one Gamma product,
    and gather sigma+_i of the result back, summed over the leading excitation
    axis of up. Both gathers are ndarray.take on axis 0, which copies the table
    it reads to intp for the call. Per vector this allocates about 2 * n *
    dim_below + n_excited * dim amplitudes, and nothing per pair hop.
    """
    v = np.asarray(v)
    if v.shape[0] != basis.dim:
        raise ConfigError("vector length does not match sector dimension")
    down, up = basis.hops
    cols = v.reshape(basis.dim, -1)
    padded = np.concatenate([cols, np.zeros((1, cols.shape[1]), cols.dtype)])
    # padded.take(down) is sigma-_j v for every qubit j, (n, dim_below, k), zero where j is
    # not excited; the Gamma product mixes it into sum_j Gamma_ij sigma-_j v for every qubit i
    mixed = mats.gamma @ padded.take(down, axis=0).reshape(basis.n, -1)
    out = mixed.reshape(-1, cols.shape[1]).take(up, axis=0).sum(axis=0)
    return out.reshape(v.shape)


def build_sector_dense(mats: CouplingMatrices, basis: SectorBasis) -> np.ndarray:
    """Dense sector matrix, assembled from the same hop table as sector_matvec.

    Entry (s, s') is Gamma_ij when s' becomes s by moving one excitation from j
    to i; the diagonal sums Gamma_ii over the excited qubits, in ascending order.
    """
    down, up = basis.hops
    raised, below = np.divmod(up.T, down.shape[1] or 1)  # qubit i and state t, (dim, n_excited)
    src = down[:, below]  # (n, dim, n_excited): t with qubit j excited, or dim, for every qubit j
    amp = mats.gamma[raised, np.arange(basis.n)[:, None, None]]  # Gamma_ij
    # rows of width dim + 1: a missing hop (src = dim) lands in the padding column, dropped below;
    # bincount adds in index order, so j ascending gives the diagonal its ascending Gamma_ii sum
    flat = src + (basis.dim + 1) * np.arange(basis.dim)[:, None]
    h = np.bincount(flat.ravel(), weights=amp.ravel(), minlength=basis.dim * (basis.dim + 1))
    return h.reshape(basis.dim, basis.dim + 1)[:, :-1]


def lanczos_largest(matvec, dim: int, tol: float = 1e-10, max_iter: int = 300, seed: int = 0):
    """Largest eigenvalue by the plain three-term Lanczos recurrence.

    Restart-free, and it keeps two Lanczos vectors, not the Krylov basis. Without
    reorthogonalization, converged Ritz values grow ghost copies, but a ghost copies the
    top value and never moves it, so only the top value is tested: its residual and
    its change since the last test, every LANCZOS_CHECK steps. A breakdown (vanishing
    residual: the Krylov space is invariant) returns the top Ritz value, which is the
    top eigenvalue because the random start overlaps every eigenspace; a sector whose
    Hamiltonian is a multiple of the identity (Gamma = gamma0 I) breaks down at the
    first step. Returns (value, iterations); raises SolverConvergenceError when
    max_iter < dim steps pass without convergence.
    """
    steps = min(dim, max_iter)
    tmat = np.zeros((steps + 1, steps + 1))  # lower triangle; the spare row takes the last beta
    q_prev, q = np.zeros(dim), _rng(seed, 0).standard_normal(dim)
    q /= np.linalg.norm(q)
    theta_prev, bound, beta = None, 1.0, 0.0
    for it in range(1, steps + 1):
        w = matvec(q) - beta * q_prev
        alpha = tmat[it - 1, it - 1] = float(np.dot(q, w))
        w -= alpha * q
        beta_prev, beta = beta, float(np.linalg.norm(w))
        tmat[it, it - 1] = beta
        # Gershgorin bound on |theta|: the breakdown scale between tridiagonal solves
        bound = max(bound, abs(alpha) + beta_prev + beta)
        invariant = beta <= 1e-14 * bound or it == dim
        if invariant or it % LANCZOS_CHECK == 0 or it == steps:
            evals, evecs = np.linalg.eigh(tmat[:it, :it])
            theta = float(evals[-1])
            scale = max(abs(theta), 1.0)
            if invariant or beta * abs(evecs[-1, -1]) <= tol * scale and \
                    theta_prev is not None and abs(theta - theta_prev) <= tol * scale:
                return theta, it
            theta_prev = theta
        q_prev, q = q, w / beta
    raise SolverConvergenceError(f"Lanczos did not converge in {max_iter} steps "
                                 f"(sector dimension {dim})")


@dataclass
class ExactResult:
    """Sector-resolved maximal decay rate (the true r_star at small N)."""

    rstar_exact: float
    argmax_sector: int  # m_ground of the winning sector
    per_sector_max: list
    method: str  # "dense", "lanczos" or "dense+lanczos"


def exact_rstar(mats: CouplingMatrices, force_method: str | None = None,
                seed: int = 7) -> ExactResult:
    """Largest eigenvalue of the auxiliary Hamiltonian over all sectors.

    Only the sectors m_ground <= N/2 are solved: with the uniform diagonal gamma0
    that check_coupling_matrix enforces, flipping every qubit gives
    spec(m) = spec(N - m) + gamma0 (N - 2m), so each other entry of per_sector_max
    is derived from its partner and lies below it. Sectors with dimension <=
    MAX_DENSE_DIM are solved densely, larger ones with matrix-free Lanczos;
    force_method = "dense" | "lanczos" overrides.
    """
    n = mats.n
    if n > MAX_QUBITS:
        raise ConfigError(f"exact diagonalization is limited to N <= {MAX_QUBITS}")
    if force_method not in (None, "dense", "lanczos"):
        raise ConfigError("force_method must be None, 'dense' or 'lanczos'")
    _check_number("seed", seed, Integral)  # here, not in Lanczos: a dense-only N must refuse it too
    check_coupling_matrix(mats.gamma)

    def solve_sector(m_ground):  # a sector's basis and matrix are freed before the next
        basis = SectorBasis.build(n, m_ground)
        use_dense = basis.dim <= MAX_DENSE_DIM if force_method is None else force_method == "dense"
        if use_dense:
            h = build_sector_dense(mats, basis)
            return float(np.linalg.eigvalsh(h)[-1]), "dense"
        value, _ = lanczos_largest(lambda v: sector_matvec(mats, basis, v), basis.dim, seed=seed)
        return value, "lanczos"

    solved = [solve_sector(m_ground) for m_ground in range(n // 2 + 1)]
    per_sector = [value for value, _ in solved]
    per_sector += [per_sector[n - m] + mats.gamma0 * (n - 2 * m)
                   for m in range(n // 2 + 1, n + 1)]
    methods = {method for _, method in solved}
    argmax = int(np.argmax(per_sector))
    return ExactResult(
        rstar_exact=float(max(per_sector)),
        argmax_sector=argmax,
        per_sector_max=per_sector,
        method="+".join(sorted(methods)),
    )


@dataclass
class HaarStatistics:
    """Decay-rate statistics over Haar-random many-body states."""

    mean: float
    std: float
    min: float
    max: float
    n_samples: int


def haar_rate_samples(mats: CouplingMatrices, n_samples: int, seed: int = 0) -> HaarStatistics:
    """Decay rate r = Tr(Gamma C) / <psi|psi> of Haar-random states over the full 2^N space.

    C_ij = <sigma-_i psi|sigma-_j psi> is the state's single-excitation coherence
    matrix, so r = sum_ij Gamma_ij <sigma+_i sigma-_j>, the paper's definition, with
    no sector. A state is a complex Gaussian vector drawn one at a time as its
    real and its imaginary part, x[0] + i x[1]; as Gamma is real and symmetric, the
    cross terms of C cancel and C is the sum of the two parts' real matrices.
    """
    n = mats.n
    if n > MAX_QUBITS_HAAR:
        raise ConfigError(f"Haar sampling is limited to N <= {MAX_QUBITS_HAAR}")
    _check_number("n_samples", n_samples, Integral)
    if n_samples < 1:
        raise ConfigError("n_samples must be positive")
    check_coupling_matrix(mats.gamma)
    rng = _rng(seed)
    low = np.zeros((2, n, 2**n))  # sigma-_i x for every qubit i; slots with qubit i set stay 0
    rates = np.empty(n_samples)
    for k in range(n_samples):
        x = rng.standard_normal((2, 2**n))
        for i in range(n):  # axis 2 is qubit i: its excited half moves to the de-excited slot
            low.reshape(2, n, -1, 2, 2**i)[:, i, :, 0] = x.reshape(2, -1, 2, 2**i)[:, :, 1]
        rates[k] = np.sum(mats.gamma * (low @ low.transpose(0, 2, 1)).sum(axis=0)) / np.sum(x * x)
    return HaarStatistics(
        mean=float(rates.mean()),
        std=float(rates.std(ddof=1)) if n_samples > 1 else 0.0,
        min=float(rates.min()),
        max=float(rates.max()),
        n_samples=n_samples,
    )

