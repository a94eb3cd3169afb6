"""Free-space dyadic propagator and the N x N coherent/dissipative coupling matrices.

Rates are in units of the single-emitter decay rate gamma0 (fixed to 1
internally), lengths in units of lambda0 (k0 = 2*pi). For a real dipole
orientation p and separation r with x = k0*|r|, c2 = (r_hat . p)^2, the
projected pair rates reduce to scalar radiation kernels:

    gamma(r)/gamma0 = t(x) + (l(x) - t(x)) * c2
    j(r)/gamma0     = tJ(x) + (lJ(x) - tJ(x)) * c2

with transverse/longitudinal kernels (Im parts drive gamma, Re parts drive J)

    t(x)  =  (3/2) (sin x / x + cos x / x^2 - sin x / x^3)
    l(x)  =   3    (sin x / x^3 - cos x / x^2)
    tJ(x) = -(3/4) ((x^2 - 1) cos x - x sin x) / x^3
    lJ(x) = -(3/2) (cos x + x sin x) / x^3
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentEmittersError, PhysicsValidationError, SelfTermError
from .lattice import MAX_ATOMS, AtomArray

K0 = 2.0 * np.pi  # resonant wavenumber in lambda0 units
GAMMA0 = 1.0  # single-emitter decay rate, the internal unit of all rates
PSD_TOLERANCE = -1e-8  # in units of gamma0; absorbs eigensolver noise at N ~ 1e4
COINCIDENT_TOL = 1e-12  # separations below this (in lambda0) are treated as coincident

_BINARY_MAGIC = b"CDMATRX1"  # 8 bytes; followed by uint64 N, then N*N float64 row-major


def green_tensor(r) -> np.ndarray:
    """Free-space dyadic Green's tensor G(r, omega0) at the resonance frequency.

    r is a 3-vector in lambda0 units; returns a complex symmetric 3x3 matrix.
    The self-term diverges and is never evaluated (diagonal couplings are set
    analytically to gamma0), so zero separation raises SelfTermError.
    """
    r = np.asarray(r, dtype=float)
    dist = float(np.linalg.norm(r))
    if dist <= COINCIDENT_TOL:
        raise SelfTermError("self-term requested: G(0) is singular")
    x = K0 * dist
    rhat = r / dist
    outer = np.outer(rhat, rhat)
    pref = np.exp(1j * x) / (4.0 * np.pi * K0**2 * dist**3)
    return pref * ((x**2 + 1j * x - 1.0) * np.eye(3) + (-(x**2) - 3j * x + 3.0) * outer)


def _kernels(x):
    """Scalar transverse/longitudinal kernels of the projected pair rates at x = k0*r."""
    sx, cx = np.sin(x), np.cos(x)
    t_im = 1.5 * (sx / x + cx / x**2 - sx / x**3)
    l_im = 3.0 * (sx / x**3 - cx / x**2)
    t_re = -0.75 * ((x**2 - 1.0) * cx - x * sx) / x**3
    l_re = -1.5 * (cx + x * sx) / x**3
    return t_im, l_im, t_re, l_re


def coupling_pair(ri, rj, pol) -> tuple[float, float]:
    """(J_ij, Gamma_ij) for one emitter pair, in units of gamma0.

    J_ij = -(3*pi/k0) p.Re G.p and Gamma_ij = (6*pi/k0) p.Im G.p, with p the
    real unit polarization vector.
    """
    ri = np.asarray(ri, dtype=float)
    rj = np.asarray(rj, dtype=float)
    sep = ri - rj
    dist = float(np.linalg.norm(sep))
    if dist <= COINCIDENT_TOL:
        raise CoincidentEmittersError(None, None, "coincident emitter positions")
    pol = np.asarray(pol, dtype=float)
    x = K0 * dist
    c2 = float(np.dot(sep / dist, pol)) ** 2
    t_im, l_im, t_re, l_re = _kernels(x)
    gamma = t_im + (l_im - t_im) * c2
    jij = t_re + (l_re - t_re) * c2
    return float(jij), float(gamma)


@dataclass
class CouplingMatrices:
    """Dense symmetric dissipative (gamma) and coherent (jmat) coupling matrices.

    gamma has gamma0 on the diagonal; jmat has zero diagonal. Both are in
    units of gamma0 and store one value per unordered pair, mirrored exactly.
    """

    gamma: np.ndarray
    jmat: np.ndarray
    gamma0: float
    n: int


@dataclass
class PsdDiagnostic:
    """Outcome of the positive-semidefiniteness check on gamma."""

    min_eigenvalue: float
    tolerance: float
    passed: bool

    def to_dict(self):
        return {
            "min_eigenvalue": self.min_eigenvalue,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def build_coupling_matrices(array: AtomArray, pol=None, block: int = 512) -> CouplingMatrices:
    """Fill gamma and jmat for all pairs of `array` (vectorized, blocked rows).

    pol defaults to the polarization of the array's source spec. Raises
    CoincidentEmittersError with the offending indices if two emitters overlap.
    """
    pol = array.source_spec.pol_vector if pol is None else np.asarray(pol, dtype=float)
    return build_coupling_from_positions(array.positions, pol, block=block)


def build_coupling_from_positions(positions: np.ndarray, pol, block: int = 512) -> CouplingMatrices:
    """Coupling matrices for an explicit (N, 3) position list in lambda0 units."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    if n < 1:
        raise PhysicsValidationError("empty atom array")
    if n > MAX_ATOMS:
        raise PhysicsValidationError(f"N = {n} exceeds dense-solver ceiling {MAX_ATOMS}")
    pol = np.asarray(pol, dtype=float)
    if abs(np.linalg.norm(pol) - 1.0) > 1e-12:
        raise PhysicsValidationError("polarization must be a unit vector")

    gamma = np.empty((n, n))
    jmat = np.empty((n, n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        sep = pos[start:stop, None, :] - pos[None, :, :]  # (b, n, 3)
        dist = np.linalg.norm(sep, axis=2)
        local = np.arange(start, stop)
        dist[local - start, local] = 1.0  # placeholder; diagonal set analytically below
        bad = np.argwhere(dist <= COINCIDENT_TOL)
        if bad.size:
            i, j = int(bad[0, 0]) + start, int(bad[0, 1])
            raise CoincidentEmittersError(i, j)
        x = K0 * dist
        c2 = (sep @ pol) ** 2 / dist**2
        t_im, l_im, t_re, l_re = _kernels(x)
        gamma[start:stop] = t_im + (l_im - t_im) * c2
        jmat[start:stop] = t_re + (l_re - t_re) * c2

    # one evaluation per unordered pair: mirror the strict upper triangle
    iu = np.triu_indices(n, k=1)
    gamma[(iu[1], iu[0])] = gamma[iu]
    jmat[(iu[1], iu[0])] = jmat[iu]
    np.fill_diagonal(gamma, GAMMA0)
    np.fill_diagonal(jmat, 0.0)
    return CouplingMatrices(gamma=gamma, jmat=jmat, gamma0=GAMMA0, n=n)


def validate_psd(mats: CouplingMatrices, tolerance: float = PSD_TOLERANCE) -> PsdDiagnostic:
    """Minimum eigenvalue of gamma against the PSD tolerance (diagnostic only)."""
    min_eig = float(np.linalg.eigvalsh(mats.gamma)[0])
    return PsdDiagnostic(
        min_eigenvalue=min_eig,
        tolerance=tolerance * mats.gamma0,
        passed=bool(min_eig >= tolerance * mats.gamma0),
    )


def offdiagonal_sum(mats: CouplingMatrices) -> float:
    """S = sum_{i != j} Gamma_ij, the total dissipative interaction strength."""
    return float(mats.gamma.sum() - np.trace(mats.gamma))


def write_coupling_csv(mats: CouplingMatrices, path):
    """Dense pair listing with header i,j,gamma,jcoupling (N^2 rows)."""
    n = mats.n
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    table = np.column_stack(
        [ii.ravel(), jj.ravel(), mats.gamma.ravel(), mats.jmat.ravel()]
    )
    np.savetxt(
        path,
        table,
        fmt=["%d", "%d", "%.17g", "%.17g"],
        delimiter=",",
        header="i,j,gamma,jcoupling",
        comments="",
    )


def read_coupling_csv(path) -> CouplingMatrices:
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    n = int(round(np.sqrt(raw.shape[0])))
    if n * n != raw.shape[0]:
        raise PhysicsValidationError("coupling CSV does not hold a square matrix")
    gamma = np.zeros((n, n))
    jmat = np.zeros((n, n))
    ii = raw[:, 0].astype(int)
    jj = raw[:, 1].astype(int)
    gamma[ii, jj] = raw[:, 2]
    jmat[ii, jj] = raw[:, 3]
    return CouplingMatrices(gamma=gamma, jmat=jmat, gamma0=float(gamma[0, 0]), n=n)


def write_matrix_binary(matrix: np.ndarray, path):
    """Binary dump: 16-byte header (8-byte magic + uint64 N), then row-major float64."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<Q", n))
        fh.write(matrix.tobytes())


def read_matrix_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BINARY_MAGIC:
            raise PhysicsValidationError(f"bad matrix file magic {magic!r}")
        (n,) = struct.unpack("<Q", fh.read(8))
        data = np.frombuffer(fh.read(), dtype=np.float64)
    if data.size != n * n:
        raise PhysicsValidationError("matrix file payload does not match header N")
    return data.reshape(n, n).copy()
