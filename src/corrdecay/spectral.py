"""Eigen-analysis of the decoherence matrix: collective rates, the dominant
jump mode, its delocalization measure, and momentum-space diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrices, gamma_eigensolve
from .errors import PhysicsValidationError
from .lattice import AtomArray, grid_points


@dataclass
class SpectralSummary:
    """Sorted collective rates and the brightest mode of a decoherence matrix.

    eigenvalues are descending in units of gamma0; dominant_vec is the unit
    eigenvector of the largest one (sign fixed so its largest-magnitude entry
    is positive); delta is the relative fluctuation of |dominant_vec| entries
    (0 for a uniform mode, sqrt(N-1) for a single-site mode); degeneracy
    counts eigenvalues within 1e-10*gamma_max of the top; eigensolver names
    gamma_eigensolve's path ("parity", "mirror" or "dense").
    """

    eigenvalues: np.ndarray
    gamma_max: float
    dominant_vec: np.ndarray
    delta: float
    gamma0: float
    degeneracy: int = 1
    eigensolver: str = "dense"

    @property
    def n(self) -> int:
        return self.eigenvalues.size


def delocalization_delta(dominant_vec) -> float:
    """Relative fluctuation of the entry magnitudes of a unit vector.

    delta^2 = N / ||v||_1^2 - 1, clamped at zero against rounding.
    """
    v = np.asarray(dominant_vec, dtype=float)
    norm2 = np.linalg.norm(v)
    if norm2 == 0:
        raise PhysicsValidationError("zero vector has no delocalization measure")
    l1 = np.abs(v).sum() / norm2
    return float(np.sqrt(max(0.0, v.size / l1**2 - 1.0)))


def decompose(mats: CouplingMatrices) -> SpectralSummary:
    """Eigenvalues of gamma, sorted descending, and its brightest mode."""
    vals, vec, solver = gamma_eigensolve(mats, top_vector=True)
    vals = vals[::-1]
    if vec[np.argmax(np.abs(vec))] < 0:
        vec = -vec
    gmax = float(vals[0])
    degeneracy = int(np.sum(vals >= gmax - 1e-10 * max(abs(gmax), 1.0)))
    return SpectralSummary(eigenvalues=np.ascontiguousarray(vals), gamma_max=gmax,
                           dominant_vec=np.ascontiguousarray(vec), delta=delocalization_delta(vec),
                           gamma0=mats.gamma0, degeneracy=degeneracy, eigensolver=solver)


def gamma_max_only(mats: CouplingMatrices) -> float:
    """Largest collective rate without eigenvectors (cheaper for sweeps)."""
    return float(gamma_eigensolve(mats)[0][-1])


@dataclass
class MomentumDistribution:
    """Discrete momentum-space weight of a real-space mode on an ordered lattice.

    kvecs are 3-vectors in units of 2*pi/lambda0 (so the light line sits at
    |k| = 2*pi); weights sum to 1.
    """

    kvecs: np.ndarray
    weights: np.ndarray

    def to_csv(self, path):
        np.savetxt(path, np.column_stack([self.kvecs, self.weights]), fmt="%.17g",
                   delimiter=",", header="kx,ky,kz,weight", comments="")


def momentum_distribution(dominant_vec, array: AtomArray) -> MomentumDistribution:
    """Unitary DFT of a mode over the reciprocal grid of an ordered lattice.

    alpha_k = N^{-1/2} sum_j exp(i k.r_j) alpha_j on the centered DFT grid;
    Parseval guarantees the weights sum to one. Positions that do not sit on
    the spec's integer lattice are rejected.
    """
    spec = array.source_spec
    d, n1 = spec.spacing, spec.n_per_axis
    dim = spec.dimension
    idx = array.positions / d
    if not np.allclose(idx, np.round(idx), atol=1e-9):
        raise PhysicsValidationError("positions are not on the ordered lattice grid")

    v = np.asarray(dominant_vec, dtype=complex)
    if v.size != array.n_atoms:
        raise PhysicsValidationError("mode length does not match atom count")
    grid = v.reshape((n1,) * dim)
    # exp(+i k.r) convention matches numpy's inverse transform (up to norm)
    alpha_k = np.fft.ifftn(grid, norm="ortho")
    weights = np.abs(alpha_k) ** 2

    kaxis = 2.0 * np.pi * np.fft.fftfreq(n1, d=d)  # radians: light line at |k| = 2*pi
    return MomentumDistribution(kvecs=grid_points(kaxis, dim), weights=weights.ravel())


def spectrum_to_csv(summary: SpectralSummary, path):
    np.savetxt(path, np.column_stack([np.arange(summary.n), summary.eigenvalues]),
               fmt=["%d", "%.17g"], delimiter=",", header="index,eigenvalue", comments="")
