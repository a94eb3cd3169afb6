"""Closed-form spin-wave transition rates of infinite arrays and their
finite-grid estimates of the largest collective rate.

Wavevectors are handled in units of k0 (light line at |u| = 1); the lattice
constant enters through k0*d = 2*pi*d with d in lambda0 units. Reciprocal
vectors g contribute whenever k + g falls inside the light cone; for 3D the
rate is a regularized Lorentzian controlled by reg_delta (3D only).

One rate kernel, `_rates`, evaluates a whole (M, D) block of wavevectors
against one shared list of reciprocal shifts with masked sums; `gamma_k` is
that kernel on one point and `gamma_k_grid` is it on the retracted grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergentModeError
from .lattice import axis_columns, check_geometry, grid_coordinates

POL_TAGS = ("parallel", "perpendicular")
LIGHT_LINE_TOL = 1e-9  # |u| within this of 1 counts as on the light line (2D)
PREFACTOR_DOMAIN_MAX = 0.5  # asymptotic alpha/beta formulas assume d <~ 0.5 lambda0
RATE_BLOCK = 1 << 18  # (point, shift) pairs per pass of the rate kernel; bounds its temporaries
MAX_SHIFTS = RATE_BLOCK  # longest reciprocal-shift table: one point's pass stays in that bound


@dataclass
class KSpaceRates:
    """Rates Gamma(k)/gamma0 sampled on a wavevector grid."""

    dimension: int
    spacing: float
    pol_tag: str
    kvecs: np.ndarray  # (M, D) in units of k0
    rates: np.ndarray
    reg_delta: float | None = None

    def to_csv(self, path):
        full = np.zeros((self.rates.size, 3))
        full[:, axis_columns(self.dimension)] = self.kvecs
        table = np.column_stack([full, self.rates])
        np.savetxt(path, table, fmt="%.17g", delimiter=",",
                   header="kx,ky,kz,rate", comments="")


def _check_args(dimension, spacing, pol_tag, reg_delta):
    check_geometry(dimension, spacing)
    if pol_tag not in POL_TAGS:
        raise ConfigError(f"pol_tag must be one of {POL_TAGS}")
    if reg_delta is not None and (dimension != 3 or not reg_delta > 0):
        raise ConfigError("reg_delta must be positive and applies to D = 3 rates only")


def _recip_shifts(dimension, spacing, kmax_units):
    """Reciprocal vectors g/k0 = n/d (per axis) with |g| small enough to matter; a table
    longer than MAX_SHIFTS (a spacing of many wavelengths) raises ConfigError."""
    nmax = int(math.floor(kmax_units * spacing)) + 1
    if (2 * nmax + 1) ** dimension > MAX_SHIFTS:
        raise ConfigError(f"spacing {spacing} needs more than {MAX_SHIFTS} reciprocal shifts")
    return grid_coordinates(np.arange(-nmax, nmax + 1) / spacing, dimension)


def _rates(dimension, spacing, pol_tag, k, reg_delta):
    """Gamma(k)/gamma0 of every row of k (M, D), and which rows have some k + g
    on the light line (2D only; their rates are not meaningful)."""
    kd = 2.0 * np.pi * spacing  # k0 * d
    prefactor = {1: 3.0 * np.pi / ((2.0 if pol_tag == "parallel" else 4.0) * kd),
                 2: 3.0 * np.pi / kd**2, 3: 6.0 * np.pi / kd**3}[dimension]
    kmax = np.linalg.norm(k, axis=1).max() + 1.5
    g = _recip_shifts(dimension, spacing, kmax)
    g = g[np.linalg.norm(g, axis=1) <= kmax]  # farther shifts never reach the light sphere
    rates = np.empty(len(k))
    on_line = np.zeros(len(k), dtype=bool)
    rows = max(1, RATE_BLOCK // len(g))
    for start in range(0, len(k), rows):
        block = slice(start, start + rows)
        u = k[block, None, :] + g  # candidate k + g in k0 units, (b, G, D)
        unorm2 = np.sum(u**2, axis=2)
        sel = unorm2 <= 1.0 + 1e-15 if dimension == 1 else unorm2 < 1.0
        u2 = unorm2[sel]
        terms = np.zeros_like(unorm2)  # masked sum: shifts outside the light cone add 0
        if dimension == 1:
            terms[sel] = 1.0 - u2 if pol_tag == "parallel" else 1.0 + u2
        elif dimension == 2:
            on_line[block] = np.any(np.abs(unorm2 - 1.0) < LIGHT_LINE_TOL, axis=1)
            # in-plane polarization along x
            num = 1.0 - u[..., 0][sel] ** 2 if pol_tag == "parallel" else u2
            terms[sel] = num / np.sqrt(1.0 - u2)
        else:  # cutoff shell: the closed light sphere; polarization along z
            terms[sel] = reg_delta * (1.0 - u[..., 2][sel] ** 2) / ((1.0 - u2) ** 2 + reg_delta**2)
        rates[block] = prefactor * terms.sum(axis=1)
    return rates, on_line


def gamma_k(dimension: int, spacing: float, pol_tag: str, k, reg_delta: float | None = None) -> float:
    """Transition rate Gamma(k)/gamma0 of an infinite D-dimensional array.

    k is a length-D wavevector in units of k0, expected inside the first
    Brillouin zone. For D = 2 a wavevector exactly on the light line raises
    DivergentModeError; for D = 3 a positive reg_delta is required.
    """
    _check_args(dimension, spacing, pol_tag, reg_delta)
    u0 = np.atleast_1d(np.asarray(k, dtype=float))
    if u0.size != dimension:
        raise ConfigError(f"k must have {dimension} components")
    if not np.all(np.abs(u0) <= 0.5 / spacing * (1 + 1e-12)):
        raise ConfigError(f"k = {u0} must be finite and inside the first Brillouin zone")
    if dimension == 3 and reg_delta is None:
        raise ConfigError("D = 3 rates need a positive reg_delta regularizer")
    rates, on_line = _rates(dimension, spacing, pol_tag, u0.reshape(1, dimension), reg_delta)
    if on_line[0]:
        raise DivergentModeError(f"wavevector {u0} + g lies on the light line")
    return float(rates[0])


def _grid_axis_1d(spacing, n):
    # k_mu = -pi/d + 2*pi*mu/(d*(N+1)), mu = 1..N, in units of k0
    mu = np.arange(1, n + 1)
    return (-0.5 + mu / (n + 1.0)) / spacing


def _grid_axis_offset(spacing, n):
    # uniform BZ grid shifted by half a cell so no point sits on the light line
    mu = np.arange(n)
    return (-0.5 + (mu + 0.5) / n) / spacing


def default_reg_delta(spacing: float, n_per_axis: int) -> float:
    """Grid-offset regularizer for 3D rates: 2*pi / (k0 d (N_1D + 1))."""
    return 2.0 * np.pi / (2.0 * np.pi * spacing * (n_per_axis + 1.0))


def gamma_k_grid(dimension, spacing, pol_tag, n_per_axis, reg_delta=None) -> KSpaceRates:
    """Sample Gamma(k) on the finite-array wavevector grid (N_1D points per axis).

    A finite array cannot resolve momenta closer to the light line than its
    grid scale, so for D >= 2 every sampled wavevector is kept at least the
    grid offset 2*pi/(k0 d (N_1D + 1)) away from it (radially retracted if
    needed). This makes the estimate a deterministic function of (D, d, N_1D)
    instead of a Diophantine accident of where mesh points land relative to
    the divergence. All points go through the rate kernel in one pass. The
    offset, which is also the 1D grid step, must stay below the light-line
    radius 1, so every D needs d (N_1D + 1) > 1: a coarser 1D grid has no
    point inside the light cone, and a D >= 2 retraction would overshoot it.
    """
    _check_args(dimension, spacing, pol_tag, reg_delta)
    if n_per_axis < 2:
        raise ConfigError("n_per_axis must be >= 2")
    if default_reg_delta(spacing, n_per_axis) >= 1.0:
        raise ConfigError("grid offset reaches the light line: grids need d (N_1D + 1) > 1")
    axis = _grid_axis_1d if dimension == 1 else _grid_axis_offset
    kvecs = k_eval = grid_coordinates(axis(spacing, n_per_axis), dimension)
    if dimension > 1:
        bz_edge = 0.5 / spacing
        k_eval = np.clip(_retract_from_light_line(kvecs, spacing,
                                                  default_reg_delta(spacing, n_per_axis)),
                         -bz_edge, bz_edge)
    if dimension == 3 and reg_delta is None:
        reg_delta = default_reg_delta(spacing, n_per_axis)
    rates, on_line = _rates(dimension, spacing, pol_tag, k_eval, reg_delta)
    if np.any(on_line):
        # a point still on a folded light line: shrink it radially by a tiny nudge
        nudge = 1e-6 / (spacing * n_per_axis)
        flagged = k_eval[on_line]
        shrink = 1.0 - nudge / np.maximum(np.linalg.norm(flagged, axis=1), nudge)
        rates[on_line], still = _rates(dimension, spacing, pol_tag,
                                       flagged * shrink[:, None], reg_delta)
        if np.any(still):
            raise DivergentModeError("grid wavevector + g lies on the light line")
    return KSpaceRates(dimension, spacing, pol_tag, kvecs, rates, reg_delta)


def _retract_from_light_line(kvecs, spacing, offset):
    """Pull every |k + g| out of the band (1 - offset, 1 + offset) around the light line.

    Each point is checked against every reciprocal shift in turn, so folded
    copies of the divergence are regularized too; the retraction moves k
    radially about -g.
    """
    k = kvecs.copy()
    for g in _recip_shifts(k.shape[1], spacing, np.linalg.norm(k, axis=1).max() + 1.5):
        u = k + g
        norm = np.linalg.norm(u, axis=1)
        move = (np.abs(norm - 1.0) < offset) & (norm >= 1e-12)
        k[move] = u[move] * ((1.0 - offset) / norm[move])[:, None] - g
    return k


def gamma_max_finite_grid(dimension, spacing, pol_tag, n_per_axis, reg_delta=None) -> float:
    """Grid-based estimate of the largest collective rate of an N_1D^D array."""
    return float(gamma_k_grid(dimension, spacing, pol_tag, n_per_axis, reg_delta).rates.max())


@dataclass
class ScalingPrefactors:
    """Asymptotic gamma_max ~ beta * N^alpha prefactors for a D-dim array."""

    alpha: float
    beta: float
    in_validity_domain: bool


def asymptotic_prefactors(dimension: int, spacing: float) -> ScalingPrefactors:
    """Large-N exponent and prefactor of the largest rate at lattice constant d.

    alpha is 0, 1/4, 1/3 for D = 1, 2, 3; beta is 3*pi/(2 k0 d),
    3*sqrt(pi)/(2 (k0 d)^{3/2}), 3/(5 (k0 d)^2). Valid for 0 < d <~ 0.5;
    outside that the in_validity_domain flag is lowered.
    """
    check_geometry(dimension, spacing)
    kd = 2.0 * np.pi * spacing
    if dimension == 1:
        alpha, beta = 0.0, 3.0 * np.pi / (2.0 * kd)
    elif dimension == 2:
        alpha, beta = 0.25, 3.0 * np.sqrt(np.pi) / (2.0 * kd**1.5)
    else:
        alpha, beta = 1.0 / 3.0, 3.0 / (5.0 * kd**2)
    return ScalingPrefactors(alpha=alpha, beta=beta,
                             in_validity_domain=bool(spacing <= PREFACTOR_DOMAIN_MAX))


def scaling_exponent_general(d_lattice: int, delta_space: int) -> float:
    """Exponent x of gamma_max ~ N^x for a D-dim lattice in delta-dim vacuum.

    x = 0 below the critical codimension (D < delta - 1), 1/(2(delta-1)) at
    codimension one, and 1/delta for a space-filling lattice.
    """
    if d_lattice < 1 or delta_space < 1:
        raise ConfigError("dimensions must be positive integers")
    if d_lattice > delta_space:
        raise ConfigError("lattice dimension cannot exceed the vacuum dimension")
    if d_lattice < delta_space - 1:
        return 0.0
    if d_lattice == delta_space - 1:
        return 1.0 / (2.0 * (delta_space - 1))
    return 1.0 / delta_space
