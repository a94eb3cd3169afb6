"""Collective-decay error estimator for Rydberg tweezer arrays.

This is the one module that carries lab units: rates are angular frequencies
quoted as 2*pi*Hz, lengths in micrometres, the van der Waals coefficient in
2*pi*GHz*um^6 and the Rabi frequency in 2*pi*MHz. Everything is converted to
2*pi*Hz at the boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .errors import ConfigError

H_PLANCK = 6.62607015e-34  # J s
K_BOLTZMANN = 1.380649e-23  # J / K
C_LIGHT = 2.99792458e8  # m / s

GATE_TIME_CONSTANT = 2.95  # optimal entangling-gate duration in units of 1/Omega


def thermal_nbar(wavelength_um: float, temperature_k: float = 300.0) -> float:
    """Mean thermal photon number 1/(exp(h nu / kB T) - 1) at this wavelength."""
    if not (0 < wavelength_um < math.inf and 0 < temperature_k < math.inf):
        raise ConfigError("wavelength and temperature must be positive and finite")
    hnu_over_kt = H_PLANCK * C_LIGHT / (wavelength_um * 1e-6 * K_BOLTZMANN * temperature_k)
    if hnu_over_kt > 700:
        return 0.0
    if not hnu_over_kt > 0:  # wavelength * temperature past the float range
        raise ConfigError(f"h nu / kB T underflows at {wavelength_um} um and {temperature_k} K")
    return 1.0 / math.expm1(hnu_over_kt)


@dataclass
class TransitionRow:
    """One decay channel out of the Rydberg level."""

    label: str
    wavelength_um: float
    gamma0_2pi_hz: float
    nbar: float

    def __post_init__(self):
        if not (0 < self.wavelength_um < math.inf and 0 < self.gamma0_2pi_hz < math.inf
                and 0 <= self.nbar < math.inf):
            raise ConfigError(f"invalid transition row {self.label!r}")


def read_transition_table(path) -> list[TransitionRow]:
    """CSV with header label,wavelength_um,gamma0_2pi_hz,nbar: four fields a row."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"label", "wavelength_um", "gamma0_2pi_hz", "nbar"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ConfigError(f"transition table header must be {sorted(expected)}")
        for raw in reader:
            if None in raw:  # DictReader files a long row's surplus fields under None
                raise ConfigError(f"transition table line {reader.line_num} "
                                  f"({raw['label']!r}) has more than 4 fields")
            try:  # a short row leaves its missing fields None
                values = [float(raw[key]) for key in ("wavelength_um", "gamma0_2pi_hz", "nbar")]
            except (TypeError, ValueError):
                raise ConfigError(f"transition table line {reader.line_num} "
                                  f"({raw['label']!r}) has a missing or non-numeric field"
                                  ) from None
            rows.append(TransitionRow(raw["label"], *values))
    if not rows:
        raise ConfigError("transition table is empty")
    return rows


@dataclass
class RydbergInput:
    """Array geometry, drive and decay channels for the error estimate.

    exact_gamma_max_2pi_hz, when given, replaces the all-to-all (Dicke)
    estimate of the collective rate on the dominant transition with an
    externally computed largest eigenvalue of the pair-array coupling matrix.
    """

    n_atoms: int
    spacing_um: float
    c6_2pi_ghz_um6: float
    rabi_2pi_mhz: float
    transitions: list
    dominant_label: str
    exact_gamma_max_2pi_hz: float | None = None

    def __post_init__(self):
        if not 2 <= self.n_atoms < math.inf:
            raise ConfigError("n_atoms must be finite and at least 2")
        for name in ("spacing_um", "c6_2pi_ghz_um6", "rabi_2pi_mhz"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
        exact = self.exact_gamma_max_2pi_hz
        if exact is not None and not 0 < exact < math.inf:
            raise ConfigError("exact_gamma_max_2pi_hz must be positive and finite")
        labels = [t.label for t in self.transitions]
        if self.dominant_label not in labels:
            raise ConfigError(
                f"dominant transition {self.dominant_label!r} not in table {labels}"
            )
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ConfigError(f"transition label {label!r} appears more than once")


@dataclass
class RydbergReport:
    """Collective/independent decay split and the induced gate error."""

    n_atoms: int
    v_nn_2pi_hz: float
    gamma_collective_2pi_hz: float
    gamma_ind_2pi_hz: float
    gamma_sp_2pi_hz: float
    gamma_bbr_2pi_hz: float
    gamma_tot_2pi_hz: float
    chi: float
    gate_error: float
    collective_mode: str  # "dicke" or "exact"


def rydberg_report(inp: RydbergInput) -> RydbergReport:
    """Ratio chi of the per-atom decay to the blockade interaction, and the
    decay-limited entangling-gate error 2.95 * gamma_tot / Omega.

    The dominant channel decays collectively: (N-2)*gamma0_dom/4 per atom in
    the all-to-all estimate, or gamma_max/4 when an exact largest collective
    rate is supplied. Every channel also contributes its independent
    spontaneous (gamma0) and black-body (nbar*gamma0) rates.
    """
    v_nn = inp.c6_2pi_ghz_um6 * 1e9 / inp.spacing_um**6  # 2*pi*Hz
    if not 0 < v_nn < math.inf:
        raise ConfigError(f"blockade shift v_nn = {v_nn} 2*pi*Hz is not positive and finite")
    gamma_sp = sum(t.gamma0_2pi_hz for t in inp.transitions)
    gamma_bbr = sum(t.nbar * t.gamma0_2pi_hz for t in inp.transitions)
    gamma_ind = gamma_sp + gamma_bbr

    dominant = next(t for t in inp.transitions if t.label == inp.dominant_label)
    if inp.exact_gamma_max_2pi_hz is not None:
        gamma_coll = 0.25 * inp.exact_gamma_max_2pi_hz
        mode = "exact"
    else:
        gamma_coll = 0.25 * (inp.n_atoms - 2) * dominant.gamma0_2pi_hz
        mode = "dicke"

    gamma_tot = gamma_coll + gamma_ind
    chi = gamma_tot / v_nn
    omega = inp.rabi_2pi_mhz * 1e6  # 2*pi*Hz
    gate_error = GATE_TIME_CONSTANT * gamma_tot / omega
    return RydbergReport(
        n_atoms=inp.n_atoms,
        v_nn_2pi_hz=v_nn,
        gamma_collective_2pi_hz=gamma_coll,
        gamma_ind_2pi_hz=gamma_ind,
        gamma_sp_2pi_hz=gamma_sp,
        gamma_bbr_2pi_hz=gamma_bbr,
        gamma_tot_2pi_hz=gamma_tot,
        chi=chi,
        gate_error=gate_error,
        collective_mode=mode,
    )
