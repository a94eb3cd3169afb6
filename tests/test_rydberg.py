from pathlib import Path

import numpy as np
import pytest

from corrdecay.errors import ConfigError
from corrdecay.rydberg import (
    RydbergInput,
    TransitionRow,
    read_transition_table,
    rydberg_report,
    thermal_nbar,
)

DATA = Path(__file__).parent / "data" / "rb87_53s_transitions.csv"


def paper_input(n_atoms=160, exact=None):
    return RydbergInput(
        n_atoms=n_atoms,
        spacing_um=2.0,
        c6_2pi_ghz_um6=28.8,
        rabi_2pi_mhz=4.6,
        transitions=read_transition_table(DATA),
        dominant_label="53S12-52P32",
        exact_gamma_max_2pi_hz=exact,
    )


def test_table_parses():
    rows = read_transition_table(DATA)
    assert len(rows) == 5
    assert rows[0].label == "53S12-52P32"


def test_vdw_rate():
    rep = rydberg_report(paper_input())
    assert np.isclose(rep.v_nn_2pi_hz, 28.8e9 / 64.0)


def test_gamma_ind_split():
    rep = rydberg_report(paper_input())
    assert np.isclose(rep.gamma_ind_2pi_hz, 3220.0)
    assert np.isclose(rep.gamma_sp_2pi_hz + rep.gamma_bbr_2pi_hz, rep.gamma_ind_2pi_hz)
    assert rep.gamma_bbr_2pi_hz > 0


def test_dicke_mode_collective_term():
    rep = rydberg_report(paper_input(n_atoms=160))
    assert rep.collective_mode == "dicke"
    assert np.isclose(rep.gamma_collective_2pi_hz, 0.25 * 158 * 4.4)


def test_two_atoms_have_no_collective_term():
    rep = rydberg_report(paper_input(n_atoms=2))
    assert rep.gamma_collective_2pi_hz == 0.0
    assert np.isclose(rep.gamma_tot_2pi_hz, rep.gamma_ind_2pi_hz)


def test_exact_mode_overrides_dicke():
    rep = rydberg_report(paper_input(exact=176.0))
    assert rep.collective_mode == "exact"
    assert np.isclose(rep.gamma_collective_2pi_hz, 44.0)
    assert np.isclose(rep.chi, (44.0 + 3220.0) / 4.5e8)


def test_missing_dominant_label_rejected():
    with pytest.raises(ConfigError):
        RydbergInput(
            n_atoms=4,
            spacing_um=2.0,
            c6_2pi_ghz_um6=28.8,
            rabi_2pi_mhz=4.6,
            transitions=read_transition_table(DATA),
            dominant_label="nope",
        )


def test_nonpositive_drive_rejected():
    with pytest.raises(ConfigError):
        RydbergInput(
            n_atoms=4,
            spacing_um=2.0,
            c6_2pi_ghz_um6=28.8,
            rabi_2pi_mhz=0.0,
            transitions=read_transition_table(DATA),
            dominant_label="53S12-52P32",
        )
    with pytest.raises(ConfigError):
        TransitionRow(label="x", wavelength_um=1.0, gamma0_2pi_hz=-1.0, nbar=0.0)


@pytest.mark.parametrize("field", ["n_atoms", "spacing_um", "c6_2pi_ghz_um6", "rabi_2pi_mhz",
                                   "exact_gamma_max_2pi_hz"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
def test_non_finite_or_nonpositive_input_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        RydbergInput(**{**vars(paper_input(exact=176.0)), field: value})


def test_duplicate_label_rejected():
    row = TransitionRow("A", 1.0, 1.0, 0.1)
    with pytest.raises(ConfigError, match="'A' appears more than once"):
        RydbergInput(n_atoms=4, spacing_um=2.0, c6_2pi_ghz_um6=28.8, rabi_2pi_mhz=4.6,
                     transitions=[row, TransitionRow("A", 2.0, 5.0, 0.0)], dominant_label="A")


def test_gate_error_from_gamma_tot():
    rep = rydberg_report(paper_input(exact=176.0))
    assert rep.gate_error == 2.95 * rep.gamma_tot_2pi_hz / 4.6e6


def test_non_finite_blockade_shift_rejected():
    # v_nn overflows to inf; chi * v_nn would be 0 * inf = nan
    inp = paper_input()
    inp.c6_2pi_ghz_um6 = 1e308
    with pytest.raises(ConfigError, match="v_nn"):
        rydberg_report(inp)


def test_thermal_nbar_matches_planck():
    # hc/kB = 14387.77 um K; at lambda = 1540 um, T = 300 K
    lam, temp = 1540.0, 300.0
    x = 6.62607015e-34 * 2.99792458e8 / (lam * 1e-6 * 1.380649e-23 * temp)
    assert np.isclose(thermal_nbar(lam, temp), 1.0 / np.expm1(x))
    assert np.isclose(thermal_nbar(1540.0), 31.6, rtol=0.02)  # table value provenance
    assert thermal_nbar(0.4858) < 1e-20  # optical transitions see no 300 K photons


@pytest.mark.parametrize("args", [(np.nan,), (1.0, np.nan), (np.inf,), (1.0, np.inf),
                                  (0.0,), (1.0, -300.0), (1e300, 1e300)],
                         ids=["nan-wavelength", "nan-temperature", "inf-wavelength",
                              "inf-temperature", "zero-wavelength", "negative-temperature",
                              "underflow"])
def test_thermal_nbar_rejects_invalid_input(args):
    with pytest.raises(ConfigError):
        thermal_nbar(*args)


def test_exact_pair_array_helper_matches_dicke_regime():
    from corrdecay.coupling import build_coupling_from_positions
    from corrdecay.spectral import gamma_max_only

    # a compact cluster much smaller than the wavelength decays collectively; positions
    # in um over the dominant wavelength in um give gamma_max in units of its gamma0
    pos = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0]], dtype=float)
    gmax = gamma_max_only(build_coupling_from_positions(pos / 1540.0, (0, 0, 1)))
    assert abs(gmax - 4.0) < 1e-3
