import math

import numpy as np
import pytest

from corrdecay import kspace
from corrdecay.errors import ConfigError, DivergentModeError
from corrdecay.kspace import (
    asymptotic_prefactors,
    default_reg_delta,
    gamma_k,
    gamma_k_grid,
    gamma_max_finite_grid,
    scaling_exponent_general,
)

KD = lambda d: 2 * np.pi * d


def test_1d_band_center_values():
    # single g = 0 term at k = 0: (3*pi/4k0d)(1+0) and (3*pi/2k0d)(1-0)
    assert np.isclose(gamma_k(1, 0.25, "perpendicular", [0.0]), 1.5, atol=1e-12)
    assert np.isclose(gamma_k(1, 0.25, "parallel", [0.0]), 3.0, atol=1e-12)


def test_1d_large_spacing_noninteracting():
    # full reciprocal sum approaches the single-emitter rate
    for tag in ("parallel", "perpendicular"):
        val = gamma_k(1, 50.0, tag, [0.0])
        assert abs(val - 1.0) < 0.02


def test_1d_rates_finite_everywhere():
    ks = np.linspace(-0.5 / 0.4, 0.5 / 0.4, 101)
    for tag in ("parallel", "perpendicular"):
        vals = [gamma_k(1, 0.4, tag, [k]) for k in ks]
        assert np.all(np.isfinite(vals))
        assert np.all(np.asarray(vals) >= 0)


def test_2d_light_line_divergence_raises():
    with pytest.raises(DivergentModeError):
        gamma_k(2, 0.4, "perpendicular", [1.0, 0.0])


def test_2d_outside_bz_rejected():
    with pytest.raises(ConfigError):
        gamma_k(2, 0.4, "perpendicular", [2.0, 0.0])


@pytest.mark.parametrize("dim, k", [(1, [np.nan]), (1, [np.inf]), (2, [0.1, np.nan]),
                                    (2, [-np.inf, 0.0])])
def test_non_finite_wavevector_rejected(dim, k):
    with pytest.raises(ConfigError, match="Brillouin"):
        gamma_k(dim, 0.2, "parallel", k)


def test_2d_closed_form_point():
    # k inside the light cone, g = 0 only: direct formula check
    u = np.array([0.5, 0.25])
    u2 = float(u @ u)
    expect_perp = 3 * np.pi / KD(0.4) ** 2 * u2 / np.sqrt(1 - u2)
    assert np.isclose(gamma_k(2, 0.4, "perpendicular", u), expect_perp, atol=1e-12)
    expect_par = 3 * np.pi / KD(0.4) ** 2 * (1 - u[0] ** 2) / np.sqrt(1 - u2)
    assert np.isclose(gamma_k(2, 0.4, "parallel", u), expect_par, atol=1e-12)


def test_3d_requires_regularizer():
    with pytest.raises(ConfigError):
        gamma_k(3, 0.4, "parallel", [0.1, 0.2, 0.3])
    val = gamma_k(3, 0.4, "parallel", [0.5, 0.5, 0.0], reg_delta=0.1)
    u2 = 0.5
    expect = 6 * np.pi / KD(0.4) ** 3 * 0.1 * 1.0 / ((1 - u2) ** 2 + 0.01)
    assert np.isclose(val, expect, atol=1e-12)


def test_grid_1d_plateau():
    val = gamma_max_finite_grid(1, 0.4, "parallel", 3000)
    assert abs(val - 3 * np.pi / (2 * KD(0.4))) < 1e-4


def test_grid_2d_tracks_asymptotic_prefactor():
    pref = asymptotic_prefactors(2, 0.4)
    target = pref.beta * 1600**0.25
    val = gamma_max_finite_grid(2, 0.4, "parallel", 40)
    assert abs(val - target) < 0.25 * target


def test_grid_3d_tracks_asymptotic_prefactor():
    pref = asymptotic_prefactors(3, 0.4)
    target = pref.beta * 1728 ** (1.0 / 3.0)
    val = gamma_max_finite_grid(3, 0.4, "parallel", 12)
    assert abs(val - target) < 0.35 * target


def test_grid_rates_nonnegative_and_deterministic():
    g1 = gamma_k_grid(2, 0.4, "perpendicular", 14)
    g2 = gamma_k_grid(2, 0.4, "perpendicular", 14)
    assert np.all(g1.rates >= 0)
    np.testing.assert_array_equal(g1.rates, g2.rates)


def test_default_reg_delta():
    assert np.isclose(default_reg_delta(0.4, 12), 2 * np.pi / (KD(0.4) * 13))


def test_prefactor_values():
    p2 = asymptotic_prefactors(2, 0.4)
    assert p2.alpha == 0.25
    assert np.isclose(p2.beta, 3 * np.sqrt(np.pi) / (2 * KD(0.4) ** 1.5))
    assert np.isclose(p2.beta, 0.6673, atol=2e-4)
    p3 = asymptotic_prefactors(3, 0.4)
    assert np.isclose(p3.alpha, 1 / 3)
    assert np.isclose(p3.beta, 3 / (5 * KD(0.4) ** 2))
    assert np.isclose(p3.beta, 0.0950, atol=1e-4)
    p1 = asymptotic_prefactors(1, 0.23)
    assert p1.alpha == 0.0
    assert p1.in_validity_domain
    assert not asymptotic_prefactors(1, 0.9).in_validity_domain


def test_scaling_exponent_table():
    assert scaling_exponent_general(2, 3) == 0.25
    assert np.isclose(scaling_exponent_general(3, 3), 1 / 3)
    assert scaling_exponent_general(1, 3) == 0.0
    assert scaling_exponent_general(1, 2) == 0.5
    assert np.isclose(scaling_exponent_general(4, 4), 0.25)
    with pytest.raises(ConfigError):
        scaling_exponent_general(3, 2)


# Reference: the earlier point-by-point implementation, kept verbatim in
# behaviour. Each wavevector gets its own reciprocal-shift list, a scalar
# retraction loop, a scalar rate and an exception-driven light-line retry.
def _reference_shifts(dimension, spacing, kmax_units):
    nmax = int(math.floor(kmax_units * spacing)) + 1
    axis = np.arange(-nmax, nmax + 1) / spacing
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _reference_gamma_k(dimension, spacing, pol_tag, u0, reg_delta):
    kd = 2.0 * np.pi * spacing
    u = u0[None, :] + _reference_shifts(dimension, spacing, np.linalg.norm(u0) + 1.5)
    unorm2 = np.sum(u**2, axis=1)
    if dimension == 1:
        u2 = unorm2[unorm2 <= 1.0 + 1e-15]
        if pol_tag == "parallel":
            return float(3.0 * np.pi / (2.0 * kd) * np.sum(1.0 - u2))
        return float(3.0 * np.pi / (4.0 * kd) * np.sum(1.0 + u2))
    sel = unorm2 < 1.0
    if dimension == 2:
        if np.any(np.abs(unorm2 - 1.0) < kspace.LIGHT_LINE_TOL):
            raise DivergentModeError("on the light line")
        num = 1.0 - u[sel, 0] ** 2 if pol_tag == "parallel" else unorm2[sel]
        return float(3.0 * np.pi / kd**2 * np.sum(num / np.sqrt(1.0 - unorm2[sel])))
    num = reg_delta * (1.0 - u[sel, 2] ** 2)
    den = (1.0 - unorm2[sel]) ** 2 + reg_delta**2
    return float(6.0 * np.pi / kd**3 * np.sum(num / den))


def _reference_retract(kv, spacing, offset):
    for g in _reference_shifts(kv.size, spacing, np.linalg.norm(kv) + 1.5):
        u = kv + g
        norm = np.linalg.norm(u)
        if abs(norm - 1.0) < offset and norm >= 1e-12:
            kv = u * ((1.0 - offset) / norm) - g
    return kv


def _reference_grid(dimension, spacing, pol_tag, n):
    """Wavevectors, rates and the number of light-line retries of the per-point loop."""
    if dimension == 1:
        axes = [(-0.5 + np.arange(1, n + 1) / (n + 1.0)) / spacing]
    else:
        axes = [(-0.5 + (np.arange(n) + 0.5) / n) / spacing] * dimension
    kvecs = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    offset = default_reg_delta(spacing, n)
    reg_delta = offset if dimension == 3 else None
    nudge = 1e-6 / (spacing * n)
    bz_edge = 0.5 / spacing
    rates, retries = np.empty(len(kvecs)), 0
    for idx, kv in enumerate(kvecs):
        kv_eval = kv if dimension == 1 else np.clip(
            _reference_retract(kv, spacing, offset), -bz_edge, bz_edge)
        try:
            rates[idx] = _reference_gamma_k(dimension, spacing, pol_tag, kv_eval, reg_delta)
        except DivergentModeError:
            retries += 1
            shrink = 1.0 - nudge / max(np.linalg.norm(kv_eval), nudge)
            rates[idx] = _reference_gamma_k(dimension, spacing, pol_tag, kv_eval * shrink,
                                            reg_delta)
    return kvecs, rates, retries


GRID_CASES = [
    (1, 0.4, 40), (2, 0.4, 14), (3, 0.4, 6),  # one shift inside the light cone
    (1, 1.3, 40), (2, 1.3, 15), (3, 1.2, 6),  # several shifts inside it
    (2, 0.5, 5),  # reaches the light-line nudge
]


@pytest.mark.parametrize("pol_tag", ["parallel", "perpendicular"])
@pytest.mark.parametrize("dimension, spacing, n", GRID_CASES)
def test_grid_matches_per_point_reference(dimension, spacing, n, pol_tag):
    grid = gamma_k_grid(dimension, spacing, pol_tag, n)
    kvecs, expect, _ = _reference_grid(dimension, spacing, pol_tag, n)
    np.testing.assert_array_equal(grid.kvecs, kvecs)
    rates = grid.rates
    assert np.all(np.abs(rates - expect) <= np.maximum(1e-12 * np.abs(expect), 1e-15))
    if dimension == 1:
        np.testing.assert_array_equal(rates, expect)


@pytest.mark.parametrize("pol_tag", ["parallel", "perpendicular"])
def test_grid_light_line_nudge_reached(pol_tag, monkeypatch):
    # the reference retries some points; the grid shrinks exactly those, in one
    # more kernel call
    *_, retries = _reference_grid(2, 0.5, pol_tag, 5)
    assert retries > 0
    flagged = []

    def spy(*args):
        rates, on_line = kernel(*args)
        flagged.append(int(on_line.sum()))
        return rates, on_line

    kernel = kspace._rates
    monkeypatch.setattr(kspace, "_rates", spy)
    gamma_k_grid(2, 0.5, pol_tag, 5)
    assert flagged == [retries, 0]


def test_grid_is_one_kernel_pass(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(len(args[3]))  # points in the (M, D) block
        return kernel(*args)

    kernel = kspace._rates
    monkeypatch.setattr(kspace, "_rates", spy)
    gamma_k_grid(3, 0.4, "parallel", 8)
    assert calls == [8**3]


def test_rate_blocks_do_not_change_rates(monkeypatch):
    whole = gamma_k_grid(3, 1.2, "parallel", 6).rates
    monkeypatch.setattr(kspace, "RATE_BLOCK", 7)  # a few points per pass
    np.testing.assert_array_equal(gamma_k_grid(3, 1.2, "parallel", 6).rates, whole)


@pytest.mark.parametrize("dimension, k", [(1, [0.1]), (2, [0.1, 0.2])])
def test_reg_delta_rejected_below_3d(dimension, k):
    with pytest.raises(ConfigError):
        gamma_k(dimension, 0.4, "parallel", k, reg_delta=0.1)
    with pytest.raises(ConfigError):
        gamma_k_grid(dimension, 0.4, "parallel", 8, reg_delta=0.1)


def test_3d_reg_delta_must_be_positive():
    for bad in (0.0, -0.1, float("nan")):
        with pytest.raises(ConfigError):
            gamma_k(3, 0.4, "parallel", [0.1, 0.2, 0.3], reg_delta=bad)
        with pytest.raises(ConfigError):
            gamma_k_grid(3, 0.4, "parallel", 4, reg_delta=bad)


@pytest.mark.parametrize("n", [4, 2])  # d (N_1D + 1) = 0.5 and 0.3: the offset is >= 1
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_grid_offset_past_light_line_rejected(dimension, n):
    # in 1D the offset is the grid step: no wavevector would lie inside the light cone
    assert default_reg_delta(0.1, n) >= 1.0
    with pytest.raises(ConfigError, match="light line"):
        gamma_max_finite_grid(dimension, 0.1, "parallel", n)


def test_grid_offset_just_below_one_accepted():
    assert default_reg_delta(0.1, 10) < 1.0  # d (N_1D + 1) = 1.1
    assert gamma_max_finite_grid(2, 0.1, "parallel", 10) > 0


def test_shift_table_past_cap_rejected():
    # d = 1e5 asks for (2 nmax + 1)^3 ~ 3e16 shifts; refused before any allocation
    with pytest.raises(ConfigError, match="reciprocal shifts"):
        gamma_k_grid(3, 1e5, "parallel", 4)
    with pytest.raises(ConfigError, match="reciprocal shifts"):
        gamma_k(1, 1e6, "parallel", [0.0])
