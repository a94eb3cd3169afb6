import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dicke_mats, dicke_rstar, mats_from_gamma, random_unit_diag_psd
from corrdecay.bounds import (
    bounds_report,
    burst_slope,
    burst_slope_upper_bound,
    burst_time,
    crossover_n_crit,
    drive_threshold,
    driven_report,
    markov_limit,
    observable_rate_bounds,
    optimal_m,
    product_state_max,
    product_state_rate,
    spin_wave_rate,
    typical_rate,
)
from corrdecay.errors import ConfigError
from corrdecay.exactdiag import exact_rstar
from corrdecay.spectral import decompose


def test_product_state_endpoints():
    assert product_state_rate(0.0, 7, 1.0, 3.0) == 0.0
    assert np.isclose(product_state_rate(np.pi, 7, 1.0, 3.0), 7.0)


def test_product_state_dicke_maximum():
    # N = 4, S = 12: optimum (N + S)^2 / (4 S) at cos(theta) = -N/S
    theta = np.arccos(-4.0 / 12.0)
    assert np.isclose(product_state_rate(theta, 4, 1.0, 12.0), 16.0**2 / 48.0)
    assert np.isclose(product_state_max(4, 1.0, 12.0), 16.0**2 / 48.0)


def test_product_state_closed_form_vs_grid(rng):
    # brute-force theta grid oracle with 1e4 points
    thetas = np.linspace(0, np.pi, 10_000)
    for _ in range(8):
        n = int(rng.integers(2, 30))
        s = float(rng.uniform(-n, n * (n - 1)))
        grid = max(product_state_rate(t, n, 1.0, s) for t in thetas)
        closed = product_state_max(n, 1.0, s)
        assert closed >= grid - 1e-9
        assert closed - grid <= 1e-6 * max(1.0, closed)


def test_bounds_noninteracting_equality():
    mats = mats_from_gamma(np.eye(10))
    rep = bounds_report(decompose(mats), mats)
    assert np.isclose(rep.lb_best, 10.0, atol=1e-12)
    assert np.isclose(rep.ub, 10.0, atol=1e-12)


def test_bounds_dicke_numbers():
    mats = dicke_mats(10)
    rep = bounds_report(decompose(mats), mats)
    assert np.isclose(rep.s_sum, 90.0)
    assert np.isclose(rep.lb_delocalized, 25.0, atol=1e-9)
    assert np.isclose(rep.lb_product, 1000.0 / 36.0)
    assert np.isclose(rep.ub, 145.0)
    assert rep.in_phase
    assert np.isclose(rep.lb_best, 1000.0 / 36.0)


def test_bounds_sandwich_order(rng):
    for _ in range(20):
        n = int(rng.integers(2, 15))
        mats = mats_from_gamma(random_unit_diag_psd(n, rng))
        rep = bounds_report(decompose(mats), mats)
        assert rep.lb_best <= rep.ub + 1e-9
        assert rep.lb_trivial <= rep.ub + 1e-9


def test_bounds_sandwich_2d_array():
    # full-size 12x12 report stays ordered; a small sub-array is checked
    # against the exact sector diagonalization
    from corrdecay.coupling import build_coupling_matrices
    from corrdecay.exactdiag import exact_rstar
    from corrdecay.lattice import LatticeSpec, generate_lattice

    def report_for(n1):
        spec = LatticeSpec(dimension=2, n_per_axis=n1, spacing=0.4, polarization=(1.0, 0, 0))
        mats = build_coupling_matrices(generate_lattice(spec))
        return mats, bounds_report(decompose(mats), mats)

    mats_small, rep_small = report_for(3)
    exact = exact_rstar(mats_small).rstar_exact
    assert rep_small.lb_best <= exact + 1e-9
    assert exact <= rep_small.ub + 1e-9

    mats_full, rep_full = report_for(12)
    assert rep_full.lb_best <= rep_full.ub
    assert rep_full.ub > rep_small.ub  # monotonic sanity at full size


def test_ub_monotone_in_gamma_max():
    base = None
    for g12 in (0.1, 0.3, 0.5, 0.9):
        g = np.array([[1.0, g12], [g12, 1.0]])
        rep = bounds_report(decompose(mats_from_gamma(g)), mats_from_gamma(g))
        if base is not None:
            assert rep.ub >= base
        base = rep.ub


def test_spin_wave_endpoints():
    assert np.isclose(spin_wave_rate(0, 9, 3.0, 1.0), 9.0)
    assert spin_wave_rate(9, 9, 3.0, 1.0) == 0.0
    assert np.isclose(spin_wave_rate(1, 2, 2.0, 1.0), 2.0)  # two-emitter all-to-all
    with pytest.raises(ConfigError):
        spin_wave_rate(0, 1, 1.0, 1.0)


def test_optimal_m_cases():
    assert optimal_m(10, 1.0, 1.0) == 0  # independent emitters
    assert optimal_m(100, 100.0, 1.0) == 50  # all-to-all: half excitation (tie to even)
    assert optimal_m(10, 3.0, 1.0) == 4  # 5 * (1 + 0.2 - 0.45) = 3.75 -> 4


def test_dicke_spin_wave_consistency():
    # the optimal spin-wave rate at gamma_max = N reproduces N(N+2)/4 to O(1/N)
    for n in (4, 10, 50, 101):
        m = optimal_m(n, float(n), 1.0)
        rate = spin_wave_rate(m, n, float(n), 1.0)
        target = n * (n + 2) / 4.0
        assert abs(rate - target) <= target / n


def test_burst_slope_values(rng):
    assert np.isclose(burst_slope(dicke_mats(4)), 8.0)
    assert np.isclose(burst_slope(mats_from_gamma(np.eye(4))), -4.0)
    for _ in range(5):
        n = int(rng.integers(2, 20))
        g = random_unit_diag_psd(n, rng)
        brute = sum(g[i, j] ** 2 for i in range(n) for j in range(n)) - 2 * n
        assert abs(burst_slope(mats_from_gamma(g)) - brute) <= 1e-10 * max(1.0, abs(brute))


def test_burst_slope_upper_bound_dicke_rank_one():
    # all-ones gamma: rank 1, uniform dominant mode (delta = 0)
    for n in (2, 5, 8):
        mats = dicke_mats(n)
        r_star = dicke_rstar(n)
        cap = burst_slope_upper_bound(decompose(mats), r_star)
        assert np.isclose(cap, 16.0 / n**2 * r_star**2 - 2.0 * n, rtol=1e-12)
        assert burst_slope(mats) <= cap


def test_burst_time_regimes():
    # all-to-all: tau0 = log(N/2) / N
    bt = burst_time(2, 0.1, 100, alpha=1.0, beta=1.0)
    assert np.isclose(bt.tau0, np.log(50.0) / 100.0)
    assert np.isclose(bt.t_r, 0.01)
    # 1D intermediate regime: beta >> 1, N-independent
    b1 = burst_time(1, 0.1, 100, alpha=0.0, beta=10.0)
    b2 = burst_time(1, 0.1, 10_000, alpha=0.0, beta=10.0)
    assert np.isclose(b1.tau0, np.log(5.0) / 10.0)
    assert b1.tau0 == b2.tau0
    # log argument exactly 1: degenerate flag
    bd = burst_time(1, 0.1, 7, alpha=0.0, beta=2.0)
    assert bd.degenerate and bd.tau0 == 0.0


def test_markov_limit_values():
    # subwavelength branch (k0 d < 1): d = 0.1 gives x ~ 0.628
    x = 2 * np.pi * 0.1
    assert np.isclose(markov_limit(1, 0.1), 1e8)
    assert np.isclose(markov_limit(2, 0.1), 1e8 ** (2 / 3) * x ** (1 / 3))
    assert np.isclose(markov_limit(3, 0.1), 1e4 * np.sqrt(x))
    # beyond k0 d = 1 the limit falls off as 1/x
    x_big = 2 * np.pi * 0.9
    assert np.isclose(markov_limit(1, 0.9), 1e8 / x_big)


def test_crossover_values():
    kd6 = (2 * np.pi * 0.4) ** 6
    c2 = crossover_n_crit(2, 0.4)
    c3 = crossover_n_crit(3, 0.4)
    assert np.isclose(c2, 16 * kd6 / (81 * np.pi**2))
    assert abs(c2 - 5.0) < 0.1
    assert np.isclose(c3, 125 * kd6 / 27)
    assert abs(c3 - 1166.0) < 1.0
    # fixed-d ratio of the two formulas is a pure constant
    ratio = crossover_n_crit(3, 0.27) / crossover_n_crit(2, 0.27)
    assert np.isclose(ratio, 125 * 81 * np.pi**2 / (27 * 16))
    with pytest.raises(ConfigError):
        crossover_n_crit(1, 0.4)


def test_drive_threshold_values():
    assert np.isclose(drive_threshold(1.0, 1.0), 1.0 / np.sqrt(2.0))
    assert np.isclose(drive_threshold(3.0, 1.0), 1.0)


def test_driven_report_dicke():
    mats = dicke_mats(10)
    summary = decompose(mats)
    rep = bounds_report(summary, mats)
    driven = driven_report(summary, rep, mats, 2, 0.1)
    # all-to-all: permissive pump cap 2*ub/N, conservative 2*lb_best/N
    assert np.isclose(driven.w_star_ub_permissive, 2 * rep.ub / 10)
    assert np.isclose(driven.w_star_ub_conservative, 2 * rep.lb_best / 10)
    assert driven.burst
    assert driven.r_dot0 > 0
    assert driven.r_dot0 <= driven.r_dot0_upper + 1e-9
    assert driven.n_crit is not None and driven.n_crit > 0
    assert driven.t_r > 0


def test_driven_report_1d_has_no_crossover():
    g = np.eye(6)
    mats = mats_from_gamma(g)
    summary = decompose(mats)
    rep = bounds_report(summary, mats)
    driven = driven_report(summary, rep, mats, 1, 0.4)
    assert driven.n_crit is None
    assert not driven.burst


def test_observable_bounds():
    out = observable_rate_bounds(4.0, a_norm=1.0)
    assert out["positive_operator_bound"] == 4.0
    out = observable_rate_bounds(9.0, k=1, q=12)
    assert np.isclose(out["local_observable_bound"], 2 * 12 * 3.0)
    both = observable_rate_bounds(0.0, a_norm=2.0, k=2, q=5)
    assert both["positive_operator_bound"] == 0.0
    assert both["local_observable_bound"] == 0.0
    with pytest.raises(ConfigError):
        observable_rate_bounds(1.0)
    with pytest.raises(ConfigError):
        observable_rate_bounds(-1.0, a_norm=1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda: observable_rate_bounds(NAN, a_norm=1.0),
    lambda: observable_rate_bounds(INF, a_norm=1.0),
    lambda: observable_rate_bounds(1.0, a_norm=-1.0),
    lambda: observable_rate_bounds(1.0, a_norm=NAN),
    lambda: observable_rate_bounds(1.0, k=2, q=3, gamma0=-1.0),
    lambda: observable_rate_bounds(1.0, k=NAN, q=3),
    lambda: burst_time(1, 0.2, 10, gamma0=NAN),
    lambda: burst_time(1, 0.2, 10, gamma0=INF),
    lambda: burst_time(1, 0.2, 10, alpha=NAN, beta=1.0),
    lambda: burst_time(1, 0.2, -10, alpha=0.5, beta=1.0),
    lambda: optimal_m(10, NAN, 1.0),
    lambda: optimal_m(10, INF, 1.0),
    lambda: optimal_m(10, 3.0, NAN),
], ids=["r_star-nan", "r_star-inf", "a_norm-negative", "a_norm-nan", "gamma0-negative", "k-nan",
        "burst-gamma0-nan", "burst-gamma0-inf", "burst-alpha-nan", "burst-n-negative",
        "optimal_m-gamma_max-nan", "optimal_m-gamma_max-inf", "optimal_m-gamma0-nan"])
def test_helpers_reject_non_finite_input(call):
    with pytest.raises(ConfigError):
        call()


def test_typical_rate():
    assert typical_rate(8, 1.0) == 4.0
    assert typical_rate(0, 1.0) == 0.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
def test_bound_sandwich_property(n, seed):
    # lb_best <= r_star <= ub for any valid decoherence matrix
    mats = mats_from_gamma(random_unit_diag_psd(n, np.random.default_rng(seed)))
    rep = bounds_report(decompose(mats), mats)
    exact = exact_rstar(mats).rstar_exact
    slack = 1e-8 * max(1.0, exact)
    assert rep.lb_best <= exact + slack
    assert exact <= rep.ub + slack
