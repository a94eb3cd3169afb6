import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mats_from_gamma, random_unit_diag_psd
from corrdecay import coupling
from corrdecay.coupling import build_coupling_matrices
from corrdecay.errors import CertificateError, ConfigError, PhysicsValidationError
from corrdecay import sdp
from corrdecay.lattice import LatticeSpec, generate_lattice
from corrdecay.sdp import (
    DEFAULT_TOL,
    GAP_TOL,
    START_RANK,
    SdpProblem,
    round_to_product_state,
    sdp_certificates,
    solve_low_rank,
    solve_projection,
)

TOL_SLACK = 1e-6  # solver values are accurate to the convergence tolerance


def dicke_problem(n):
    return SdpProblem(gtilde=np.ones((n, n)) - np.eye(n), n=n)


def test_problem_validation():
    with pytest.raises(ConfigError, match="zero diagonal"):
        SdpProblem(gtilde=np.eye(3), n=3)  # nonzero diagonal
    with pytest.raises(ConfigError, match="n x n"):
        SdpProblem(gtilde=np.zeros((3, 3)), n=2)
    # the symmetry rule is coupling.check_symmetric_matrix's
    with pytest.raises(PhysicsValidationError, match="asymmetric"):
        SdpProblem(gtilde=np.array([[0.0, 1.0], [0.5, 0.0]]), n=2)
    # 1e-7 apart: beyond atol 1e-12, inside any relative tolerance allclose would apply
    with pytest.raises(PhysicsValidationError, match="asymmetric"):
        SdpProblem(gtilde=np.array([[0.0, 0.5], [0.5000001, 0.0]]), n=2)
    # each diagonal entry within 1e-12 of 0, though they differ by 2e-12
    SdpProblem(gtilde=np.diag([1e-12, -1e-12]), n=2)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [(0, 1), (1, 1)], ids=["offdiagonal", "diagonal"])
def test_problem_refuses_non_finite_entries(bad, where):
    g = np.zeros((3, 3))
    g[where] = g[where[::-1]] = bad
    with pytest.raises(PhysicsValidationError, match="non-finite"):
        SdpProblem(gtilde=g, n=3)


def test_from_coupling_strips_diagonal():
    spec = LatticeSpec(dimension=1, n_per_axis=4, spacing=0.3, polarization=(1.0, 0, 0))
    mats = build_coupling_matrices(generate_lattice(spec))
    prob = SdpProblem.from_coupling(mats)
    assert np.all(np.diag(prob.gtilde) == 0.0)


def test_dicke_low_rank_optimum():
    sol = solve_low_rank(dicke_problem(4), rank=2, seed=1)
    assert sol.converged
    assert abs(sol.value - 3.0) < 1e-6
    assert sol.feasibility_max_diag <= 1.0 + 1e-8
    assert np.isclose(sol.rstar_estimate, sol.value + 2.0)
    assert np.isclose(sol.rstar_upper_from_sdp, 4.0 + 6.0 * sol.dual_bound)
    assert sol.value <= sol.dual_bound <= sol.value + 1e-6


def test_dicke_projection_optimum():
    sol = solve_projection(dicke_problem(6))
    assert abs(sol.value - 7.5) < 1e-5


def test_two_spin_brute_force():
    g12 = -0.152
    prob = SdpProblem(gtilde=np.array([[0.0, g12], [g12, 0.0]]), n=2)
    # one-parameter oracle: X12 in [-1, 1]
    xs = np.linspace(-1, 1, 20001)
    brute = max(0.25 * 2 * g12 * x for x in xs)
    sol = solve_low_rank(prob, seed=0)
    assert abs(sol.value - brute) < 1e-7
    assert abs(sol.value - 0.076) < 1e-7


def test_zero_matrix():
    prob = SdpProblem(gtilde=np.zeros((5, 5)), n=5)
    assert abs(solve_low_rank(prob, seed=2).value) < 1e-12
    assert abs(solve_projection(prob).value) < 1e-9


def test_default_rank_above_barvinok_pataki():
    # the default start rank min(START_RANK, N) lies in [1, N] and, up to
    # N = START_RANK (START_RANK + 1) / 2, covers every extreme point; above
    # that the dual gap decides whether the rank must grow
    for n in (2, 10, 36, 37, 100):
        r = solve_low_rank(dicke_problem(n), seed=0).rank
        assert r == min(START_RANK, n)
        assert 1 <= r <= n
        if n <= START_RANK * (START_RANK + 1) // 2:
            assert r * (r + 1) / 2 >= n


def test_determinism_same_seed():
    prob = dicke_problem(8)
    a = solve_low_rank(prob, seed=42)
    b = solve_low_rank(prob, seed=42)
    assert a.value == b.value
    np.testing.assert_array_equal(a.factor, b.factor)


def test_cross_solver_agreement(rng):
    for _ in range(10):
        n = int(rng.integers(4, 30))
        g = random_unit_diag_psd(n, rng)
        prob = SdpProblem(gtilde=g - np.eye(n), n=n)
        s1 = solve_low_rank(prob, seed=7)
        s2 = solve_projection(prob)
        scale = max(abs(s1.value), abs(s2.value), 1.0)
        assert abs(s1.value - s2.value) <= 1e-5 * scale


def test_rounding_dicke_alignment():
    prob = dicke_problem(4)
    sol = solve_low_rank(prob, rank=2, seed=3)
    rounded = round_to_product_state(sol, prob)
    assert abs(rounded.value - 3.0) < 1e-8
    spread = np.ptp(np.mod(rounded.angles - rounded.angles[0] + np.pi, 2 * np.pi))
    assert spread < 1e-3  # aligned spins


def test_rounding_two_spin_antialigned():
    g12 = -0.152
    prob = SdpProblem(gtilde=np.array([[0.0, g12], [g12, 0.0]]), n=2)
    sol = solve_low_rank(prob, seed=0)
    rounded = round_to_product_state(sol, prob)
    assert abs(rounded.value - 0.076) < 1e-9
    assert np.isclose(abs(np.cos(rounded.angles[0] - rounded.angles[1])), 1.0, atol=1e-6)


def test_rounding_never_exceeds_sdp(rng):
    for _ in range(10):
        n = int(rng.integers(3, 12))
        g = random_unit_diag_psd(n, rng)
        prob = SdpProblem(gtilde=g - np.eye(n), n=n)
        sol = solve_low_rank(prob, seed=5)
        rounded = round_to_product_state(sol, prob)
        assert rounded.value <= sol.value + TOL_SLACK * max(1.0, abs(sol.value))


def _reference_rounding_angles(sol, prob, tol=1e-10):
    """The (N, 2)-matvec polish loop that the scalar one replaced."""
    _, _, vt = np.linalg.svd(sol.factor, full_matrices=False)
    s = sol.factor @ vt[:2].T
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    for _ in range(500):
        improved = False
        for i in range(prob.n):
            b = prob.gtilde[i] @ s
            nrm = np.linalg.norm(b)
            if 0.5 * (nrm - float(np.dot(s[i], b))) > tol:
                s[i] = b / nrm
                improved = True
        if not improved:
            break
    return np.arctan2(s[:, 1], s[:, 0])


def test_rounding_matches_reference_polish(rng):
    for _ in range(5):
        n = int(rng.integers(3, 40))
        g = random_unit_diag_psd(n, rng)
        prob = SdpProblem(gtilde=g - np.eye(n), n=n)
        sol = solve_low_rank(prob, seed=5)
        angles = round_to_product_state(sol, prob).angles
        diff = np.angle(np.exp(1j * (angles - _reference_rounding_angles(sol, prob))))
        assert np.abs(diff).max() < 1e-9


def test_certificates_dicke_tight():
    prob = dicke_problem(4)
    sol = solve_low_rank(prob, rank=2, seed=1)
    cert = sdp_certificates(prob, sol, gamma_max=4.0)
    assert np.isclose(cert["cap"], 3.0)
    assert cert["cap_slack"] >= -1e-6


def test_certificates_noninteracting():
    prob = SdpProblem(gtilde=np.zeros((4, 4)), n=4)
    sol = solve_low_rank(prob, seed=1)
    cert = sdp_certificates(prob, sol, gamma_max=1.0)
    assert cert["cap"] == 0.0


def test_certificate_raises_on_dual_below_value():
    prob = dicke_problem(4)
    sol = solve_low_rank(prob, rank=2, seed=1)
    sol.dual_bound = sol.value - 1e-3
    with pytest.raises(CertificateError):
        sdp_certificates(prob, sol, gamma_max=4.0)


def test_dual_bound_of_a_feasible_factor():
    # any factor with rows of norm <= 1 gives a bound at or above its own value
    # and at or above the optimum (3 on the 4-spin Dicke problem)
    prob = dicke_problem(4)
    v = np.random.default_rng(0).standard_normal((4, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    value, bound = sdp._certificate(prob.gtilde, v)
    assert value == pytest.approx(0.25 * float(np.sum(v * (prob.gtilde @ v))), abs=1e-12)
    assert bound >= max(3.0, value)
    aligned = np.ones((4, 1))
    assert sdp._certificate(prob.gtilde, aligned)[1] == pytest.approx(3.0, abs=1e-12)


def test_certificate_violation_raises():
    prob = dicke_problem(4)
    sol = solve_low_rank(prob, rank=2, seed=1)
    with pytest.raises(CertificateError):
        sdp_certificates(prob, sol, gamma_max=1.5)  # cap 0.5 < value 3


def test_rank_escape_flag_set():
    sol = solve_low_rank(dicke_problem(6), seed=9)
    assert sol.rank_escape_verified is True and sol.gap <= GAP_TOL
    # the projection solver does no rank escape and leaves the flag unset
    assert solve_projection(dicke_problem(6)).rank_escape_verified is None


def z_plane_problem(n1):
    spec = LatticeSpec(dimension=2, n_per_axis=n1, spacing=0.4, polarization=(0, 0, 1.0))
    return SdpProblem.from_coupling(build_coupling_matrices(generate_lattice(spec)))


def test_rank_grows_until_the_gap_closes():
    # the 10x10 z-plane at rank 4 stops with a dual gap of 5.9e-2: the rank
    # must double once and reach the default solve's optimum
    prob = z_plane_problem(10)
    default = solve_low_rank(prob, seed=0)
    assert default.rank == START_RANK and default.rounds == 1
    grown = solve_low_rank(prob, rank=4, seed=0)
    assert grown.rank == 8 and grown.rounds == 2
    assert grown.converged and grown.rank_escape_verified is True
    assert grown.gap <= GAP_TOL
    assert grown.value == pytest.approx(default.value, rel=1e-5)


def test_rank_growth_stops_at_n(monkeypatch):
    # a gap that never closes grows the rank up to N, then reports no convergence
    monkeypatch.setattr(sdp, "GAP_TOL", -1.0)
    sol = solve_low_rank(z_plane_problem(3), rank=5, seed=0)
    assert sol.rank == 9 and sol.rounds == 2
    assert not sol.converged and sol.rank_escape_verified is False


def test_projection_size_guard():
    with pytest.raises(ConfigError):
        solve_projection(SdpProblem(gtilde=np.zeros((401, 401)), n=401))


def test_solution_json_fields():
    sol = solve_low_rank(dicke_problem(3), seed=0)
    doc = sol.to_dict()
    for key in ("value", "dual_bound", "gap", "rank", "rounds", "iterations", "converged",
                "rstar_estimate", "rstar_upper_from_sdp"):
        assert key in doc


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_value_rounding_and_cap_properties(n, seed):
    g = random_unit_diag_psd(n, np.random.default_rng(seed))
    prob = SdpProblem(gtilde=g - np.eye(n), n=n)
    # the default tol leaves the value ~1e-8 relative short of the optimum,
    # which the polished rounding can exceed; converge tightly to test 1e-9
    sol = solve_low_rank(prob, seed=0, tol=1e-12)
    assert sol.converged
    v = sol.factor
    recomputed = 0.25 * float(np.sum(v * (prob.gtilde @ v)))
    assert abs(sol.value - recomputed) <= 1e-10 * max(1.0, abs(recomputed))
    assert round_to_product_state(sol, prob).value <= sol.value + 1e-9
    cap = 0.25 * n * (float(np.linalg.eigvalsh(g)[-1]) - 1.0)
    assert sol.value <= cap + 1e-9 * max(1.0, cap)


@pytest.mark.parametrize("solve", [solve_low_rank, solve_projection])
def test_problem_carries_gamma0_of_its_coupling(solve):
    # gamma0 = 2: rstar_estimate = value + N*gamma0/2 = value + N, with no gamma0 argument
    n = 6
    gamma = 2.0 * random_unit_diag_psd(n, np.random.default_rng(4))
    np.fill_diagonal(gamma, 2.0)
    mats = mats_from_gamma(gamma)
    prob = SdpProblem.from_coupling(mats)
    assert prob.gamma0 == 2.0
    sol = solve(prob)
    assert sol.rstar_estimate == sol.value + n
    assert sol.rstar_upper_from_sdp == 2.0 * n + 6.0 * sol.dual_bound
    gamma_max = float(np.linalg.eigvalsh(mats.gamma)[-1])
    assert sdp_certificates(prob, sol, gamma_max)["cap"] == 0.25 * n * (gamma_max - 2.0)


def test_pinned_chain_regression():
    # values of the factorized ascent and its rounding on a fixed chain; a
    # change in the iterates or the polish order shows up here
    spec = LatticeSpec(dimension=1, n_per_axis=40, spacing=0.4, polarization=(1.0, 0, 0))
    prob = SdpProblem.from_coupling(build_coupling_matrices(generate_lattice(spec)))
    sol = solve_low_rank(prob, seed=0)
    assert sol.converged and sol.rank_escape_verified is True
    assert sol.rank == START_RANK and sol.iterations == 173
    assert sol.value == pytest.approx(7.219292804228845, rel=1e-9)
    assert sol.dual_bound == pytest.approx(7.219292812388004, rel=1e-9)
    rounded = round_to_product_state(sol, prob)
    assert rounded.value == pytest.approx(7.219292811346427, rel=1e-9)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_value_and_rounding_below_dual_bound(n, seed):
    # at the default tol the rounding may exceed the value, never the dual bound
    # (both sides agree to ~1e-15 in floating point, hence the 1e-12 slack)
    g = random_unit_diag_psd(n, np.random.default_rng(seed))
    prob = SdpProblem(gtilde=g - np.eye(n), n=n)
    sol = solve_low_rank(prob, seed=0)
    assert sol.value <= sol.dual_bound
    assert np.isfinite(sol.gap)
    slack = 1e-12 * max(1.0, abs(sol.dual_bound))
    assert round_to_product_state(sol, prob).value <= sol.dual_bound + slack


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 60), r=st.integers(1, 16), centrosymmetric=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_parity_product_matches_dense(n, r, centrosymmetric, seed):
    # the half-size product of an even-N centrosymmetric matrix is g @ v;
    # odd N and any other symmetric matrix take the dense path
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    g += g.T
    if centrosymmetric:
        g += g[::-1, ::-1]
    v = rng.standard_normal((n, r))
    product = sdp._product(g, r)
    assert coupling.centrosymmetric(g) == centrosymmetric
    out = np.empty((n, r))
    product(v, out)
    scale = np.abs(g).sum(axis=1).max() * np.abs(v).max()
    assert np.abs(out - g @ v).max() <= 1e-12 * scale


def test_parity_and_dense_ascents_take_the_same_iterates():
    # the same chain through the parity product and, permuted, through the dense one
    spec = LatticeSpec(dimension=1, n_per_axis=60, spacing=0.4, polarization=(1.0, 0, 0))
    g = SdpProblem.from_coupling(build_coupling_matrices(generate_lattice(spec))).gtilde
    rng = np.random.default_rng(3)
    v0 = rng.standard_normal((60, START_RANK))
    v0 /= np.linalg.norm(v0, axis=1, keepdims=True)
    start = v0.copy()
    perm = rng.permutation(60)
    g_perm = g[np.ix_(perm, perm)]
    assert coupling.centrosymmetric(g) and not coupling.centrosymmetric(g_perm)
    best, iters = sdp._ascend(g, v0, 20000, DEFAULT_TOL)
    best_perm, iters_perm = sdp._ascend(g_perm, v0[perm], 20000, DEFAULT_TOL)
    assert np.array_equal(v0, start)  # the start is not overwritten
    assert iters == iters_perm < 20000  # both stopped by the span rule, at the same step
    np.testing.assert_allclose(best[perm], best_perm, rtol=0, atol=1e-9)
