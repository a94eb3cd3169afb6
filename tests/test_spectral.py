import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dicke_mats, mats_from_gamma, random_unit_diag_psd
from corrdecay.coupling import CouplingMatrices, build_coupling_matrices, gamma_eigensolve
from corrdecay.errors import PhysicsValidationError
from corrdecay.lattice import LatticeSpec, generate_lattice
from corrdecay.spectral import (
    decompose,
    delocalization_delta,
    gamma_max_only,
    momentum_distribution,
)


def jacobi_eigenvalues(matrix, tol=1e-14, max_sweeps=60):
    """Cyclic Jacobi rotations: an oracle independent of the LAPACK path.

    Intended for N <= 200. Returns eigenvalues sorted descending.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n > 200:
        raise PhysicsValidationError("Jacobi oracle is limited to N <= 200")
    scale = np.abs(a).max() or 1.0
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * scale:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = 1.0 if theta == 0.0 else np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                # rotate rows/columns p and q in place
                row_p, row_q = a[p].copy(), a[q].copy()
                a[p] = c * row_p - s * row_q
                a[q] = s * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
    return np.sort(np.diag(a))[::-1]


def eigen_residual(mats, summary):
    """||gamma v - gamma_max v|| / ||gamma||_2 for the reported dominant pair
    (gamma is symmetric: its 2-norm is its largest |eigenvalue|)."""
    r = mats.gamma @ summary.dominant_vec - summary.gamma_max * summary.dominant_vec
    return float(np.linalg.norm(r) / np.abs(summary.eigenvalues[[0, -1]]).max())


def test_dicke_spectrum():
    summary = decompose(dicke_mats(4))
    np.testing.assert_allclose(summary.eigenvalues, [4.0, 0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(summary.dominant_vec, np.full(4, 0.5), atol=1e-12)
    assert summary.delta < 1e-7


def test_identity_spectrum():
    summary = decompose(mats_from_gamma(np.eye(5)))
    np.testing.assert_allclose(summary.eigenvalues, np.ones(5))
    assert summary.gamma_max == 1.0
    assert summary.degeneracy == 5


def test_sign_convention():
    g = np.array([[1.0, 0.9], [0.9, 1.0]])
    summary = decompose(mats_from_gamma(g))
    assert summary.dominant_vec[np.argmax(np.abs(summary.dominant_vec))] > 0


def test_gamma_max_matches_jacobi_oracle():
    spec = LatticeSpec(dimension=1, n_per_axis=50, spacing=0.4, polarization=(1.0, 0, 0))
    mats = build_coupling_matrices(generate_lattice(spec))
    summary = decompose(mats)
    oracle = jacobi_eigenvalues(mats.gamma)
    assert abs(summary.gamma_max - oracle[0]) <= 1e-9 * abs(oracle[0])
    np.testing.assert_allclose(summary.eigenvalues, oracle, rtol=1e-9, atol=1e-9)


def test_delta_examples():
    n = 10
    assert delocalization_delta(np.full(n, 1 / np.sqrt(n))) == 0.0
    e1 = np.zeros(n)
    e1[0] = 1.0
    assert np.isclose(delocalization_delta(e1), 3.0)
    v = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
    assert np.isclose(delocalization_delta(v), 1.0)
    with pytest.raises(PhysicsValidationError):
        delocalization_delta(np.zeros(4))


def test_delta_range(rng):
    for _ in range(50):
        n = int(rng.integers(2, 40))
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        d = delocalization_delta(v)
        assert 0.0 <= d <= np.sqrt(n - 1) + 1e-9


def test_eigen_residual_and_trace(rng):
    for _ in range(10):
        n = int(rng.integers(3, 60))
        mats = mats_from_gamma(random_unit_diag_psd(n, rng))
        summary = decompose(mats)
        assert eigen_residual(mats, summary) <= 1e-8
        assert abs(summary.eigenvalues.sum() - n) <= 1e-8 * n


def test_weyl_stability(rng):
    # |gamma_max' - gamma_max| <= ||E||_2 for symmetric perturbations
    for _ in range(20):
        n = int(rng.integers(3, 30))
        g = random_unit_diag_psd(n, rng)
        e = rng.standard_normal((n, n)) * 0.1
        e = 0.5 * (e + e.T)
        base = gamma_max_only(mats_from_gamma(g))
        pert = float(np.linalg.eigvalsh(g + e)[-1])
        assert abs(pert - base) <= np.linalg.norm(e, 2) + 1e-10


def test_momentum_uniform_mode_peaks_at_zero():
    spec = LatticeSpec(dimension=1, n_per_axis=16, spacing=0.3, polarization=(1.0, 0, 0))
    arr = generate_lattice(spec)
    dist = momentum_distribution(np.full(16, 0.25), arr)
    top = np.argmax(dist.weights)
    assert np.allclose(dist.kvecs[top], 0.0)
    assert np.isclose(dist.weights[top], 1.0, atol=1e-12)


def test_momentum_parseval(rng):
    spec = LatticeSpec(dimension=2, n_per_axis=6, spacing=0.4, polarization=(1.0, 0, 0))
    arr = generate_lattice(spec)
    v = rng.standard_normal(36)
    v /= np.linalg.norm(v)
    dist = momentum_distribution(v, arr)
    assert abs(dist.weights.sum() - 1.0) < 1e-10


def test_momentum_bright_chain_mode_near_light_line():
    # perpendicular polarization: brightest spin wave sits near |k| = k0
    spec = LatticeSpec(dimension=1, n_per_axis=60, spacing=0.3, polarization=(1.0, 0, 0))
    arr = generate_lattice(spec)
    mats = build_coupling_matrices(arr)
    summary = decompose(mats)
    dist = momentum_distribution(summary.dominant_vec, arr)
    kz = dist.kvecs[np.argmax(dist.weights), 2]
    grid_step = 2 * np.pi / (60 * 0.3)
    assert abs(abs(kz) - 2 * np.pi) < 3 * grid_step

    # and the momentum width shrinks as the chain grows
    def width(n):
        s = LatticeSpec(dimension=1, n_per_axis=n, spacing=0.3, polarization=(1.0, 0, 0))
        a = generate_lattice(s)
        d = momentum_distribution(decompose(build_coupling_matrices(a)).dominant_vec, a)
        kabs = np.abs(d.kvecs[:, 2])
        mean = np.sum(d.weights * kabs)
        return np.sqrt(np.sum(d.weights * (kabs - mean) ** 2))

    assert width(120) < width(60)


def test_momentum_rejects_non_lattice_positions():
    from corrdecay.lattice import AtomArray

    spec = LatticeSpec(dimension=1, n_per_axis=4, spacing=0.3, polarization=(1.0, 0, 0))
    arr = generate_lattice(spec)
    ok = momentum_distribution(np.full(4, 0.5), arr)
    assert ok.weights.size == 4
    bad = arr.positions.copy()
    bad[2, 2] += 0.1
    with pytest.raises(PhysicsValidationError):
        momentum_distribution(np.full(4, 0.5), AtomArray(positions=bad, source_spec=spec))


def test_spectrum_csv(tmp_path):
    summary = decompose(dicke_mats(3))
    path = tmp_path / "spec.csv"
    from corrdecay.spectral import spectrum_to_csv

    spectrum_to_csv(summary, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 4


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-6, 1.0))
def test_weyl_stability_property(n, seed, scale):
    # |gamma_max(Gamma + E) - gamma_max(Gamma)| <= ||E||_2 for symmetric E
    rng = np.random.default_rng(seed)
    gamma = random_unit_diag_psd(n, rng)
    e = scale * rng.standard_normal((n, n))
    e = e + e.T
    np.fill_diagonal(e, 0.0)
    shift = gamma_max_only(mats_from_gamma(gamma + e)) - gamma_max_only(mats_from_gamma(gamma))
    assert abs(shift) <= float(np.linalg.norm(e, 2)) + 1e-12 * n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_parity_blocks_match_dense_solve_property(n, seed):
    # a random symmetric centrosymmetric matrix, even and odd N: the merged spectrum of the
    # two parity blocks is the dense one, and the rebuilt top vector is a unit eigenvector
    x = np.random.default_rng(seed).standard_normal((n, n))
    g = x + x.T
    g = g + g[::-1, ::-1]
    dense = np.linalg.eigvalsh(g)
    scale = np.abs(dense).max()
    mats = mats_from_gamma(g)
    vals, vec, solver = gamma_eigensolve(mats, top_vector=True)
    assert solver == ("parity" if n > 1 else "dense")
    np.testing.assert_allclose(vals, dense, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(gamma_eigensolve(mats)[0], dense, rtol=0, atol=1e-12 * scale)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    assert np.linalg.norm(g @ vec - vals[-1] * vec) <= 1e-12 * scale
    assert gamma_max_only(mats) == pytest.approx(decompose(mats).gamma_max, rel=0, abs=1e-12 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grid=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
       seed=st.integers(0, 2**32 - 1))
def test_mirror_blocks_match_dense_solve_property(grid, seed):
    # a random offset table on the site grid that is its own reversal along each axis: the
    # merged spectrum of the 2^D mirror blocks folded from it is the dense one of the matrix
    # it builds, and the rebuilt top vector is a unit eigenvector of the top eigenvalue
    dim = len(grid)
    table = np.random.default_rng(seed).standard_normal([2 * n - 1 for n in grid])
    for k in range(dim):
        table = table + np.flip(table, k)
    mats = CouplingMatrices(gamma=None, gamma0=float(table[tuple(n - 1 for n in grid)]),
                            n=int(np.prod(grid)), table=table)
    vals, vec, solver = gamma_eigensolve(mats, top_vector=True)
    assert solver == ("parity" if dim == 1 else "mirror")
    only = gamma_eigensolve(mats)[0]
    assert "gamma" not in vars(mats)  # folded from the table alone
    g = mats.gamma
    assert np.array_equal(g, g.T)
    dense = np.linalg.eigvalsh(g)
    scale = np.abs(dense).max()
    np.testing.assert_allclose(vals, dense, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(only, dense, rtol=0, atol=1e-12 * scale)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12
    assert abs(vals[-1] - dense[-1]) <= 1e-12 * scale
    assert np.linalg.norm(g @ vec - vals[-1] * vec) <= 1e-12 * scale


def test_degenerate_parity_top_is_a_unit_eigenvector():
    # Dicke: the top mode is even; the identity: every mode is top, the even block wins ties
    for g in (np.ones((7, 7)), np.eye(6)):
        summary = decompose(mats_from_gamma(g))
        assert summary.eigensolver == "parity"
        assert eigen_residual(mats_from_gamma(g), summary) <= 1e-14
        assert np.linalg.norm(summary.dominant_vec) == pytest.approx(1.0, abs=1e-14)
