import copy
import dataclasses
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mats_from_gamma, random_small_lattice
from corrdecay import coupling
from corrdecay.coupling import (
    COINCIDENT_TOL,
    GAMMA0,
    K0,
    PAIR_BLOCK,
    CouplingMatrices,
    PsdDiagnostic,
    _gamma_kernel,
    _j_kernel,
    _pair_matrix,
    build_coupling_from_positions,
    build_coupling_matrices,
    build_export_matrices,
    centrosymmetric,
    check_symmetric_matrix,
    gamma_eigensolve,
    offdiagonal_sum,
    read_coupling_csv,
    read_matrix_binary,
    validate_psd,
    validated_coupling,
    write_coupling_csv,
    write_matrix_binary,
)
from corrdecay.errors import CoincidentEmittersError, ConfigError, PhysicsValidationError
from corrdecay.lattice import AtomArray, LatticeSpec, build_array, generate_lattice, grid_points
from corrdecay.spectral import decompose, gamma_max_only


def green_tensor(r) -> np.ndarray:
    """Oracle: free-space dyadic Green's tensor G(r, omega0) at the resonance frequency.

    r is a 3-vector in lambda0 units; returns a complex symmetric 3x3 matrix.
    The self-term diverges and is never evaluated (diagonal couplings are set
    analytically to gamma0), so zero separation raises PhysicsValidationError.
    """
    r = np.asarray(r, dtype=float)
    dist = float(np.linalg.norm(r))
    if dist <= COINCIDENT_TOL:
        raise PhysicsValidationError("self-term requested: G(0) is singular")
    x = K0 * dist
    rhat = r / dist
    outer = np.outer(rhat, rhat)
    pref = np.exp(1j * x) / (4.0 * np.pi * K0**2 * dist**3)
    return pref * ((x**2 + 1j * x - 1.0) * np.eye(3) + (-(x**2) - 3j * x + 3.0) * outer)


def coupling_pair(ri, rj, pol) -> tuple[float, float]:
    """(J_ij, Gamma_ij) for one emitter pair through the pair loop, in units of gamma0.

    J_ij = -(3*pi/k0) p.Re G.p and Gamma_ij = (6*pi/k0) p.Im G.p, with p the
    real unit polarization vector.
    """
    pos = np.array([ri, rj], dtype=float)
    return (float(_pair_matrix(pos, pol, _j_kernel, 0.0)[0, 1]),
            float(_pair_matrix(pos, pol, _gamma_kernel, GAMMA0)[0, 1]))


def transverse_kernel(x):
    # independent scalar oracle for the transverse radiation kernel
    return 1.5 * (np.sin(x) / x + np.cos(x) / x**2 - np.sin(x) / x**3)


def longitudinal_kernel(x):
    return 3.0 * (np.sin(x) / x**3 - np.cos(x) / x**2)


def test_green_transverse_projection_half_wavelength():
    g = green_tensor((0.0, 0.0, 0.5))
    got = 6.0 * np.pi / (2 * np.pi) * np.imag(g[0, 0])
    assert np.isclose(got, -3.0 / (2.0 * np.pi**2), atol=1e-14)
    assert np.isclose(got, transverse_kernel(np.pi), atol=1e-14)


def test_green_longitudinal_projection_half_wavelength():
    g = green_tensor((0.0, 0.0, 0.5))
    got = 6.0 * np.pi / (2 * np.pi) * np.imag(g[2, 2])
    assert np.isclose(got, 3.0 / np.pi**2, atol=1e-14)
    assert np.isclose(got, longitudinal_kernel(np.pi), atol=1e-14)


def test_green_far_field_decay():
    near = np.abs(green_tensor((0, 0, 10.0)))
    far = np.abs(green_tensor((0, 0, 100.0)))
    assert far.max() < near.max() / 9.0  # 1/r falloff (within oscillation slack)


def test_green_symmetric_complex():
    g = green_tensor((0.3, -0.2, 0.7))
    np.testing.assert_allclose(g, g.T, atol=1e-15)


def test_green_self_term_rejected():
    with pytest.raises(PhysicsValidationError, match="self-term"):
        green_tensor((0.0, 0.0, 0.0))


def test_pair_perpendicular_value():
    _, gamma = coupling_pair((0, 0, 0), (0, 0, 0.5), (1.0, 0, 0))
    assert np.isclose(gamma, -3.0 / (2.0 * np.pi**2), atol=1e-14)


def test_pair_dicke_limit():
    for pol in ((1.0, 0, 0), (0, 0, 1.0)):
        _, gamma = coupling_pair((0, 0, 0), (0, 0, 1e-4), pol)
        assert abs(gamma - 1.0) < 1e-6


def test_pair_swap_symmetric():
    ri, rj = (0.1, 0.2, 0.3), (0.5, -0.1, 0.2)
    pol = np.array([0.36, 0.48, 0.8])
    assert coupling_pair(ri, rj, pol) == coupling_pair(rj, ri, pol)


def test_pair_coincident_rejected():
    with pytest.raises(CoincidentEmittersError):
        coupling_pair((0, 0, 0), (0, 0, 0), (1, 0, 0))


@pytest.mark.parametrize("pol", [(1.0, 1.0, 0.0), (np.nan, 0.0, 0.0)], ids=["non-unit", "nan"])
def test_positions_polarization_rejected(pol):
    with pytest.raises(ConfigError, match="polarization"):
        build_coupling_from_positions(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.4]]), pol)


def test_non_finite_kernel_rejected_on_both_paths():
    # k0 * 1e308 overflows, so the kernel is NaN: the offset table and the pair loop refuse it
    with pytest.raises(PhysicsValidationError, match="not finite"):
        build_coupling_matrices(build_array(LatticeSpec(dimension=1, n_per_axis=2, spacing=1e308)))
    with pytest.raises(PhysicsValidationError, match="not finite"):
        build_coupling_from_positions(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e308]]), (1, 0, 0))


def test_pair_matches_green_projection(rng):
    # both rates must equal the projected propagator, -(3*pi/k0) p.ReG.p and
    # (6*pi/k0) p.ImG.p, evaluated through the independent tensor routine
    k0 = 2 * np.pi
    for _ in range(10):
        ri = rng.uniform(-1, 1, 3)
        rj = rng.uniform(-1, 1, 3)
        if np.linalg.norm(ri - rj) < 0.05:
            continue
        pol = rng.standard_normal(3)
        pol /= np.linalg.norm(pol)
        g = green_tensor(ri - rj)
        j_ref = -3 * np.pi / k0 * float(pol @ np.real(g) @ pol)
        gamma_ref = 6 * np.pi / k0 * float(pol @ np.imag(g) @ pol)
        jij, gij = coupling_pair(ri, rj, pol)
        assert abs(jij - j_ref) < 1e-12 * max(1.0, abs(j_ref))
        assert abs(gij - gamma_ref) < 1e-12


def chain_mats(n, d, pol, build=build_coupling_matrices):
    spec = LatticeSpec(dimension=1, n_per_axis=n, spacing=d, polarization=pol)
    return build(generate_lattice(spec))


def test_two_atom_matrix_closed_form():
    mats = chain_mats(2, 0.5, (1.0, 0, 0))
    g12 = -3.0 / (2.0 * np.pi**2)
    np.testing.assert_allclose(mats.gamma, [[1.0, g12], [g12, 1.0]], atol=1e-14)
    eig = np.linalg.eigvalsh(mats.gamma)
    np.testing.assert_allclose(eig, [1.0 + g12, 1.0 - g12], atol=1e-14)  # g12 < 0


def test_single_atom():
    assert chain_mats(1, 0.5, (1.0, 0, 0)).jmat is None  # only the export builds J
    mats = chain_mats(1, 0.5, (1.0, 0, 0), build=build_export_matrices)
    np.testing.assert_array_equal(mats.gamma, [[1.0]])
    np.testing.assert_array_equal(mats.jmat, [[0.0]])


def test_dicke_surrogate_gamma_max():
    # all separations 1e-4 lambda0: largest collective rate approaches N
    spec = LatticeSpec(dimension=2, n_per_axis=2, spacing=1e-4, polarization=(1.0, 0, 0))
    mats = build_coupling_matrices(generate_lattice(spec))
    gmax = np.linalg.eigvalsh(mats.gamma)[-1]
    assert abs(gmax - 4.0) < 1e-4


def test_exact_symmetry_and_units():
    spec = LatticeSpec(dimension=2, n_per_axis=5, spacing=0.43, polarization=(0, 0, 1.0))
    mats = build_export_matrices(generate_lattice(spec))
    assert np.array_equal(mats.gamma, build_coupling_matrices(generate_lattice(spec)).gamma)
    assert np.array_equal(mats.gamma, mats.gamma.T)  # exact, mirrored per pair
    assert np.array_equal(mats.jmat, mats.jmat.T)
    assert np.all(np.diag(mats.gamma) == 1.0)
    assert np.all(np.diag(mats.jmat) == 0.0)


def test_translation_invariance():
    spec = LatticeSpec(dimension=1, n_per_axis=20, spacing=0.4, polarization=(1.0, 0, 0))
    mats = build_coupling_matrices(generate_lattice(spec))
    # same displacement vector -> same coupling, to 1e-12
    for k in range(1, 19):
        col = np.array([mats.gamma[i, i + k] for i in range(20 - k)])
        assert np.ptp(col) < 1e-12


def test_polarization_sign_flip():
    plus, minus = (LatticeSpec(dimension=2, n_per_axis=3, spacing=0.3, polarization=(sign, 0, 0))
                   for sign in (1.0, -1.0))
    a, b = (build_coupling_matrices(generate_lattice(spec)) for spec in (plus, minus))
    np.testing.assert_array_equal(a.gamma, b.gamma)


@pytest.mark.parametrize("gamma, gamma0, n", [
    pytest.param(np.eye(3), 1.0, 5, id="three-emitters-claim-five"),
    pytest.param(np.eye(3), 1.0, 2, id="three-emitters-claim-two"),
    pytest.param(np.ones(3), 1.0, 3, id="not-2d"),
    pytest.param(np.eye(3), 2.0, 3, id="gamma0-2-unit-diagonal"),
    pytest.param(np.eye(3), 1.0 + 2e-12, 3, id="gamma0-beyond-1e-12"),
    pytest.param(np.full((1, 1), np.nan), 1.0, 1, id="nan-diagonal"),
    pytest.param(np.zeros((0, 0)), 1.0, 0, id="empty"),
])
def test_coupling_matrices_refuses_n_or_gamma0_off_gamma(gamma, gamma0, n):
    with pytest.raises(PhysicsValidationError):
        CouplingMatrices(gamma=gamma, gamma0=gamma0, n=n)


@pytest.mark.parametrize("gamma0, n", [(1.0, 9), (2.0, 3), (1.0 + 2e-12, 3)],
                         ids=["three-sites-claim-nine", "gamma0-2-centre-1",
                              "gamma0-beyond-1e-12"])
def test_coupling_matrices_refuses_n_or_gamma0_off_the_table(gamma0, n):
    # a 1D table of 3 sites (shape (5,), centre table[2] = 1) stands for gamma
    table = np.array([0.1, 0.5, 1.0, 0.5, 0.1])
    assert CouplingMatrices(gamma=None, gamma0=1.0, n=3, table=table).grid == (3,)
    with pytest.raises(PhysicsValidationError):
        CouplingMatrices(gamma=None, gamma0=gamma0, n=n, table=table)


def test_coupling_matrices_accepts_gamma0_within_1e12():
    # a diagonal of 1 +- 1 ulp (as a normalized Gram matrix has) against gamma0 = 1
    for diagonal in (np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1.0 + 5e-13):
        gamma = np.eye(3) * diagonal
        assert gamma[0, 0] != 1.0
        assert CouplingMatrices(gamma=gamma, gamma0=1.0, n=3).gamma0 == 1.0


def test_sum_rule_bounds(rng):
    for _ in range(10):
        mats = build_coupling_matrices(build_array(random_small_lattice(rng)))
        s = offdiagonal_sum(mats)
        n = mats.n
        assert -n - 1e-9 <= s <= n * (n - 1) + 1e-9


def test_psd_on_random_lattices(rng):
    for _ in range(15):
        mats = build_coupling_matrices(build_array(random_small_lattice(rng, max_atoms=30)))
        assert validate_psd(mats).passed


def test_psd_identity_and_handbuilt_failure():
    diag = validate_psd(mats_from_gamma(np.eye(4)))
    assert diag.passed and np.isclose(diag.min_eigenvalue, 1.0)
    bad = validate_psd(mats_from_gamma(np.array([[1.0, 1.5], [1.5, 1.0]])))
    assert not bad.passed
    assert np.isclose(bad.min_eigenvalue, -0.5)
    assert diag.require() is diag
    with pytest.raises(PhysicsValidationError, match="PSD check failed"):
        bad.require()
    with pytest.raises(PhysicsValidationError):
        PsdDiagnostic.of(np.nan, 1.0).require()


def test_psd_rule_scales_with_gamma0():
    # one rule for validate_psd and the CLI: min eigenvalue >= PSD_TOLERANCE * gamma0
    mats = mats_from_gamma(2.0 * np.eye(3))
    assert validate_psd(mats) == PsdDiagnostic.of(2.0, 2.0)
    assert PsdDiagnostic.of(-1.5e-8, 2.0).passed
    assert not PsdDiagnostic.of(-1.5e-8, 1.0).passed


def test_coincident_positions_reported_with_indices():
    pos = np.array([[0, 0, 0], [0, 0, 0.4], [0, 0, 0.0]])
    with pytest.raises(CoincidentEmittersError) as err:
        build_coupling_from_positions(pos, np.array([1.0, 0, 0]))
    assert set(err.value.indices) == {0, 2}


OBLIQUE = tuple(np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0))  # every axis: signed offsets matter


@pytest.mark.parametrize("pol", [(0, 0, 1.0), OBLIQUE], ids=["z", "oblique"])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_ordered_build_matches_pair_loop(dimension, n, pol):
    arr = generate_lattice(LatticeSpec(dimension=dimension, n_per_axis=n, spacing=0.37,
                                       polarization=pol))
    mats = build_export_matrices(arr)
    np.testing.assert_allclose(mats.gamma, build_coupling_from_positions(arr.positions, pol).gamma,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(mats.jmat, _pair_matrix(arr.positions, pol, _j_kernel, 0.0),
                               rtol=0, atol=1e-12)
    assert np.array_equal(mats.gamma, mats.gamma.T) and np.array_equal(mats.jmat, mats.jmat.T)
    assert np.all(np.diag(mats.gamma) == mats.gamma0) and np.all(np.diag(mats.jmat) == 0.0)


@pytest.mark.parametrize("pol", [(1.0, 0, 0), (0, 0, 1.0), OBLIQUE], ids=["x", "z", "oblique"])
@pytest.mark.parametrize("n", [2, 3, 6, 7])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_ordered_gamma_is_exactly_centrosymmetric(dimension, n, pol):
    # reversing the site order is point inversion, and the offset table is mirrored
    # (Gamma(-m) = Gamma(m)): the parity split of gamma_eigensolve rests on this
    gamma = build_coupling_matrices(generate_lattice(
        LatticeSpec(dimension=dimension, n_per_axis=n, spacing=0.37, polarization=pol))).gamma
    assert np.array_equal(gamma, gamma[::-1, ::-1])
    assert gamma_eigensolve(mats_from_gamma(gamma))[2] == "parity"


def index_gather(spec, pol, kernel, diagonal):
    # the reference build: entry (i, j) gathered as table[code_i - code_j + center], with
    # each site's offset code in base 2n - 1, through one (N, N) index array
    n, dim = spec.n_per_axis, spec.dimension
    sep = grid_points(np.arange(1 - n, n, dtype=float) * spec.spacing, dim)
    center = len(sep) // 2
    half = coupling._kernel_values(sep[: center + 1], center, pol, kernel, lambda b: (0, 1))
    half[center] = diagonal
    table = np.concatenate([half, half[:center][::-1]])
    codes = np.ravel_multi_index(np.unravel_index(np.arange(n**dim), (n,) * dim),
                                 (2 * n - 1,) * dim)
    return np.take(table, codes[:, None] + center - codes)


@pytest.mark.parametrize("kernel, diagonal", [(_gamma_kernel, GAMMA0), (_j_kernel, 0.0)],
                         ids=["gamma", "j"])
@pytest.mark.parametrize("dimension, n", [(1, 1), (1, 2), (1, 37), (2, 1), (2, 6), (2, 7),
                                          (3, 2), (3, 5)])
def test_offset_rows_equal_the_index_gather(dimension, n, kernel, diagonal):
    spec = LatticeSpec(dimension=dimension, n_per_axis=n, spacing=0.37, polarization=OBLIQUE)
    table = coupling._offset_table(spec, spec.pol_vector, kernel, diagonal)
    assert table.shape == (2 * n - 1,) * dimension
    matrix = coupling._offset_matrix(table)
    assert matrix.tobytes() == index_gather(spec, spec.pol_vector, kernel, diagonal).tobytes()


MIRROR_POLS = {"x": (1.0, 0, 0), "y": (0, 1.0, 0), "z": (0, 0, 1.0), "xy": (0.6, 0.8, 0),
               "xz": (0.6, 0, 0.8)}


@pytest.mark.parametrize("pol", list(MIRROR_POLS), ids=list(MIRROR_POLS))
@pytest.mark.parametrize("n", [1, 2, 3, 6, 7])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_ordered_gamma_folds_over_its_mirror_axes(dimension, n, pol):
    # every ordered array keeps its table and leaves gamma to its first read. The table folds
    # over its site grid exactly when Gamma is unchanged by reversing each lattice axis on its
    # own: every chain and axis-aligned polarization; an xy-oblique dipole breaks both plane
    # axes, an xz-oblique one the cube's x and z axes. Otherwise it folds over (N,), as every
    # table is even. Either way the spectrum is the dense one.
    mats = build_coupling_matrices(generate_lattice(LatticeSpec(
        dimension=dimension, n_per_axis=n, spacing=0.37, polarization=MIRROR_POLS[pol])))
    assert mats.table is not None and not built(mats)
    t = mats.gamma.reshape((n,) * 2 * dimension)
    mirrored = all(np.array_equal(t, np.flip(t, (k, dimension + k))) for k in range(dimension))
    assert mirrored == (dimension == 1 or n == 1 or len(pol) == 1 or (dimension, pol) == (2, "xz"))
    assert mats.grid == ((n,) * dimension if mirrored else (n**dimension,))
    summary = decompose(mats)
    assert summary.eigensolver == ("parity" if not mirrored or dimension == 1 else "mirror")
    dense = np.linalg.eigvalsh(mats.gamma)
    scale = np.abs(dense).max()
    np.testing.assert_allclose(summary.eigenvalues, dense[::-1], rtol=0, atol=1e-12 * scale)
    assert abs(gamma_max_only(mats) - dense[-1]) <= 1e-12 * scale
    vec = summary.dominant_vec
    assert np.linalg.norm(mats.gamma @ vec - summary.gamma_max * vec) <= 1e-12 * scale


def test_disordered_gamma_takes_the_dense_eigensolve():
    gamma = build_coupling_matrices(build_array(
        LatticeSpec(dimension=2, n_per_axis=5, spacing=0.4, disorder_eta=0.05, seed=3))).gamma
    vals, _, solver = gamma_eigensolve(mats_from_gamma(gamma))
    assert solver == "dense"
    assert np.array_equal(vals, np.linalg.eigvalsh(gamma))
    assert gamma_max_only(mats_from_gamma(gamma)) == np.linalg.eigvalsh(gamma)[-1]


def built(mats):
    # whether the dense gamma of mats exists yet
    return "gamma" in vars(mats)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dimension=st.integers(1, 3), n=st.integers(1, 7), pol=st.sampled_from("xyz"))
def test_table_folded_blocks_equal_the_gamma_folded_ones(dimension, n, pol):
    # the mirror blocks folded from the table's view of gamma are, byte for byte, the ones
    # folded from the dense gamma; gamma read afterwards is _offset_matrix of the table
    spec = LatticeSpec(dimension=dimension, n_per_axis=n, spacing=0.37,
                       polarization=MIRROR_POLS[pol])
    mats = build_coupling_matrices(generate_lattice(spec))
    grid = (n,) * dimension
    assert mats.table is not None and mats.grid == grid and not built(mats)
    dense = coupling._offset_matrix(
        coupling._offset_table(spec, spec.pol_vector, _gamma_kernel, GAMMA0))
    pairs = zip(coupling._mirror_blocks(coupling._table_view(mats.table), grid),
                coupling._mirror_blocks(dense.reshape(grid * 2), grid), strict=True)
    for folded, reference in pairs:
        assert folded.shape == reference.shape and folded.tobytes() == reference.tobytes()
    assert not built(mats)
    assert mats.gamma.tobytes() == dense.tobytes()
    assert built(mats) and mats.gamma is mats.gamma


def test_table_view_is_a_read_only_view_of_gamma():
    spec = LatticeSpec(dimension=2, n_per_axis=4, spacing=0.37, polarization=OBLIQUE)
    table = coupling._offset_table(spec, spec.pol_vector, _gamma_kernel, GAMMA0)
    view = coupling._table_view(table)
    assert view.shape == (4,) * 4 and np.shares_memory(view, table)
    assert not view.flags.writeable
    assert np.array_equal(view.reshape(16, 16), coupling._offset_matrix(table))


@pytest.mark.parametrize("solve", [gamma_max_only, decompose, validate_psd],
                         ids=["gamma_max_only", "decompose", "validate_psd"])
@pytest.mark.parametrize("dimension, n", [(1, 9), (2, 6), (3, 3)])
def test_eigensolves_leave_the_ordered_gamma_unbuilt(dimension, n, solve):
    mats = build_coupling_matrices(generate_lattice(
        LatticeSpec(dimension=dimension, n_per_axis=n, spacing=0.37, polarization=(0, 0, 1.0))))
    solve(mats)
    assert mats.table is not None and not built(mats)


@pytest.mark.parametrize("dimension, n, pol", [(2, 6, MIRROR_POLS["xy"]), (2, 5, OBLIQUE),
                                              (3, 3, MIRROR_POLS["xy"]), (3, 4, MIRROR_POLS["xz"]),
                                              (3, 3, OBLIQUE)],
                         ids=["plane-xy", "plane-oblique", "cube-xy", "cube-xz", "cube-oblique"])
def test_oblique_table_folds_by_its_own_rule(monkeypatch, dimension, n, pol):
    # an oblique table folds over (N,) without the centrosymmetry probe, bitwise as the same
    # gamma does without a table after the probe passes
    mats = build_coupling_matrices(generate_lattice(
        LatticeSpec(dimension=dimension, n_per_axis=n, spacing=0.37, polarization=pol)))
    dense = coupling._offset_matrix(mats.table)
    vals, vec, label = gamma_eigensolve(mats_from_gamma(dense), top_vector=True)
    vals_only = gamma_eigensolve(mats_from_gamma(dense))[0]  # eigvalsh, not eigh
    assert label == "parity" and mats.grid == (n**dimension,)

    def refuse(g):
        raise AssertionError("centrosymmetric probed a table-backed gamma")

    monkeypatch.setattr(coupling, "centrosymmetric", refuse)
    summary = decompose(mats)
    assert summary.eigensolver == label
    assert summary.eigenvalues.tobytes() == vals[::-1].tobytes()
    assert np.abs(summary.dominant_vec).tobytes() == np.abs(vec).tobytes()
    assert gamma_max_only(mats) == vals_only[-1]
    assert validate_psd(mats).min_eigenvalue == vals_only[0]
    assert mats.gamma.tobytes() == dense.tobytes()


def test_table_backed_matrices_copy_pickle_and_replace():
    mats = build_coupling_matrices(generate_lattice(
        LatticeSpec(dimension=2, n_per_axis=4, spacing=0.37, polarization=OBLIQUE)))
    dense = coupling._offset_matrix(mats.table)
    for twin in (copy.copy(mats), copy.deepcopy(mats), pickle.loads(pickle.dumps(mats))):
        assert twin.table is not None and not built(twin)
        assert twin.gamma.tobytes() == dense.tobytes()
    assert not built(mats)
    gamma = mats.gamma
    assert dataclasses.replace(mats).gamma is gamma
    assert dataclasses.replace(mats, table=None).gamma is gamma
    with pytest.raises(AttributeError):
        CouplingMatrices.gamma  # noqa: B018  (gamma is a required field with no class value)


def full_pair_loop(positions, pol, kernel, diagonal):
    # reference pair loop: each row block against every column, then the strict upper
    # triangle mirrored onto the lower one
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    out = np.empty((n, n))
    for start in range(0, n, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, n)
        local = np.arange(start, stop)
        out[start:stop] = coupling._kernel_values(pos[start:stop, None, :] - pos[None, :, :],
                                                  (local - start, local), pol, kernel,
                                                  lambda b: (int(b[0]) + start, int(b[1])))
    iu = np.triu_indices(n, k=1)
    out[(iu[1], iu[0])] = out[iu]
    np.fill_diagonal(out, diagonal)
    return out


@pytest.mark.parametrize("kernel, diagonal", [(_gamma_kernel, GAMMA0), (_j_kernel, 0.0)],
                         ids=["gamma", "j"])
@pytest.mark.parametrize("n", [1, PAIR_BLOCK - 1, PAIR_BLOCK, PAIR_BLOCK + 1,
                               3 * PAIR_BLOCK + 5])
def test_triangle_pair_loop_matches_the_full_one(n, kernel, diagonal):
    pos = np.random.default_rng(n).uniform(0.0, 3.0, (n, 3))
    expected = full_pair_loop(pos, OBLIQUE, kernel, diagonal)
    assert _pair_matrix(pos, OBLIQUE, kernel, diagonal).tobytes() == expected.tobytes()


def test_triangle_pair_loop_reports_the_same_coincident_pair():
    # two coincident pairs: rows PAIR_BLOCK + 1 and 3 * PAIR_BLOCK + 2 in different row
    # blocks, and a pair inside a later block with the smaller second atom. Both loops name
    # the first pair in row-major order.
    n = 3 * PAIR_BLOCK + 5
    pos = np.random.default_rng(1).uniform(0.0, 3.0, (n, 3))
    pos[3 * PAIR_BLOCK + 2] = pos[PAIR_BLOCK + 1]
    pos[2 * PAIR_BLOCK + 3] = pos[2 * PAIR_BLOCK + 1]
    found = []
    for loop in (_pair_matrix, full_pair_loop):
        with pytest.raises(CoincidentEmittersError) as err:
            loop(pos, OBLIQUE, _gamma_kernel, GAMMA0)
        found.append(err.value.indices)
    assert found == [(PAIR_BLOCK + 1, 3 * PAIR_BLOCK + 2)] * 2


def kernel_points(monkeypatch, array):
    # separations the Gamma kernel is evaluated on in one build of `array`
    seen = []

    def spy(x, c2):
        seen.append(np.size(x))
        return kernel(x, c2)

    kernel = coupling._gamma_kernel
    monkeypatch.setattr(coupling, "_gamma_kernel", spy)
    gamma = build_coupling_matrices(array).gamma
    return sum(seen), gamma


def test_ordered_build_is_one_kernel_call_per_offset(monkeypatch):
    arr = generate_lattice(LatticeSpec(dimension=2, n_per_axis=6, spacing=0.3))
    points, _ = kernel_points(monkeypatch, arr)
    assert points == (11**2 + 1) // 2  # offsets m and -m share one value; m = 0 is the diagonal


def test_perturbed_handbuilt_array_takes_pair_loop(monkeypatch):
    spec = LatticeSpec(dimension=2, n_per_axis=4, spacing=0.3, polarization=OBLIQUE)
    pos = generate_lattice(spec).positions.copy()
    pos[5, 0] += 1e-9
    arr = AtomArray(positions=pos, source_spec=spec)  # disorder_eta = 0, yet off the lattice
    points, gamma = kernel_points(monkeypatch, arr)
    assert points == 16**2
    assert np.array_equal(gamma, build_coupling_from_positions(pos, OBLIQUE).gamma)
    np.testing.assert_array_equal(build_export_matrices(arr).jmat,
                                  _pair_matrix(pos, OBLIQUE, _j_kernel, 0.0))


def test_disordered_array_takes_pair_loop():
    spec = LatticeSpec(dimension=2, n_per_axis=4, spacing=0.3, disorder_eta=0.05, seed=3)
    arr = build_array(spec)
    assert np.array_equal(build_coupling_matrices(arr).gamma,
                          build_coupling_from_positions(arr.positions, spec.pol_vector).gamma)


@pytest.mark.parametrize("perturb", [False, True], ids=["ordered", "pair-loop"])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_coincident_lattice_rejected_on_both_paths(dimension, perturb):
    spec = LatticeSpec(dimension=dimension, n_per_axis=3, spacing=1e-13)
    pos = generate_lattice(spec).positions.copy()
    if perturb:
        pos[-1, 2] += 1e-14
    with pytest.raises(CoincidentEmittersError) as err:
        build_coupling_matrices(AtomArray(positions=pos, source_spec=spec))
    i, j = err.value.indices
    assert i != j and np.linalg.norm(pos[i] - pos[j]) <= COINCIDENT_TOL


def test_csv_roundtrip(tmp_path):
    mats = chain_mats(4, 0.37, (0, 0, 1.0), build=build_export_matrices)
    path = tmp_path / "coupling.csv"
    write_coupling_csv(mats, path)
    header = path.read_text().splitlines()[0]
    assert header == "i,j,gamma,jcoupling"
    back = read_coupling_csv(path)
    np.testing.assert_allclose(back.gamma, mats.gamma, rtol=1e-15)
    np.testing.assert_allclose(back.jmat, mats.jmat, rtol=1e-15)


def savetxt_csv(mats, path):
    # the writer's former np.savetxt call, kept as the byte-level oracle
    pairs = np.divmod(np.arange(mats.n**2), mats.n)
    table = np.column_stack([*pairs, mats.gamma.ravel(), mats.jmat.ravel()])
    np.savetxt(path, table, fmt=["%d", "%d", "%.17g", "%.17g"], delimiter=",",
               header="i,j,gamma,jcoupling", comments="")


def hand_built_export():
    # negative entries, 1e-300, 1e16 and negative zeros
    gamma = np.array([[1.0, -0.25, 1e-300], [-0.25, 1.0, 1e16], [1e-300, 1e16, 1.0]])
    jmat = np.array([[-0.0, -1e16, 0.0], [-1e16, -0.0, -3.5e-7], [0.0, -3.5e-7, -0.0]])
    return CouplingMatrices(gamma=gamma, gamma0=1.0, n=3, jmat=jmat)


@pytest.mark.parametrize("make", [
    lambda: chain_mats(1, 0.4, (0, 0, 1.0), build=build_export_matrices),
    lambda: build_export_matrices(build_array(LatticeSpec(
        dimension=2, n_per_axis=5, spacing=0.37, polarization=(0.6, 0.0, 0.8),
        disorder_eta=0.05, seed=11))),
    hand_built_export,
    lambda: chain_mats(PAIR_BLOCK + 1, 0.37, (0, 0, 1.0), build=build_export_matrices),
    lambda: build_export_matrices(build_array(LatticeSpec(
        dimension=3, n_per_axis=3, spacing=0.4, polarization=(0.0, 0.0, 1.0)))),
    lambda: build_export_matrices(build_array(LatticeSpec(
        dimension=1, n_per_axis=PAIR_BLOCK + 1, spacing=0.3, polarization=(1.0, 0.0, 0.0),
        disorder_eta=0.05, seed=4))),
], ids=["n1", "disordered-2d", "hand-built", "ordered-chain-block+1", "ordered-3d",
        "disordered-chain-block+1"])
def test_csv_bytes_match_savetxt(tmp_path, make):
    mats = make()
    write_coupling_csv(mats, tmp_path / "new.csv")
    savetxt_csv(mats, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = read_coupling_csv(tmp_path / "new.csv")
    for got, want in ((back.gamma, mats.gamma), (back.jmat, mats.jmat)):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:4] + ["1,9,1,0"],  # the (1, 1) row with j out of range
    lambda lines: lines[:2] + ["0,0,0.1,0"] + lines[3:],  # a second (0, 0) row for (0, 1)
], ids=["index-out-of-range", "duplicate-row"])
def test_csv_reader_requires_row_major_listing(tmp_path, edit):
    path = tmp_path / "coupling.csv"
    write_coupling_csv(chain_mats(2, 0.37, (0, 0, 1.0), build=build_export_matrices), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(PhysicsValidationError):
        read_coupling_csv(path)


def tobytes_binary(matrix):
    # the writer's former header + tobytes() copy, kept as the byte-level oracle
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    return b"CDMATRX1" + struct.pack("<Q", matrix.shape[0]) + matrix.tobytes()


def test_binary_roundtrip(tmp_path):
    for matrix in (chain_mats(5, 0.29, (1.0, 0, 0)).gamma,
                   chain_mats(PAIR_BLOCK + 1, 0.29, (1.0, 0, 0), build=build_export_matrices).jmat,
                   np.random.default_rng(2).standard_normal((4, 4)).T,  # Fortran order: copied
                   np.eye(3, dtype=int)):  # cast to float64
        n = matrix.shape[0]
        path = tmp_path / "gamma.bin"
        write_matrix_binary(matrix, path)
        assert path.stat().st_size == 16 + 8 * n * n
        assert path.read_bytes() == tobytes_binary(matrix)
        back = read_matrix_binary(path)
        assert back.dtype == np.float64 and back.flags.c_contiguous and back.flags.writeable
        np.testing.assert_array_equal(back, matrix)


@pytest.mark.parametrize("payload", [
    b"CDMATRX1\x02\x00",  # the header N cut short
    b"CDMATRX1" + struct.pack("<Q", 2) + bytes(33),  # a partial float
    b"CDMATRX1" + struct.pack("<Q", 2) + bytes(40),  # a float too many
    b"CDMATRX1" + struct.pack("<Q", 2) + bytes(24),  # a float too few
    b"CDMATRX1" + struct.pack("<Q", 2**40) + bytes(32),  # N^2 past any file here
    b"CDMATRX1" + struct.pack("<Q", 2**63) + bytes(32),
    b"CDMATRX2" + struct.pack("<Q", 2) + bytes(32),
    b"",
], ids=["short-header", "partial-float", "extra-float", "missing-float", "huge-n", "huger-n",
        "bad-magic", "empty"])
def test_binary_reader_refuses_malformed_files(tmp_path, payload):
    path = tmp_path / "bad.bin"
    path.write_bytes(payload)
    with pytest.raises(PhysicsValidationError, match="matrix file"):
        read_matrix_binary(path)


def test_csv_writer_streams_rows(tmp_path):
    # no N^2-long list or string: the traced peak stays far below the 11 MiB of four
    # N^2-long Python lists at N = 300
    mats = chain_mats(300, 0.37, (0, 0, 1.0), build=build_export_matrices)
    assert mats.gamma.shape == mats.jmat.shape == (300, 300)  # both built before tracing
    tracemalloc.start()
    try:
        write_coupling_csv(mats, tmp_path / "coupling.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_binary_ingest_holds_one_matrix(tmp_path):
    # reading and validating a gamma file holds the matrix, one (PAIR_BLOCK, N) float block
    # and the (PAIR_BLOCK, N) finite mask, not a bytes copy or an N x N difference
    n = 300
    path = tmp_path / "gamma.bin"
    write_matrix_binary(chain_mats(n, 0.29, (1.0, 0, 0)).gamma, path)
    tracemalloc.start()
    try:
        mats = validated_coupling(read_matrix_binary(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mats.n == n
    assert peak <= 8 * n * n + 9 * n * PAIR_BLOCK + 2**16


def symmetric_test_matrix(n):
    g = np.random.default_rng(n).standard_normal((n, n))
    return g + g.T


@pytest.mark.parametrize("n, where", [
    (PAIR_BLOCK + 1, lambda n: (n - 1, 0)),
    (2 * PAIR_BLOCK + 3, lambda n: (n - 1, n - 2)),  # both in the last, partial row block
    (2 * PAIR_BLOCK + 3, lambda n: (0, n - 1)),
], ids=["last-row-first-column", "inside-last-block", "first-row-last-column"])
def test_symmetry_check_reaches_every_row_block(n, where):
    g = symmetric_test_matrix(n)
    g[where(n)] += 0.5e-12
    check_symmetric_matrix(g)  # within atol 1e-12
    g[where(n)] += 1.5e-12
    with pytest.raises(PhysicsValidationError, match="asymmetric"):
        check_symmetric_matrix(g)


def centrosymmetric_test_matrix(n):
    g = symmetric_test_matrix(n)
    return g + g[::-1, ::-1]


@pytest.mark.parametrize("n", [1, 2, PAIR_BLOCK, PAIR_BLOCK + 1, 3 * PAIR_BLOCK + 5])
def test_centrosymmetric_is_exact_reversal(n):
    # one change of a few ulp in row N - 1, at N = PAIR_BLOCK + 1 the last, partial row block
    g = centrosymmetric_test_matrix(n)
    assert centrosymmetric(g) and centrosymmetric(g[::-1, ::-1])
    g[n - 1, 0] += 1e-15 * max(1.0, abs(g[n - 1, 0]))
    assert centrosymmetric(g) == (n == 1)


def test_centrosymmetry_check_holds_one_row_block():
    # one (PAIR_BLOCK, N) bool block at a time, not the N x N comparison
    n = 600
    g = centrosymmetric_test_matrix(n)
    tracemalloc.start()
    try:
        assert centrosymmetric(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * PAIR_BLOCK * n + 2**16 < n * n


@pytest.mark.parametrize("where", [
    lambda n: (0, 0), lambda n: (n - 1, n - 1), lambda n: (PAIR_BLOCK, 1), lambda n: (1, n - 1),
], ids=["first", "last", "second-block", "last-column"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_anywhere_is_named(where, bad):
    n = 2 * PAIR_BLOCK + 3
    g = symmetric_test_matrix(n)
    g[0, 1] += 1.0  # an asymmetry in the first row block does not hide it
    g[where(n)] = bad
    with pytest.raises(PhysicsValidationError, match="non-finite"):
        check_symmetric_matrix(g)
