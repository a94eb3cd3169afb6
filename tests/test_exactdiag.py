import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dicke_mats,
    dicke_rstar,
    full_space_hamiltonian,
    mats_from_gamma,
    random_unit_diag_psd,
)
from corrdecay.coupling import CouplingMatrices, build_coupling_matrices
from corrdecay.errors import ConfigError, PhysicsValidationError, SolverConvergenceError
from corrdecay.exactdiag import (
    MAX_QUBITS,
    SectorBasis,
    build_sector_dense,
    exact_rstar,
    haar_rate_samples,
    lanczos_largest,
    sector_matvec,
)
from corrdecay.lattice import LatticeSpec, _rng, generate_lattice


def chain_mats(n, d=0.2, pol=(1.0, 0, 0)):
    spec = LatticeSpec(dimension=1, n_per_axis=n, spacing=d, polarization=pol)
    return build_coupling_matrices(generate_lattice(spec))


def test_sector_sizes():
    basis = SectorBasis.build(6, 2)
    assert basis.dim == 15
    assert np.all(np.diff(basis.states.astype(np.int64)) > 0)
    with pytest.raises(ConfigError):
        SectorBasis.build(4, 5)


@pytest.mark.parametrize("n", range(13))
def test_build_matches_combinations(n):
    # the former Python enumeration, kept as a reference: sorted masks of every subset
    for m_ground in range(n + 1):
        masks = [sum(1 << b for b in bits) for bits in itertools.combinations(range(n), n - m_ground)]
        states = SectorBasis.build(n, m_ground).states
        assert states.dtype == np.uint64
        np.testing.assert_array_equal(states, np.sort(np.asarray(masks, dtype=np.uint64)))


def test_two_atom_dicke_sector_matrix():
    mats = dicke_mats(2)
    basis = SectorBasis.build(2, 1)
    h = build_sector_dense(mats, basis)
    np.testing.assert_allclose(h, [[1.0, 1.0], [1.0, 1.0]])
    assert np.isclose(np.linalg.eigvalsh(h)[-1], 2.0)


def test_extreme_sectors():
    mats = chain_mats(5)
    full = SectorBasis.build(5, 0)  # fully excited
    assert full.dim == 1
    assert np.isclose(sector_matvec(mats, full, np.ones(1))[0], 5.0)
    ground = SectorBasis.build(5, 5)
    assert np.isclose(sector_matvec(mats, ground, np.ones(1))[0], 0.0)


def test_matvec_matches_dense(rng):
    mats = mats_from_gamma(random_unit_diag_psd(6, rng))
    for m_ground in range(7):
        basis = SectorBasis.build(6, m_ground)
        h = build_sector_dense(mats, basis)
        for _ in range(3):
            v = rng.standard_normal(basis.dim)
            np.testing.assert_allclose(sector_matvec(mats, basis, v), h @ v, atol=1e-12)


def reference_sector_dense(gamma, basis):
    """The former hand-written double loop over (j, i) hops, kept as a reference."""
    states = basis.states
    occ = [((states >> np.uint64(i)) & np.uint64(1)).astype(bool) for i in range(basis.n)]
    h = np.zeros((basis.dim, basis.dim))
    diag = np.zeros(basis.dim)
    for i in range(basis.n):
        diag += np.where(occ[i], gamma[i, i], 0.0)
    h[np.arange(basis.dim), np.arange(basis.dim)] = diag
    for j in range(basis.n):
        for i in range(basis.n):
            src = occ[j] & ~occ[i]
            if i == j or not src.any():
                continue
            moved = (states[src] ^ np.uint64(1 << j)) | np.uint64(1 << i)
            h[basis.position(moved), np.flatnonzero(src)] += gamma[i, j]
    return h


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_sector_operator_property(n, seed):
    rng = np.random.default_rng(seed)
    g = random_unit_diag_psd(n, rng)
    g = 0.5 * (g + g.T)
    mats = mats_from_gamma(g)
    full = full_space_hamiltonian(g) if n <= 6 else None
    for m_ground in range(n + 1):
        basis = SectorBasis.build(n, m_ground)
        h = build_sector_dense(mats, basis)
        np.testing.assert_array_equal(h, reference_sector_dense(g, basis))
        np.testing.assert_array_equal(h, h.T)
        block = rng.standard_normal((basis.dim, 3)) + 1j * rng.standard_normal((basis.dim, 3))
        np.testing.assert_allclose(sector_matvec(mats, basis, block), h @ block, atol=1e-12)
        if full is not None:
            idx = basis.states.astype(np.int64)
            np.testing.assert_allclose(h, full[np.ix_(idx, idx)], atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_particle_hole_pairing_property(n, seed):
    # flipping every qubit: spec(m) = spec(n - m) + gamma0 (n - 2m), checked densely
    g = random_unit_diag_psd(n, np.random.default_rng(seed))
    mats = mats_from_gamma(0.5 * (g + g.T))
    top = [np.linalg.eigvalsh(build_sector_dense(mats, SectorBasis.build(n, m)))[-1]
           for m in range(n + 1)]
    for m in range(n + 1):
        partner = top[n - m] + mats.gamma[0, 0] * (n - 2 * m)
        assert abs(top[m] - partner) <= 1e-12 * max(1.0, abs(top[m]))


def all_sector_dense_max(mats):
    """Top eigenvalue of every sector, each solved densely: the reference for the pairing."""
    return [float(np.linalg.eigvalsh(build_sector_dense(mats, SectorBasis.build(mats.n, m)))[-1])
            for m in range(mats.n + 1)]


@pytest.mark.parametrize("n", [7, 8])
def test_per_sector_max_matches_all_sector_solve(n, rng):
    for mats in (chain_mats(n), mats_from_gamma(random_unit_diag_psd(n, rng)), dicke_mats(n)):
        res = exact_rstar(mats)
        reference = all_sector_dense_max(mats)
        np.testing.assert_allclose(res.per_sector_max, reference, rtol=1e-12, atol=1e-12)
        assert res.argmax_sector <= n // 2
        assert res.rstar_exact == res.per_sector_max[res.argmax_sector] == max(res.per_sector_max)


def test_exact_rstar_solves_half_the_sectors(monkeypatch):
    built = []
    build = SectorBasis.build

    def counted(n, m_ground):
        built.append(m_ground)
        return build(n, m_ground)

    monkeypatch.setattr(SectorBasis, "build", counted)
    res = exact_rstar(chain_mats(12))
    assert built == list(range(7))
    assert len(res.per_sector_max) == 13


@pytest.mark.parametrize("n", range(10, 15))
def test_lanczos_matches_eigvalsh_on_chain_sectors(n):
    mats = chain_mats(n)
    for m_ground in (n // 2 - 1, n // 2):
        basis = SectorBasis.build(n, m_ground)
        exact = np.linalg.eigvalsh(build_sector_dense(mats, basis))[-1]
        value, _ = lanczos_largest(lambda v: sector_matvec(mats, basis, v), basis.dim, seed=7)
        assert abs(value - exact) <= 1e-10 * exact


@pytest.mark.parametrize("n", range(1, 9))
def test_matvec_matches_reference(n, rng):
    # against the reference double loop, not the shared hop table: one real and one
    # complex vector, and one complex (dim, k) block
    g = random_unit_diag_psd(n, rng)
    mats = mats_from_gamma(g)
    for m_ground in range(n + 1):
        basis = SectorBasis.build(n, m_ground)
        h = reference_sector_dense(g, basis)
        real = rng.standard_normal(basis.dim)
        block = rng.standard_normal((basis.dim, 4)) + 1j * rng.standard_normal((basis.dim, 4))
        for v in (real, real + 1j * rng.standard_normal(basis.dim), block):
            out = sector_matvec(mats, basis, v)
            assert out.shape == v.shape and out.dtype == v.dtype
            np.testing.assert_allclose(out, h @ v, atol=1e-12)


def test_hop_table_built_once(monkeypatch):
    # the table is the only caller of position(), once per excited-qubit row: 8x the matvecs
    # must not look up more states
    calls = []
    position = SectorBasis.position

    def counted(self, mask):
        calls.append(np.size(mask))
        return position(self, mask)

    monkeypatch.setattr(SectorBasis, "position", counted)
    mats = chain_mats(10)
    seen = []
    for matvecs in (5, 40):
        basis = SectorBasis.build(10, 5)
        calls.clear()
        v = np.ones(basis.dim)
        for _ in range(matvecs):
            sector_matvec(mats, basis, v)
        seen.append(list(calls))
    assert seen == [[252] * 5, [252] * 5]


@pytest.mark.parametrize("n", [14, 16])
def test_hop_tables_stay_int32_and_matvec_memory_is_bounded(n):
    # the two int32 tables are the only per-sector storage, and one real-vector matvec on the
    # middle sector allocates under twice the amplitude count they index, in float64
    mats = chain_mats(n)
    mats.gamma  # built on first read; not part of the matvec
    basis = SectorBasis.build(n, n // 2)
    down, up = basis.hops
    n_exc, dim_below = n - n // 2, SectorBasis.build(n, n // 2 + 1).dim
    assert down.dtype == up.dtype == np.int32
    assert down.shape == (n, dim_below) and up.shape == (n_exc, basis.dim)
    assert down.flags.c_contiguous and up.flags.c_contiguous
    v = np.ones(basis.dim)
    tracemalloc.start()
    try:
        sector_matvec(mats, basis, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (n * dim_below + n_exc * basis.dim) * 8


def test_hop_table_build_transients_are_bounded():
    # the tables are built one excited-qubit row at a time, so the build peaks at a few
    # sector-length vectors above the int32 tables it returns
    basis = SectorBasis.build(18, 9)
    tracemalloc.start()
    try:
        down, up = basis.hops
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * (down.nbytes + up.nbytes)


def test_lanczos_unconverged_raises():
    # max_iter < dim steps without convergence is an error, not a silent Ritz value
    mats = chain_mats(10)
    basis = SectorBasis.build(10, 5)
    with pytest.raises(SolverConvergenceError):
        lanczos_largest(lambda v: sector_matvec(mats, basis, v), basis.dim, max_iter=5, seed=0)


def bad_gamma_mats(case):
    gamma = np.eye(4)
    if case == "asymmetric":
        gamma[0, 1] = 0.9
    elif case == "nonuniform-diagonal":
        gamma[3, 3] = 1.5
    else:
        gamma[1, 2] = gamma[2, 1] = np.nan
    return mats_from_gamma(gamma)


@pytest.mark.parametrize("case", ["asymmetric", "nan", "shape", "nonuniform-diagonal"])
def test_gamma_validated_before_sector_work(case, monkeypatch):
    def no_sector_work(*args):
        raise AssertionError("a sector basis was built before gamma was checked")

    monkeypatch.setattr(SectorBasis, "build", no_sector_work)
    if case == "shape":  # a 5 x 5 matrix that says it holds 4 qubits: refused at construction
        with pytest.raises(PhysicsValidationError):
            CouplingMatrices(gamma=np.eye(5), gamma0=1.0, n=4)
        return
    mats = bad_gamma_mats(case)
    for force_method in (None, "dense", "lanczos"):
        with pytest.raises(PhysicsValidationError):
            exact_rstar(mats, force_method=force_method)
    with pytest.raises(PhysicsValidationError):
        haar_rate_samples(mats, 10, seed=0)


def test_matvec_hermitian(rng):
    mats = chain_mats(7)
    basis = SectorBasis.build(7, 3)
    for _ in range(5):
        u = rng.standard_normal(basis.dim)
        v = rng.standard_normal(basis.dim)
        lhs = float(u @ sector_matvec(mats, basis, v))
        rhs = float(sector_matvec(mats, basis, u) @ v)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_dicke_ladder_values():
    # all-to-all exact maximum: N(N+2)/4 for even N, (N+1)^2/4 for odd N
    for n in range(2, 9):
        res = exact_rstar(dicke_mats(n))
        assert np.isclose(res.rstar_exact, dicke_rstar(n), rtol=1e-10)


def test_noninteracting_argmax_fully_excited():
    res = exact_rstar(mats_from_gamma(np.eye(7)))
    assert np.isclose(res.rstar_exact, 7.0, atol=1e-12)
    assert res.argmax_sector == 0
    np.testing.assert_allclose(res.per_sector_max, np.arange(7, -1, -1), atol=1e-12)


def test_rstar_at_least_trivial(rng):
    for _ in range(5):
        n = int(rng.integers(2, 9))
        res = exact_rstar(mats_from_gamma(random_unit_diag_psd(n, rng)))
        assert res.rstar_exact >= n - 1e-10


def test_witness_bound_vs_spin_wave():
    from corrdecay.bounds import spin_wave_rate
    from corrdecay.spectral import gamma_max_only

    mats = chain_mats(8)
    gmax = gamma_max_only(mats)
    res = exact_rstar(mats)
    for m in range(9):
        assert res.rstar_exact >= spin_wave_rate(m, 8, gmax, 1.0) - 1e-9


def test_lanczos_agrees_with_dense_chain():
    mats = chain_mats(10)
    dense = exact_rstar(mats, force_method="dense")
    lan = exact_rstar(mats, force_method="lanczos")
    assert abs(dense.rstar_exact - lan.rstar_exact) <= 1e-9 * dense.rstar_exact
    assert dense.method == "dense" and lan.method == "lanczos"


def test_lanczos_against_full_space_oracle(rng):
    g = random_unit_diag_psd(8, rng)
    oracle = float(np.linalg.eigvalsh(full_space_hamiltonian(g))[-1])
    res = exact_rstar(mats_from_gamma(g), force_method="lanczos")
    assert abs(res.rstar_exact - oracle) <= 1e-9 * oracle


def test_lanczos_degenerate_sectors():
    # every start vector is an eigenvector of a Gamma = I sector, and Dicke sectors have
    # few distinct levels: Lanczos breaks down early from every start
    n = 8
    assert exact_rstar(mats_from_gamma(np.eye(n)), force_method="lanczos").rstar_exact == \
        pytest.approx(n, rel=1e-12)
    assert exact_rstar(dicke_mats(n), force_method="lanczos").rstar_exact == \
        pytest.approx(dicke_rstar(n), rel=1e-10)


def test_lanczos_kernel_on_explicit_matrix(rng):
    a = rng.standard_normal((40, 40))
    h = 0.5 * (a + a.T)
    top, _ = lanczos_largest(lambda v: h @ v, 40, seed=3)
    assert np.isclose(top, np.linalg.eigvalsh(h)[-1], atol=1e-9)


def test_size_guard():
    with pytest.raises(ConfigError):
        exact_rstar(mats_from_gamma(np.eye(MAX_QUBITS + 1)))


def test_haar_single_qubit_half_excitation():
    stats = haar_rate_samples(mats_from_gamma(np.eye(1)), 500, seed=4)
    # Haar-average excited population is 1/2; |c_e|^2 is uniform on [0, 1]
    se = np.sqrt(1.0 / 12.0 / 500.0)
    assert abs(stats.mean - 0.5) < 4 * se


def test_haar_mean_tracks_half_n():
    mats = chain_mats(8, d=0.25)
    stats = haar_rate_samples(mats, 200, seed=1)
    assert abs(stats.mean - 4.0) < 0.02 * 4.0
    assert stats.min < stats.mean < stats.max


@pytest.mark.parametrize("n, d, n_samples, seed, mean, std", [
    (8, 0.25, 200, 1, 3.9959571202124007, 0.11556845219307052),
    (13, 0.2, 3, 5, 6.49585267386725, 0.03714303982368221),
])
def test_haar_pinned_statistics(n, d, n_samples, seed, mean, std):
    # recorded before the samples were batched: the random draw order is unchanged
    stats = haar_rate_samples(chain_mats(n, d=d), n_samples, seed=seed)
    assert stats.mean == pytest.approx(mean, rel=1e-12)
    assert stats.std == pytest.approx(std, rel=1e-12)


@pytest.mark.parametrize("n, seed", [(1, 3), (4, 11), (8, 2)])
def test_haar_rate_matches_sector_operator(n, seed):
    # the coherence-matrix rate against sum_m <psi_m|H_m|psi_m> / |psi|^2 through the sectors
    mats = chain_mats(n)
    x = _rng(seed).standard_normal((2, 2**n))
    psi = x[0] + 1j * x[1]
    total = 0.0
    for m_ground in range(n + 1):
        basis = SectorBasis.build(n, m_ground)
        part = psi[basis.states.astype(np.int64)]
        total += np.vdot(part, sector_matvec(mats, basis, part)).real
    rate = haar_rate_samples(mats, 1, seed=seed).mean
    assert rate == pytest.approx(total / np.vdot(psi, psi).real, rel=1e-12)


def test_haar_builds_no_sector(monkeypatch):
    def no_sector(*args):
        raise AssertionError("Haar sampling built a sector basis")

    monkeypatch.setattr(SectorBasis, "build", no_sector)
    assert haar_rate_samples(chain_mats(6), 5, seed=0).n_samples == 5


def test_haar_memory_is_a_few_state_vectors():
    # one sample at a time: its (2, N, 2^N) lowered amplitudes dominate
    n = 12
    mats = chain_mats(n)
    mats.gamma  # built on first read; not part of the sampling
    tracemalloc.start()
    try:
        haar_rate_samples(mats, 20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * 2**n * 8


def test_haar_deterministic_per_seed():
    mats = chain_mats(6)
    a = haar_rate_samples(mats, 50, seed=9)
    b = haar_rate_samples(mats, 50, seed=9)
    assert a.mean == b.mean and a.std == b.std


def test_haar_guard():
    with pytest.raises(ConfigError):
        haar_rate_samples(mats_from_gamma(np.eye(15)), 10, seed=0)
    with pytest.raises(ConfigError):
        haar_rate_samples(mats_from_gamma(np.eye(4)), 0, seed=0)


@pytest.mark.parametrize("call, field", [
    (lambda: haar_rate_samples(chain_mats(4), 2.5), "n_samples"),
    (lambda: haar_rate_samples(chain_mats(4), True), "n_samples"),
    (lambda: haar_rate_samples(chain_mats(4), "3"), "n_samples"),
    (lambda: haar_rate_samples(chain_mats(4), 3, seed=1.5), "seed"),
    (lambda: exact_rstar(chain_mats(4), force_method="lanczos", seed=1.5), "seed"),
    (lambda: exact_rstar(chain_mats(4), force_method="lanczos", seed=True), "seed"),
    (lambda: exact_rstar(chain_mats(10), seed=1.5), "seed"),  # every solved sector dense
    (lambda: exact_rstar(chain_mats(11), seed=1.5), "seed"),  # the middle sector by Lanczos
], ids=["haar-float-count", "haar-bool-count", "haar-str-count", "haar-float-seed",
        "exact-float-seed", "exact-bool-seed", "exact-dense-float-seed",
        "exact-lanczos-float-seed"])
def test_sample_count_and_seed_are_type_checked(call, field):
    # a ConfigError naming the field, not a TypeError from numpy or a seed truncated to 1
    with pytest.raises(ConfigError, match=field):
        call()
