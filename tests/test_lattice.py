
import numpy as np
import pytest

from corrdecay import bounds, kspace, lattice
from corrdecay.errors import ConfigError, PhysicsValidationError
from corrdecay.lattice import (
    LatticeSpec,
    apply_position_disorder,
    build_array,
    generate_lattice,
)
from corrdecay.sweep import SweepPlan


def spec(dim, n, d, **kw):
    kw.setdefault("polarization", (1.0, 0.0, 0.0))
    return LatticeSpec(dimension=dim, n_per_axis=n, spacing=d, **kw)


def test_chain_positions():
    arr = generate_lattice(spec(1, 3, 0.5))
    expected = np.array([[0, 0, 0.0], [0, 0, 0.5], [0, 0, 1.0]])
    np.testing.assert_array_equal(arr.positions, expected)


def test_square_positions():
    arr = generate_lattice(spec(2, 2, 0.4))
    assert arr.n_atoms == 4
    assert np.all(arr.positions[:, 2] == 0.0)
    dists = np.linalg.norm(arr.positions[:, None] - arr.positions[None, :], axis=2)
    offdiag = dists[~np.eye(4, dtype=bool)]
    assert np.isclose(offdiag.min(), 0.4)
    assert np.isclose(offdiag.max(), 0.4 * np.sqrt(2))


def test_cube_positions():
    arr = generate_lattice(spec(3, 2, 0.3))
    assert arr.n_atoms == 8
    dists = np.linalg.norm(arr.positions[:, None] - arr.positions[None, :], axis=2)
    offdiag = dists[~np.eye(8, dtype=bool)]
    assert np.isclose(offdiag.min(), 0.3)
    assert np.isclose(offdiag.max(), 0.3 * np.sqrt(3))


def test_generate_is_pure():
    s = spec(2, 5, 0.37)
    a1 = generate_lattice(s)
    a2 = generate_lattice(s)
    np.testing.assert_array_equal(a1.positions, a2.positions)


def test_invalid_specs_rejected():
    with pytest.raises(ConfigError):
        spec(4, 2, 0.4)
    with pytest.raises(ConfigError):
        spec(1, 0, 0.4)
    with pytest.raises(ConfigError):
        spec(1, 2, -0.1)
    with pytest.raises(ConfigError):
        LatticeSpec(dimension=1, n_per_axis=2, spacing=0.4, polarization=(1.0, 1.0, 0.0))
    with pytest.raises(ConfigError):
        spec(1, 2, 0.4, disorder_eta=-0.01)
    # NaN fails each rule, as each is written as what a valid value satisfies
    with pytest.raises(ConfigError, match="polarization"):
        LatticeSpec(dimension=1, n_per_axis=2, spacing=0.4, polarization=(np.nan, 0.0, 0.0))
    with pytest.raises(ConfigError, match="disorder_eta"):
        spec(1, 2, 0.4, disorder_eta=np.nan)
    with pytest.raises(ConfigError, match="disorder_eta"):
        apply_position_disorder(generate_lattice(spec(1, 2, 0.4)), np.nan, 7)


def test_zero_disorder_is_identity():
    arr = generate_lattice(spec(1, 5, 0.4))
    assert apply_position_disorder(arr, 0.0, 7) is arr


def test_disorder_sample_std():
    # per-axis displacement std should track eta * d (law of large numbers)
    arr = generate_lattice(spec(1, 1000, 0.4))
    noisy = apply_position_disorder(arr, 0.05, 1)
    disp = noisy.positions - arr.positions
    target = 0.05 * 0.4
    for axis in range(3):
        assert abs(disp[:, axis].std() - target) < 0.05 * target


def test_disorder_mean_displacement_small():
    arr = generate_lattice(spec(2, 100, 0.3))  # 1e4 atoms
    noisy = apply_position_disorder(arr, 0.08, 3)
    disp = noisy.positions - arr.positions
    sigma = 0.08 * 0.3
    bound = 3.0 * sigma / np.sqrt(arr.n_atoms)
    assert np.all(np.abs(disp.mean(axis=0)) < bound)
    assert noisy.n_atoms == arr.n_atoms


def test_disorder_deterministic_per_seed():
    arr = generate_lattice(spec(1, 50, 0.4))
    a = apply_position_disorder(arr, 0.05, 11)
    b = apply_position_disorder(arr, 0.05, 11)
    np.testing.assert_array_equal(a.positions, b.positions)
    c = apply_position_disorder(arr, 0.05, 12)
    assert not np.array_equal(a.positions, c.positions)


def test_disorder_is_isotropic_even_for_chains():
    arr = generate_lattice(spec(1, 2000, 0.4))
    noisy = apply_position_disorder(arr, 0.05, 9)
    disp = noisy.positions - arr.positions
    # all three coordinates move, not just the chain axis
    assert all(disp[:, axis].std() > 0.01 for axis in range(3))


def test_build_array_applies_spec_disorder():
    s = spec(1, 20, 0.4, disorder_eta=0.03, seed=5)
    arr = build_array(s)
    ordered = generate_lattice(s)
    assert not np.array_equal(arr.positions, ordered.positions)
    np.testing.assert_array_equal(
        arr.positions, apply_position_disorder(ordered, 0.03, 5).positions
    )


def test_spec_json_roundtrip():
    s = spec(2, 7, 0.31, disorder_eta=0.02, seed=99)
    s2 = LatticeSpec.from_json(s.to_json())
    assert s2 == s
    with pytest.raises(ConfigError):
        LatticeSpec.from_json('{"dimension": 1, "n_per_axis": 2, "spacing": 0.4, "bogus": 1}')
    with pytest.raises(ConfigError):
        LatticeSpec.from_json('{"dimension": 1}')


@pytest.mark.parametrize("text, field", [
    ('{"dimension": 1, "n_per_axis": "3", "spacing": 0.4}', "n_per_axis"),
    ('{"dimension": 1, "n_per_axis": 2.5, "spacing": 0.4}', "n_per_axis"),
    ('{"dimension": 1, "n_per_axis": 3, "spacing": 0.4, "polarization": ["a", "b", "c"]}',
     "polarization"),
    ('{"dimension": true, "n_per_axis": 3, "spacing": 0.4}', "dimension"),
    ('{"dimension": 1, "n_per_axis": 3, "spacing": 0.4, "seed": 1.5}', "seed"),
    ('{"dimension": 1, "n_per_axis": 3, "spacing": "0.4"}', "spacing"),
    ('{"dimension": 1, "n_per_axis": 3, "spacing": 0.4, "disorder_eta": false}', "disorder_eta"),
    ('{"dimension": 1, "n_per_axis": 3, "spacing": 0.4, "polarization": [true, false, false]}',
     "polarization"),
    ('{"dimension": 1, "n_per_axis": 3, "spacing": 0.4, "polarization": [1, [0, 0], 0]}',
     "polarization"),
    ('[1, 2]', "object"),
    ('{"dimension": 1, "n_per_axis": 3, "spacing": 1%s}' % ("0" * 400), "spacing"),
    ('{"dimension": 1, "n_per_axis": 3, "spacing": 0.4, "disorder_eta": 1%s}' % ("0" * 400),
     "disorder_eta"),
], ids=["n_per_axis-str", "n_per_axis-float", "polarization-str", "dimension-bool", "seed-float",
        "spacing-str", "disorder_eta-bool", "polarization-bool", "polarization-ragged",
        "not-an-object", "spacing-past-float", "disorder_eta-past-float"])
def test_spec_fields_are_type_checked(text, field):
    # each is refused by a ConfigError naming the field, before any array is built
    with pytest.raises(ConfigError, match=field):
        LatticeSpec.from_json(text)


X = (1.0, 0.0, 0.0)


@pytest.mark.parametrize("call, field", [
    (lambda: lattice.check_geometry(True, 0.4), "dimension"),
    (lambda: lattice.check_geometry(2.0, 0.4), "dimension"),
    (lambda: lattice.check_geometry(1, True), "spacing"),
    (lambda: lattice.check_geometry(1, "0.4"), "spacing"),
    (lambda: lattice.check_geometry(1, 10**400), "spacing"),
    (lambda: bounds.crossover_n_crit(2, "0.3"), "spacing"),
    (lambda: bounds.markov_limit(True, 0.3), "dimension"),
    (lambda: kspace.asymptotic_prefactors(True, 0.3), "dimension"),
    (lambda: kspace.gamma_max_finite_grid(True, 0.3, "parallel", 8), "dimension"),
    (lambda: SweepPlan(dimension=True, spacing=0.4, polarization=X, n_1d_values=[3, 4, 5]),
     "dimension"),
], ids=["bool-dimension", "float-dimension", "bool-spacing", "str-spacing", "past-float-spacing",
        "crossover-str-spacing", "markov-bool-dimension", "prefactors-bool-dimension",
        "finite-grid-bool-dimension", "sweep-plan-bool-dimension"])
def test_geometry_fields_are_type_checked(call, field):
    # every reader of a dimension and spacing refuses a bool, a float dimension, a string or a
    # number past the float range with a ConfigError naming the field, not a TypeError or a
    # number computed from it
    with pytest.raises(ConfigError, match=field):
        call()


def test_spec_accepts_numpy_scalars_and_integer_reals():
    s = LatticeSpec(dimension=np.int64(2), n_per_axis=np.int32(3), spacing=1,
                    polarization=np.array([0, 0, 1]), disorder_eta=np.float64(0.0),
                    seed=np.uint64(4))
    assert s.n_atoms == 9 and s.polarization == (0.0, 0.0, 1.0)


class _Displacements:
    """Stands in for the disorder generator: returns fixed displacements."""

    def __init__(self, offsets):
        self.offsets = offsets

    def normal(self, loc, scale, size):
        assert self.offsets.shape == size
        return self.offsets


@pytest.mark.parametrize("dim,n,moved,target", [(1, 3, 1, 0), (2, 3, 0, 8), (3, 2, 6, 1)])
def test_disorder_rejects_coincident_draw(monkeypatch, dim, n, moved, target):
    # a draw that carries one emitter exactly onto another is rejected, not repaired
    ordered = generate_lattice(spec(dim, n, 0.5))
    assert apply_position_disorder(ordered, 0.1, 7).n_atoms == ordered.n_atoms  # a normal draw
    offsets = np.zeros_like(ordered.positions)
    offsets[moved] = ordered.positions[target] - ordered.positions[moved]
    monkeypatch.setattr(lattice, "_rng", lambda seed, *subkeys: _Displacements(offsets))
    with pytest.raises(PhysicsValidationError, match="coincident emitters"):
        apply_position_disorder(ordered, 0.1, 7)
    # a near miss is distinct points here; the coupling build's COINCIDENT_TOL check owns it
    offsets[moved, 0] += 1e-15
    near = apply_position_disorder(ordered, 0.1, 7)
    assert not np.array_equal(near.positions[moved], near.positions[target])

