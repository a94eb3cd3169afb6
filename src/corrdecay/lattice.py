"""Emitter geometry: D-dimensional square lattices and Gaussian position disorder.

All coordinates are in units of the transition wavelength lambda0, so the
resonant wavenumber is k0 = 2*pi and phase factors are k0*r = 2*pi*r.
Randomness comes from numpy's counter-based Philox generator seeded through
SeedSequence; a given seed fully determines every draw.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, fields, replace
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError, PhysicsValidationError

# 46341^2 overflows signed 32-bit indexing used by dense LAPACK drivers;
# dense storage/eigensolvers are the regime of interest, so hard-stop there.
MAX_ATOMS = 46341


def _rng(seed: int, *subkeys: int) -> np.random.Generator:
    """Philox generator for `seed`, optionally split by integer subkeys."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=tuple(subkeys))
    return np.random.Generator(np.random.Philox(ss))


def _check_number(name, value, kind=Real) -> None:
    """ConfigError naming the field unless value is of kind (Integral or Real; a bool is
    neither) and within the float range."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {kind.__name__.lower()}, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be within the float range") from None


def check_geometry(dimension, spacing) -> None:
    """ConfigError naming the field unless dimension is an integer 1, 2 or 3 and spacing a
    positive finite real number (_check_number)."""
    _check_number("dimension", dimension, Integral)
    if dimension not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {dimension}")
    _check_number("spacing", spacing)
    if not 0 < spacing < np.inf:
        raise ConfigError(f"spacing must be positive and finite, got {spacing}")


def check_disorder(eta) -> None:
    """ConfigError unless the disorder strength eta is a non-negative finite number."""
    if not 0 <= eta < np.inf:
        raise ConfigError(f"disorder_eta must be non-negative and finite, got {eta}")


def unit_polarization(pol) -> tuple[float, float, float]:
    """pol as 3 floats, or ConfigError unless it is a real unit 3-vector (within 1e-12) of
    integers or floats (no bools or strings)."""
    try:
        vec = np.asarray(pol)
    except ValueError:  # a ragged sequence
        vec = np.empty(0)
    if not (vec.dtype.kind in "iuf" and vec.shape == (3,)
            and abs(np.linalg.norm(vec) - 1.0) <= 1e-12):
        raise ConfigError(f"polarization {pol!r} is not a real unit 3-vector (within 1e-12)")
    return tuple(float(c) for c in vec)


@dataclass(frozen=True)
class LatticeSpec:
    """Recipe for a square emitter array.

    dimension: 1 (chain along z), 2 (square array in xy) or 3 (cube).
    n_per_axis: emitters per axis; total N = n_per_axis**dimension.
    spacing: lattice constant d in units of lambda0.
    polarization: real unit 3-vector of the transition dipole.
    disorder_eta: per-coordinate Gaussian displacement std. dev. in units of d.
    seed: 64-bit seed for the disorder draws.
    dimension, n_per_axis and seed must be integers, spacing and disorder_eta real numbers
    within the float range (a bool is neither), else ConfigError naming the field.
    """

    dimension: int
    n_per_axis: int
    spacing: float
    polarization: tuple[float, float, float] = (1.0, 0.0, 0.0)
    disorder_eta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_geometry(self.dimension, self.spacing)
        for name, kind in (("n_per_axis", Integral), ("seed", Integral), ("disorder_eta", Real)):
            _check_number(name, getattr(self, name), kind)
        if self.n_per_axis < 1:
            raise ConfigError(f"n_per_axis must be >= 1, got {self.n_per_axis}")
        if self.n_per_axis**self.dimension > MAX_ATOMS:
            raise ConfigError(
                f"N = {self.n_per_axis}**{self.dimension} exceeds the dense-solver "
                f"ceiling of {MAX_ATOMS} atoms"
            )
        check_disorder(self.disorder_eta)
        object.__setattr__(self, "polarization", unit_polarization(self.polarization))

    @property
    def n_atoms(self) -> int:
        return self.n_per_axis**self.dimension

    @property
    def pol_vector(self) -> np.ndarray:
        return np.asarray(self.polarization, dtype=float)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "LatticeSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid LatticeSpec JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"LatticeSpec JSON must be an object, got {raw!r:.60}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown LatticeSpec keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
        if missing:
            raise ConfigError(f"missing LatticeSpec keys: {sorted(missing)}")
        return cls(**raw)


@dataclass(frozen=True)
class AtomArray:
    """N emitter positions (N x 3, units of lambda0) plus the spec that made them."""

    positions: np.ndarray
    source_spec: LatticeSpec

    def __post_init__(self):
        pos = np.ascontiguousarray(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ConfigError("positions must be an (N, 3) array")
        if pos.shape[0] != self.source_spec.n_atoms:
            raise ConfigError(
                f"position count {pos.shape[0]} does not match spec N = {self.source_spec.n_atoms}"
            )
        object.__setattr__(self, "positions", pos)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]


def axis_columns(dimension: int) -> list:
    """The Cartesian columns that the axes of a D-dim grid fill: chains run along z,
    planes fill xy, cubes fill xyz."""
    return [2] if dimension == 1 else list(range(dimension))


def grid_coordinates(axis, dimension: int) -> np.ndarray:
    """(len(axis)**D, D) coordinates of the square grid with `axis` on each axis; the
    first axis varies slowest."""
    return np.column_stack([m.ravel() for m in np.meshgrid(*[axis] * dimension, indexing="ij")])


def grid_points(axis, dimension: int) -> np.ndarray:
    """grid_coordinates as (len(axis)**D, 3) points, in the columns axis_columns(D)."""
    pos = np.zeros((len(axis) ** dimension, 3))
    pos[:, axis_columns(dimension)] = grid_coordinates(axis, dimension)
    return pos


def generate_lattice(spec: LatticeSpec) -> AtomArray:
    """Ordered positions of `spec`: grid_points of the axis 0, d, ..., (n-1) d, so the
    origin sits at a lattice corner. Pure function of the spec."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range, refused later
        axis = np.arange(spec.n_per_axis, dtype=float) * spec.spacing
    return AtomArray(positions=grid_points(axis, spec.dimension), source_spec=spec)


def apply_position_disorder(array: AtomArray, disorder_eta: float, seed: int) -> AtomArray:
    """Displace every coordinate by an independent Gaussian of std disorder_eta * d.

    Displacements are isotropic in 3D even for 1D/2D lattices (tweezer-style
    position noise). disorder_eta = 0 returns the input unchanged; a fixed
    seed makes the output bit-reproducible. Draws are not clipped, so two
    emitters displaced onto the same point are rejected rather than repaired.
    """
    check_disorder(disorder_eta)
    if disorder_eta == 0:
        return array
    sigma = disorder_eta * array.source_spec.spacing
    offsets = _rng(seed).normal(0.0, sigma, size=array.positions.shape)
    new_spec = replace(array.source_spec, disorder_eta=disorder_eta, seed=seed)
    out = AtomArray(positions=array.positions + offsets, source_spec=new_spec)
    rows = out.positions[np.lexsort(out.positions.T)]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        raise PhysicsValidationError("disorder draw produced coincident emitters")
    return out


def build_array(spec: LatticeSpec) -> AtomArray:
    """generate_lattice plus the spec's own disorder, if any."""
    return apply_position_disorder(generate_lattice(spec), spec.disorder_eta, spec.seed)
