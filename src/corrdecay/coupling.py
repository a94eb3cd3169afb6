"""Free-space radiation kernels and the N x N coherent/dissipative coupling matrices.

Rates are in units of the single-emitter decay rate gamma0 (fixed to 1
internally), lengths in units of lambda0 (k0 = 2*pi). For a real dipole
orientation p and separation r with x = k0*|r|, c2 = (r_hat . p)^2, the
projected pair rates reduce to scalar radiation kernels:

    gamma(r)/gamma0 = t(x) + (l(x) - t(x)) * c2
    j(r)/gamma0     = tJ(x) + (lJ(x) - tJ(x)) * c2

with transverse/longitudinal kernels (Im parts drive gamma, Re parts drive J)

    t(x)  =  (3/2) (sin x / x + cos x / x^2 - sin x / x^3)
    l(x)  =   3    (sin x / x^3 - cos x / x^2)
    tJ(x) = -(3/4) ((x^2 - 1) cos x - x sin x) / x^3
    lJ(x) = -(3/2) (cos x + x sin x) / x^3

Only the coupling export evaluates J; everything else reads gamma alone.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentEmittersError, PhysicsValidationError
from .lattice import MAX_ATOMS, AtomArray, LatticeSpec, grid_points, unit_polarization

K0 = 2.0 * np.pi  # resonant wavenumber in lambda0 units
GAMMA0 = 1.0  # single-emitter decay rate, the internal unit of all rates
PSD_TOLERANCE = -1e-8  # in units of gamma0; absorbs eigensolver noise at N ~ 1e4
COINCIDENT_TOL = 1e-12  # separations below this (in lambda0) are treated as coincident
PAIR_BLOCK = 32  # rows per pass of the pair loop and the matrix checks; sizes their temporaries

_BINARY_MAGIC = b"CDMATRX1"  # 8 bytes; followed by uint64 N, then N*N float64 row-major


def _gamma_kernel(x, c2):
    """Gamma_ij / gamma0 at x = k0*r and c2 = (r_hat . p)^2 (the Im G kernels)."""
    sx, cx = np.sin(x), np.cos(x)
    t = 1.5 * (sx / x + cx / x**2 - sx / x**3)
    l = 3.0 * (sx / x**3 - cx / x**2)
    return t + (l - t) * c2


def _j_kernel(x, c2):
    """J_ij / gamma0 at x = k0*r and c2 = (r_hat . p)^2 (the Re G kernels)."""
    sx, cx = np.sin(x), np.cos(x)
    t = -0.75 * ((x**2 - 1.0) * cx - x * sx) / x**3
    l = -1.5 * (cx + x * sx) / x**3
    return t + (l - t) * c2


@dataclass
class CouplingMatrices:
    """Dense symmetric dissipative (gamma) and, for export only, coherent (jmat) matrices.

    gamma has gamma0 on the diagonal; jmat has zero diagonal. Both are in
    units of gamma0 and store one value per unordered pair, mirrored exactly.
    Construction checks, in O(1), that gamma is n x n (n >= 1) and that gamma0 is
    gamma[0, 0] to 1e-12, reading the table's grid and centre when gamma is left to it;
    the O(N^2) checks run only on matrices read from files (validated_coupling). A
    hand-built gamma must be exactly symmetric: the eigensolvers silently read one triangle
    of an asymmetric one.

    table is the (2n - 1,)*D offset table (_offset_table) of an ordered array, else None. Only
    build_coupling_matrices sets it, with gamma=None: the eigensolve trusts it unchecked and
    folds it over grid, and gamma is built from it (_offset_matrix) on first read and kept.
    """

    gamma: np.ndarray | None
    gamma0: float
    n: int
    jmat: np.ndarray | None = None
    table: np.ndarray | None = None

    def __post_init__(self):
        lazy = self.gamma is None and self.table is not None
        if lazy:
            del self.gamma  # built on first read (__getattr__)
        centre = tuple(s // 2 for s in self.table.shape) if lazy else None
        shape = (math.prod(c + 1 for c in centre),) * 2 if lazy else np.shape(self.gamma)
        if self.n < 1 or shape != (self.n, self.n):
            raise PhysicsValidationError(
                f"coupling matrix of shape {shape} is not {self.n} x {self.n}")
        first = self.table[centre] if lazy else self.gamma[0, 0]
        if not abs(self.gamma0 - first) <= 1e-12:
            raise PhysicsValidationError(
                f"gamma0 = {self.gamma0!r} is not gamma[0, 0] = {first!r}")

    def __getattr__(self, name):
        # runs only for a missing attribute; the name is checked before self.table is read, so
        # copy and pickle, which look names up on an instance with no fields yet, do not recurse
        if name != "gamma":
            raise AttributeError(name)
        self.gamma = _offset_matrix(self.table)
        return self.gamma

    @property
    def grid(self) -> tuple[int, ...] | None:
        """The axis lengths gamma folds over: the table's site grid (n,)*D when the table is its
        own reversal along every axis (chains, and planes and cubes polarized along an axis), else
        (N,), as every table is even, table(-m) = table(m). None without a table."""
        t = self.table
        if t is None:
            return None
        if all(np.array_equal(t, np.flip(t, k)) for k in range(t.ndim)):
            return tuple((s + 1) // 2 for s in t.shape)
        return (self.n,)


@dataclass
class PsdDiagnostic:
    """Outcome of the positive-semidefiniteness check on gamma."""

    min_eigenvalue: float
    tolerance: float  # absolute, in the units of gamma

    @classmethod
    def of(cls, min_eigenvalue, gamma0) -> "PsdDiagnostic":
        """The PSD rule: min_eigenvalue against PSD_TOLERANCE * gamma0."""
        return cls(float(min_eigenvalue), PSD_TOLERANCE * gamma0)

    @property
    def passed(self) -> bool:
        return bool(self.min_eigenvalue >= self.tolerance)

    def require(self) -> "PsdDiagnostic":
        """self, or PhysicsValidationError when the check failed."""
        if not self.passed:
            raise PhysicsValidationError(
                f"PSD check failed: min eigenvalue {self.min_eigenvalue:.3e}")
        return self

    def to_dict(self):
        return {
            "min_eigenvalue": self.min_eigenvalue,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _kernel_values(sep, self_at, pol, kernel, locate) -> np.ndarray:
    """kernel(k0*|r|, (r_hat . p)^2) for every separation r along the last axis of sep. The
    zero separations at self_at get a placeholder for the caller to overwrite; any other r
    within COINCIDENT_TOL raises CoincidentEmittersError on the pair locate(its index), and a
    value that is not finite (a separation past the float range) PhysicsValidationError."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are refused below
        dist = np.linalg.norm(sep, axis=-1)
        dist[self_at] = 1.0
        bad = np.argwhere(dist <= COINCIDENT_TOL)
        if bad.size:
            raise CoincidentEmittersError(*locate(bad[0]))
        values = kernel(K0 * dist, (sep @ pol) ** 2 / dist**2)
    if not np.isfinite(values).all():
        far = dist[~np.isfinite(values)].max()
        raise PhysicsValidationError(f"coupling kernel is not finite at separation {far:.3e}")
    return values


def _lattice_spec(array: AtomArray) -> LatticeSpec | None:
    """The spec of an ordered array (positions exactly its spec's lattice), else None."""
    spec = array.source_spec
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range, refused later
        lattice = grid_points(np.arange(spec.n_per_axis, dtype=float) * spec.spacing,
                              spec.dimension)
    return spec if spec.disorder_eta == 0 and np.array_equal(array.positions, lattice) else None


def _pair_matrix(positions, pol, kernel, diagonal) -> np.ndarray:
    """kernel(k0*r, (r_hat . p)^2), p = pol a unit vector, for every pair of an (N, 3) position
    list with the given diagonal, by the blocked pair loop. Raises CoincidentEmittersError if
    two overlap.

    Rows [start, stop) are evaluated on the columns start: only, and written there and
    transposed below: the kernel is exactly even in r, so both triangles hold the same bytes,
    and the first coincident pair in row-major order is the one a full sweep finds."""
    pos = np.asarray(positions, dtype=float)
    n = pos.shape[0]
    if n < 1:
        raise PhysicsValidationError("empty atom array")
    if n > MAX_ATOMS:
        raise PhysicsValidationError(f"N = {n} exceeds dense-solver ceiling {MAX_ATOMS}")
    out = np.empty((n, n))
    for start in range(0, n, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, n)
        local = np.arange(stop - start)
        block = _kernel_values(pos[start:stop, None, :] - pos[None, start:, :],  # (b, n - start, 3)
                               (local, local), pol, kernel,
                               lambda b: (int(b[0]) + start, int(b[1]) + start))
        out[start:stop, start:] = block
        out[start:, start:stop] = block.T
    np.fill_diagonal(out, diagonal)
    return out


def _offset_table(spec: LatticeSpec, pol, kernel, diagonal) -> np.ndarray:
    """The (2n - 1,)*D table of kernel values, one kernel call per lattice offset, with the
    given diagonal at the zero offset. The pair value of an ordered lattice depends only on the
    offset m = b - a of the sites' integer coordinates, at table[m + n - 1], and is mirrored:
    table(-m) = table(m), as i > j mirrors i < j."""
    n, dim = spec.n_per_axis, spec.dimension
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range, refused below
        sep = grid_points(np.arange(1 - n, n, dtype=float) * spec.spacing, dim)  # m*d, raveled
    center = len(sep) // 2  # the zero offset
    # a coincident offset means d <= COINCIDENT_TOL, so the nearest sites 0 and 1 coincide
    half = _kernel_values(sep[: center + 1], center, pol, kernel, lambda b: (0, 1))
    half[center] = diagonal
    return np.concatenate([half, half[:center][::-1]]).reshape((2 * n - 1,) * dim)


def _table_view(table) -> np.ndarray:
    """Gamma of the lattice of an _offset_table as a read-only (n,)*D + (n,)*D view of the
    table: along each axis, gamma[a, b] = table[n - 1 - a + b], row n - 1 - a and column b of
    the table's sliding windows ([s][c] = table[s + c]), so the window rows are reversed."""
    grid = tuple((s + 1) // 2 for s in table.shape)
    windows = np.lib.stride_tricks.sliding_window_view(table, grid)
    return np.flip(windows, tuple(range(table.ndim)))


def _offset_matrix(table) -> np.ndarray:
    """_pair_matrix of the lattice of an _offset_table: _table_view copied in one pass."""
    view = _table_view(table)
    return np.array(view, order="C").reshape((math.prod(view.shape[:table.ndim]),) * 2)


def build_coupling_matrices(array: AtomArray) -> CouplingMatrices:
    """Gamma for all pairs of `array` at its source spec's polarization; jmat is left unset.

    An ordered array keeps its lattice's offset table as table, and gamma is built only on
    first read; any other array goes through build_coupling_from_positions. Raises
    CoincidentEmittersError with the offending indices if two emitters overlap.
    """
    pol = array.source_spec.pol_vector
    lattice = _lattice_spec(array)
    if lattice is None:
        return build_coupling_from_positions(array.positions, pol)
    return CouplingMatrices(gamma=None, gamma0=GAMMA0, n=lattice.n_atoms,
                            table=_offset_table(lattice, pol, _gamma_kernel, GAMMA0))


def build_coupling_from_positions(positions: np.ndarray, pol) -> CouplingMatrices:
    """Gamma for an explicit (N, 3) position list in lambda0 units (the pair loop); pol must
    be a real unit 3-vector (ConfigError otherwise)."""
    gamma = _pair_matrix(positions, np.asarray(unit_polarization(pol)), _gamma_kernel, GAMMA0)
    return CouplingMatrices(gamma=gamma, gamma0=GAMMA0, n=gamma.shape[0])


def build_export_matrices(array: AtomArray) -> CouplingMatrices:
    """Gamma and jmat of `array` for the coupling export, the one reader of jmat."""
    mats = build_coupling_matrices(array)
    pol = array.source_spec.pol_vector
    mats.jmat = (_pair_matrix(array.positions, pol, _j_kernel, 0.0) if mats.table is None
                 else _offset_matrix(_offset_table(array.source_spec, pol, _j_kernel, 0.0)))
    return mats


def check_symmetric_matrix(g: np.ndarray) -> None:
    """PhysicsValidationError unless g is a nonempty square matrix with finite entries,
    symmetric to atol 1e-12 (no relative tolerance). Both checks run over blocks of
    PAIR_BLOCK rows, the finite one over the whole matrix first, so a non-finite entry
    anywhere gets the non-finite message and no temporary exceeds PAIR_BLOCK x N."""
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.size == 0:
        raise PhysicsValidationError(f"coupling matrix of shape {g.shape} is not square")
    n = len(g)
    if not all(np.isfinite(g[a:a + PAIR_BLOCK]).all() for a in range(0, n, PAIR_BLOCK)):
        raise PhysicsValidationError("coupling matrix holds non-finite entries")
    buf = np.empty((min(PAIR_BLOCK, n), n), dtype=g.dtype)  # one block's |g[a:b] - g[:, a:b].T|
    for a in range(0, n, PAIR_BLOCK):
        rows = g[a:a + PAIR_BLOCK]
        diff = buf[: len(rows)]
        np.copyto(diff, g[:, a:a + PAIR_BLOCK].T)
        diff -= rows
        if np.abs(diff, out=diff).max() > 1e-12:
            raise PhysicsValidationError("coupling matrix is asymmetric")


def check_coupling_matrix(gamma: np.ndarray) -> None:
    """check_symmetric_matrix, then PhysicsValidationError unless the diagonal is uniform."""
    check_symmetric_matrix(gamma)
    if np.ptp(np.diag(gamma)) > 1e-12:
        raise PhysicsValidationError("coupling matrix has a non-uniform diagonal")


def validated_coupling(gamma) -> CouplingMatrices:
    """CouplingMatrices around an outside gamma: square, finite, symmetric and with a
    uniform positive diagonal (gamma0), each to atol 1e-12, or PhysicsValidationError. The
    PSD check needs a spectrum, so callers run it on the one they compute."""
    gamma = np.asarray(gamma, dtype=float)
    check_coupling_matrix(gamma)
    if not gamma[0, 0] > 0:
        raise PhysicsValidationError("coupling matrix diagonal (gamma0) is not positive")
    return CouplingMatrices(gamma=gamma, gamma0=float(gamma[0, 0]), n=gamma.shape[0])


def centrosymmetric(g) -> bool:
    """Whether the square g equals its reversal g[::-1, ::-1] exactly, as every ordered
    array's Gamma and Gtilde do: the rule under which a Gamma without a table and the SDP
    product fold over the grid (N,). Compared over blocks of PAIR_BLOCK rows, stopping at
    the first that differs, so no temporary exceeds PAIR_BLOCK x N."""
    flipped = g[::-1, ::-1]
    return all(np.array_equal(g[a:a + PAIR_BLOCK], flipped[a:a + PAIR_BLOCK])
               for a in range(0, len(g), PAIR_BLOCK))


def _mirror_blocks(t, grid):
    """The 2^D diagonal blocks of a matrix, one at a time as (E, E) arrays, given as its
    (grid, grid) view t (_table_view, or gamma.reshape(grid * 2)) and unchanged by reversing
    each axis of the site grid, in the basis of modes even or odd under those reversals (bit k
    of the block index s set: odd along axis k). Axis k of length n keeps its first
    e = ceil(n/2) sites: block s sums the views of t with the column axes of the set bits of r
    reversed, each signed by the parity of s & r; then on an odd axis the middle site's rows
    and columns are scaled by 1/sqrt2 (their crossing by 1/2) in the even blocks and dropped
    from the odd ones. Only the block being solved is held."""
    dim = len(grid)
    head = tuple(slice((n + 1) // 2) for n in grid) * 2
    views = [np.flip(t, [dim + k for k in range(dim) if r >> k & 1])[head]
             for r in range(2**dim)]
    for s in range(2**dim):
        b = views[0].copy()
        for r in range(1, 2**dim):
            if (s & r).bit_count() % 2:
                b -= views[r]
            else:
                b += views[r]
        for k, n in enumerate(grid):
            if n % 2:
                h = n // 2  # the middle site, the last one kept
                c = np.moveaxis(b, (k, dim + k), (0, 1))  # a view, row and column axis k first
                if s >> k & 1:
                    b = np.moveaxis(c[:h, :h], (0, 1), (k, dim + k))
                else:
                    c[h, :h] *= np.sqrt(0.5)
                    c[:h, h] *= np.sqrt(0.5)
                    c[h, h] *= 0.5
        yield b.reshape(2 * (math.prod(b.shape[:dim]),))


def _unfold(u, s, grid):
    """The site vector of mode u of mirror block s (_mirror_blocks): along each axis k,
    [u_head, u_mid, +-reversed u_head] with u_head / sqrt2, the sign and a zero middle odd."""
    u = u.reshape([(n + 1 - (s >> k & 1)) // 2 for k, n in enumerate(grid)])
    for k, n in enumerate(grid):
        odd = s >> k & 1
        u = np.moveaxis(u, k, 0)
        head = u[: n // 2] * np.sqrt(0.5)
        mid = np.zeros_like(u[: n % 2]) if odd else u[n // 2:]
        u = np.moveaxis(np.concatenate([head, mid, (-1.0) ** odd * head[::-1]]), 0, k)
    return u.ravel()


def gamma_eigensolve(mats: CouplingMatrices, top_vector=False):
    """(ascending eigenvalues, unit top eigenvector or None, label) of mats.gamma.

    Gamma is folded over a tuple `grid` of axis lengths whose every axis reversal leaves it
    unchanged: mats.grid, the table's rule (its site grid folds its view, gamma unbuilt), else
    (N,) when a gamma without a table is centrosymmetric (N > 1). Each of the 2^D mirror blocks
    (_mirror_blocks), about N/2^D rows, is solved alone; the top vector is the top mode of the
    block with the largest top eigenvalue (ties: the first block, all-even first). The label is
    "parity" for a one-axis fold, "mirror" for more axes and "dense" for a gamma solved whole."""
    solve = np.linalg.eigh if top_vector else lambda x: (np.linalg.eigvalsh(x), None)
    grid = mats.grid
    if grid is None and mats.n > 1 and centrosymmetric(mats.gamma):
        grid = (mats.n,)
    if grid is None:
        vals, vecs = solve(mats.gamma)
        return vals, None if vecs is None else vecs[:, -1], "dense"
    on_sites = mats.table is not None and len(grid) == mats.table.ndim  # the table's site grid
    t = _table_view(mats.table) if on_sites else mats.gamma.reshape(grid * 2)
    parts, top = [], None
    for s, block in enumerate(_mirror_blocks(t, grid)):
        if block.size:
            w, v = solve(block)
            parts.append(w)
            if top_vector and (top is None or w[-1] > top[0]):  # ties: the earlier block
                top = w[-1], s, v[:, -1].copy()
    vals = np.sort(np.concatenate(parts))
    label = "parity" if len(grid) == 1 else "mirror"
    return vals, None if top is None else _unfold(top[2], top[1], grid), label


def validate_psd(mats: CouplingMatrices) -> PsdDiagnostic:
    """PsdDiagnostic.of the minimum eigenvalue of gamma (diagnostic only)."""
    return PsdDiagnostic.of(gamma_eigensolve(mats)[0][0], mats.gamma0)


def offdiagonal_sum(mats: CouplingMatrices) -> float:
    """S = sum_{i != j} Gamma_ij, the total dissipative interaction strength."""
    return float(mats.gamma.sum() - np.trace(mats.gamma))


def write_coupling_csv(mats: CouplingMatrices, path):
    """Dense pair listing with header i,j,gamma,jcoupling (N^2 rows, row-major), values
    as %.17g so they read back exactly. Written one row of gamma and jmat at a time, so
    nothing N^2-sized is built beside the matrices.

    mats.jmat must be set, as build_export_matrices does.
    """
    cols = range(mats.n)
    with open(path, "w") as fh:
        fh.write("i,j,gamma,jcoupling\n")
        for i, (g, j) in enumerate(zip(mats.gamma, mats.jmat)):
            rows = zip(cols, g.tolist(), j.tolist())
            fh.writelines(map(f"{i},%d,%.17g,%.17g\n".__mod__, rows))


def read_coupling_csv(path) -> CouplingMatrices:
    """Inverse of write_coupling_csv: the rows must list (i, j) in row-major order."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = math.isqrt(raw.shape[0])
    if raw.shape != (n * n, 4) or not np.array_equal(raw[:, :2].T, np.divmod(np.arange(n * n), n)):
        raise PhysicsValidationError("coupling CSV rows are not a row-major (i, j) listing")
    mats = validated_coupling(np.ascontiguousarray(raw[:, 2].reshape(n, n)))
    mats.jmat = np.ascontiguousarray(raw[:, 3].reshape(n, n))
    return mats


def write_matrix_binary(matrix: np.ndarray, path):
    """Binary dump: 16-byte header (8-byte magic + uint64 N), then row-major float64,
    written from the contiguous array's own buffer (a copy only of a matrix that is not
    C-contiguous float64)."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<Q", matrix.shape[0]))
        fh.write(memoryview(matrix))


def read_matrix_binary(path) -> np.ndarray:
    """The (N, N) float64 matrix of a write_matrix_binary file. The magic, the header N and
    the file length, exactly 16 + 8 N^2 bytes, are checked before anything is allocated
    (PhysicsValidationError otherwise); the payload is then read straight into the array."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BINARY_MAGIC:
            raise PhysicsValidationError(f"bad matrix file magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise PhysicsValidationError("matrix file header is cut short")
        (n,) = struct.unpack("<Q", header)
        if os.fstat(fh.fileno()).st_size != 16 + 8 * n * n:
            raise PhysicsValidationError("matrix file payload does not match header N")
        matrix = np.empty((n, n))
        if fh.readinto(matrix) != matrix.nbytes:  # the file shrank after the length check
            raise PhysicsValidationError("matrix file payload does not match header N")
    return matrix
