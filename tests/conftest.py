import numpy as np
import pytest

from corrdecay.coupling import CouplingMatrices


def random_unit_diag_psd(n, rng):
    """Random PSD matrix with unit diagonal (a valid decoherence matrix)."""
    a = rng.standard_normal((n, n + 2))
    g = a @ a.T
    dinv = 1.0 / np.sqrt(np.diag(g))
    return g * np.outer(dinv, dinv)


def mats_from_gamma(gamma):
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0]
    return CouplingMatrices(gamma=gamma, jmat=np.zeros_like(gamma), gamma0=float(gamma[0, 0]), n=n)


def dicke_mats(n):
    return mats_from_gamma(np.ones((n, n)))


def dicke_rstar(n: int, gamma0: float = 1.0) -> float:
    """Exact all-to-all maximum: (J+M)(J-M+1) at J = N/2 optimized over M.

    Equals N(N+2)/4 for even N and (N+1)^2/4 for odd N (integer vs
    half-integer magnetization closest to 1/2).
    """
    if n % 2 == 0:
        return 0.25 * n * (n + 2) * gamma0
    return 0.25 * (n + 1) ** 2 * gamma0


def full_space_hamiltonian(gamma):
    """Independent oracle: the 2^N x 2^N decay Hamiltonian sum_ij Gamma_ij s+_i s-_j,
    entry by entry on the bitmask states (bit q set = qubit q excited)."""
    n = gamma.shape[0]
    states = np.arange(2**n)
    h = np.zeros((2**n, 2**n))
    for j in range(n):
        src = states[(states >> j) & 1 == 1]  # s-_j needs qubit j excited
        lowered = src ^ (1 << j)
        for i in range(n):
            free = (lowered >> i) & 1 == 0  # s+_i needs qubit i de-excited
            h[lowered[free] | (1 << i), src[free]] += gamma[i, j]
    return h


def random_small_lattice(rng, max_atoms=12):
    """Random free-space array spec with N <= max_atoms."""
    from corrdecay.lattice import LatticeSpec

    dim = int(rng.integers(1, 4))
    cap = int(max_atoms ** (1.0 / dim))
    n1 = int(rng.integers(2, cap + 1))
    pol = rng.standard_normal(3)
    pol /= np.linalg.norm(pol)
    return LatticeSpec(
        dimension=dim,
        n_per_axis=n1,
        spacing=float(rng.uniform(0.1, 0.9)),
        polarization=tuple(pol),
        disorder_eta=float(rng.uniform(0.0, 0.1)),
        seed=int(rng.integers(0, 2**31)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
