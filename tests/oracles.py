"""Independent reference constructions used to pin expected values.

Everything here is built from first principles (ladder operators, matrix
exponentials, brute-force coupling), deliberately avoiding the closed-form
code paths under test.
"""

import math

import numpy as np
from scipy.linalg import expm


def jz_matrix(doubled_j: int) -> np.ndarray:
    """Jz in the |j m> basis ordered m = +j .. -j."""
    return np.diag([m / 2.0 for m in range(doubled_j, -doubled_j - 1, -2)])


def jplus_matrix(doubled_j: int) -> np.ndarray:
    j = doubled_j / 2.0
    dim = doubled_j + 1
    out = np.zeros((dim, dim))
    for i in range(1, dim):
        m = j - i
        out[i - 1, i] = np.sqrt(j * (j + 1) - m * (m + 1))
    return out


def jy_matrix(doubled_j: int) -> np.ndarray:
    jp = jplus_matrix(doubled_j)
    return (jp - jp.T) / 2j


def jx_matrix(doubled_j: int) -> np.ndarray:
    jp = jplus_matrix(doubled_j)
    return (jp + jp.T) / 2.0


def small_d_by_expm(doubled_j: int, beta: float) -> np.ndarray:
    """d^j(beta) = exp(-i beta Jy), computed by matrix exponential."""
    return expm(-1j * beta * jy_matrix(doubled_j)).real


def cg_table_by_coupling(dj1: int, dj2: int) -> dict:
    """All <j1 m1, j2 m2 | j m> via highest-weight states and lowering.

    Returns a dict keyed by (dj, dm1, dm2) of coefficients, built without
    any closed-form expression: the stretched state is a product state,
    lower total-j states come from Gram-Schmidt in each m sector, and the
    standard phase fixes the coefficient of the largest m1 to be positive.
    """
    d1, d2 = dj1 + 1, dj2 + 1
    jp1, jp2 = jplus_matrix(dj1), jplus_matrix(dj2)
    jm1, jm2 = jp1.T, jp2.T
    lower = np.kron(jm1, np.eye(d2)) + np.kron(np.eye(d1), jm2)

    def product_index(dm1, dm2):
        return ((dj1 - dm1) // 2) * d2 + (dj2 - dm2) // 2

    coupled = {}  # (dj, dm) -> vector in the product basis
    for dj in range(dj1 + dj2, abs(dj1 - dj2) - 2, -2):
        # Highest-weight vector for this j: in the m = j sector, orthogonal
        # to every |j', m=j> with j' > j.
        dm = dj
        basis = []
        for dm1 in range(dj1, -dj1 - 1, -2):
            dm2 = dm - dm1
            if abs(dm2) <= dj2:
                basis.append(product_index(dm1, dm2))
        vec = None
        for trial in np.eye(d1 * d2)[basis]:
            v = trial.astype(complex)
            for djp in range(dj1 + dj2, dj, -2):
                w = coupled[(djp, dm)]
                v = v - w * (w.conj() @ v)
            if np.linalg.norm(v) > 1e-8:
                vec = v / np.linalg.norm(v)
                break
        assert vec is not None
        # Condon-Shortley: coefficient at the largest participating m1 > 0.
        lead = vec[basis[0]]
        assert abs(lead.imag) < 1e-12
        if lead.real < 0:
            vec = -vec
        coupled[(dj, dj)] = vec
        while dm > -dj:
            j = dj / 2.0
            m = dm / 2.0
            vec = lower @ vec / np.sqrt(j * (j + 1) - m * (m - 1))
            dm -= 2
            coupled[(dj, dm)] = vec

    table = {}
    for (dj, dm), vec in coupled.items():
        for dm1 in range(dj1, -dj1 - 1, -2):
            dm2 = dm - dm1
            if abs(dm2) <= dj2:
                c = vec[product_index(dm1, dm2)]
                assert abs(c.imag) < 1e-12
                table[(dj, dm, dm1, dm2)] = c.real
    return table


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Wishart construction: always a valid density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def rho_by_nodes(doubled_j: int, theta: np.ndarray, phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_n w_n |alpha_n><alpha_n| over flat arrays of nodes, one coherent state per node.

    The amplitudes come straight from <j m|alpha> = sqrt(C(2j, j+m))
    cos^{j+m}(theta/2) sin^{j-m}(theta/2) e^{-i m phi}, m = +j .. -j, with no
    use of the grid's product structure; the result is made Hermitian and
    given unit trace as the P-function route does.
    """
    dm = np.arange(doubled_j, -doubled_j - 1, -2)
    jp, jm = (doubled_j + dm) // 2, (doubled_j - dm) // 2
    binom = np.sqrt([float(math.comb(doubled_j, i)) for i in jp])
    c, s = np.cos(theta / 2.0)[:, None], np.sin(theta / 2.0)[:, None]
    amps = binom * c**jp * s**jm * np.exp(-0.5j * dm * phi[:, None])  # (nodes, dim)
    rho = (amps.T * weights) @ amps.conj()
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real
