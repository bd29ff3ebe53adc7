"""Reference values the benchmark checks the program's outputs against.

Everything here comes from closed forms, ladder operators, scipy's
spherical harmonics and matrix exponential, and polynomial products.
Nothing in this module calls spinaxes, so a check never compares the
program with itself or with a stored copy of an earlier output.

Conventions follow the program's documented ones: ladder basis ordered
m = +j .. -j, rank blocks t^k_q with q ascending from -k to +k.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln, sph_harm_y


class CheckFailed(Exception):
    """An output disagrees with its reference value."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def multipole_scale(dj: int, k: int) -> float:
    """c_k = sqrt(4 pi) N! sqrt(N+1) / sqrt((N-k)! (N+k+1)!), N = 2j."""
    log = gammaln(dj + 1) + 0.5 * math.log(dj + 1) - 0.5 * (gammaln(dj - k + 1) + gammaln(dj + k + 2))
    return math.sqrt(4 * math.pi) * math.exp(log)


def unit_vector(theta: float, phi: float) -> np.ndarray:
    s = math.sin(theta)
    return np.array([s * math.cos(phi), s * math.sin(phi), math.cos(theta)])


def ensemble_tensor(n_qubits: int, terms) -> list[np.ndarray]:
    """t^k_q = sum_i w_i c_k Y^k_q(theta_i, phi_i) of an aligned-product mixture."""
    blocks = []
    for k in range(n_qubits + 1):
        q = np.arange(-k, k + 1)
        acc = np.zeros(2 * k + 1, dtype=complex)
        for w, theta, phi in terms:
            acc += w * sph_harm_y(k, q, theta, phi)
        blocks.append(multipole_scale(n_qubits, k) * acc)
    return blocks


def expansion_tensor(dj: int, blocks) -> list[np.ndarray]:
    """t^k_q = c_k a^k_q for lambda = sum a^l_m conj(Y^l_m), zero above the band limit."""
    out = []
    for k in range(dj + 1):
        if k < len(blocks):
            out.append(multipole_scale(dj, k) * np.asarray(blocks[k], dtype=complex))
        else:
            out.append(np.zeros(2 * k + 1, dtype=complex))
    return out


def spin_matrices(dj: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(J+, Jy, Jz) on the ladder basis, built from the ladder-operator matrix elements."""
    j = dj / 2.0
    m = j - np.arange(dj + 1)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    jy = (jp - jp.conj().T) / 2j
    return jp, jy, np.diag(m).astype(complex)


def rotation(dj: int, phi: float, theta: float, psi: float) -> np.ndarray:
    """U(phi, theta, psi) = exp(-i phi Jz) exp(-i theta Jy) exp(-i psi Jz)."""
    _, jy, jz = spin_matrices(dj)
    return expm(-1j * phi * jz) @ expm(-1j * theta * jy) @ expm(-1j * psi * jz)


def rank_one_tensor(dj: int, rho: np.ndarray) -> np.ndarray:
    """t^1_q = sqrt(3 / (j (j+1))) <J_q>, with J_{+1} = -J+/sqrt2, J_0 = Jz, J_{-1} = J-/sqrt2."""
    j = dj / 2.0
    jp, _, jz = spin_matrices(dj)
    jq = (jp.conj().T / math.sqrt(2), jz, -jp / math.sqrt(2))
    return math.sqrt(3.0 / (j * (j + 1))) * np.array([np.trace(rho @ op) for op in jq])


def ensemble_moments(n_qubits: int, terms) -> tuple[np.ndarray, float]:
    """<J> = j sum w n and Tr(rho^2) = sum w w' ((1 + n.n') / 2)^(2j) of an ensemble."""
    j = n_qubits / 2.0
    vecs = [unit_vector(theta, phi) for _, theta, phi in terms]
    mean = j * sum(w * v for (w, _, _), v in zip(terms, vecs))
    purity = sum(
        w1 * w2 * ((1.0 + float(v1 @ v2)) / 2.0) ** n_qubits
        for (w1, _, _), v1 in zip(terms, vecs)
        for (w2, _, _), v2 in zip(terms, vecs)
    )
    return mean, purity


def check_state_moments(dj: int, rho: np.ndarray, terms, tol: float) -> None:
    """A mixture of coherent states has the ensemble's <J> and purity."""
    jp, _, jz = spin_matrices(dj)
    mean, purity = ensemble_moments(dj, terms)
    got = np.array([np.trace(rho @ jp).real, np.trace(rho @ jp).imag, np.trace(rho @ jz).real])
    require(np.allclose(rho, rho.conj().T, atol=tol, rtol=0), "state is not Hermitian")
    require(abs(np.trace(rho) - 1.0) <= tol, "state trace is not 1")
    require(np.abs(got - mean).max() <= tol, f"<J> off by {np.abs(got - mean).max():.3g}")
    require(abs(np.sum(np.abs(rho) ** 2) - purity) <= tol, "purity differs from the ensemble's")


def majorana_tensor(axes, k: int) -> np.ndarray:
    """Stretched rank-k tensor of k unit vectors as a product of quadratics.

    The quadratic of a unit vector has coefficients sqrt(C(2, i)) r_i of its
    spherical components r = ((x - iy)/sqrt2, z, -(x + iy)/sqrt2); the product
    of k of them, divided by sqrt(C(2k, i)), is s^k_q with q ascending.
    """
    acc = np.ones(1, dtype=complex)
    for theta, phi in axes:
        x, y, z = unit_vector(theta, phi)
        acc = np.convolve(acc, [(x - 1j * y) / math.sqrt(2), math.sqrt(2) * z, -(x + 1j * y) / math.sqrt(2)])
    return acc / np.sqrt([math.comb(2 * k, i) for i in range(2 * k + 1)])


def check_rank(block: np.ndarray, k: int, radius, sign: int, axes, tol: float) -> None:
    """One rank of a decomposition against its reference block t^k.

    The block must rebuild as sign * radius * s^k(axes) to k * tol of its
    size, and every axis's upper-hemisphere stereographic point
    Z = tan(theta/2) e^{i phi} must be a root of
    P_k(Z) = sum_i sqrt(C(2k, i)) t^k_{i-k} Z^{2k-i} to tol of its
    coefficients.  An axis off by tol moves the product of k of them by
    about k * tol.
    """
    scale = float(np.abs(block).max())
    if not axes:
        require(scale <= 1e-10, f"rank {k}: no axes for a block of size {scale:.3g}")
        return
    require(radius is not None, f"rank {k}: unresolved")
    require(len(axes) == k, f"rank {k}: {len(axes)} axes")
    rebuilt = sign * radius * majorana_tensor(axes, k)
    err = float(np.abs(rebuilt - block).max())
    require(err <= k * tol * scale, f"rank {k}: rebuilt block off by {err:.3g} (scale {scale:.3g})")
    poly = np.sqrt([math.comb(2 * k, i) for i in range(2 * k + 1)]) * block
    bound = tol * float(np.abs(poly).max())
    for theta, phi in axes:
        z = math.tan(theta / 2.0) * complex(math.cos(phi), math.sin(phi))
        value = abs(np.polyval(poly, z))
        require(value <= bound, f"rank {k}: axis ({theta:.6g}, {phi:.6g}) is no root of P_k ({value:.3g})")


def check_decomposition(t_ref, ranks, tol: float) -> list[np.ndarray]:
    """Every rank of a decomposition; ``ranks`` holds (k, radius, sign, axes)."""
    require(len(ranks) == len(t_ref) - 1, f"{len(ranks)} ranks for 2j = {len(t_ref) - 1}")
    for k, radius, sign, axes in ranks:
        check_rank(t_ref[k], k, radius, sign, axes, tol)
    return [unit_vector(theta, phi) for _, radius, _, axes in ranks if radius for theta, phi in axes]


def all_along(vectors, direction: np.ndarray, tol: float) -> bool:
    return all(np.linalg.norm(np.cross(v, direction)) <= tol for v in vectors)
