"""Clebsch-Gordan coefficients, Wigner rotation matrices, spherical harmonics.

Conventions
-----------
* Condon-Shortley phases throughout; all Clebsch-Gordan coefficients are real.
* ``wigner_D(j, mp, m, phi, theta, psi)`` is the active z-y-z rotation matrix
  element ``<j mp| R(phi, theta, psi) |j m>`` with
  ``R = exp(-i phi Jz) exp(-i theta Jy) exp(-i psi Jz)``, so
  ``D = exp(-i mp phi) d(theta) exp(-i m psi)``.
* Basis vectors are ordered by descending m, from +j to -j.
* Spherical harmonics include the Condon-Shortley phase, so
  ``Y(1, 1) = -sqrt(3/8pi) sin(theta) e^{i phi}``.

Exact rational arithmetic is used for Clebsch-Gordan coefficients only:
they are returned as an :class:`ExactCoefficient`, a sign together with the
exact square of the magnitude.  Wigner d matrices come in floating point
from Risbo's recursion, which couples one spin 1/2 at a time and so builds
every d^j up to a given j in one pass.  Spherical harmonics come from one
normalized associated-Legendre recursion (``_legendre_table``), which
tabulates every Y^l_m(theta, 0) up to a degree at once; the P-function
quadratures of :mod:`spinaxes.pfunc` read the same table on their grids.
Spin quantum numbers are supported up to doubled value 60 (j = 30);
coupling ranks that arise from such spins go up to doubled value 120
(rank 60), which is also the largest spherical-harmonic degree.

All functions are pure and cache only immutable data, so they are safe to
call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .halfint import _is_int, halfint

MAX_DOUBLED_J = 60
# Couplings of two supported spins reach twice the single-spin cap.
_MAX_DOUBLED_ARG = 2 * MAX_DOUBLED_J
# Largest spherical-harmonic degree, the rank of such a coupling.
MAX_DEGREE = _MAX_DOUBLED_ARG // 2

_f = math.factorial


def _check_j(dj: int, name: str = "j") -> None:
    if dj < 0:
        raise DomainError(f"{name} must be non-negative, got {dj}/2")
    if dj > _MAX_DOUBLED_ARG:
        raise DomainError(f"{name} = {dj}/2 exceeds the supported range (j <= {_MAX_DOUBLED_ARG // 2})")


def _check_jm(dj: int, dm: int, name: str = "j") -> None:
    _check_j(dj, name)
    if (dj - dm) % 2 != 0:
        raise DomainError(f"m and {name} must both be integers or both half-odd (got {name}={dj}/2, m={dm}/2)")
    if abs(dm) > dj:
        raise DomainError(f"|m| = {abs(dm)}/2 exceeds {name} = {dj}/2")


def _scaled_direction(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, |v|) of each row of u (n, 3), v the row times the exact power of two that puts its largest
    component in [1/2, 1): |v| can neither overflow nor underflow, so only a non-finite or zero row is rejected."""
    v = np.ldexp(u, -np.frexp(np.abs(u).max(axis=1))[1][:, None])
    n = np.linalg.norm(v, axis=1)
    if not np.isfinite(n).all():
        raise DomainError("direction has a non-finite component")
    if not n.all():
        raise DomainError("zero vector has no direction")
    return v, n


def _check_angles(**angles) -> None:
    """Reject a non-finite angle (scalar or array) by name, before anything is built from it."""
    for name, value in angles.items():
        if not np.isfinite(value).all():
            raise DomainError(f"angle {name} has a non-finite value")


@lru_cache(maxsize=None)
def _root_binomials(n: int) -> np.ndarray:
    """sqrt(C(n, i)) for i = 0 .. n, read-only, from float binomials (C(n, i) overflows int64 from n = 68)."""
    b = np.sqrt([float(math.comb(n, i)) for i in range(n + 1)])
    b.setflags(write=False)
    return b


@dataclass(frozen=True)
class ExactCoefficient:
    """A real number of the form ``sign * sqrt(magnitude_squared)``.

    ``sign`` is -1, 0, or +1 and ``magnitude_squared`` is an exact
    non-negative rational.  Products of two such numbers are again of this
    form, which is what makes exact orthogonality checks possible.
    """

    sign: int
    magnitude_squared: Fraction

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0, or 1, got {self.sign}")
        if self.magnitude_squared < 0:
            raise ValueError("magnitude_squared must be non-negative")
        if (self.sign == 0) != (self.magnitude_squared == 0):
            raise ValueError("sign is zero exactly when the magnitude is zero")

    @property
    def is_zero(self) -> bool:
        return self.sign == 0

    def __float__(self) -> float:
        return self.sign * math.sqrt(float(self.magnitude_squared))

    def __mul__(self, other: "ExactCoefficient") -> "ExactCoefficient":
        if not isinstance(other, ExactCoefficient):
            return NotImplemented
        return ExactCoefficient(self.sign * other.sign, self.magnitude_squared * other.magnitude_squared)

    def __neg__(self) -> "ExactCoefficient":
        return ExactCoefficient(-self.sign, self.magnitude_squared)

    def __repr__(self) -> str:
        if self.sign == 0:
            return "ExactCoefficient(0)"
        s = "-" if self.sign < 0 else "+"
        return f"ExactCoefficient({s}sqrt({self.magnitude_squared}))"


_ZERO = ExactCoefficient(0, Fraction(0))


@lru_cache(maxsize=None)
def _cg_doubled(dj1: int, dj2: int, dj: int, dm1: int, dm2: int, dm: int) -> ExactCoefficient:
    if dm1 + dm2 != dm:
        return _ZERO
    if dj < abs(dj1 - dj2) or dj > dj1 + dj2 or (dj1 + dj2 + dj) % 2 != 0:
        return _ZERO

    # All of the following are non-negative integers once the checks pass.
    a = (dj1 + dj2 - dj) // 2
    b = (dj1 - dj2 + dj) // 2
    c = (-dj1 + dj2 + dj) // 2
    j1p = (dj1 + dm1) // 2
    j1m = (dj1 - dm1) // 2
    j2p = (dj2 + dm2) // 2
    j2m = (dj2 - dm2) // 2
    jp = (dj + dm) // 2
    jm = (dj - dm) // 2

    prefactor = Fraction(
        (dj + 1) * _f(a) * _f(b) * _f(c) * _f(j1p) * _f(j1m) * _f(j2p) * _f(j2m) * _f(jp) * _f(jm),
        _f((dj1 + dj2 + dj) // 2 + 1),
    )

    # Racah sum; term t is nonzero only while every factorial argument is >= 0.
    e = (dj - dj2 + dm1) // 2
    g = (dj - dj1 - dm2) // 2
    t_lo = max(0, -e, -g)
    t_hi = min(a, j1m, j2p)
    total = Fraction(0)
    for t in range(t_lo, t_hi + 1):
        term = Fraction(1, _f(t) * _f(a - t) * _f(j1m - t) * _f(j2p - t) * _f(e + t) * _f(g + t))
        total += -term if t % 2 else term
    if total == 0:
        return _ZERO
    sign = 1 if total > 0 else -1
    return ExactCoefficient(sign, total * total * prefactor)


def cg(j1, j2, j, m1, m2, m) -> ExactCoefficient:
    """Clebsch-Gordan coefficient <j1 m1, j2 m2 | j m>, exact.

    Returns zero (not an error) when m1 + m2 != m or the triangle rule
    fails; raises :class:`DomainError` for invalid (j, m) pairs.
    """
    j1, j2, j = halfint(j1), halfint(j2), halfint(j)
    m1, m2, m = halfint(m1), halfint(m2), halfint(m)
    _check_jm(j1.doubled, m1.doubled, "j1")
    _check_jm(j2.doubled, m2.doubled, "j2")
    _check_jm(j.doubled, m.doubled, "j")
    return _cg_doubled(j1.doubled, j2.doubled, j.doubled, m1.doubled, m2.doubled, m.doubled)


def cg_value(j1, j2, j, m1, m2, m) -> float:
    """Clebsch-Gordan coefficient as a float."""
    return float(cg(j1, j2, j, m1, m2, m))


@lru_cache(maxsize=None)
def _ladder_weights() -> np.ndarray:
    """R[a, b] = sqrt((a + 1)(b + 1)) for a, b < _MAX_DOUBLED_ARG, read-only."""
    n = np.arange(1.0, _MAX_DOUBLED_ARG + 1)
    r = np.sqrt(np.outer(n, n))
    r.setflags(write=False)
    return r


def _d_ladder(dj_max: int, beta: float):
    """Yield d^{dj/2}(beta) for dj = 0 .. dj_max, rows and columns m = +j .. -j.

    Each step couples one more spin 1/2 to the stretched state (Risbo 1996),
    so d^j is four shifted copies of d^{j-1/2} times the spin-1/2 entries
    cos(beta/2), sin(beta/2), weighted by the stretched Clebsch-Gordan
    products sqrt((j +- m')(j +- m)) / 2j.  Square roots of the products
    keep the weights exact integers at beta = 0, so d(0) is the identity.
    Every step's weights are sub-blocks, some reversed, of one cached table
    of sqrt((a + 1)(b + 1)), so no step takes a square root.
    """
    p, q = math.cos(beta / 2.0), math.sin(beta / 2.0)
    r = _ladder_weights()
    d = np.ones((1, 1))
    yield d
    for dj in range(1, dj_max + 1):
        # j - m runs 1 .. dj down the last dj rows, j + m dj .. 1 down the first dj
        down = r[:dj, :dj]
        up = down[::-1, ::-1]
        nxt = np.zeros((dj + 1, dj + 1))
        nxt[:-1, :-1] += p * up * d
        nxt[:-1, 1:] -= q * down[::-1] * d
        nxt[1:, :-1] += q * down[:, ::-1] * d
        nxt[1:, 1:] += p * down * d
        d = nxt / dj
        yield d


def wigner_d(j, mp, m, beta: float) -> float:
    """Wigner small-d matrix element d^j_{mp, m}(beta)."""
    j, mp, m = halfint(j), halfint(mp), halfint(m)
    _check_jm(j.doubled, mp.doubled, "j")
    _check_jm(j.doubled, m.doubled, "j")
    d = wigner_d_matrix(j, beta)
    return float(d[(j.doubled - mp.doubled) // 2, (j.doubled - m.doubled) // 2])


def wigner_d_matrix(j, beta: float) -> np.ndarray:
    """Real matrix d^j(beta) with rows and columns ordered m = +j .. -j."""
    j = halfint(j)
    _check_j(j.doubled)
    _check_angles(beta=beta)
    for d in _d_ladder(j.doubled, beta):
        pass
    return d


def wigner_D(j, mp, m, phi: float, theta: float, psi: float) -> complex:
    """Wigner D-matrix element D^j_{mp, m}(phi, theta, psi), z-y-z convention."""
    j, mp, m = halfint(j), halfint(mp), halfint(m)
    _check_angles(phi=phi, theta=theta, psi=psi)
    d = wigner_d(j, mp, m, theta)
    return np.exp(-1j * (float(mp) * phi + float(m) * psi)) * d


def wigner_D_matrix(j, phi: float, theta: float, psi: float) -> np.ndarray:
    """Unitary matrix D^j(phi, theta, psi), rows and columns m = +j .. -j."""
    j = halfint(j)
    _check_angles(phi=phi, theta=theta, psi=psi)
    d = wigner_d_matrix(j, theta)
    mvals = np.arange(j.doubled, -j.doubled - 1, -2) / 2.0
    return np.exp(-1j * phi * mvals)[:, None] * d * np.exp(-1j * psi * mvals)[None, :]


def _legendre_table(l_max: int, theta: np.ndarray, orders=None) -> np.ndarray:
    """Y^l_m(theta, 0) as table[l, o, i] for 0 <= l <= l_max, the o-th of the ascending orders m
    (every m in 0 .. l_max by default) and 1-d theta; zero for m > l.

    One pass up in l: the sectoral Y^l_l come down the diagonal from Y^0_0,
    the other orders from the normalized three-term recursion in l, for all
    orders and nodes at once.  Fewer orders cost less, with the same values.
    """
    x, s = np.cos(theta), np.sin(theta)
    m = np.arange(l_max + 1) if orders is None else np.asarray(orders)
    table = np.zeros((l_max + 1, len(m), len(theta)))
    sectoral = np.full(len(theta), 1.0 / math.sqrt(4 * math.pi))
    for l in range(l_max + 1):
        if l:
            sectoral = sectoral * (-math.sqrt((2 * l + 1) / (2 * l)) * s)
        k = np.searchsorted(m, l)  # m[:k] are the orders below l
        if k < len(m) and m[k] == l:
            table[l, k] = sectoral
        if k:
            a = np.sqrt((4 * l * l - 1) / (l * l - m[:k] ** 2))[:, None]
            table[l, :k] = a * x * table[l - 1, :k]
            if l > 1:
                b = np.sqrt(((l - 1) ** 2 - m[:k] ** 2) / (4 * (l - 1) ** 2 - 1))[:, None]
                table[l, :k] -= a * b * table[l - 2, :k]
    return table


def spherical_harmonic(l: int, m: int, theta, phi):
    """Spherical harmonic Y^l_m(theta, phi); accepts scalars or arrays.

    Y^l_m(theta, 0) is entry (l, m) of ``_legendre_table``.  Negative orders
    are produced from Y^l_{-m} = (-1)^m conj(Y^l_m), which keeps the
    conjugation identity exact in floating point.
    """
    if not _is_int(l) or not _is_int(m):
        raise DomainError("spherical harmonic degree and order must be ints")
    if l < 0 or l > MAX_DEGREE:
        raise DomainError(f"degree l = {l} outside the supported range")
    if abs(m) > l:
        raise DomainError(f"|m| = {abs(m)} exceeds l = {l}")
    _check_angles(theta=theta, phi=phi)
    if m < 0:
        y = spherical_harmonic(l, -m, theta, phi)
        return np.conj(y) if (-m) % 2 == 0 else -np.conj(y)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    val = _legendre_table(l, theta.ravel(), [m])[l, 0].reshape(theta.shape) * np.exp(1j * m * phi)
    return val[()] if val.ndim == 0 else val
