"""Statistical tensor parameters of a spin-j density matrix.

A spin-j state is expanded over irreducible tensor operators tau^k_q with
matrix elements

    <j m'| tau^k_q |j m> = sqrt(2k+1) <j m, k q | j m'>,

which satisfy Tr(tau^k_q^dag tau^k'_q') = (2j+1) delta_kk' delta_qq' and
tau^k_q^dag = (-1)^q tau^k_{-q}.  The expansion and its inverse are

    t^k_q = Tr(rho tau^k_q),        rho = 1/(2j+1) sum_kq t^k_q tau^k_q^dag.

``rotate_t`` applies the same active rotation to the parameters that
U(phi, theta, psi) applies to the state, so that
rotate_t(rho_to_t(rho)) == rho_to_t(U rho U^dag).

Matrices are indexed by descending m, from +j to -j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import Mapping

import numpy as np
import warnings

from .angular import MAX_DOUBLED_J, _d_ladder, cg_value
from .errors import DomainError, NonPhysicalWarning, ValidationError
from .halfint import HalfInt, dimension, halfint

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10
TENSOR_TOL = 1e-12


def _conjugation_mirror(a: np.ndarray) -> np.ndarray:
    """(-1)^q conj(a_-q), q ascending; a block obeying the conjugation identity is its own."""
    k = (len(a) - 1) // 2
    return a[::-1].conj() * (-1.0) ** np.arange(-k, k + 1)


def _check_spin(j: HalfInt) -> None:
    if j.doubled < 0:
        raise DomainError(f"j must be non-negative, got {j}")
    if j.doubled > MAX_DOUBLED_J:
        raise DomainError(f"j = {j} exceeds the supported range (j <= {MAX_DOUBLED_J // 2})")


@dataclass(frozen=True)
class SpinDensityMatrix:
    """A trace-one Hermitian matrix on the spin-j ladder basis.

    Hermiticity and unit trace are enforced on construction; positivity is
    not, because physically meaningful workflows (inverting a tensor table,
    truncating an expansion) can produce indefinite matrices that should be
    inspected rather than rejected.  Use :attr:`is_physical`.
    """

    j: HalfInt
    matrix: np.ndarray

    def __post_init__(self) -> None:
        j = halfint(self.j)
        object.__setattr__(self, "j", j)
        _check_spin(j)
        m = np.array(self.matrix, dtype=complex)
        dim = dimension(j)
        if m.shape != (dim, dim):
            raise ValidationError(f"matrix shape {m.shape} does not match dimension {dim} for j = {j}")
        if not np.isfinite(m).all():
            raise ValidationError("matrix has a non-finite entry")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise ValidationError("matrix fails hermiticity within 1e-12")
        if abs(m.trace() - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace is {m.trace():.6g}, expected 1 within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return dimension(self.j)

    def purity(self) -> float:
        """Tr(rho^2)."""
        return float(np.sum(np.abs(self.matrix) ** 2))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    @property
    def is_physical(self) -> bool:
        """True when no eigenvalue lies below -1e-10."""
        return self.min_eigenvalue() >= PSD_FLOOR


@dataclass(frozen=True)
class TensorParams:
    """Tensor parameters t^k_q of a spin-j state, ranks k = 0 .. 2j.

    ``ranks[k]`` is a read-only complex array over q = -k .. +k (ascending).
    Valid tables have t^0_0 = 1 and obey conj(t^k_q) = (-1)^q t^k_{-q}.
    """

    j: HalfInt
    ranks: tuple = field(repr=False)

    def __post_init__(self) -> None:
        j = halfint(self.j)
        object.__setattr__(self, "j", j)
        _check_spin(j)
        if len(self.ranks) != j.doubled + 1:
            raise ValidationError(f"expected ranks 0 .. {j.doubled}, got {len(self.ranks)} blocks")
        rks = []
        for k, block in enumerate(self.ranks):
            a = np.array(block, dtype=complex)
            if a.shape != (2 * k + 1,):
                raise ValidationError(f"rank {k} block has shape {a.shape}, expected ({2 * k + 1},)")
            if not np.isfinite(a).all():
                raise ValidationError(f"rank {k} block has a non-finite entry")
            a.setflags(write=False)
            rks.append(a)
        object.__setattr__(self, "ranks", tuple(rks))
        if abs(self.ranks[0][0] - 1.0) > TENSOR_TOL:
            raise ValidationError(f"t^0_0 = {self.ranks[0][0]:.6g}, expected 1 (normalization)")
        for k, a in enumerate(self.ranks):
            if np.abs(a - _conjugation_mirror(a)).max() > TENSOR_TOL:
                raise ValidationError(f"rank {k} violates conj(t^k_q) = (-1)^q t^k_-q")

    @classmethod
    def from_table(cls, j, table: Mapping) -> "TensorParams":
        """Build from a {(k, q): value} mapping.

        Missing entries are zero except t^0_0, which defaults to the
        only value normalization allows.
        """
        j = halfint(j)
        _check_spin(j)
        blocks = [np.zeros(2 * k + 1, dtype=complex) for k in range(j.doubled + 1)]
        blocks[0][0] = 1.0
        for (k, q), v in table.items():
            if not 0 <= k <= j.doubled:
                raise ValidationError(f"rank {k} outside 0 .. {j.doubled}")
            if not -k <= q <= k:
                raise ValidationError(f"order q = {q} outside |q| <= {k}")
            blocks[k][q + k] = v
        return cls(j, tuple(blocks))

    @property
    def max_rank(self) -> int:
        return self.j.doubled

    def rank(self, k: int) -> np.ndarray:
        """Copy of the rank-k block, q ascending from -k to +k."""
        if not 0 <= k <= self.max_rank:
            raise DomainError(f"rank {k} outside 0 .. {self.max_rank}")
        return self.ranks[k].copy()

    def item(self, k: int, q: int) -> complex:
        if not 0 <= k <= self.max_rank:
            raise DomainError(f"rank {k} outside 0 .. {self.max_rank}")
        if not -k <= q <= k:
            raise DomainError(f"order q = {q} outside |q| <= {k}")
        return complex(self.ranks[k][q + k])

    def table(self) -> dict:
        return {(k, q): complex(self.ranks[k][q + k]) for k in range(self.max_rank + 1) for q in range(-k, k + 1)}

    def max_abs_diff(self, other: "TensorParams") -> float:
        if self.j != other.j:
            raise DomainError("tensor parameter sets have different j")
        return max(float(np.abs(a - b).max()) for a, b in zip(self.ranks, other.ranks))


def _tau_matrix(dj: int, k: int, q: int) -> np.ndarray:
    """Real matrix of tau^k_q on spin dj/2, from exact CG values."""
    dim = dj + 1
    out = np.zeros((dim, dim))
    scale = np.sqrt(2 * k + 1)
    for col, dm in enumerate(range(dj, -dj - 1, -2)):
        dmp = dm + 2 * q
        if abs(dmp) <= dj:
            row = (dj - dmp) // 2
            out[row, col] = scale * cg_value(HalfInt(dj), HalfInt(2 * k), HalfInt(dj), HalfInt(dm), HalfInt(2 * q), HalfInt(dmp))
    return out


@lru_cache(maxsize=None)
def _tau_table(dj: int) -> np.ndarray:
    """Read-only real table; row k^2 + k + q, as in np.concatenate(t.ranks), is vec(tau^k_q)."""
    dim = dj + 1
    table = np.empty((dim * dim, dim * dim))
    for k in range(dim):
        for q in range(-k, k + 1):
            table[k * k + k + q] = _tau_matrix(dj, k, q).ravel()
    table.setflags(write=False)
    return table


def tau_operator(j, k: int, q: int) -> np.ndarray:
    """Irreducible tensor operator tau^k_q on the spin-j space.

    Matrix elements sqrt(2k+1) <j m, k q | j m'> in the descending-m basis.
    """
    j = halfint(j)
    _check_spin(j)
    if not isinstance(k, int) or not isinstance(q, int):
        raise DomainError("rank and order must be ints")
    if not 0 <= k <= j.doubled:
        raise DomainError(f"rank k = {k} outside 0 .. 2j = {j.doubled}")
    if abs(q) > k:
        raise DomainError(f"order q = {q} outside |q| <= {k}")
    return _tau_matrix(j.doubled, k, q).astype(complex)


def rho_to_t(rho: SpinDensityMatrix) -> TensorParams:
    """Tensor parameters t^k_q = Tr(rho tau^k_q)."""
    dj = rho.j.doubled
    # Tr(rho tau) = vec(tau) . vec(rho^T), real and imaginary parts apart
    v = rho.matrix.T.ravel()
    re, im = np.stack((v.real, v.imag)) @ _tau_table(dj).T
    flat = re + 1j * im
    blocks = [flat[k * k : (k + 1) ** 2] for k in range(dj + 1)]
    # Tr(rho tau^0_0) is exactly the trace, and the conjugation identity
    # holds to rounding; snap both so the table validates cleanly.
    blocks[0][0] = 1.0
    return TensorParams(rho.j, tuple(0.5 * (b + _conjugation_mirror(b)) for b in blocks))


def t_to_rho(t: TensorParams) -> SpinDensityMatrix:
    """Reconstruct rho = 1/(2j+1) sum_kq t^k_q tau^k_q^dag.

    Warns :class:`NonPhysicalWarning` when the result has an eigenvalue
    below -1e-10; Hermiticity and unit trace always hold by construction.
    """
    dim = t.j.doubled + 1
    # tau^dag = tau^T: the product with the table is vec((2j+1) rho^T)
    flat = np.concatenate(t.ranks)
    re, im = np.stack((flat.real, flat.imag)) @ _tau_table(t.j.doubled)
    acc = (re + 1j * im).reshape(dim, dim).T / dim
    acc = 0.5 * (acc + acc.conj().T)
    rho = SpinDensityMatrix(t.j, acc)
    if not rho.is_physical:
        warnings.warn(
            f"reconstructed matrix has minimum eigenvalue {rho.min_eigenvalue():.6g}",
            NonPhysicalWarning,
            stacklevel=2,
        )
    return rho


def rotate_t(t: TensorParams, phi: float, theta: float, psi: float) -> TensorParams:
    """Tensor parameters of the actively rotated state U rho U^dag.

    Each rank transforms as t'^k_q = sum_q' conj(D^k_{q q'}) t^k_{q'} with
    the same Euler angles that rotate the state.  One d ladder serves every
    rank: its even steps are the integer spins k.
    """
    blocks = []
    for k, d in enumerate(islice(_d_ladder(2 * t.max_rank, theta), None, None, 2)):
        qs = np.arange(k, -k - 1, -1, dtype=float)  # rows/cols of d: q = +k .. -k
        vec = t.ranks[k][::-1]  # descending q to match the matrix ordering
        # conj(D) = e^{i phi q} d e^{i psi q'}, d being real
        blocks.append((np.exp(1j * phi * qs) * (d @ (np.exp(1j * psi * qs) * vec)))[::-1])
    return TensorParams(t.j, tuple(blocks))


def maximally_mixed(j) -> SpinDensityMatrix:
    """The state with every tensor parameter above rank zero equal to zero."""
    j = halfint(j)
    _check_spin(j)
    dim = dimension(j)
    return SpinDensityMatrix(j, np.eye(dim) / dim)
