"""Statistical tensor parameters of a spin-j density matrix.

A spin-j state is expanded over irreducible tensor operators tau^k_q with
matrix elements

    <j m'| tau^k_q |j m> = sqrt(2k+1) <j m, k q | j m'>,

which satisfy Tr(tau^k_q^dag tau^k'_q') = (2j+1) delta_kk' delta_qq' and
tau^k_q^dag = (-1)^q tau^k_{-q}.  The expansion and its inverse are

    t^k_q = Tr(rho tau^k_q),        rho = 1/(2j+1) sum_kq t^k_q tau^k_q^dag.

The operators are built in floating point, one order q at a time (the
idea of Racah 1942, tensor operators from J+- and Jz alone): the nonzero
diagonals of tau^k_q, k = |q| .. 2j, are an orthogonal family of discrete
polynomials in m times the diagonal of (J-)^|q|, generated by a three-term
Lanczos recursion in m with full reorthogonalization.  They agree with the
exact Clebsch-Gordan values to about 6e-15 at 2j = 60.  One cached,
zero-padded stack per j, S[p, k, c] for the order -p, holds every
nonzero diagonal; ``tau_operator``, ``rho_to_t`` and ``t_to_rho`` all read
it, the conversions as one stacked real product of S, one order at a time,
with the diagonals of rho or with the rank blocks.  These products of a
real table with a complex operand, like those with the quarter turns below
and pfunc's quadrature of t^k_q, go through ``_real_product``, which reads
the complex operand as pairs of floats instead of copying the real table to
complex.

``rotate_t`` applies the same active rotation to the parameters that
U(phi, theta, psi) applies to the state, so that
rotate_t(rho_to_t(rho)) == rho_to_t(U rho U^dag).  It factors each
rank's d^k(theta) through the quarter turn Delta = d^k(pi/2) (Risbo
1996; Trapani and Navaza 2006), from one read-only plan per spin, built on
first use, so no result depends on the spins rotated before.  Its phases act
on the whole flat table at once; each pass is one stacked product per class.

``TensorParams`` and ``pfunc.SphericalExpansion`` share one table layout,
owned here: blocks k = 0 .. K, q = -k .. k, as read-only views of one flat
array (rank k at k^2 .. (k+1)^2 - 1), checked once, as that flat array, for
finiteness, normalization and conj(x^k_q) = (-1)^q x^k_-q.  Blocks handed
to a constructor are checked for shape and concatenated first; the internal
producers (``rho_to_t``, ``rotate_t``, the P-function routes, ``from_table``)
build the flat array themselves and hand it over uncopied.  One function
fills it from {(k, q): value} mappings, one completes it from its q >= 0
half, and one gathers that half back out.

Matrices are indexed by descending m, from +j to -j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Mapping

import numpy as np
import warnings

from .angular import MAX_DOUBLED_J, _check_angles, _d_ladder, _freeze, _table_cache
from .errors import DomainError, NonPhysicalWarning, ValidationError
from .halfint import HalfInt, _index, dimension, halfint

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10
TENSOR_TOL = 1e-12
_CONJUGATION = "conj(t^k_q) = (-1)^q t^k_-q"


def _first_rank(bad: np.ndarray) -> int | None:
    """Rank of the first True entry of a mask over the flat rank layout, or None."""
    return math.isqrt(int(bad.argmax())) if bad.any() else None


@_table_cache(maxsize=None)
def _rank_layout(top: int) -> tuple:
    """Read-only k, q, index of x^k_-q and sign (-1)^q of each entry of the flat layout of ranks 0 .. top."""
    k = np.repeat(np.arange(top + 1), 2 * np.arange(top + 1) + 1)
    q = np.arange((top + 1) ** 2) - k * k - k
    return k, q, k * k + k - q, (-1.0) ** q


def _split(flat: np.ndarray) -> tuple:
    """Views of the blocks of a flat layout, rank k at k^2 .. (k+1)^2 - 1."""
    return tuple(flat[k * k : (k + 1) ** 2] for k in range(math.isqrt(len(flat))))


def _checked_flat(
    flat: np.ndarray, noun: str, identity: str, normalized: bool = False, misshaped: str | None = None
) -> np.ndarray:
    """A fresh flat layout, made read-only after its checks in this order: finiteness, the caller's
    shape error ``misshaped`` if it has one, t^0_0 = 1 if normalized, the conjugation identity."""
    bad = _first_rank(~np.isfinite(flat))
    if bad is not None:
        raise ValidationError(f"{noun} {bad} block has a non-finite entry")
    if misshaped is not None:
        raise ValidationError(misshaped)
    if normalized and abs(flat[0] - 1.0) > TENSOR_TOL:
        raise ValidationError(f"t^0_0 = {flat[0]:.6g}, expected 1 (normalization)")
    _, _, mirror, sign = _rank_layout(math.isqrt(len(flat)) - 1)
    bad = _first_rank(np.abs(flat - sign * flat[mirror].conj()) > TENSOR_TOL)
    if bad is not None:
        raise ValidationError(f"{noun} {bad} violates {identity}")
    return _freeze(flat)


def _checked_blocks(blocks, noun: str, identity: str, normalized: bool = False) -> np.ndarray:
    """One fresh read-only flat copy of blocks 0, 1, ...: the blocks before the first not of shape
    (2k + 1,) are concatenated and checked by ``_checked_flat``, with that block's shape as its error."""
    parts, misshaped = [], None
    for k, block in enumerate(blocks):
        a = np.asarray(block, dtype=complex)
        if a.shape != (2 * k + 1,):
            misshaped = f"{noun} {k} block has shape {a.shape}, expected ({2 * k + 1},)"
            break
        parts.append(a)
    flat = np.concatenate(parts or [np.zeros(0, dtype=complex)])
    return _checked_flat(flat, noun, identity, normalized, misshaped)


def _entry_flat(top: int, table: Mapping, rank: str, order: str) -> np.ndarray:
    """Flat layout of ranks 0 .. top from a {(k, q): value} mapping, zero where it has no entry; a key
    out of range raises ValidationError naming its ``rank`` or ``order``."""
    flat = np.zeros((top + 1) ** 2, dtype=complex)
    for (k, q), v in table.items():
        _index(k, rank, 0, top, ValidationError)
        flat[k * k + k + _index(q, order, -k, k, ValidationError)] = v
    return flat


def _from_half(half: np.ndarray) -> np.ndarray:
    """Flat layout from half[k, q] = x^k_q, 0 <= q <= k, and the identity x^k_-q = (-1)^q conj(x^k_q)."""
    k, q, _, sign = _rank_layout(len(half) - 1)
    kept = half[k, np.abs(q)]
    return np.where(q < 0, kept.conj() * sign, kept)


def _half_table(flat: np.ndarray, size: int) -> np.ndarray:
    """half[k, q] = x^k_q of a flat layout for 0 <= q <= k, zero elsewhere in a size x size table."""
    k, q, _, _ = _rank_layout(math.isqrt(len(flat)) - 1)
    half = np.zeros((size, size), dtype=complex)
    kept = q >= 0
    half[k[kept], q[kept]] = flat[kept]
    return half


def _real_product(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for a real matrix or stack of matrices m and a complex vector or matrix (or stack) v.

    v is read as interleaved floats, each complex column two real ones, so
    the real table is never copied to complex; only a v whose rows are not
    contiguous is copied first.
    """
    v = np.ascontiguousarray(v)
    if v.ndim == 1:
        return (m @ v.view(float).reshape(-1, 2)).view(complex)[..., 0]
    return (m @ v.view(float)).view(complex)


def _spin(j) -> HalfInt:
    """j as a HalfInt, checked to lie in 0 .. MAX_DOUBLED_J / 2 before anything of its size is built."""
    j = halfint(j)
    if j.doubled < 0:
        raise DomainError(f"j must be non-negative, got {j}")
    if j.doubled > MAX_DOUBLED_J:
        raise DomainError(f"j = {j} exceeds the supported range (j <= {MAX_DOUBLED_J // 2})")
    return j


@dataclass(frozen=True, eq=False)
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
        j = _spin(self.j)
        object.__setattr__(self, "j", j)
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
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return dimension(self.j)

    def purity(self) -> float:
        """Tr(rho^2)."""
        return float(np.sum(np.abs(self.matrix) ** 2))

    def min_eigenvalue(self) -> float:
        return self._lowest_eigenvalue

    @cached_property
    def _lowest_eigenvalue(self) -> float:
        # the matrix is read-only, so one eigendecomposition serves every query
        return float(np.linalg.eigvalsh(self.matrix)[0])

    @property
    def is_physical(self) -> bool:
        """True when no eigenvalue lies below -1e-10.

        One Cholesky factorization of rho - PSD_FLOOR I decides it; only a
        matrix it rejects is diagonalized, unless its eigenvalues are known.
        """
        if "_lowest_eigenvalue" not in self.__dict__:
            try:
                np.linalg.cholesky(self.matrix - PSD_FLOOR * np.eye(len(self.matrix)))
                return True
            except np.linalg.LinAlgError:
                pass
        return self.min_eigenvalue() >= PSD_FLOOR


@dataclass(frozen=True, eq=False)
class TensorParams:
    """Tensor parameters t^k_q of a spin-j state, ranks k = 0 .. 2j.

    ``ranks[k]`` is a read-only complex array over q = -k .. +k (ascending).
    Valid tables have t^0_0 = 1 and obey conj(t^k_q) = (-1)^q t^k_{-q}.
    ``==`` is identity; compare tables with :meth:`max_abs_diff`.
    """

    j: HalfInt
    ranks: tuple = field(repr=False)

    def __post_init__(self) -> None:
        j = _spin(self.j)
        object.__setattr__(self, "j", j)
        if len(self.ranks) != j.doubled + 1:
            raise ValidationError(f"expected ranks 0 .. {j.doubled}, got {len(self.ranks)} blocks")
        flat = _checked_blocks(self.ranks, "rank", _CONJUGATION, normalized=True)
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "ranks", _split(flat))

    @classmethod
    def _from_flat(cls, j: HalfInt, flat: np.ndarray) -> "TensorParams":
        """The table of ranks 0 .. 2j laid out in ``flat``, a fresh array handed over by its producer
        (with j already checked): checked in place by the constructor's rule and messages, not copied."""
        t = object.__new__(cls)
        object.__setattr__(t, "j", j)
        object.__setattr__(t, "_flat", _checked_flat(flat, "rank", _CONJUGATION, normalized=True))
        object.__setattr__(t, "ranks", _split(flat))
        return t

    @classmethod
    def from_table(cls, j, table: Mapping) -> "TensorParams":
        """Build from a {(k, q): value} mapping.

        Missing entries are zero except t^0_0, which defaults to the
        only value normalization allows.
        """
        j = _spin(j)
        return cls._from_flat(j, _entry_flat(j.doubled, {(0, 0): 1.0, **table}, "rank k", "order q"))

    @property
    def max_rank(self) -> int:
        return self.j.doubled

    def rank(self, k: int) -> np.ndarray:
        """Copy of the rank-k block, q ascending from -k to +k."""
        return self.ranks[_index(k, "rank k", 0, self.max_rank)].copy()

    def item(self, k: int, q: int) -> complex:
        block = self.ranks[_index(k, "rank k", 0, self.max_rank)]
        return complex(block[_index(q, "order q", -k, k) + k])

    def table(self) -> dict:
        k, q, _, _ = _rank_layout(self.max_rank)
        return dict(zip(zip(k.tolist(), q.tolist()), np.concatenate(self.ranks).tolist()))

    def max_abs_diff(self, other: "TensorParams") -> float:
        if self.j != other.j:
            raise DomainError("tensor parameter sets have different j")
        return max(float(np.abs(a - b).max()) for a, b in zip(self.ranks, other.ranks))


def _order_block(dj: int, p: int) -> np.ndarray:
    """Nonzero diagonals of tau^k_{-p} on spin dj/2, row k - p for k = p .. 2j.

    Entry c of a row is <j m-p| tau^k_{-p} |j m> at m = j - c.  At a fixed
    order these diagonals are an orthogonal basis, each of norm sqrt(2j+1):
    the diagonal of (J-)^p times polynomials in m of degree k - p.  Starting
    from (J-)^p, each next row is the last one times m - p/2 (what
    (Jz X + X Jz)/2 does on that diagonal), orthogonalized twice against
    the rows above.  No sign needs fixing: each row's polynomial has a
    positive leading coefficient and all its zeros between the extreme
    nodes, so it is positive at m = j, as the single positive Racah term
    makes sqrt(2k+1) <j j, k -p | j j-p>.  That entry can be as small as
    1e-17 at 2j = 60, too small to read a sign from.
    """
    dim = dj + 1
    dm = np.arange(dj, 2 * p - dj - 1, -2)  # doubled m of the columns: j .. p - j
    i = np.arange(p)[:, None]
    v = np.sqrt(np.prod((dj + dm - 2 * i) * (dj - dm + 2 * i + 2) / 4.0, axis=0))
    x = (dm - p) / 2.0
    rows = np.empty((dim - p, dim - p))
    for r in range(dim - p):
        for _ in range(2):
            v = v - rows[:r].T @ (rows[:r] @ v) / dim
        # sqrt(v.v), not a BLAS norm, keeps tau^0_0 exactly the identity
        rows[r] = v * (np.sqrt(dim) / np.sqrt(v @ v))
        v = x * rows[r]
    return rows


@_table_cache(maxsize=None)
def _order_stack(dj: int) -> np.ndarray:
    """Read-only S[p, k, c] = _order_block(dj, p)[k - p, c], zero for k < p or c > 2j - p."""
    dim = dj + 1
    stack = np.zeros((dim, dim, dim))
    for p in range(dim):
        stack[p, p:, : dim - p] = _order_block(dj, p)
    return stack


def tau_operator(j, k: int, q: int) -> np.ndarray:
    """Irreducible tensor operator tau^k_q on the spin-j space.

    Matrix elements sqrt(2k+1) <j m, k q | j m'> in the descending-m basis.
    """
    j = _spin(j)
    _index(k, "rank k", 0, j.doubled)
    _index(q, "order q", -k, k)
    diagonal = _order_stack(j.doubled)[abs(q), k, : j.doubled + 1 - abs(q)]
    return (-1.0) ** max(q, 0) * np.diag(diagonal, q).astype(complex)


def rho_to_t(rho: SpinDensityMatrix) -> TensorParams:
    """Tensor parameters t^k_q = Tr(rho tau^k_q)."""
    dj = rho.j.doubled
    c = np.arange(dj + 1)
    # d[p, c] = <j m| rho |j m-p> at m = j - c, read from the Hermitian part so
    # that the conjugation identity holds exactly; entries past the end of
    # the p-th diagonal meet zeros of the stack.
    h = 0.5 * (rho.matrix + rho.matrix.conj().T)
    d = h[c, np.minimum(c + c[:, None], dj)]
    low = _real_product(_order_stack(dj), d[:, :, None])[:, :, 0].T  # low[k, p] = t^k_{-p}
    half = (-1.0) ** c * low.conj()  # half[k, q] = t^k_q = (-1)^q conj(t^k_{-q})
    half[:, 0] = low[:, 0]
    flat = _from_half(half)
    # Tr(rho tau^0_0) is exactly the trace
    flat[0] = 1.0
    return TensorParams._from_flat(rho.j, flat)


def t_to_rho(t: TensorParams) -> SpinDensityMatrix:
    """Reconstruct rho = 1/(2j+1) sum_kq t^k_q tau^k_q^dag.

    Warns :class:`NonPhysicalWarning` when the result has an eigenvalue
    below -1e-10; Hermiticity and unit trace always hold by construction.
    """
    dim = t.j.doubled + 1
    c = np.arange(dim)
    up = _half_table(t._flat, dim)  # up[k, p] = t^k_p
    # tau^k_p^dag = (-1)^p tau^k_-p fills the p-th lower diagonal; Hermiticity
    # gives the upper ones, and halving p = 0 keeps the diagonal counted once.
    lower = _real_product(_order_stack(dim - 1).transpose(0, 2, 1), up.T[:, :, None])[:, :, 0]
    lower *= ((-1.0) ** c / dim)[:, None]
    lower[0] *= 0.5
    acc = np.zeros((2 * dim - 1, dim), dtype=complex)  # rows past 2j take the stack's padding
    acc[c + c[:, None], c] = lower
    acc = acc[:dim] + acc[:dim].conj().T
    rho = SpinDensityMatrix(t.j, acc)
    if not rho.is_physical:
        warnings.warn(
            f"reconstructed matrix has minimum eigenvalue {rho.min_eigenvalue():.6g}",
            NonPhysicalWarning,
            stacklevel=2,
        )
    return rho


# Ranks per size class of a quarter-turn plan
_TURN_CLASS = 8


@_table_cache(maxsize=8)
def _turn_plan(k_max: int) -> tuple:
    """(where, size, classes): ``rotate_t``'s plan for ranks 0 .. k_max, W = _TURN_CLASS ranks a class.

    ``where`` places each flat entry in a padded vector of length ``size``.  Class c, ranks
    lo = c W .. hi, is (its slice of that vector, count, width 2 hi + 1, hi, delta): rank k
    at offset (k - lo) width in the slice, order q at hi - q, and delta[k - lo] = d^k(pi/2)
    on rows and columns q = +hi .. -hi, the even steps of one d ladder at pi/2, all read-only
    views of one buffer.
    """
    k, q, _, _ = _rank_layout(k_max)
    lo = np.arange(0, k_max + 1, _TURN_CLASS)
    hi = np.minimum(lo + _TURN_CLASS - 1, k_max)
    count, width = hi - lo + 1, 2 * hi + 1
    start = np.cumsum(count * width) - count * width
    c = k // _TURN_CLASS
    where = start[c] + (k - lo[c]) * width[c] + hi[c] - q
    ladder = islice(_d_ladder(2 * k_max, math.pi / 2), None, None, 2)
    buffer = np.zeros(int((count * width**2).sum()))
    classes, used = [], 0
    for first, n, w, h, s in zip(lo.tolist(), count.tolist(), width.tolist(), hi.tolist(), start.tolist()):
        delta = buffer[used : used + n * w * w].reshape(n, w, w)
        used += delta.size
        for rank in range(first, first + n):
            delta[rank - first, h - rank : h + rank + 1, h - rank : h + rank + 1] = next(ladder)
        classes.append((slice(s, s + n * w), n, w, h, delta))
    return where, int((count * width).sum()), tuple(classes)


def rotate_t(t: TensorParams, phi: float, theta: float, psi: float) -> TensorParams:
    """Tensor parameters of the actively rotated state U rho U^dag.

    Each rank transforms as t'^k_q = sum_q' conj(D^k_{q q'}) t^k_{q'} with
    the same Euler angles that rotate the state, and conj(D^k) =
    e^{i phi q} d^k(theta) e^{i psi q'} with d^k real.  The rotation about y
    is factored through quarter turns (Risbo 1996, J. Geodesy 70, 383;
    Trapani and Navaza 2006, Acta Cryst. A62, 262):

        d^k(theta) = diag(i^-q) Delta^T diag(e^{i q theta}) Delta diag(i^q),

    with Delta = d^k(pi/2) from one plan per spin, built on first use
    (``_turn_plan``).  The outer phases act on the whole flat table at once;
    each pass with Delta or Delta^T is one stacked product per size class
    of ranks, every rank zero-padded to its class's width.
    """
    _check_angles(phi=phi, theta=theta, psi=psi)
    kmax = t.max_rank
    where, size, classes = _turn_plan(kmax)
    _, q, _, _ = _rank_layout(kmax)
    steps = np.arange(-kmax, kmax + 1)
    quarter = np.array([1, 1j, -1, -1j])[steps % 4]  # i^q, exact
    x = np.zeros(size, dtype=complex)
    x[where] = t._flat * (np.exp(1j * psi * steps) * quarter)[q + kmax]
    turn = np.exp(1j * theta * steps[::-1])  # q descending, as the rows of Delta
    for s, count, width, hi, delta in classes:
        y = _real_product(delta, x[s].reshape(count, width, 1)) * turn[kmax - hi : kmax + hi + 1, None]
        x[s] = _real_product(delta.transpose(0, 2, 1), y).reshape(-1)
    return TensorParams._from_flat(t.j, x[where] * (np.exp(1j * phi * steps) * quarter.conj())[q + kmax])


def maximally_mixed(j) -> SpinDensityMatrix:
    """The state with every tensor parameter above rank zero equal to zero."""
    j = _spin(j)
    dim = dimension(j)
    return SpinDensityMatrix(j, np.eye(dim) / dim)
