"""Diagonal coherent-state representation of symmetric spin states.

A spin-j coherent state |alpha(theta, phi)> points along (theta, phi) and
has ladder-basis amplitudes

    <j m|alpha> = sqrt(C(2j, j+m)) cos^{j+m}(theta/2) sin^{j-m}(theta/2) e^{-i m phi},

the m-th column entry of D^j(phi, theta, 0) at m' = j.  A normalized weight
function lambda(Omega) on the sphere determines both a state and its tensor
parameters directly:

    rho = integral lambda(Omega) |alpha><alpha| dOmega,
    t^k_q = c_k(j) integral lambda(Omega) Y^k_q(Omega) dOmega,

with the rank-dependent scale c_k(j) = sqrt(4 pi) <j j, k 0|j j>, read from
its closed form sqrt(4 pi) N! sqrt(N+1) / sqrt((N-k)! (N+k+1)!), N = 2j, as
an exact factorial ratio under one float square root.  The two routes
agree exactly for band-limited lambda on a large enough grid, which the
tests exploit as mutual oracles.

The grid is a product of theta rings and uniform phi, and an amplitude
factors as b_a(theta) e^{-i m_a phi} with b real, so the state is summed
one ring at a time:

    rho_ac = sum_i b_a(theta_i) b_c(theta_i) F_i(c - a),
    F_i(p) = sum_phi w(theta_i, phi) e^{-i p phi},

with w the normalized node weights times lambda: the same sum over nodes,
in another order, so a grid too coarse in phi aliases exactly as it would
node by node.  An expansion lambda is evaluated the same way, on a grid or
at arbitrary points: the Legendre table on the distinct theta nodes
contracts with the coefficients to one value per node and order m, and
the phases e^{-i m phi} finish every point.

Default grids (``QuadratureGrid.for_band_limit``, ``default_grid``) are
built once per band limit, in a bounded cache, and shared: a grid is
frozen and its arrays are read-only.

Weight functions are represented either as callables of (theta, phi) or as
:class:`SphericalExpansion` coefficient tables over conj(Y^l_m).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .angular import MAX_DEGREE
from .errors import DomainError, NonClassicalWarning, ValidationError
from .halfint import HalfInt, halfint
from .tensors import SpinDensityMatrix, TensorParams, _check_spin, _conjugation_mirror, _order_block

NORMALIZATION_TOL = 1e-8
REALITY_TOL = 1e-10
NEGATIVITY_FLOOR = -1e-12
# Legendre-table size (2^21 values, 16 MB) at which the theta nodes are taken in blocks
_TABLE_ENTRIES = 1 << 21


def coherent_state(j, theta: float, phi: float) -> np.ndarray:
    """Amplitude vector of |alpha(theta, phi)>, ordered m = +j .. -j."""
    j = halfint(j)
    _check_spin(j)
    return _coherent_amplitudes(j.doubled, np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))


def _coherent_amplitudes(dj: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Amplitudes of spin dj/2 along the last axis, for scalar or array angles."""
    dm = np.arange(dj, -dj - 1, -2)  # doubled m, +j .. -j
    jp, jm = (dj + dm) // 2, (dj - dm) // 2
    binom = np.sqrt([float(math.comb(dj, i)) for i in jp])
    c, s, phi = np.cos(theta / 2.0)[..., None], np.sin(theta / 2.0)[..., None], phi[..., None]
    return binom * c**jp * s**jm * np.exp(-0.5j * dm * phi)


def multipole_scale(j, k: int) -> float:
    """The constant c_k(j) = sqrt(4 pi) <j j, k 0 | j j>, from its closed form."""
    j = halfint(j)
    _check_spin(j)
    if not 0 <= k <= j.doubled:
        raise DomainError(f"rank k = {k} outside 0 .. 2j = {j.doubled}")
    return float(_multipole_scales(j.doubled)[k])


@lru_cache(maxsize=None)
def _multipole_scales(dj: int) -> np.ndarray:
    """Read-only c_k for k = 0 .. 2j: sqrt(4 pi) N! sqrt(N+1) / sqrt((N-k)! (N+k+1)!), N = 2j.

    The factorial ratio is exact, so c_k is relatively accurate even at 1e-17 (2j = k = 60).
    """
    f = math.factorial
    ratios = [Fraction(f(dj) ** 2 * (dj + 1), f(dj - k) * f(dj + k + 1)) for k in range(dj + 1)]
    scales = np.array([math.sqrt(4 * math.pi * r) for r in ratios])
    scales.setflags(write=False)
    return scales


def _check_l_max(l_max) -> None:
    if not isinstance(l_max, int) or not 0 <= l_max <= MAX_DEGREE:
        raise DomainError(f"l_max must be an int in 0 .. {MAX_DEGREE}, got {l_max!r}")


def _legendre_table(l_max: int, theta: np.ndarray) -> np.ndarray:
    """Y^l_m(theta, 0) as table[l, m, i] for 0 <= m <= l <= l_max and 1-d theta; zero for m > l.

    The sectoral Y^m_m come down the diagonal from Y^0_0, the rest from the
    normalized three-term recursion in l, for all orders and nodes at once.
    """
    x, s = np.cos(theta), np.sin(theta)
    m = np.arange(l_max + 1)
    steps = np.empty((l_max + 1, len(theta)))
    steps[0] = 1.0 / math.sqrt(4 * math.pi)
    steps[1:] = -np.sqrt((2 * m[1:] + 1) / (2 * m[1:]))[:, None] * s
    table = np.zeros((l_max + 1, l_max + 1, len(theta)))
    table[m, m] = np.cumprod(steps, axis=0)
    for l in range(1, l_max + 1):
        mm = m[:l]
        a = np.sqrt((4 * l * l - 1) / (l * l - mm * mm))[:, None]
        table[l, :l] = a * x * table[l - 1, :l]
        if l > 1:
            b = np.sqrt(((l - 1) ** 2 - mm * mm) / (4 * (l - 1) ** 2 - 1))[:, None]
            table[l, :l] -= a * b * table[l - 2, :l]
    return table


@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature on the sphere: Gauss-Legendre in cos(theta),
    uniform in phi.  Node weights sum to 4 pi; the rule integrates any
    integrand of spherical-harmonic degree <= band_limit exactly.
    """

    theta: np.ndarray
    phi: np.ndarray
    theta_weights: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta", "phi", "theta_weights"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if self.theta.shape != self.theta_weights.shape:
            raise ValidationError("theta nodes and weights differ in length")

    @classmethod
    def build(cls, n_theta: int, n_phi: int) -> "QuadratureGrid":
        if n_theta < 1 or n_phi < 1:
            raise DomainError("grid sizes must be positive")
        x, w = np.polynomial.legendre.leggauss(n_theta)
        return cls(np.arccos(x), np.arange(n_phi) * (2 * math.pi / n_phi), w)

    @classmethod
    @lru_cache(maxsize=32)
    def for_band_limit(cls, band_limit: int) -> "QuadratureGrid":
        """Smallest default grid exact through the given harmonic degree.

        Built once per band limit and shared: the grid is frozen and its
        arrays are read-only.  The cache is bounded, so a stream of large
        band limits cannot pin their grids.
        """
        if band_limit < 0:
            raise DomainError("band limit must be non-negative")
        return cls.build(band_limit + 2, 2 * band_limit + 3)

    @property
    def n_theta(self) -> int:
        return len(self.theta)

    @property
    def n_phi(self) -> int:
        return len(self.phi)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, phi) arrays of shape (n_theta, n_phi)."""
        return np.meshgrid(self.theta, self.phi, indexing="ij")

    def weights(self) -> np.ndarray:
        """Node weights of shape (n_theta, n_phi); they sum to 4 pi."""
        return np.repeat(self.theta_weights[:, None], self.n_phi, axis=1) * (2 * math.pi / self.n_phi)

    def integrate(self, values: np.ndarray):
        values = np.asarray(values)
        if values.shape != (self.n_theta, self.n_phi):
            raise ValidationError(f"values shape {values.shape} does not match grid {(self.n_theta, self.n_phi)}")
        return np.sum(self.weights() * values)


@dataclass(frozen=True)
class SphericalExpansion:
    """Coefficients of lambda(Omega) = sum_lm a^l_m conj(Y^l_m(Omega)).

    ``blocks[l]`` holds a^l_m for m = -l .. +l (ascending).  Real-valued
    expansions, the only kind accepted, satisfy
    conj(a^l_m) = (-1)^m a^l_{-m}.
    """

    l_max: int
    blocks: tuple = field(repr=False)

    def __post_init__(self) -> None:
        _check_l_max(self.l_max)
        if len(self.blocks) != self.l_max + 1:
            raise ValidationError(f"expected blocks for l = 0 .. {self.l_max}")
        blocks = []
        for l, block in enumerate(self.blocks):
            a = np.array(block, dtype=complex)
            if a.shape != (2 * l + 1,):
                raise ValidationError(f"degree {l} block has shape {a.shape}, expected ({2 * l + 1},)")
            if np.abs(a - _conjugation_mirror(a)).max() > 1e-12:
                raise ValidationError(f"degree {l} violates the reality condition conj(a^l_m) = (-1)^m a^l_-m")
            a.setflags(write=False)
            blocks.append(a)
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def from_table(cls, l_max: int, table: Mapping) -> "SphericalExpansion":
        _check_l_max(l_max)
        blocks = [np.zeros(2 * l + 1, dtype=complex) for l in range(l_max + 1)]
        for (l, m), v in table.items():
            if not 0 <= l <= l_max:
                raise ValidationError(f"degree {l} outside 0 .. {l_max}")
            if abs(m) > l:
                raise ValidationError(f"order m = {m} outside |m| <= {l}")
            blocks[l][m + l] = v
        return cls(l_max, tuple(blocks))

    @classmethod
    def uniform(cls) -> "SphericalExpansion":
        """The constant distribution 1/(4 pi)."""
        return cls(0, (np.array([1.0 / math.sqrt(4 * math.pi)], dtype=complex),))

    def item(self, l: int, m: int) -> complex:
        if not 0 <= l <= self.l_max:
            raise DomainError(f"degree {l} outside 0 .. {self.l_max}")
        if abs(m) > l:
            raise DomainError(f"order m = {m} outside |m| <= {l}")
        return complex(self.blocks[l][m + l])

    @property
    def norm_integral(self) -> float:
        """integral lambda dOmega = sqrt(4 pi) a^0_0."""
        return float((math.sqrt(4 * math.pi) * self.blocks[0][0]).real)

    @property
    def is_normalized(self) -> bool:
        return abs(self.blocks[0][0] - 1.0 / math.sqrt(4 * math.pi)) <= 1e-12

    def normalized(self) -> "SphericalExpansion":
        n = self.norm_integral
        if abs(n) < 1e-300:
            raise DomainError("cannot normalize an expansion with zero mean")
        return SphericalExpansion(self.l_max, tuple(b / n for b in self.blocks))

    def evaluate(self, theta, phi) -> np.ndarray:
        """lambda(theta, phi) for scalar or array angles."""
        theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
        # points on a grid share their theta; the table needs each only once
        nodes, where = np.unique(theta.ravel(), return_inverse=True)
        rings, where = _ring_orders(self, nodes), where.reshape(theta.shape)
        total = np.zeros(theta.shape, dtype=complex)
        for i, m in enumerate(range(-self.l_max, self.l_max + 1)):
            total += rings[where, i] * np.exp(-1j * m * phi)
        return total[()] if total.ndim == 0 else total


def _ring_orders(lam: SphericalExpansion, theta: np.ndarray) -> np.ndarray:
    """Per-node, per-order values R of shape (len(theta), 2 l_max + 1) such that
    lambda(theta_i, phi) = sum_m R[i, m + l_max] e^{-i m phi}, at any phi.
    """
    big = lam.l_max
    coeffs = np.zeros((big + 1, 2 * big + 1), dtype=complex)  # [l, m + l_max]
    for l, b in enumerate(lam.blocks):
        coeffs[l, big - l : big + l + 1] = b
    # conj(Y^l_m) = Y^l_|m|(theta, 0) e^{-i m phi}, times (-1)^m for m < 0
    coeffs[:, :big] *= (-1.0) ** np.arange(-big, 0)
    rings = np.empty((len(theta), 2 * big + 1), dtype=complex)
    # blocks of nodes keep the Legendre table near _TABLE_ENTRIES values
    step = max(1, _TABLE_ENTRIES // (big + 1) ** 2)
    for lo in range(0, len(theta), step):
        table = _legendre_table(big, theta[lo : lo + step])
        rings[lo : lo + step, big:] = np.einsum("lm,lmi->im", coeffs[:, big:], table)
        rings[lo : lo + step, :big] = np.einsum("lm,lmi->im", coeffs[:, big - 1 :: -1], table[:, 1:])[:, ::-1]
    return rings


def _values_on_grid(lam, grid: QuadratureGrid) -> np.ndarray:
    """Evaluate a weight function on the grid and check it is real."""
    if isinstance(lam, SphericalExpansion):
        # phases at the phi nodes: a grid too coarse in phi aliases as node by node
        orders = np.arange(-lam.l_max, lam.l_max + 1)
        vals = _ring_orders(lam, grid.theta) @ np.exp(-1j * np.outer(orders, grid.phi))
    elif callable(lam):
        th, ph = grid.mesh()
        vals = np.asarray(lam(th, ph), dtype=complex)
        if vals.shape != th.shape:
            vals = np.vectorize(lambda a, b: complex(lam(a, b)))(th, ph)
    else:
        raise DomainError(f"cannot evaluate {type(lam).__name__} as a weight function")
    if np.abs(vals.imag).max() > REALITY_TOL:
        raise ValidationError("weight function takes complex values on the grid")
    return vals.real


def _analysis(w: np.ndarray, grid: QuadratureGrid, l_max: int) -> list[np.ndarray]:
    """Blocks of sum_nodes w Y^l_m for l = 0 .. l_max, m ascending, from real node weights w.

    The sum over phi is one product with e^{i m phi}, the sum over theta one
    contraction with the Legendre table; a real w needs only m >= 0, and
    the conjugation identity supplies the rest.
    """
    m = np.arange(l_max + 1)
    per_m = w @ np.exp(1j * np.outer(grid.phi, m))  # (n_theta, m)
    a = np.einsum("lmi,im->lm", _legendre_table(l_max, grid.theta), per_m)
    blocks = []
    for l in range(l_max + 1):
        b = np.zeros(2 * l + 1, dtype=complex)
        b[l:] = a[l, : l + 1]
        b[:l] = _conjugation_mirror(b)[:l]
        blocks.append(b)
    return blocks


def default_grid(l_max: int, j) -> QuadratureGrid:
    """Grid exact for products of a degree-l_max weight with rank <= 2j harmonics."""
    j = halfint(j)
    return QuadratureGrid.for_band_limit(l_max + j.doubled)


def _distribution_weights(lam, j, grid: QuadratureGrid | None) -> tuple[HalfInt, QuadratureGrid, np.ndarray]:
    """(j, grid, node weights times lambda / its integral): both routes' checked preamble."""
    j = halfint(j)
    _check_spin(j)
    if grid is None:
        if not isinstance(lam, SphericalExpansion):
            raise DomainError("a quadrature grid is required for callable weight functions")
        grid = default_grid(lam.l_max, j)
    vals = _values_on_grid(lam, grid)
    w = grid.weights() * vals
    total = float(np.sum(w))
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(f"weight function integrates to {total:.9g}, expected 1 within 1e-8")
    if vals.min() < NEGATIVITY_FLOOR:
        warnings.warn(
            f"weight function is negative on the grid (min {vals.min():.6g}), "
            "so it is a quasi-probability, not a probability density",
            NonClassicalWarning,
            stacklevel=3,
        )
    return j, grid, w / total


def t_from_distribution(lam, j, grid: QuadratureGrid | None = None) -> TensorParams:
    """Tensor parameters t^k_q = c_k integral lambda Y^k_q dOmega.

    ``lam`` is a SphericalExpansion or a callable of (theta, phi) arrays.
    When no grid is given, one sized for the expansion's band limit is
    used; callables have no known band limit and require an explicit grid.
    """
    j, grid, w = _distribution_weights(lam, j, grid)
    scales = _multipole_scales(j.doubled)
    blocks = [c * a for c, a in zip(scales, _analysis(w, grid, j.doubled))]
    blocks[0][0] = 1.0
    return TensorParams(j, tuple(blocks))


def rho_from_distribution(lam, j, grid: QuadratureGrid | None = None) -> SpinDensityMatrix:
    """The state integral lambda(Omega) |alpha(Omega)><alpha(Omega)| dOmega.

    Summed one theta ring at a time (see the module docstring): one product
    gives every ring's phi sums F_i(p) for p = -2j .. 2j, the real ring
    amplitudes b_a(theta_i) are built once per ring, and one contraction over
    the rings gives rho.
    """
    j, grid, w = _distribution_weights(lam, j, grid)
    dj = j.doubled
    # amplitude a at (theta, phi) is b[theta, a] e^{-i m_a phi} with m_a = j - a
    b = _coherent_amplitudes(dj, grid.theta, np.zeros_like(grid.theta)).real  # (n_theta, dim)
    # ring sums f[i, c - a + 2j] = sum_phi w(theta_i, phi) e^{-i (c - a) phi}
    f = w @ np.exp(-1j * np.outer(grid.phi, np.arange(-dj, dj + 1)))
    idx = np.arange(dj + 1)
    rho = np.einsum("ia,ic,iac->ac", b, b, f[:, idx - idx[:, None] + dj])
    rho = 0.5 * (rho + rho.conj().T)
    rho /= rho.trace().real
    return SpinDensityMatrix(j, rho)


def expansion_from_function(f, l_max: int, grid: QuadratureGrid | None = None) -> SphericalExpansion:
    """Project a function on the sphere onto degrees 0 .. l_max.

    a^l_m = integral f Y^l_m dOmega; exact for band-limited f on the
    default grid, a least-squares style truncation otherwise.
    """
    _check_l_max(l_max)
    if grid is None:
        grid = QuadratureGrid.for_band_limit(2 * l_max)
    vals = _values_on_grid(f, grid)
    return SphericalExpansion(l_max, tuple(_analysis(grid.weights() * vals, grid, l_max)))


def ylm_squared_t(l: int, m: int, j) -> TensorParams:
    """Tensor parameters of the state whose weight function is |Y^l_m|^2.

    The product of harmonics collapses to zonal terms, leaving the closed
    form t^k_0 = c_k sqrt((2k+1)/4pi) <l 0, k 0|l 0><l m, k 0|l m> and
    t^k_q = 0 for q != 0; odd ranks vanish by parity.  Both factors of
    the Gaunt product are order-0 tensor-operator diagonals on spin l,
    <l m, k 0|l m> = <l m| tau^k_0 |l m> / sqrt(2k+1), zero for k > 2l;
    c_k is the closed-form table of :func:`multipole_scale`.
    """
    j = halfint(j)
    _check_spin(j)
    if not isinstance(l, int) or not isinstance(m, int):
        raise DomainError("degree and order must be ints")
    if l < 0 or abs(m) > l:
        raise DomainError(f"invalid harmonic indices l = {l}, m = {m}")
    if l > MAX_DEGREE:
        raise DomainError(f"degree l = {l} exceeds the supported range (l <= {MAX_DEGREE})")
    gaunt, scales = _order_block(2 * l, 0), _multipole_scales(j.doubled)
    blocks = [np.zeros(2 * k + 1, dtype=complex) for k in range(j.doubled + 1)]
    for k in range(0, min(j.doubled, 2 * l) + 1, 2):
        blocks[k][k] = scales[k] * gaunt[k, l] * gaunt[k, l - m] / math.sqrt(4 * math.pi * (2 * k + 1))
    blocks[0][0] = 1.0
    return TensorParams(j, tuple(blocks))
