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
an exact factorial ratio under one float square root.  For an expansion
lambda = sum a^l_m conj(Y^l_m) the second integral is the paper's identity
t^k_q = c_k a^k_q: ``t_from_distribution`` reads it from the coefficients
(zero above the expansion's degree), while ``rho_from_distribution``
integrates by quadrature, so the two routes stay mutual oracles.  With an
explicit grid, or for a callable lambda, both routes are quadratures on
that grid.

Without an explicit grid an expansion of degree L is checked once, for
normalization, reality and sign, on the grid of band 2L (exact through
degree 4L + 2), whatever j: the minimum a warning reports depends on
lambda alone.  The state's integrand has degree b = L + 2j and is summed
on the smallest exact grid for max(b, 4L + 2): the probe's own grid while
b <= 4L + 2.  Every default grid is a smallest exact product grid,
floor(D/2) + 1 rings of D + 1 points for degree D, from one bounded cache.

The grid is a product of theta rings and uniform phi.  With amplitude a
sqrt(C(2j, a)) cos^{2j-a} sin^a(theta/2) e^{-i (j - a) phi}, entry (a, c)
of the state reads theta only through s = a + c and phi through c - a:

    rho_ac = sqrt(C(2j, a) C(2j, c)) H(a + c, c - a),
    H(s, p) = sum_i cos^{4j-s}(theta_i/2) sin^s(theta_i/2) F_i(p),
    F_i(p) = sum_phi w(theta_i, phi) e^{-i p phi},

with w the normalized node weights times lambda: the same sum over nodes,
in another order, so a grid too coarse in phi aliases exactly as it would
node by node.  An expansion lambda is evaluated the same way, on a grid or
at arbitrary points: the Legendre table on the distinct theta nodes
contracts with the coefficients to one value per node and order m, and
the phases e^{-i m phi} finish every point.

Grids are frozen, their arrays read-only.  Each grid has one table per
job, cached per grid (grids hash by identity) in bounded caches and
read-only: its Legendre table per degree (``_grid_legendre_table``) and
its phases e^{-i p phi} per largest order (``_phases``, shared by lambda's
synthesis, the quadrature of t^k_q and the state's ring sums).  Only the
state's half-angle powers, a real (4j + 1) x n_theta table, are per call.

Weight functions are represented either as callables of (theta, phi) or as
:class:`SphericalExpansion` coefficient tables over conj(Y^l_m).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .angular import MAX_DEGREE, _check_angles, _freeze, _legendre_table, _root_binomials, _table_cache
from .errors import DomainError, NonClassicalWarning, ValidationError
from .halfint import HalfInt, _index
from .tensors import SpinDensityMatrix, TensorParams, _order_block, _spin
# the shared rank-table layout
from .tensors import _checked_blocks, _entry_flat, _from_half, _half_table, _rank_layout, _real_product, _split

NORMALIZATION_TOL = 1e-8
REALITY_TOL = 1e-10
NEGATIVITY_FLOOR = -1e-12
# Legendre-table size (2^21 values, 16 MB) at which the theta nodes are taken in blocks
_TABLE_ENTRIES = 1 << 21


def coherent_state(j, theta: float, phi: float) -> np.ndarray:
    """Amplitude vector of |alpha(theta, phi)>, ordered m = +j .. -j."""
    j = _spin(j)
    _check_angles(theta=theta, phi=phi)
    return _coherent_amplitudes(j.doubled, np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))


def _coherent_amplitudes(dj: int, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Amplitudes of spin dj/2 along the last axis, for scalar or array angles."""
    a = np.arange(dj + 1)  # m = j - a, +j .. -j
    c, s, phi = np.cos(theta / 2.0)[..., None], np.sin(theta / 2.0)[..., None], phi[..., None]
    return _root_binomials(dj) * c ** (dj - a) * s**a * np.exp(-0.5j * (dj - 2 * a) * phi)


def multipole_scale(j, k: int) -> float:
    """The constant c_k(j) = sqrt(4 pi) <j j, k 0 | j j>, from its closed form."""
    j = _spin(j)
    return float(_multipole_scales(j.doubled)[_index(k, "rank k", 0, j.doubled)])


@_table_cache(maxsize=None)
def _multipole_scales(dj: int) -> np.ndarray:
    """Read-only c_k for k = 0 .. 2j: sqrt(4 pi) N! sqrt(N+1) / sqrt((N-k)! (N+k+1)!), N = 2j.

    The factorial ratio is exact, so c_k is relatively accurate even at 1e-17 (2j = k = 60).
    """
    f = math.factorial
    ratios = [Fraction(f(dj) ** 2 * (dj + 1), f(dj - k) * f(dj + k + 1)) for k in range(dj + 1)]
    return np.array([math.sqrt(4 * math.pi * r) for r in ratios])


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product quadrature on the sphere: Gauss-Legendre in cos(theta),
    uniform in phi.  Node weights sum to 4 pi; the rule integrates any
    integrand of spherical-harmonic degree <= band_limit exactly.
    ``==`` is identity.
    """

    theta: np.ndarray
    phi: np.ndarray
    theta_weights: np.ndarray

    def __post_init__(self) -> None:
        for name in ("theta", "phi", "theta_weights"):
            a = np.array(getattr(self, name), dtype=float)  # a copy: the caller's array stays theirs
            if a.ndim != 1 or not len(a) or not np.isfinite(a).all():
                raise ValidationError(f"{name} must be a non-empty 1-d array of finite values")
            object.__setattr__(self, name, _freeze(a))
        if self.theta.shape != self.theta_weights.shape:
            raise ValidationError("theta nodes and weights differ in length")
        # weights() holds for the uniform nodes 2 pi p / n_phi alone
        if np.abs(self.phi - np.arange(self.n_phi) * (2 * math.pi / self.n_phi)).max() > 1e-12:
            raise ValidationError("phi nodes must be 2 pi p / n_phi for p = 0 .. n_phi - 1")

    @classmethod
    def build(cls, n_theta: int, n_phi: int) -> "QuadratureGrid":
        _index(n_theta, "n_theta", 1, math.inf)
        _index(n_phi, "n_phi", 1, math.inf)
        x, w = np.polynomial.legendre.leggauss(n_theta)
        return cls(np.arccos(x), np.arange(n_phi) * (2 * math.pi / n_phi), w)

    @classmethod
    def for_band_limit(cls, band_limit: int) -> "QuadratureGrid":
        """Default grid exact through at least the given harmonic degree.

        It is the smallest exact grid for degree 2 band_limit + 2 (see
        ``_exact_grid``), band_limit + 2 rings of 2 band_limit + 3 points:
        about twice the degree asked for.  At band 2L it is the sign probe
        of a degree-L expansion.  Shared, like every grid ``_exact_grid``
        builds.
        """
        return _exact_grid(2 * _index(band_limit, "band_limit", 0, math.inf) + 2)

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


@dataclass(frozen=True, eq=False)
class SphericalExpansion:
    """Coefficients of lambda(Omega) = sum_lm a^l_m conj(Y^l_m(Omega)).

    ``blocks[l]`` holds a^l_m for m = -l .. +l (ascending), read-only and laid
    out as the ranks of :class:`TensorParams`.  Coefficients are finite, and
    real-valued expansions, the only kind accepted, satisfy
    conj(a^l_m) = (-1)^m a^l_{-m}.  ``==`` is identity.
    """

    l_max: int
    blocks: tuple = field(repr=False)

    def __post_init__(self) -> None:
        _index(self.l_max, "l_max", 0, MAX_DEGREE)
        if len(self.blocks) != self.l_max + 1:
            raise ValidationError(f"expected blocks for l = 0 .. {self.l_max}")
        flat = _checked_blocks(self.blocks, "degree", "the reality condition conj(a^l_m) = (-1)^m a^l_-m")
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "blocks", _split(flat))

    @classmethod
    def from_table(cls, l_max: int, table: Mapping) -> "SphericalExpansion":
        return cls(l_max, _split(_entry_flat(_index(l_max, "l_max", 0, MAX_DEGREE), table, "degree l", "order m")))

    @classmethod
    def uniform(cls) -> "SphericalExpansion":
        """The constant distribution 1/(4 pi)."""
        return cls(0, (np.array([1.0 / math.sqrt(4 * math.pi)], dtype=complex),))

    def item(self, l: int, m: int) -> complex:
        _index(l, "degree l", 0, self.l_max)
        return complex(self.blocks[l][_index(m, "order m", -l, l) + l])

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
        _check_angles(theta=theta, phi=phi)
        theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
        # points on a grid share their theta; the table needs each only once
        nodes, where = np.unique(theta.ravel(), return_inverse=True)
        rings, where = _ring_orders(self, nodes), where.reshape(theta.shape)
        total = np.zeros(theta.shape, dtype=complex)
        for i, m in enumerate(range(-self.l_max, self.l_max + 1)):
            total += rings[where, i] * np.exp(-1j * m * phi)
        return total[()] if total.ndim == 0 else total


def _ring_orders(lam: SphericalExpansion, theta: np.ndarray, table: np.ndarray | None = None) -> np.ndarray:
    """Per-node, per-order values R of shape (len(theta), 2 l_max + 1) such that
    lambda(theta_i, phi) = sum_m R[i, m + l_max] e^{-i m phi}, at any phi.

    ``table`` is theta's Legendre table when the caller holds it (a grid's
    cached one); otherwise it is built in blocks of nodes.
    """
    big = lam.l_max
    l, m, _, _ = _rank_layout(big)
    coeffs = np.zeros((big + 1, 2 * big + 1), dtype=complex)  # [l, m + l_max]
    coeffs[l, m + big] = lam._flat
    # conj(Y^l_m) = Y^l_|m|(theta, 0) e^{-i m phi}, times (-1)^m for m < 0
    coeffs[:, :big] *= (-1.0) ** np.arange(-big, 0)
    rings = np.empty((len(theta), 2 * big + 1), dtype=complex)
    # blocks of nodes keep the Legendre table near _TABLE_ENTRIES values
    step = len(theta) if table is not None else max(1, _TABLE_ENTRIES // (big + 1) ** 2)
    for lo in range(0, len(theta), step):
        block = table if table is not None else _legendre_table(big, theta[lo : lo + step])
        rings[lo : lo + step, big:] = np.einsum("lm,lmi->im", coeffs[:, big:], block)
        rings[lo : lo + step, :big] = np.einsum("lm,lmi->im", coeffs[:, big - 1 :: -1], block[:, 1:])[:, ::-1]
    return rings


def _values_on_grid(lam, grid: QuadratureGrid) -> np.ndarray:
    """Evaluate a weight function on the grid and check it is real."""
    if isinstance(lam, SphericalExpansion):
        # a grid's table is cached when it fits in one block
        fits = grid.n_theta * (lam.l_max + 1) ** 2 <= _TABLE_ENTRIES
        table = _grid_legendre_table(grid, lam.l_max) if fits else None
        vals = _ring_orders(lam, grid.theta, table) @ _phases(grid, lam.l_max).T
    elif callable(lam):
        th, ph = grid.mesh()
        vals = np.asarray(lam(th, ph), dtype=complex)
        if vals.shape != th.shape:
            vals = np.vectorize(lambda a, b: complex(lam(a, b)))(th, ph)
    else:
        raise DomainError(f"cannot evaluate {type(lam).__name__} as a weight function")
    if not np.isfinite(vals).all():
        raise ValidationError("weight function takes a non-finite value on the grid")
    if np.abs(vals.imag).max() > REALITY_TOL:
        raise ValidationError("weight function takes complex values on the grid")
    return vals.real


@_table_cache(maxsize=32)
def _grid_legendre_table(grid: QuadratureGrid, l_max: int) -> np.ndarray:
    """Read-only ``_legendre_table`` on a grid's theta nodes, built once per (grid, l_max).

    Grids hash by identity.  Like ``_exact_grid``'s, the cache is bounded,
    so a stream of large grids cannot pin their tables.
    """
    return _legendre_table(l_max, grid.theta)


@_table_cache(maxsize=32)
def _phases(grid: QuadratureGrid, n: int) -> np.ndarray:
    """Read-only e^{-i p phi} at a grid's phi nodes, [node, p + n] for |p| <= n, built once per (grid, n).

    The one phase table of a grid: lambda's synthesis reads it transposed,
    the quadrature of t^k_q the conjugate of its p >= 0 half, and the ring
    sums of ``rho_from_distribution`` as it is.  Bounded like
    ``_grid_legendre_table``.
    """
    return np.exp(-1j * np.outer(grid.phi, np.arange(-n, n + 1)))


@_table_cache(maxsize=32)
def _state_indices(dj: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of ``rho_from_distribution`` at spin dj/2: the powers s and 2 dj - s of
    sin and cos (a column), and the flat index of H[s, p + 2j] at s = a + c, p = c - a."""
    s, a = np.arange(2 * dj + 1)[:, None], np.arange(dj + 1)
    return s, 2 * dj - s, (a[:, None] + a) * (2 * dj + 1) + a - a[:, None] + dj


def _analysis(w: np.ndarray, grid: QuadratureGrid, l_max: int) -> np.ndarray:
    """Flat layout of sum_nodes w Y^l_m for l = 0 .. l_max, m ascending, from real node weights w.

    The sum over phi is one product with e^{i m phi}, the conjugate of the
    grid's cached phases, the sum over theta one product per order with the
    grid's cached Legendre table, both real tables times complex operands;
    a real w needs only m >= 0, and the conjugation identity supplies the
    rest.
    """
    per_m = _real_product(w, _phases(grid, l_max)[:, l_max:].conj())  # (n_theta, m)
    table = _grid_legendre_table(grid, l_max).transpose(1, 0, 2)  # [m, l, i]
    return _from_half(_real_product(table, per_m.T[:, :, None])[:, :, 0].T)


def default_grid(l_max: int, j) -> QuadratureGrid:
    """Grid exact for products of a degree-l_max weight with rank <= 2j harmonics.

    It is ``QuadratureGrid.for_band_limit(l_max + 2j)``, about twice as fine
    as exactness needs: the grid the ``pfunc`` command passes for band
    ``--lmax``, whose nodes also probe the weight's sign.  Without an
    explicit grid the library routes use smaller ones (see the module
    docstring).
    """
    return QuadratureGrid.for_band_limit(_index(l_max, "l_max", 0, MAX_DEGREE) + _spin(j).doubled)


@_table_cache(maxsize=32)
def _exact_grid(band_limit: int) -> QuadratureGrid:
    """The smallest product grid exact through the given degree b, built once per b.

    Its floor(b/2) + 1 Gauss-Legendre rings are exact in cos(theta) through
    degree 2 floor(b/2) + 1 >= b, and its b + 1 phi points sum e^{i m phi}
    exactly for |m| <= b.  The only cached grid constructor: every default
    grid is one of these, frozen with read-only arrays and shared.  The
    cache is bounded, so a stream of large band limits cannot pin their
    grids.
    """
    return QuadratureGrid.build(band_limit // 2 + 1, band_limit + 1)


def _state_grid(l_max: int, dj: int) -> QuadratureGrid:
    """The grid ``rho_from_distribution`` sums a degree-l_max expansion on when given none.

    Its integrand has degree at most b = l_max + 2j.  The sign probe's grid,
    ``_exact_grid(4 l_max + 2)``, is exact for any b up to 4 l_max + 2, so
    there lambda is evaluated once; above, the smallest exact grid for b.
    """
    return _exact_grid(max(l_max + dj, 4 * l_max + 2))


def _distribution_weights(
    lam, j, grid: QuadratureGrid | None, stacklevel: int = 3
) -> tuple[HalfInt, QuadratureGrid, np.ndarray, float]:
    """(j, grid, node weights times lambda / its integral, lambda's minimum on the nodes): both
    routes' checked preamble, warning ``stacklevel`` frames up, at the public route's caller.

    With no grid, an expansion is probed on the grid of band 2 l_max, set by
    its degree alone, so the minimum it reports does not depend on j.
    """
    j = _spin(j)
    if grid is None:
        if not isinstance(lam, SphericalExpansion):
            raise DomainError("a quadrature grid is required for callable weight functions")
        grid = QuadratureGrid.for_band_limit(2 * lam.l_max)
    vals = _values_on_grid(lam, grid)
    w = grid.weights() * vals
    total = float(np.sum(w))
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(f"weight function integrates to {total:.9g}, expected 1 within 1e-8")
    low = float(vals.min())
    if low < NEGATIVITY_FLOOR:
        warnings.warn(
            f"weight function is negative on the grid (min {low:.6g}), "
            "so it is a quasi-probability, not a probability density",
            NonClassicalWarning,
            stacklevel=stacklevel,
        )
    return j, grid, w / total, low


def t_from_distribution(lam, j, grid: QuadratureGrid | None = None) -> TensorParams:
    """Tensor parameters t^k_q = c_k integral lambda Y^k_q dOmega.

    ``lam`` is a SphericalExpansion or a callable of (theta, phi) arrays.
    With an explicit grid the integral is the grid's quadrature.  Without
    one, an expansion gives the integral's exact value, its own coefficients
    t^k_q = c_k a^k_q / (sqrt(4 pi) a^0_0) through degree min(l_max, 2j) and
    zero above, after the checks of normalization, reality and sign on the
    grid of band 2 l_max; callables have no known band limit and require an
    explicit grid.
    """
    return _tensor_and_minimum(lam, j, grid)[0]


def _tensor_and_minimum(lam, j, grid: QuadratureGrid | None) -> tuple[TensorParams, float]:
    """``t_from_distribution``'s table and lambda's minimum on the nodes it was checked on, from one
    evaluation of lambda; its warnings name the caller of ``t_from_distribution``."""
    closed = grid is None
    j, grid, w, low = _distribution_weights(lam, j, grid, stacklevel=4)
    dj = j.doubled
    scales = _multipole_scales(dj)
    if closed:
        n = min(lam.l_max, dj) + 1
        half = _half_table(lam._flat[: n * n], dj + 1)  # half[k, q] = a^k_q, 0 <= q <= k
        half[:, 0] = half[:, 0].real  # the conjugation identity holds exactly
        flat = _from_half(half * (scales / lam.norm_integral)[:, None])
    else:
        flat = _analysis(w, grid, dj) * scales[_rank_layout(dj)[0]]
    flat[0] = 1.0
    return TensorParams._from_flat(j, flat), low


def rho_from_distribution(lam, j, grid: QuadratureGrid | None = None) -> SpinDensityMatrix:
    """The state integral lambda(Omega) |alpha(Omega)><alpha(Omega)| dOmega.

    Summed one theta ring at a time (see the module docstring): one product
    with the grid's cached phase table gives every ring's phi sums F_i(p)
    for p = -2j .. 2j, one product of those with the half-angle powers
    gives H(s, p), and rho_ac reads H at s = a + c, p = c - a.  Without an
    explicit grid, an expansion is checked on the grid of band 2 l_max, as
    in ``t_from_distribution``, and summed on that grid if it is exact for
    the integrand's degree l_max + 2j, else on the smallest grid that is.
    """
    own = grid is None
    j, grid, w, _ = _distribution_weights(lam, j, grid)
    dj = j.doubled
    if own and (state := _state_grid(lam.l_max, dj)) is not grid:
        grid, w = state, state.weights() * _values_on_grid(lam, state)  # the trace below normalizes
    # ring sums f[i, p + 2j], then h[s, p + 2j] from the half-angle powers [s, i] for s = 0 .. 4j, read
    # at s = a + c, p = c - a through the spin's cached flat index
    f = _real_product(w, _phases(grid, dj))
    s, rest, index = _state_indices(dj)
    half, root = grid.theta / 2.0, _root_binomials(dj)
    rho = root[:, None] * _real_product(np.cos(half) ** rest * np.sin(half) ** s, f).take(index) * root
    rho = 0.5 * (rho + rho.conj().T)
    rho /= rho.trace().real
    return SpinDensityMatrix(j, rho)


def expansion_from_function(f, l_max: int, grid: QuadratureGrid | None = None) -> SphericalExpansion:
    """Project a function on the sphere onto degrees 0 .. l_max.

    a^l_m = integral f Y^l_m dOmega; exact for band-limited f on the
    default grid, a least-squares style truncation otherwise.
    """
    _index(l_max, "l_max", 0, MAX_DEGREE)
    if grid is None:
        grid = QuadratureGrid.for_band_limit(2 * l_max)
    vals = _values_on_grid(f, grid)
    return SphericalExpansion(l_max, _split(_analysis(grid.weights() * vals, grid, l_max)))


def ylm_squared_t(l: int, m: int, j) -> TensorParams:
    """Tensor parameters of the state whose weight function is |Y^l_m|^2.

    The product of harmonics collapses to zonal terms, leaving the closed
    form t^k_0 = c_k sqrt((2k+1)/4pi) <l 0, k 0|l 0><l m, k 0|l m> and
    t^k_q = 0 for q != 0; odd ranks vanish by parity.  Both factors of
    the Gaunt product are order-0 tensor-operator diagonals on spin l,
    <l m, k 0|l m> = <l m| tau^k_0 |l m> / sqrt(2k+1), zero for k > 2l;
    c_k is the closed-form table of :func:`multipole_scale`.
    """
    j = _spin(j)
    _index(l, "degree l", 0, MAX_DEGREE)
    _index(m, "order m", -l, l)
    gaunt, scales = _order_block(2 * l, 0), _multipole_scales(j.doubled)
    table = {}
    for k in range(2, min(j.doubled, 2 * l) + 1, 2):
        table[k, 0] = scales[k] * gaunt[k, l] * gaunt[k, l - m] / math.sqrt(4 * math.pi * (2 * k + 1))
    return TensorParams.from_table(j, table)
