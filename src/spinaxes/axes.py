"""Multiaxial decomposition of tensor parameters.

Each rank-k block of a valid tensor table defines the polynomial

    P_k(Z) = sum_q sqrt(C(2k, k+q)) t^k_q Z^{k-q},

whose 2k roots (with roots at infinity standing in for missing leading
degrees) come in antipodal pairs under Z -> -1/conj(Z), because the
conjugation symmetry of t forces  conj(P_k(-1/conj(Z))) Z^{2k} to be
proportional to P_k(Z).  Stereographic projection Z = tan(theta/2) e^{i phi}
turns each pair into one axis on the sphere; read backwards, the product of
the axes' quadratics is the polynomial of their stretched tensor s^k_q, and
projecting t onto s recovers a signed radius.  An exact k-fold axis, as in
product and uniaxial states, comes back from the companion matrix as k
roots scattered by about eps^(1/k), so ``extract_mar`` first tries the
whole rank as one axis, then pairs the roots and replaces each cluster by
the axis of the mean of its roots.  A block rebuilt with an axis at Z has a
polynomial vanishing there, so its residual is at least

    |P_k(Z)| / sum_i sqrt(C(2k, i)) |Z|^(2k-i),

and a collapse trial whose floor exceeds the tolerance is skipped without
being built; the floor never accepts one.  The decomposition is

    t^k_q ~= r_k s^k_q(axes),    r_k real of either sign,

with the stored radius = |r_k| and the sign kept alongside.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .angular import _scaled_direction
from .errors import ConsistencyError, DomainError
from .halfint import HalfInt
from .tensors import TensorParams

ROOT_CLUSTER_RTOL = 1e-7
PAIRING_TOL = 1e-6
# joins neighbours in a k-fold cluster, whose roots scatter by about eps^(1/k)
_CLUSTER_WINDOW = 0.5
# a collapse must rebuild the block to rounding (relative to its 2-norm),
# which merging distinct axes cannot
_COLLAPSE_RTOL = 1e-10
# ...or to the rounding of the whole table, which every block carries: the top
# ranks of near-coherent states are so small that it exceeds 1e-10 of them
_TABLE_RTOL = 1e-14
EQUATOR_TOL = 1e-9
RADIUS_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Axis:
    """An unoriented direction: theta in [0, pi/2], and when theta is on
    the equator within tolerance, phi restricted to [0, pi)."""

    theta: float
    phi: float

    @property
    def unit_vector(self) -> np.ndarray:
        s = math.sin(self.theta)
        return np.array([s * math.cos(self.phi), s * math.sin(self.phi), math.cos(self.theta)])

    @classmethod
    def from_direction(cls, u) -> "Axis":
        """Canonical representative of the line spanned by u.

        The upper-hemisphere endpoint is chosen; within 1e-9 of the
        equator, where that choice would be noise-driven, the endpoint
        with phi in [0, pi) is chosen instead.
        """
        u, n = _scaled_direction(u)
        x, y, z = u / n
        if z < -EQUATOR_TOL:
            x, y, z = -x, -y, -z
        # a tiny negative y would leave phi at or within rounding below 2 pi; snapping
        # it to phi = 0 moves the direction by |y|, so only |y| < 1e-15 snaps
        phi = 0.0 if x > 0.0 and -1e-15 < y < 0.0 else math.atan2(y, x) % (2 * math.pi)
        if abs(z) <= EQUATOR_TOL and phi >= math.pi:
            phi -= math.pi
            z = -z
        # acos(z) would lose half its digits near the poles, where z is close to 1
        return cls(math.atan2(math.hypot(x, y), z), phi)


def mar_polynomial(t: TensorParams, k: int) -> np.ndarray:
    """Coefficients of P_k(Z), highest degree first (length 2k+1).

    The coefficient of Z^{2k-i} is sqrt(C(2k, i)) t^k_{i-k}; an all-zero
    rank yields the zero vector, which signals zero radius, not an error.
    """
    if not isinstance(k, int) or not 1 <= k <= t.max_rank:
        raise DomainError(f"rank k = {k} outside 1 .. {t.max_rank}")
    return _root_binomials(k) * t.rank(k)


@functools.cache
def _root_binomials(k: int) -> np.ndarray:
    """sqrt(C(2k, i)) for i = 0 .. 2k, read-only.

    Float binomials: C(2k, i) overflows int64 from k = 34.
    """
    b = np.sqrt([float(math.comb(2 * k, i)) for i in range(2 * k + 1)])
    b.flags.writeable = False
    return b


def polynomial_roots(coeffs) -> tuple[list[tuple[complex, int]], int]:
    """Roots with multiplicities, plus the count of roots at infinity.

    Leading coefficients that are exactly zero, or below the float range
    relative to the largest (they would overflow the companion matrix),
    become roots at infinity, and trailing zeros roots at zero.  The other
    roots are the eigenvalues of the companion matrix, and roots within relative
    distance 1e-7 merge into their mean with the group's size as
    multiplicity.  An exact m-fold root scatters by about eps^(1/m), so
    from m = 3 it may come back as several entries; ``extract_mar`` does
    not rely on this merge.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or len(c) < 2:
        raise DomainError("need a coefficient vector of degree at least one")
    if not c.any():
        raise DomainError("the zero polynomial has no root set")
    raw = _raw_roots(c)
    merged, left = [], raw
    while len(left):
        near = np.abs(left - left[0]) <= ROOT_CLUSTER_RTOL * np.maximum(np.abs(left), max(1.0, abs(left[0])))
        merged.append((complex(np.mean(left[near])), int(near.sum())))
        left = left[~near]
    return merged, len(c) - 1 - len(raw)


def _raw_roots(c: np.ndarray) -> np.ndarray:
    """Companion-matrix roots; the matrix divides by the leading coefficient,
    so one below the float range relative to the largest counts as zero."""
    c = c / np.abs(c).max()
    return np.roots(c[np.argmax(np.abs(c) >= np.finfo(float).tiny) :])


def _sphere_points(z: np.ndarray) -> np.ndarray:
    """Unit vectors of the stereographic preimages of Z = tan(theta/2) e^{i phi}.

    Z = inf maps to the south pole.
    """
    theta = 2.0 * np.arctan(np.abs(z))
    phi = np.angle(z)
    s = np.sin(theta)
    return np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], axis=-1)


def _antipodal_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair each point greedily with the free point nearest its antipode.

    Returns the (n/2, 2) index pairs and each pair's chordal distance from
    being antipodal, |p_a + p_b|.
    """
    gram = points @ points.T
    free = np.ones(len(points), dtype=bool)
    pairs = []
    for a in range(len(points)):
        if free[a]:
            free[a] = False
            b = int(np.argmin(np.where(free, gram[a], np.inf)))
            free[b] = False
            pairs.append((a, b))
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    return pairs, np.linalg.norm(points[pairs[:, 0]] + points[pairs[:, 1]], axis=1)


def _check_pairing(z: np.ndarray, pairs: np.ndarray, gaps: np.ndarray) -> None:
    bad = np.flatnonzero(gaps > PAIRING_TOL)
    if bad.size:
        p = bad[0]
        raise ConsistencyError(
            f"root {complex(z[pairs[p, 0]])!r} has no antipodal partner within {PAIRING_TOL:g} "
            f"(closest at chordal distance {gaps[p]:.3g}); "
            "the rank block does not satisfy the conjugation symmetry"
        )


def roots_to_axes(roots, count_at_infinity: int, k: int) -> list[Axis]:
    """Pair the 2k roots under Z -> -1/conj(Z) and return the k axes.

    Roots must form antipodal pairs within chordal distance 1e-6, which is
    guaranteed by the conjugation symmetry of valid tensor parameters; a
    violation raises :class:`ConsistencyError`.  Axes are sorted by
    descending theta, then ascending phi.
    """
    z: list = []
    for root, mult in roots:
        if mult < 1:
            raise DomainError(f"multiplicity {mult} is not positive")
        z.extend([complex(root)] * mult)
    z.extend([complex(math.inf)] * count_at_infinity)
    if len(z) != 2 * k:
        raise DomainError(f"got {len(z)} roots in total, expected 2k = {2 * k}")
    z = np.array(z, dtype=complex)
    points = _sphere_points(z)
    pairs, gaps = _antipodal_pairs(points)
    _check_pairing(z, pairs, gaps)
    return _sorted_axes(points[pairs[:, 0]] - points[pairs[:, 1]])


def _sorted_axes(directions) -> list[Axis]:
    """Axes along the given directions, by descending theta, then ascending phi."""
    return sorted((Axis.from_direction(d) for d in directions), key=lambda a: (-a.theta, a.phi))


def _cluster_roots(z: np.ndarray, points: np.ndarray, pairs: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Mean root of each group of pairs (rows of the boolean ``groups``), taken
    on one side of it: of each pair, the root nearer the group's first
    upper-hemisphere root, or its first root if none is.  The mean is a
    symmetric function of the cluster, so it keeps the accuracy its
    scattered members lose; the -1/conj(Z) images would not (that map is
    anti-holomorphic)."""
    ends = np.repeat(groups, 2, axis=1)
    upper = ends & (points[pairs.ravel(), 2] >= 0.0)
    ref = points[pairs.ravel()[np.where(upper.any(axis=1), np.argmax(upper, axis=1), np.argmax(ends, axis=1))]]
    near = np.where(points[pairs[:, 0]] @ ref.T >= points[pairs[:, 1]] @ ref.T, pairs[:, :1], pairs[:, 1:]).T
    # np.mean of each group's own roots, for all groups of one size at once (a
    # zero-padded row sum would add them in another order)
    rows, cols = np.nonzero(groups)
    roots = z[near[rows, cols]]
    sizes = groups.sum(axis=1)
    starts = np.cumsum(sizes) - sizes
    means = np.empty(len(groups), dtype=complex)
    for m in np.flatnonzero(np.bincount(sizes)):
        same = np.flatnonzero(sizes == m)
        means[same] = np.mean(roots[starts[same, None] + np.arange(m)], axis=1)
    return means


def _residual_floor(coeffs: np.ndarray, z) -> np.ndarray:
    """Lower bound on the fit residual of every block rebuilt with an axis at each Z.

    Such a block's polynomial vanishes at Z, so for every radius r
    |P_t(Z)| = |sum_i sqrt(C(2k, i)) (t - r s)_{i-k} Z^(2k-i)|
             <= max_q |t_q - r s_q| * sum_i sqrt(C(2k, i)) |Z|^(2k-i).
    Beyond the unit circle both sums are taken at 1/Z on the reversed
    coefficients (the binomials are symmetric), so Z = inf gives |t^k_{-k}|.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    outer = np.abs(z) > 1.0
    powers = np.vander(np.where(outer, 1.0 / np.where(outer, z, 1.0), z), len(coeffs), increasing=True)
    value = np.abs(np.where(outer, powers @ coeffs, powers @ coeffs[::-1]))
    return value / (np.abs(powers) @ _root_binomials((len(coeffs) - 1) // 2))


def _zonal_axis(block: np.ndarray) -> np.ndarray:
    """The axis u of a block that is one k-fold axis, r s^k_q(u, ..., u).

    That block is annihilated by u . V with V = (J_x, -J_y, J_z) of spin k
    (the m = 0 state along u, mirrored by the convention of t), so u spans
    the null space of Re <V_a t, V_b t>.  Every entry weighs in by its
    size, so rounding in the tiny extreme-q entries cannot spoil it.
    """
    k = (len(block) - 1) // 2
    q = np.arange(-k, k + 1)
    ladder = np.sqrt(k * (k + 1) - q[:-1] * (q[:-1] + 1))
    raised = np.concatenate([[0.0], ladder * block[:-1]])
    lowered = np.concatenate([ladder * block[1:], [0.0]])
    v = np.stack([(raised + lowered) / 2, (lowered - raised) / 2j, q * block])
    return np.linalg.eigh((v.conj() @ v.T).real)[1][:, 0]


def _rank_axes(block: np.ndarray, coeffs: np.ndarray, floor: float) -> tuple:
    """Axes of one nonzero rank block from the roots of its polynomial.

    A group of axes collapses to one axis when the block still rebuilds
    within 1e-10 of its norm, or within ``floor`` (the table's rounding)
    if larger.  The whole rank is tried first at ``_zonal_axis``: a k-fold
    axis may scatter its roots wider than any window.  Otherwise the roots
    are paired, axis pairs closer than 0.5 rad join, nearest first, and
    each join tries its group at the mean of its roots (``_cluster_roots``).
    Pairs left out of every kept collapse must be antipodal within
    ``PAIRING_TOL``.

    A trial with an axis at Z cannot rebuild the block closer than the
    floor |P_k(Z)| / sum_i sqrt(C(2k, i)) |Z|^(2k-i) (``_residual_floor``,
    one dot product), so a trial whose floor exceeds the bound is skipped
    before its k-fold product is built.  The floor only skips: every trial
    that runs is accepted or rejected by its fitted residual alone.
    """
    k = (len(block) - 1) // 2
    bound = max(_COLLAPSE_RTOL * float(np.linalg.norm(block)), floor)
    zonal = _zonal_axis(block)
    x, y, w = zonal if zonal[2] >= 0.0 else -zonal
    if (
        _residual_floor(coeffs, complex(x, y) / (1.0 + w))[0] <= bound
        and fit_radius(block, _stretched(np.tile(zonal, (k, 1))))[1] <= bound
    ):
        return (Axis.from_direction(zonal),) * k
    raw = _raw_roots(coeffs)
    z = np.concatenate([raw, np.full(2 * k - len(raw), complex(math.inf))])
    points = _sphere_points(z)
    pairs, gaps = _antipodal_pairs(points)
    units = points[pairs[:, 0]] - points[pairs[:, 1]]
    units /= np.linalg.norm(units, axis=1)[:, None]
    collapsed = np.zeros(k, dtype=bool)
    a_idx, b_idx = np.triu_indices(k, 1)
    angle = np.arccos(np.minimum(np.abs(np.einsum("ij,ij->i", units[a_idx], units[b_idx])), 1.0))
    close = np.flatnonzero(angle < _CLUSTER_WINDOW)
    group = np.arange(k)
    joins = []
    for c in close[np.argsort(angle[close], kind="stable")]:
        ga, gb = group[a_idx[c]], group[b_idx[c]]
        if ga != gb:
            group[group == gb] = ga
            joins.append(group == ga)
    if joins:
        joins = np.array(joins)
        roots = _cluster_roots(z, points, pairs, joins)
        kept = _residual_floor(coeffs, roots) <= bound
        for members, point in zip(joins[kept], _sphere_points(roots[kept])):
            trial = units.copy()
            trial[members] = point
            if fit_radius(block, _stretched(trial))[1] <= bound:
                units = trial
                collapsed[members] = True
    _check_pairing(z, pairs, np.where(collapsed, 0.0, gaps))
    return tuple(_sorted_axes(units))


def _stretched(units: np.ndarray) -> np.ndarray:
    """s^k_q of k unit vectors (rows), q ascending; see ``axes_to_tensor``."""
    k = len(units)
    x, y, z = units.T
    r2 = math.sqrt(2.0)
    quadratics = np.stack([(x - 1j * y) / r2, r2 * z, -(x + 1j * y) / r2], axis=1)
    prod = np.ones(1, dtype=complex)
    for quadratic in quadratics:
        prod = np.convolve(prod, quadratic)
    return prod / _root_binomials(k)


def axes_to_tensor(axes, k: int) -> np.ndarray:
    """Stretched coupling s^k_q of the k axes' rank-1 tensors, q ascending.

    The product of the quadratics ((x - iy)/sqrt2, sqrt2 z, -(x + iy)/sqrt2)
    of the unit vectors has the coefficients sqrt(C(2k, k+q)) s^k_q.
    """
    axes = list(axes)
    if len(axes) != k:
        raise DomainError(f"need exactly k = {k} axes, got {len(axes)}")
    if k < 1:
        raise DomainError("rank must be at least one")
    return _stretched(np.array([axis.unit_vector for axis in axes]))


def fit_radius(t_rank, s) -> tuple[float, float]:
    """Least-squares radius of t against s and the fit residual.

    Returns (r, residual) with r = Re<s, t>/<s, s>, which may be negative,
    and residual = max_q |t^k_q - r s^k_q|.  A vanishing s means the axes
    couple to zero at this rank and no radius exists.
    """
    t_rank = np.asarray(t_rank, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if t_rank.shape != s.shape or t_rank.ndim != 1:
        raise DomainError("rank block and coupled tensor must be equal-length vectors")
    ss = float(np.vdot(s, s).real)
    if ss < 1e-300:
        raise ConsistencyError("axes couple to the zero tensor at this rank (degenerate coupling)")
    r = float(np.vdot(s, t_rank).real) / ss
    residual = float(np.abs(t_rank - r * s).max())
    return r, residual


@dataclass(frozen=True)
class RankDecomposition:
    """One rank of a multiaxial decomposition.

    ``radius`` is non-negative; ``sign`` carries the orientation of the
    fit, so the rank block reconstructs as sign * radius * s^k_q(axes).
    Every rank has a finite radius and residual, so ``resolved`` is always
    True (see ``extract_mar``).
    """

    rank: int
    radius: float
    sign: int
    axes: tuple
    residual: float
    resolved: ClassVar[bool] = True

    def reconstruct(self) -> np.ndarray:
        """The fitted rank block sign * radius * s^k_q, q ascending."""
        if self.radius == 0.0:
            return np.zeros(2 * self.rank + 1, dtype=complex)
        return self.sign * self.radius * axes_to_tensor(self.axes, self.rank)


@dataclass(frozen=True)
class MarDecomposition:
    """Axes and radii for every rank 1 .. 2j of a tensor table."""

    j: HalfInt
    ranks: tuple

    def rank(self, k: int) -> RankDecomposition:
        if not 1 <= k <= len(self.ranks):
            raise DomainError(f"rank {k} outside 1 .. {len(self.ranks)}")
        return self.ranks[k - 1]

    @property
    def max_residual(self) -> float:
        return max((r.residual for r in self.ranks), default=0.0)


def extract_mar(t: TensorParams) -> MarDecomposition:
    """Full multiaxial decomposition of a valid tensor table.

    Rank blocks below ``RADIUS_ZERO_TOL`` in magnitude are recorded with
    zero radius and no axes; every other rank gets a finite radius.  |s^k|^2
    is the Bombieri norm^2 of the product of the k unit axes' quadratics, each
    of norm 1, so Bombieri's inequality [PQ]^2 >= m! n!/(m+n)! [P]^2 [Q]^2
    bounds it below by 2^k/(2k)!, 1.7e-181 at k = 60: above ``fit_radius``'s cutoff.
    """
    entries = []
    floor = _TABLE_RTOL * float(np.linalg.norm(np.concatenate(t.ranks)))
    for k in range(1, t.max_rank + 1):
        block = t.rank(k)
        if np.abs(block).max() <= RADIUS_ZERO_TOL:
            entries.append(RankDecomposition(k, 0.0, 1, (), 0.0))
            continue
        axes = _rank_axes(block, mar_polynomial(t, k), floor)
        r, residual = fit_radius(block, axes_to_tensor(axes, k))
        entries.append(RankDecomposition(k, abs(r), -1 if r < 0 else 1, axes, residual))
    return MarDecomposition(t.j, tuple(entries))


def collinearity_check(m: MarDecomposition, tol: float = 1e-8) -> bool:
    """True when all axes across ranks with nonzero radius share one line."""
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tolerance must be finite and non-negative, got {tol!r}")
    kept = [e for e in m.ranks if e.radius > tol]
    v = np.array([axis.unit_vector for e in kept for axis in e.axes]).reshape(-1, 3)
    return bool((np.abs(v @ v.T) >= 1.0 - tol).all())
