"""Multiaxial decomposition of tensor parameters.

Each rank-k block of a valid tensor table defines the polynomial

    P_k(Z) = sum_q sqrt(C(2k, k+q)) t^k_q Z^{k-q},

whose 2k roots (with roots at infinity standing in for missing leading
degrees) come in antipodal pairs under Z -> -1/conj(Z), because the
conjugation symmetry of t forces  conj(P_k(-1/conj(Z))) Z^{2k} to be
proportional to P_k(Z).  Stereographic projection Z = tan(theta/2) e^{i phi}
turns each pair into one axis on the sphere; read backwards, the product of
the axes' quadratics is the polynomial of their stretched tensor s^k_q, and
projecting t onto s recovers a signed radius.  The decomposition is

    t^k_q ~= r_k s^k_q(axes),    r_k real of either sign,

with the stored radius = |r_k| and the sign kept alongside.

``extract_mar`` runs each step that costs O(k) per rank as one pass over
the whole flat table, and per rank only the steps that cost O(k^2):

1. Zonal pass.  An exact k-fold axis, as in product states, comes back from
   the companion matrix as k roots scattered by about eps^(1/k), so every
   rank is first tried as one axis, the null vector of a 3 x 3 Gram matrix
   (one reduceat, one stacked eigh).  A block rebuilt with an axis at Z has
   a polynomial vanishing there, so its residual is at least the floor
   |P_k(Z)| / sum_i sqrt(C(2k, i)) |Z|^(2k-i); only ranks whose floor passes
   build the k-fold fit.  The floor only skips trials, never accepts one.
2. Per rank.  Every other nonzero rank solves its companion matrix once and
   pairs its roots greedily by nearest antipode; each pair is one axis.
   Where two of its axes lie within 0.5 rad, they join, nearest first, and
   each join tries its group at the mean of its roots, behind the same
   floor, kept when the block still rebuilds within the bound.
3. Final pass.  Every axis is canonicalized and sorted at once, every
   stretched tensor comes from one three-term recurrence over the axis
   index, and every radius is fitted at once.

One rule accepts a rank's axes: the residual max_q |t^k_q - r s^k_q| of
the final fit is within the rank's bound, 1e-10 of the block's 2-norm or
1e-14 of the table's if larger.  The zonal axis, the collapses and the
pairing only propose axes; how far a pair misses being antipodal is never
judged.  A rank over its bound raises ``ConsistencyError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .angular import _root_binomials, _scaled_direction
from .errors import ConsistencyError, DomainError
from .halfint import HalfInt
from .tensors import TensorParams, _rank_layout

ROOT_CLUSTER_RTOL = 1e-7
PAIRING_TOL = 1e-6
# joins neighbours in a k-fold cluster, whose roots scatter by about eps^(1/k)
_CLUSTER_WINDOW = 0.5
# every rank's bound: its axes must rebuild the block to rounding (relative
# to its 2-norm), which merging distinct axes or mispaired roots cannot
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
        return _unit_vectors(self.theta, self.phi)

    @classmethod
    def from_direction(cls, u) -> "Axis":
        """Canonical representative of the line spanned by u.

        The upper-hemisphere endpoint is chosen; within 1e-9 of the
        equator, where that choice would be noise-driven, the endpoint
        with phi in [0, pi) is chosen instead.  One row of ``_canonical``.
        """
        theta, phi = _canonical(np.reshape(np.asarray(u, dtype=float), (1, 3)))
        return cls(float(theta[0]), float(phi[0]))


def _unit_vectors(theta, phi) -> np.ndarray:
    """Unit vectors at polar angles theta and azimuths phi, along a new last axis."""
    s = np.sin(theta)
    return np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], axis=-1)


def _canonical(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of the canonical axis of each row of u (n, 3); see ``Axis.from_direction``."""
    v, n = _scaled_direction(u)
    x, y, z = (v / n[:, None]).T
    flip = np.where(z < -EQUATOR_TOL, -1.0, 1.0)
    x, y, z = flip * x, flip * y, flip * z
    # a tiny negative y would leave phi at or within rounding below 2 pi; snapping
    # it to phi = 0 moves the direction by |y|, so only |y| < 1e-15 snaps
    phi = np.where((x > 0.0) & (-1e-15 < y) & (y < 0.0), 0.0, np.arctan2(y, x) % (2 * math.pi))
    turn = (np.abs(z) <= EQUATOR_TOL) & (phi >= math.pi)
    phi = np.where(turn, phi - math.pi, phi)
    z = np.where(turn, -z, z)
    # acos(z) would lose half its digits near the poles, where z is close to 1
    return np.arctan2(np.hypot(x, y), z), phi


def _sorted_axes(directions: np.ndarray, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (theta, phi) of each direction (row), ordered by rank, then descending theta, then ascending phi."""
    theta, phi = _canonical(directions)
    order = np.lexsort((phi, -theta, ranks))
    return theta[order], phi[order]


def _axis_list(theta: np.ndarray, phi: np.ndarray) -> list:
    return [Axis(a, b) for a, b in zip(theta.tolist(), phi.tolist())]


def mar_polynomial(t: TensorParams, k: int) -> np.ndarray:
    """Coefficients of P_k(Z), highest degree first (length 2k+1).

    The coefficient of Z^{2k-i} is sqrt(C(2k, i)) t^k_{i-k}; an all-zero
    rank yields the zero vector, which signals zero radius, not an error.
    """
    if not isinstance(k, int) or not 1 <= k <= t.max_rank:
        raise DomainError(f"rank k = {k} outside 1 .. {t.max_rank}")
    return _root_binomials(2 * k) * t.rank(k)


@dataclass(frozen=True)
class _Layout:
    """Read-only index tables of ranks 1 .. top, built once per top by ``_layout``.

    Rank k's entries are ``entries(k)`` of the flat table without rank 0,
    its k axes ``axes(k)`` of an axis table, its 2k roots ``roots(k)`` of a
    root table, and its pairs of axes ``axis_pairs(k)`` of ``pairs``.
    """

    ranks: np.ndarray  # 1 .. top
    k: np.ndarray  # rank of each entry
    q: np.ndarray  # order of each entry
    binomials: np.ndarray  # sqrt(C(2k, k+q))
    ladder: np.ndarray  # sqrt(k(k+1) - q(q+1)) of J+: zero at q = k, so J+- stay within a rank
    starts: np.ndarray  # first entry of each rank
    axis_rank: np.ndarray  # rank of each axis row
    axis_slot: np.ndarray  # place of each axis row among its rank's k
    pairs: np.ndarray  # every two axis rows a < b of one rank, rank by rank

    @staticmethod
    def entries(k: int) -> slice:
        return slice(k * k - 1, (k + 1) ** 2 - 1)

    @staticmethod
    def axes(k: int) -> slice:
        return slice(k * (k - 1) // 2, k * (k + 1) // 2)

    @staticmethod
    def roots(k: int) -> slice:
        return slice(k * (k - 1), k * (k + 1))

    @staticmethod
    def axis_pairs(k: int) -> slice:
        # ranks below k have sum_j j(j-1)/2 = C(k, 3) pairs
        return slice(math.comb(k, 3), math.comb(k, 3) + k * (k - 1) // 2)


@functools.lru_cache(maxsize=None)
def _layout(top: int) -> _Layout:
    k, q, _, _ = _rank_layout(top)
    k, q = k[1:], q[1:]
    ranks = np.arange(1, top + 1)
    axis_rank = np.repeat(ranks, ranks)
    first = ranks * (ranks - 1) // 2
    layout = _Layout(
        ranks=ranks,
        k=k,
        q=q,
        binomials=np.concatenate([_root_binomials(2 * r) for r in ranks.tolist()]),
        ladder=np.sqrt(k * (k + 1) - q * (q + 1)),
        starts=ranks * ranks - 1,
        axis_rank=axis_rank,
        axis_slot=np.arange(len(axis_rank)) - first[axis_rank - 1],
        pairs=np.concatenate([np.stack(np.triu_indices(r, 1), axis=1) + first[r - 1] for r in ranks.tolist()]),
    )
    for a in vars(layout).values():
        a.setflags(write=False)
    return layout


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
    """Companion-matrix roots of a nonzero complex polynomial, highest degree first.

    The matrix divides by the leading coefficient, so one below the float
    range relative to the largest counts as zero; exactly zero trailing
    coefficients give roots at zero.  It is the matrix ``np.roots`` builds.
    """
    c = c / np.abs(c).max()
    c = c[np.argmax(np.abs(c) >= np.finfo(float).tiny) :]
    nonzero = np.flatnonzero(c)
    c, zeros = c[: nonzero[-1] + 1], len(c) - 1 - nonzero[-1]
    companion = np.eye(len(c) - 1, k=-1, dtype=complex)
    companion[:1] = -c[1:] / c[0]
    return np.concatenate([np.linalg.eigvals(companion), np.zeros(zeros, dtype=complex)])


def _sphere_points(z: np.ndarray) -> np.ndarray:
    """Unit vectors of the stereographic preimages of Z = tan(theta/2) e^{i phi}.

    Z = inf maps to the south pole.
    """
    return _unit_vectors(2.0 * np.arctan(np.abs(z)), np.angle(z))


def _antipodal_pairs(points: np.ndarray) -> np.ndarray:
    """Pair each point greedily with the free point nearest its antipode: (n/2, 2) index pairs.

    When the map from each point to its nearest antipode is an involution,
    its pairs are the greedy ones: each partner is still free at its turn.
    """
    gram = points @ points.T
    index = np.arange(len(points))
    gram[index, index] = np.inf
    nearest = gram.argmin(axis=1)
    if (nearest[nearest] == index).all():
        first = np.flatnonzero(index < nearest)
        return np.stack([first, nearest[first]], axis=1)
    free = np.ones(len(points), dtype=bool)
    pairs = []
    for a in range(len(points)):
        if free[a]:
            free[a] = False
            b = int(np.argmin(np.where(free, gram[a], np.inf)))
            free[b] = False
            pairs.append((a, b))
    return np.array(pairs, dtype=int).reshape(-1, 2)


def _pair_vectors(points: np.ndarray, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p_a - p_b of each pair, and its chordal distance from being antipodal, |p_a + p_b|."""
    a, b = points[pairs[:, 0]], points[pairs[:, 1]]
    return a - b, np.linalg.norm(a + b, axis=1)


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
    pairs = _antipodal_pairs(points)
    directions, gaps = _pair_vectors(points, pairs)
    bad = np.flatnonzero(gaps > PAIRING_TOL)
    if bad.size:
        p = bad[0]
        raise ConsistencyError(
            f"root {complex(z[pairs[p, 0]])!r} has no antipodal partner within {PAIRING_TOL:g} "
            f"(closest at chordal distance {gaps[p]:.3g}); "
            "the rank block does not satisfy the conjugation symmetry"
        )
    return _axis_list(*_sorted_axes(directions, np.zeros(k, dtype=int)))


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
    return value / (np.abs(powers) @ _root_binomials(len(coeffs) - 1))


def _zonal_axes(flat: np.ndarray, q: np.ndarray, ladder: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The axis u of each block of a flat run, as if the block were r s^k_q(u, ..., u).

    That block is annihilated by u . V with V = (J_x, -J_y, J_z) of spin k
    (the m = 0 state along u, mirrored by the convention of t), so u spans
    the null space of Re <V_a t, V_b t>.  Every entry weighs in by its
    size, so rounding in the tiny extreme-q entries cannot spoil it.
    """
    raised = np.zeros_like(flat)
    raised[1:] = ladder[:-1] * flat[:-1]
    lowered = np.zeros_like(flat)
    lowered[:-1] = ladder[:-1] * flat[1:]
    v = np.stack([(raised + lowered) / 2, (lowered - raised) / 2j, q * flat])
    products = np.einsum("ai,bi->iab", v.real, v.real)
    products += np.einsum("ai,bi->iab", v.imag, v.imag)
    return np.linalg.eigh(np.add.reduceat(products, starts))[1][:, :, 0]


def _zonal_axis(block: np.ndarray) -> np.ndarray:
    """``_zonal_axes`` of one rank block, q ascending."""
    k = (len(block) - 1) // 2
    layout, rank = _layout(k), _Layout.entries(k)
    return _zonal_axes(block, layout.q[rank], layout.ladder[rank], np.zeros(1, dtype=int))[0]


def _zonal_pass(flat, coeffs, nonzero, bound, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Every rank's zonal axis, and whether the rank is that axis k times.

    Only ranks whose residual floor at the root Z = (x + iy)/(1 + z) of the
    upper end of their zonal axis is within the bound build the k-fold fit;
    there |Z| <= 1, so the floor needs no reversal.
    """
    k, q, starts = layout.k, layout.q, layout.starts
    zonal = _zonal_axes(flat, q, layout.ladder, starts)
    x, y, w = (zonal * np.where(zonal[:, 2:] >= 0.0, 1.0, -1.0)).T
    powers = np.vander((x + 1j * y) / (1.0 + w), 2 * len(zonal) + 1, increasing=True)[k - 1, k - q]
    floors = np.abs(np.add.reduceat(coeffs * powers, starts))
    floors /= np.add.reduceat(layout.binomials * np.abs(powers), starts)
    tried = np.flatnonzero(nonzero & (floors <= bound))
    single = np.zeros(len(zonal), dtype=bool)
    if tried.size:
        # ranks 1 .. n, n the highest tried: the first entries of the table
        n = tried[-1] + 1
        counts = np.zeros(n, dtype=int)
        counts[tried] = tried + 1
        s = _stretched_table(np.broadcast_to(zonal[:n, None], (n, n, 3)), counts, layout)
        single[tried] = (_fit(flat[: len(s)], s, starts[:n], k[: len(s)] - 1)[1] <= bound[:n])[tried]
    return zonal, single


def _root_pass(flat, coeffs, bound, ranks: list, directions: np.ndarray, layout: _Layout) -> None:
    """Axes of the given ranks from the roots of their polynomials, into their rows of ``directions``.

    Per rank: the companion solve and the greedy pairing; over the table:
    the points, the axes and their angles; per rank where two axes lie
    within 0.5 rad: ``_collapse``.  No axis is judged here; ``extract_mar``
    judges every rank by its final residual.
    """
    z = np.full(2 * len(directions), complex(math.inf))
    for k in ranks:
        raw = _raw_roots(coeffs[layout.entries(k)])
        z[k * (k - 1) : k * (k - 1) + len(raw)] = raw
    points = _sphere_points(z)
    pairs = np.zeros((len(directions), 2), dtype=int)
    for k in ranks:
        pairs[layout.axes(k)] = _antipodal_pairs(points[layout.roots(k)]) + k * (k - 1)
    chosen = np.zeros(len(layout.ranks) + 1, dtype=bool)
    chosen[ranks] = True
    rows = np.flatnonzero(chosen[layout.axis_rank])
    units = _pair_vectors(points, pairs[rows])[0]
    directions[rows] = units / np.linalg.norm(units, axis=1)[:, None]
    a, b = layout.pairs.T
    angle = np.arccos(np.minimum(np.abs(np.einsum("ij,ij->i", directions[a], directions[b])), 1.0))
    clustered = np.zeros_like(chosen)
    clustered[layout.axis_rank[a[angle < _CLUSTER_WINDOW]]] = True
    for k in np.flatnonzero(clustered & chosen).tolist():
        entries, axes, roots, axis_pairs = layout.entries(k), layout.axes(k), layout.roots(k), layout.axis_pairs(k)
        _collapse(
            flat[entries],
            coeffs[entries],
            float(bound[k - 1]),
            z[roots],
            points[roots],
            pairs[axes] - k * (k - 1),
            directions[axes],
            layout.pairs[axis_pairs] - axes.start,
            angle[axis_pairs],
        )


def _collapse(block, coeffs, bound: float, z, points, pairs, units, axis_pairs, angle) -> None:
    """Collapse clusters of one rank's axes, the rows of ``units`` (changed in place).

    ``z`` are the rank's 2k roots, ``points`` their unit vectors, ``pairs``
    their pairs, and ``angle`` the angle of each pair of axes in
    ``axis_pairs``.  Axes closer than 0.5 rad join, nearest first, and each
    join tries its group at the mean of its roots (``_cluster_roots``),
    kept when the block still rebuilds within ``bound``.  A trial whose
    residual floor exceeds the bound is skipped before it is built.
    """
    close = np.flatnonzero(angle < _CLUSTER_WINDOW)
    group = np.arange(len(units))
    joins = []
    for a, b in axis_pairs[close[np.argsort(angle[close], kind="stable")]].tolist():
        ga, gb = group[a], group[b]
        if ga != gb:
            group[group == gb] = ga
            joins.append(group == ga)
    joins = np.array(joins)
    roots = _cluster_roots(z, points, pairs, joins)
    kept = _residual_floor(coeffs, roots) <= bound
    for members, point in zip(joins[kept], _sphere_points(roots[kept])):
        trial = units.copy()
        trial[members] = point
        if fit_radius(block, _stretched(trial))[1] <= bound:
            units[members] = point


def _stretched_rows(units: np.ndarray, counts) -> np.ndarray:
    """sqrt(C(2k, k+q)) s^k_q, q ascending, of the first counts[r] unit vectors of each row r of units (R, K, 3).

    Row r holds the product of those vectors' quadratics (see
    ``axes_to_tensor``), then zeros.  One three-term recurrence over the
    axis index serves every row; past its count a row is multiplied by the
    quadratic 1, which leaves it exactly as it was.
    """
    rows, width = units.shape[:2]
    x, y, z = np.moveaxis(units, 2, 0)
    r2 = math.sqrt(2.0)
    past = np.arange(width) >= np.asarray(counts)[:, None]
    lo = np.where(past, 1.0, (x - 1j * y) / r2)
    mid = np.where(past, 0.0, r2 * z)
    hi = np.where(past, 0.0, -(x + 1j * y) / r2)
    prod = np.zeros((rows, 2 * width + 1), dtype=complex)
    prod[:, 0] = 1.0
    for i in range(width):
        n = 2 * i + 1
        with_mid = prod[:, :n] * mid[:, i, None]
        with_hi = prod[:, :n] * hi[:, i, None]
        prod[:, :n] *= lo[:, i, None]
        prod[:, 1 : n + 1] += with_mid
        prod[:, 2 : n + 2] += with_hi
    return prod


def _stretched_table(units: np.ndarray, counts: np.ndarray, layout: _Layout) -> np.ndarray:
    """s^k_q of ranks k = 1 .. n on the flat layout, from the first counts[k - 1] rows of units[k - 1] (n, n, 3)."""
    n = len(units)
    entries = (n + 1) ** 2 - 1
    k, q = layout.k[:entries], layout.q[:entries]
    return _stretched_rows(units, counts)[k - 1, k + q] / layout.binomials[:entries]


def _stretched(units: np.ndarray) -> np.ndarray:
    """s^k_q of k unit vectors (rows), q ascending: one row of ``_stretched_rows``."""
    k = len(units)
    return _stretched_rows(units[None], [k])[0] / _root_binomials(2 * k)


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
    theta, phi = np.array([(axis.theta, axis.phi) for axis in axes]).T
    return _stretched(_unit_vectors(theta, phi))


def _fit(flat: np.ndarray, s: np.ndarray, starts: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radius r = Re<s, t>/<s, s> and residual max |t - r s| of each block t of a flat run against s.

    ``starts`` are the blocks' first entries, ``owner`` the block of each
    entry.  Each block is summed alone, so it fits the same in any run.
    """
    r = np.add.reduceat((s.conj() * flat).real, starts) / np.add.reduceat((s.conj() * s).real, starts)
    return r, np.maximum.reduceat(np.abs(flat - r[owner] * s), starts)


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
    if float(np.vdot(s, s).real) < 1e-300:
        raise ConsistencyError("axes couple to the zero tensor at this rank (degenerate coupling)")
    r, residual = _fit(t_rank, s, np.zeros(1, dtype=int), np.zeros(len(s), dtype=int))
    return float(r[0]), float(residual[0])


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

    Every nonzero rank is accepted by one rule: its axes rebuild the block
    within its bound, 1e-10 of the block's 2-norm, or 1e-14 of the table's
    norm if larger.  The whole rank as one k-fold axis, a group of its axes
    collapsed to one axis, and the greedy pairing of its roots are only
    candidates; see the module docstring.  The first rank over its bound
    raises :class:`ConsistencyError` naming the rank, its residual and its
    bound.
    """
    top = t.max_rank
    if top == 0:
        return MarDecomposition(t.j, ())
    layout = _layout(top)
    flat = np.concatenate(t.ranks)
    floor = _TABLE_RTOL * float(np.linalg.norm(flat))
    flat = flat[1:]
    size = np.abs(flat)
    nonzero = np.maximum.reduceat(size, layout.starts) > RADIUS_ZERO_TOL
    bound = np.maximum(_COLLAPSE_RTOL * np.sqrt(np.add.reduceat(size * size, layout.starts)), floor)
    coeffs = layout.binomials * flat
    zonal, single = _zonal_pass(flat, coeffs, nonzero, bound, layout)
    directions = np.repeat(zonal, layout.ranks, axis=0)
    _root_pass(flat, coeffs, bound, (np.flatnonzero(nonzero & ~single) + 1).tolist(), directions, layout)

    # every axis of the table at once: canonical, sorted, fitted, and judged
    theta, phi = _sorted_axes(directions, layout.axis_rank)
    padded = np.zeros((top, top, 3))
    padded[layout.axis_rank - 1, layout.axis_slot] = _unit_vectors(theta, phi)
    counts = np.where(nonzero, layout.ranks, 0)
    radii, residuals = _fit(flat, _stretched_table(padded, counts, layout), layout.starts, layout.k - 1)
    over = np.flatnonzero(nonzero & ~(residuals <= bound))
    if over.size:
        i = over[0]
        raise ConsistencyError(
            f"rank {i + 1} axes rebuild the block with residual {residuals[i]:.3g}, over its bound {bound[i]:.3g}"
        )
    axes = _axis_list(theta, phi)
    entries = []
    for k, count, r, residual in zip(layout.ranks.tolist(), counts.tolist(), radii.tolist(), residuals.tolist()):
        if count:
            entries.append(RankDecomposition(k, abs(r), -1 if r < 0 else 1, tuple(axes[layout.axes(k)]), residual))
        else:
            entries.append(RankDecomposition(k, 0.0, 1, (), 0.0))
    return MarDecomposition(t.j, tuple(entries))


def collinearity_check(m: MarDecomposition, tol: float = 1e-8) -> bool:
    """True when all axes across ranks with nonzero radius share one line."""
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tolerance must be finite and non-negative, got {tol!r}")
    angles = np.array([(a.theta, a.phi) for e in m.ranks if e.radius > tol for a in e.axes]).reshape(-1, 2)
    v = _unit_vectors(angles[:, 0], angles[:, 1])
    return bool((np.abs(v @ v.T) >= 1.0 - tol).all())
