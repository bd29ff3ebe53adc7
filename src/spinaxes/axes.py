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

``extract_mar`` runs every step as one pass over the whole flat table,
except the companion solve, which runs per rank:

1. Zonal pass.  An exact k-fold axis, as in product states, comes back from
   the companion matrix as k roots scattered by about eps^(1/k), so every
   rank is first tried as one axis, the null vector of a 3 x 3 Gram matrix
   (one reduceat, one stacked eigh); rank 1, one axis, is its zonal axis
   with no trial.  A block rebuilt with an axis at Z has a polynomial
   vanishing there, so its residual is at least the floor
   |P_k(Z)| / sum_i sqrt(C(2k, i)) |Z|^(2k-i); only ranks whose floor passes
   build the k-fold fit.  The floor only skips trials, never accepts one.
2. Root pass.  Every other nonzero rank solves its companion matrix once;
   the companion rows come from one table, and one stacked Gram matrix
   pairs every rank's roots by nearest antipode; each pair is one axis.
   Axes of one rank within 0.5 rad join, nearest first, and every join of
   the table gets its mean root and the same floor at once.  Joins whose
   floor passes are tried in waves, wave i fitting every rank's i-th such
   join at once, and each is kept when its block still rebuilds within
   the bound: the order of one loop over the joins, rank by rank.
3. Final pass.  Every axis is canonicalized and sorted at once, every
   stretched tensor comes from one three-term recurrence over the axis
   index, and every radius is fitted at once.  The zonal trials, the join
   trials and this fit run through one fit of any list of ranks.

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

from .angular import _check_angles, _root_binomials, _scaled_direction
from .errors import ConsistencyError, DomainError
from .halfint import HalfInt, _is_int
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
# collinearity_check: rows of all-pairs dot products per block, and a margin far above their rounding
_COLLINEAR_ROWS = 32
_COLLINEAR_MARGIN = 1e-12


@dataclass(frozen=True)
class Axis:
    """An unoriented direction: theta in [0, pi/2], and when theta is on
    the equator within tolerance, phi restricted to [0, pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        _check_angles(theta=self.theta, phi=self.phi)

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
    v = v / n[:, None]
    x, y, z = (v * np.where(v[:, 2:] < -EQUATOR_TOL, -1.0, 1.0)).T
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
    """Axes of finite canonical angles, built without the check of ``Axis.__post_init__``."""
    axes = [Axis.__new__(Axis) for _ in range(len(theta))]
    for axis, a, b in zip(axes, theta.tolist(), phi.tolist()):
        fields = axis.__dict__
        fields["theta"], fields["phi"] = a, b
    return axes


def mar_polynomial(t: TensorParams, k: int) -> np.ndarray:
    """Coefficients of P_k(Z), highest degree first (length 2k+1).

    The coefficient of Z^{2k-i} is sqrt(C(2k, i)) t^k_{i-k}; an all-zero
    rank yields the zero vector, which signals zero radius, not an error.
    """
    if not _is_int(k) or not 1 <= k <= t.max_rank:
        raise DomainError(f"rank k = {k} outside 1 .. {t.max_rank}")
    return _root_binomials(2 * k) * t.rank(k)


@dataclass(frozen=True)
class _Layout:
    """Read-only index tables of ranks 0 .. top, built once per top by ``_layout``.

    Rank k's entries of the table's own flat layout (see ``tensors._rank_layout``)
    are those ``_segments`` lays out, and its k axes ``axes(k)`` of an axis
    table; every per-rank array is indexed by rank, rank 0 holding no axis.
    """

    ranks: np.ndarray  # 0 .. top
    k: np.ndarray  # rank of each entry
    q: np.ndarray  # order of each entry
    binomials: np.ndarray  # sqrt(C(2k, k+q))
    ladder: np.ndarray  # sqrt(k(k+1) - q(q+1)) of J+: zero at q = k, so J+- stay within a rank
    starts: np.ndarray  # first entry of each rank
    axis_rank: np.ndarray  # rank of each axis row
    pairs: np.ndarray  # every two axis rows a < b of one rank, rank by rank

    @staticmethod
    def axes(k: int) -> slice:
        return slice(k * (k - 1) // 2, k * (k + 1) // 2)


@functools.lru_cache(maxsize=None)
def _layout(top: int) -> _Layout:
    k, q, _, _ = _rank_layout(top)
    ranks = np.arange(top + 1)
    axis_rank = np.repeat(ranks, ranks)
    first = ranks * (ranks - 1) // 2
    layout = _Layout(
        ranks=ranks,
        k=k,
        q=q,
        binomials=np.concatenate([_root_binomials(2 * r) for r in ranks.tolist()]),
        ladder=np.sqrt(k * (k + 1) - q * (q + 1)),
        starts=ranks * ranks,
        axis_rank=axis_rank,
        pairs=np.concatenate([np.stack(np.triu_indices(r, 1), axis=1) + first[r] for r in ranks.tolist()]),
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
    first, lead, last = _companions(c[None])
    companion = np.eye(last[0] - lead[0], k=-1, dtype=complex)
    companion[:1] = first[0, : len(companion)]
    raw = np.concatenate([np.linalg.eigvals(companion), np.zeros(len(c) - 1 - last[0], dtype=complex)])
    merged, left = [], raw
    while len(left):
        near = np.abs(left - left[0]) <= ROOT_CLUSTER_RTOL * np.maximum(np.abs(left), max(1.0, abs(left[0])))
        merged.append((complex(np.mean(left[near])), int(near.sum())))
        left = left[~near]
    return merged, len(c) - 1 - len(raw)


def _companions(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First companion rows of nonzero polynomials (rows of ``table``, highest degree first).

    Each row is divided by its largest coefficient, so a leading one below
    the float range counts as zero; row r drops its ``lead[r]`` leading
    coefficients (roots at infinity) and keeps coefficients up to
    ``last[r]``, its last nonzero one (the rest are roots at zero).  Its
    companion matrix, the one ``np.roots`` builds, has the first row
    ``first[r, :last[r] - lead[r]]``.
    """
    c = table / np.abs(table).max(axis=1)[:, None]
    width = c.shape[1]
    lead = np.argmax(np.abs(c) >= np.finfo(float).tiny, axis=1)
    last = width - 1 - np.argmax(c[:, ::-1] != 0, axis=1)
    row = np.arange(len(c))
    index = np.minimum(lead[:, None] + np.arange(1, width), width - 1)
    return -c[row[:, None], index] / c[row, lead][:, None], lead, last


def _sphere_points(z: np.ndarray) -> np.ndarray:
    """Unit vectors of the stereographic preimages of Z = tan(theta/2) e^{i phi}.

    Z = inf maps to the south pole.
    """
    return _unit_vectors(2.0 * np.arctan(np.abs(z)), np.angle(z))


def _antipodal_pairs(points: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Pair the first counts[r] points of each row r of points (R, n, 3), each point greedily with the
    free point nearest its antipode: (sum(counts) / 2, 2) flat indices into the rows, row by row.

    Where the map from each point to its nearest antipode is an involution,
    its pairs are the greedy ones: each partner is still free at its turn.
    Only the other rows run the greedy loop, which writes its partners
    into that map.
    """
    rows, n = points.shape[:2]
    col = np.arange(n)
    valid = col < counts[:, None]
    gram = points @ points.transpose(0, 2, 1)
    gram[:, col, col] = np.inf
    gram += np.where(valid, 0.0, np.inf)[:, None]
    nearest = gram.argmin(axis=2)
    base = np.arange(rows)[:, None]
    for r in np.flatnonzero(~((nearest[base, nearest] == col) | ~valid).all(axis=1)).tolist():
        free = valid[r].copy()
        for a in range(counts[r]):
            if free[a]:
                free[a] = False
                b = int(np.argmin(np.where(free, gram[r, a], np.inf)))
                free[b] = False
                nearest[r, a], nearest[r, b] = b, a
    first = valid & (col < nearest)
    return np.stack([(base * n + col)[first], (base * n + nearest)[first]], axis=1)


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
    for name, n in (("rank k", k), ("count of roots at infinity", count_at_infinity)):
        if not _is_int(n):
            raise DomainError(f"{name} must be an int, got {n!r}")
    z: list = []
    for root, mult in roots:
        if not _is_int(mult) or mult < 1:
            raise DomainError(f"multiplicity must be a positive int, got {mult!r}")
        z.extend([complex(root)] * mult)
    z.extend([complex(math.inf)] * count_at_infinity)
    if len(z) != 2 * k:
        raise DomainError(f"got {len(z)} roots in total, expected 2k = {2 * k}")
    z = np.array(z, dtype=complex)
    points = _sphere_points(z)
    pairs = _antipodal_pairs(points[None], np.array([2 * k]))
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


def _segments(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat-table entries of the ranks ks, rank by rank: each one's index and segment, and each segment's start."""
    sizes = 2 * ks + 1
    owner = np.repeat(np.arange(len(ks)), sizes)
    starts = np.cumsum(sizes) - sizes
    return np.arange(len(owner)) + (ks * ks - starts)[owner], owner, starts


def _residual_floors(coeffs, z: np.ndarray, ks: np.ndarray, layout: _Layout) -> np.ndarray:
    """Lower bound on the fit residual of each rank ks[g] rebuilt with an axis at z[g].

    ``coeffs`` is the flat table of the ranks' polynomials.  Such a block's
    polynomial vanishes at Z, so for every radius r
    |P_t(Z)| = |sum_i sqrt(C(2k, i)) (t - r s)_{i-k} Z^(2k-i)|
             <= max_q |t_q - r s_q| * sum_i sqrt(C(2k, i)) |Z|^(2k-i).
    Beyond the unit circle both sums are taken at 1/Z on the reversed
    coefficients (the binomials are symmetric), so Z = inf gives |t^k_{-k}|.
    """
    entries, owner, starts = _segments(ks)
    outer = np.abs(z) > 1.0
    k, q = layout.k[entries], layout.q[entries]
    powers = np.vander(np.where(outer, 1.0 / np.where(outer, z, 1.0), z), 2 * layout.ranks[-1] + 1, increasing=True)
    powers = powers[owner, np.where(outer[owner], k + q, k - q)]
    floors = np.abs(np.add.reduceat(coeffs[entries] * powers, starts))
    floors /= np.add.reduceat(layout.binomials[entries] * np.abs(powers), starts)
    return floors


def _zonal_axes(flat: np.ndarray, q: np.ndarray, ladder: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The axis u of each block of a flat run, as if the block were r s^k_q(u, ..., u).

    That block is annihilated by u . V with V = (J_x, -J_y, J_z) of spin k
    (the m = 0 state along u, mirrored by the convention of t), so u spans
    the null space of Re <V_a t, V_b t>.  Every entry weighs in by its
    size, so rounding in the tiny extreme-q entries cannot spoil it.
    """
    raised = np.concatenate([[0.0], ladder[:-1] * flat[:-1]])
    lowered = np.concatenate([ladder[:-1] * flat[1:], [0.0]])
    v = np.stack([(raised + lowered) / 2, (lowered - raised) / 2j, q * flat])
    products = np.einsum("ai,bi->iab", v.real, v.real)
    products += np.einsum("ai,bi->iab", v.imag, v.imag)
    return np.linalg.eigh(np.add.reduceat(products, starts))[1][:, :, 0]


def _zonal_pass(flat, coeffs, nonzero, bound, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Every rank's zonal axis, k times in an axis table, and whether the rank is that axis k times.

    Rank 1 is its zonal axis.  Of the others, only ranks whose residual floor
    at the root Z = (x + iy)/(1 + z) of the upper end of their zonal axis is
    within the bound build the k-fold fit.
    """
    zonal = _zonal_axes(flat, layout.q, layout.ladder, layout.starts)
    x, y, w = (zonal * np.where(zonal[:, 2:] >= 0.0, 1.0, -1.0)).T
    floors = _residual_floors(coeffs, (x + 1j * y) / (1.0 + w), layout.ranks, layout)
    directions = np.repeat(zonal, layout.ranks, axis=0)
    single = nonzero & (layout.ranks == 1)
    tried = np.flatnonzero(nonzero & (floors <= bound) & (layout.ranks > 1))
    if tried.size:
        single[tried] = _rebuilt(flat, directions, tried, layout)[1] <= bound[tried]
    return directions, single


def _joins(z, points, pairs, directions, chosen, layout: _Layout) -> tuple[list, np.ndarray, np.ndarray]:
    """The joins of close axes of the chosen ranks, the rank of each, and each one's mean root.

    Axes of one rank closer than 0.5 rad join, nearest first, rank by rank;
    each join is the sorted list of the axis rows its group then holds, and
    ``pairs`` gives each axis row's two roots in the flat ``z``.  The mean is
    taken on one side of a join: of each pair, the root nearer the join's
    first upper-hemisphere root, or its first root if none is.  It is a
    symmetric function of the cluster, so it keeps the accuracy its
    scattered members lose; the -1/conj(Z) images would not (that map is
    anti-holomorphic).
    """
    a, b = layout.pairs.T
    angle = np.arccos(np.minimum(np.abs(np.einsum("ij,ij->i", directions[a], directions[b])), 1.0))
    close = np.flatnonzero((angle < _CLUSTER_WINDOW) & chosen[layout.axis_rank[a]])
    if not close.size:
        return [], np.zeros(0, dtype=int), np.zeros(0, dtype=complex)
    group, members, joins = list(range(len(directions))), [[i] for i in range(len(directions))], []
    for x, y in layout.pairs[close[np.lexsort((angle[close], layout.axis_rank[a[close]]))]].tolist():
        gx, gy = group[x], group[y]
        if gx != gy:
            for m in members[gy]:
                group[m] = gx
            members[gx] += members[gy]
            joins.append(sorted(members[gx]))
    sizes = np.array([len(j) for j in joins])
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(joins)), sizes)
    rows = np.array([r for j in joins for r in j])
    ends = pairs[rows]
    flat_ends = ends.ravel()
    upper = np.minimum.reduceat(np.where(points[flat_ends, 2] >= 0.0, np.arange(ends.size), ends.size), 2 * starts)
    ref = points[flat_ends[np.where(upper < ends.size, upper, 2 * starts)]]
    near = np.where(np.einsum("ij,ij->i", points[ends[:, 0]] - points[ends[:, 1]], ref[owner]) >= 0.0, *ends.T)
    # np.mean of each join's roots: a zero ahead of each segment makes its sum the one np.add.reduce forms
    padded = np.zeros(len(rows) + len(joins), dtype=complex)
    padded[np.arange(len(rows)) + owner + 1] = z[near]
    return joins, layout.axis_rank[rows[starts]], np.add.reduceat(padded, starts + np.arange(len(joins))) / sizes


def _root_pass(flat, coeffs, bound, ks: np.ndarray, directions: np.ndarray, layout: _Layout) -> None:
    """Axes of the ranks ks from the roots of their polynomials, into their rows of ``directions``.

    Only the companion solve runs per rank.  Over the table: the companion
    rows, a root table padded with roots at infinity, the pairing, the
    axes, and the joins of close axes with their mean roots and residual
    floors.  Joins come rank by rank, so wave i holds each rank's i-th join
    whose floor is within its rank's bound; a wave is fitted at once, and a
    join kept when its block still rebuilds within the bound, before the
    next wave.  No axis is judged here; ``extract_mar`` judges every rank by
    its final residual.
    """
    col = np.arange(2 * ks[-1] + 1)
    index = np.where(col <= 2 * ks[:, None], layout.starts[ks, None] + col, len(coeffs))
    first, lead, last = _companions(np.append(coeffs, 0.0)[index])
    z = np.where(col[:-1] < (2 * ks - lead)[:, None], 0j, complex(math.inf))
    companion = np.eye(len(col) - 1, k=-1, dtype=complex)  # each rank's is its top-left block, first row rewritten
    for roots, row, n in zip(z, first, (last - lead).tolist()):
        companion[0, :n] = row[:n]
        roots[:n] = np.linalg.eigvals(companion[:n, :n])
    stack = _sphere_points(z)
    pairs = np.zeros((len(directions), 2), dtype=int)
    chosen = np.zeros(len(layout.ranks), dtype=bool)
    chosen[ks] = True
    rows = np.flatnonzero(chosen[layout.axis_rank])
    pairs[rows] = found = _antipodal_pairs(stack, 2 * ks)
    points, z = stack.reshape(-1, 3), z.ravel()
    units = points[found[:, 0]] - points[found[:, 1]]
    directions[rows] = units / np.linalg.norm(units, axis=1)[:, None]
    joins, join_ranks, means = _joins(z, points, pairs, directions, chosen, layout)
    if not joins:
        return
    tried = np.flatnonzero(_residual_floors(coeffs, means, join_ranks, layout) <= bound[join_ranks])
    ranks, points = join_ranks[tried], _sphere_points(means[tried])
    wave = np.arange(len(tried)) - np.searchsorted(ranks, ranks)
    for i in range(wave.max(initial=-1) + 1):
        now = np.flatnonzero(wave == i)
        members = [joins[g] for g in tried[now].tolist()]
        sizes = [len(m) for m in members]
        moved, point = np.concatenate(members), np.repeat(points[now], sizes, axis=0)
        trial = directions.copy()
        trial[moved] = point
        kept = np.repeat(_rebuilt(flat, trial, ranks[now], layout)[1] <= bound[ranks[now]], sizes)
        directions[moved[kept]] = point[kept]


def _stretched_rows(units: np.ndarray, counts) -> np.ndarray:
    """sqrt(C(2k, k+q)) s^k_q, q ascending, of the first counts[r] unit vectors of each row r of units (R, K, 3).

    Row r holds the product of those vectors' quadratics (see
    ``axes_to_tensor``), then zeros.  One three-term recurrence over the
    axis index serves every row; past its count a row is multiplied by the
    quadratic 1, which leaves it exactly as it was.
    """
    rows, width = units.shape[:2]
    x, y, z = units.transpose(2, 1, 0)
    r2 = math.sqrt(2.0)
    past = np.arange(width)[:, None] >= np.asarray(counts)
    lo = np.where(past, 1.0, (x - 1j * y) / r2)
    mid = np.where(past, 0.0, r2 * z)
    hi = np.where(past, 0.0, -(x + 1j * y) / r2)
    prod = np.zeros((2 * width + 1, rows), dtype=complex)  # the transpose: each step's slices are contiguous
    prod[0] = 1.0
    for n, l, m, h in zip(range(1, 2 * width, 2), lo, mid, hi):
        with_mid = prod[:n] * m
        with_hi = prod[:n] * h
        prod[:n] *= l
        prod[1 : n + 1] += with_mid
        prod[2 : n + 2] += with_hi
    return prod.T


def _rebuilt(flat: np.ndarray, directions: np.ndarray, ks: np.ndarray, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Radius and residual of each rank of ks (ascending) of the flat table against s^k_q of its rows of an axis table.

    Every rank's stretched tensor and fit are computed on their own, so a
    rank gets the same bits in any list of ranks.
    """
    # row r reads ks[-1] axis rows from rank ks[r]'s first; those past its k belong to the next ranks and go unread
    units = directions[(ks * (ks - 1) // 2)[:, None] + np.arange(ks[-1])]
    entries, owner, starts = _segments(ks)
    k, q = layout.k[entries], layout.q[entries]
    s = _stretched_rows(units, ks)[owner, k + q] / layout.binomials[entries]
    return _fit(flat[entries], s, starts, owner)


def axes_to_tensor(axes, k: int) -> np.ndarray:
    """Stretched coupling s^k_q of the k axes' rank-1 tensors, q ascending.

    The product of the quadratics ((x - iy)/sqrt2, sqrt2 z, -(x + iy)/sqrt2)
    of the unit vectors has the coefficients sqrt(C(2k, k+q)) s^k_q.
    """
    if not _is_int(k):
        raise DomainError(f"rank k must be an int, got {k!r}")
    axes = list(axes)
    if len(axes) != k:
        raise DomainError(f"need exactly k = {k} axes, got {len(axes)}")
    if k < 1:
        raise DomainError("rank must be at least one")
    theta, phi = np.array([(axis.theta, axis.phi) for axis in axes]).T
    return _stretched_rows(_unit_vectors(theta, phi)[None], [k])[0] / _root_binomials(2 * k)


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
        if not _is_int(k):
            raise DomainError(f"rank k must be an int, got {k!r}")
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
    flat = t._flat
    size = np.abs(flat)
    nonzero = (np.maximum.reduceat(size, layout.starts) > RADIUS_ZERO_TOL) & (layout.ranks > 0)
    floor = _TABLE_RTOL * float(np.linalg.norm(flat))
    bound = np.maximum(_COLLAPSE_RTOL * np.sqrt(np.add.reduceat(size * size, layout.starts)), floor)
    coeffs = layout.binomials * flat
    directions, single = _zonal_pass(flat, coeffs, nonzero, bound, layout)
    ks = np.flatnonzero(nonzero & ~single)
    if ks.size:
        _root_pass(flat, coeffs, bound, ks, directions, layout)

    # every axis of the table at once: canonical, sorted, fitted, and judged
    theta, phi = _sorted_axes(directions, layout.axis_rank)
    radii, residuals = _rebuilt(flat, _unit_vectors(theta, phi), layout.ranks, layout)
    over = np.flatnonzero(nonzero & ~(residuals <= bound))
    if over.size:
        k = over[0]
        raise ConsistencyError(
            f"rank {k} axes rebuild the block with residual {residuals[k]:.3g}, over its bound {bound[k]:.3g}"
        )
    axes = _axis_list(theta, phi)
    entries = []
    for k, fitted, r, residual in zip(layout.ranks.tolist(), nonzero.tolist(), radii.tolist(), residuals.tolist()):
        if fitted:
            entries.append(RankDecomposition(k, abs(r), -1 if r < 0 else 1, tuple(axes[layout.axes(k)]), residual))
        elif k:  # rank 0, t^0_0 = 1, is the normalization, not a rank of the decomposition
            entries.append(RankDecomposition(k, 0.0, 1, (), 0.0))
    return MarDecomposition(t.j, tuple(entries))


def collinearity_check(m: MarDecomposition, tol: float = 1e-8) -> bool:
    """True when all axes across ranks with nonzero radius share one line."""
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tolerance must be finite and non-negative, got {tol!r}")
    axes = [a for e in m.ranks if e.radius > tol for a in e.axes]
    v = _unit_vectors(np.array([a.theta for a in axes]), np.array([a.phi for a in axes]))
    # every pair's |u . v| >= 1 - tol, in blocks of rows; the first block holds every pair with the first axis
    for start in range(0, len(v), _COLLINEAR_ROWS):
        dots = np.abs(v[start : start + _COLLINEAR_ROWS] @ v.T)
        if not (dots >= 1.0 - tol).all():
            return False
        # within half that angle, arccos(1 - tol), of the first axis's line, every two axes are within it
        if not start and (dots[0] >= math.sqrt(max(1.0 - tol / 2, 0.0)) + _COLLINEAR_MARGIN).all():
            return True
    return True
