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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .halfint import HalfInt
from .tensors import TensorParams

COEFF_ZERO_RTOL = 1e-12
ROOT_CLUSTER_RTOL = 1e-7
PAIRING_TOL = 1e-6
# companion-matrix backward error budget for multiple-root windows and
# the relative bound a certified multiple root must meet
_MULTIPLE_ROOT_BACKWARD = 1e-10
_CERT_RTOL = 3e-11
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
        u = np.asarray(u, dtype=float)
        n = np.linalg.norm(u)
        if n < 1e-300:
            raise DomainError("zero vector spans no axis")
        x, y, z = u / n
        if z < -EQUATOR_TOL:
            x, y, z = -x, -y, -z
        phi = math.atan2(y, x) % (2 * math.pi)
        if abs(z) <= EQUATOR_TOL and phi >= math.pi:
            phi -= math.pi
            z = -z
        return cls(math.acos(min(max(z, -1.0), 1.0)), phi)


def mar_polynomial(t: TensorParams, k: int) -> np.ndarray:
    """Coefficients of P_k(Z), highest degree first (length 2k+1).

    The coefficient of Z^{2k-i} is sqrt(C(2k, i)) t^k_{i-k}; an all-zero
    rank yields the zero vector, which signals zero radius, not an error.
    """
    if not isinstance(k, int) or not 1 <= k <= t.max_rank:
        raise DomainError(f"rank k = {k} outside 1 .. {t.max_rank}")
    block = t.rank(k)
    return np.array([math.sqrt(math.comb(2 * k, i)) * block[i] for i in range(2 * k + 1)])


def polynomial_roots(coeffs) -> tuple[list[tuple[complex, int]], int]:
    """Roots with multiplicities, plus the count of roots at infinity.

    Coefficients smaller than 1e-12 of the largest are treated as
    structural zeros: missing leading degrees become roots at infinity,
    missing trailing degrees roots at zero.  Finite roots come from the
    balanced companion matrix and are polished by two Newton steps.
    Roots within relative distance 1e-7 always merge into one root with
    multiplicity; wider groups merge only under a derivative certificate
    (see ``_group_roots``), which recovers exact multiple roots that the
    companion matrix scatters far beyond any fixed tolerance.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or len(c) < 2:
        raise DomainError("need a coefficient vector of degree at least one")
    scale = np.abs(c).max()
    if scale == 0.0:
        raise DomainError("the zero polynomial has no root set")
    keep = np.abs(c) > COEFF_ZERO_RTOL * scale
    first = int(np.argmax(keep))
    last = len(c) - 1 - int(np.argmax(keep[::-1]))
    at_infinity = first
    zero_mult = len(c) - 1 - last
    core = c[first : last + 1]
    result: list[tuple[complex, int]] = []
    if zero_mult:
        result.append((0j, zero_mult))
    if len(core) > 1:
        raw = np.roots(core)
        dcore = core[:-1] * np.arange(len(core) - 1, 0, -1)
        for _ in range(2):
            p = np.polyval(core, raw)
            dp = np.polyval(dcore, raw)
            step = np.where(np.abs(dp) > 0, p / np.where(np.abs(dp) > 0, dp, 1.0), 0.0)
            better = raw - step
            improves = np.abs(np.polyval(core, better)) <= np.abs(p)
            raw = np.where(improves, better, raw)
        result.extend(_group_roots(core, raw))
    return result, at_infinity


def _chain_clusters(values, window: float) -> list[list[complex]]:
    remaining = list(values)
    clusters = []
    while remaining:
        members = [remaining.pop(0)]
        changed = True
        while changed:
            changed = False
            center = complex(np.mean(members))
            for r in remaining[:]:
                if abs(r - center) <= window * max(1.0, abs(r), abs(center)):
                    members.append(r)
                    remaining.remove(r)
                    changed = True
        clusters.append(members)
    return clusters


def _derivative_table(core: np.ndarray) -> list[np.ndarray]:
    ders = [np.asarray(core, dtype=complex)]
    while len(ders[-1]) > 1:
        c = ders[-1]
        ders.append(c[:-1] * np.arange(len(c) - 1, 0, -1))
    return ders


def _certified_multiple(ders, members) -> tuple[complex, int] | None:
    """Refine a size-m group as an exact m-fold root, or reject it.

    An m-fold root is a simple root of the (m-1)th derivative, so Newton
    there converges sharply even though the plain roots scatter as
    eps^(1/m).  The certificate then demands p, p', ..., p^(m-1) all
    vanish at the refined point relative to their coefficient scale,
    which a false merge of distinct roots cannot satisfy.
    """
    m = len(members)
    z = complex(np.mean(members))
    for _ in range(3):
        dp = complex(np.polyval(ders[m], z))
        if dp == 0.0:
            break
        z = z - complex(np.polyval(ders[m - 1], z)) / dp
    for i in range(m):
        bound = float(np.polyval(np.abs(ders[i]), max(1.0, abs(z))))
        if abs(complex(np.polyval(ders[i], z))) > _CERT_RTOL * bound:
            return None
    return z, m


def _group_roots(core: np.ndarray, raw: np.ndarray) -> list[tuple[complex, int]]:
    """Group polished companion-matrix roots into (root, multiplicity).

    A numerical m-fold root occupies a disc of radius about eps^(1/m),
    so groups are proposed at those scales, widest first, and accepted
    only when certified; whatever remains merges unconditionally at the
    1e-7 relative baseline.
    """
    deg = len(core) - 1
    ders = _derivative_table(core)
    windows = sorted(
        {_MULTIPLE_ROOT_BACKWARD ** (1.0 / m) for m in range(2, deg + 1)}, reverse=True
    )
    remaining = list(raw)
    found: list[tuple[complex, int]] = []
    for w in windows:
        if len(remaining) < 2:
            break
        for members in _chain_clusters(remaining, w):
            if len(members) < 2:
                continue
            cert = _certified_multiple(ders, members)
            if cert is not None:
                found.append(cert)
                for r in members:
                    remaining.remove(r)
    for members in _chain_clusters(remaining, ROOT_CLUSTER_RTOL):
        found.append((complex(np.mean(members)), len(members)))
    return found


def _chordal(z, w) -> float:
    """Chordal distance on the sphere; None stands for the point at infinity."""
    if z is None and w is None:
        return 0.0
    if z is None:
        return 2.0 / math.sqrt(1.0 + abs(w) ** 2)
    if w is None:
        return 2.0 / math.sqrt(1.0 + abs(z) ** 2)
    return 2.0 * abs(z - w) / math.sqrt((1.0 + abs(z) ** 2) * (1.0 + abs(w) ** 2))


def _point(z) -> np.ndarray:
    """Unit vector of the stereographic preimage of Z = tan(theta/2) e^{i phi}."""
    if z is None:
        return np.array([0.0, 0.0, -1.0])
    theta = 2.0 * math.atan(abs(z))
    phi = cmath.phase(z) if z != 0 else 0.0
    s = math.sin(theta)
    return np.array([s * math.cos(phi), s * math.sin(phi), math.cos(theta)])


def _antipodal_image(z):
    if z is None:
        return 0j
    if z == 0:
        return None
    return -1.0 / z.conjugate()


def roots_to_axes(roots, count_at_infinity: int, k: int) -> list[Axis]:
    """Pair the 2k roots under Z -> -1/conj(Z) and return the k axes.

    Roots must form antipodal pairs within chordal distance 1e-6, which is
    guaranteed by the conjugation symmetry of valid tensor parameters; a
    violation raises :class:`ConsistencyError`.  Axes are sorted by
    descending theta, then ascending phi.
    """
    units: list = []
    for z, mult in roots:
        if mult < 1:
            raise DomainError(f"multiplicity {mult} is not positive")
        units.extend([complex(z)] * mult)
    units.extend([None] * count_at_infinity)
    if len(units) != 2 * k:
        raise DomainError(f"got {len(units)} roots in total, expected 2k = {2 * k}")
    axes = []
    while units:
        z = units.pop(0)
        image = _antipodal_image(z)
        dists = [_chordal(image, w) for w in units]
        best = int(np.argmin(dists))
        if dists[best] > PAIRING_TOL:
            raise ConsistencyError(
                f"root {z!r} has no antipodal partner within {PAIRING_TOL:g} "
                f"(closest at chordal distance {dists[best]:.3g}); "
                "the rank block does not satisfy the conjugation symmetry"
            )
        w = units.pop(best)
        axes.append(Axis.from_direction(0.5 * (_point(z) - _point(w))))
    axes.sort(key=lambda a: (-a.theta, a.phi))
    return axes


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
    r2 = math.sqrt(2.0)
    prod = np.ones(1, dtype=complex)
    for axis in axes:
        x, y, z = axis.unit_vector
        prod = np.convolve(prod, [(x - 1j * y) / r2, r2 * z, -(x + 1j * y) / r2])
    # float binomials: C(2k, i) overflows int64 from k = 34
    return prod / np.sqrt([float(math.comb(2 * k, i)) for i in range(2 * k + 1)])


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
    Unresolved ranks (degenerate coupling) keep their axes but have no
    radius: radius and residual are NaN and ``resolved`` is False.
    """

    rank: int
    radius: float
    sign: int
    axes: tuple
    residual: float
    resolved: bool = True

    def reconstruct(self) -> np.ndarray:
        """The fitted rank block sign * radius * s^k_q, q ascending."""
        if not self.resolved:
            raise ConsistencyError(f"rank {self.rank} was not resolved")
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
        vals = [r.residual for r in self.ranks if r.resolved]
        return max(vals) if vals else 0.0


def extract_mar(t: TensorParams, zero_tol: float = RADIUS_ZERO_TOL) -> MarDecomposition:
    """Full multiaxial decomposition of a valid tensor table.

    Rank blocks below zero_tol in magnitude are recorded with zero radius
    and no axes.  Degenerate couplings (axes that annihilate the stretched
    tensor) leave the rank unresolved rather than raising.
    """
    entries = []
    for k in range(1, t.max_rank + 1):
        block = t.rank(k)
        if np.abs(block).max() <= zero_tol:
            entries.append(RankDecomposition(k, 0.0, 1, (), 0.0))
            continue
        roots, at_inf = polynomial_roots(mar_polynomial(t, k))
        axes = tuple(roots_to_axes(roots, at_inf, k))
        s = axes_to_tensor(axes, k)
        try:
            r, residual = fit_radius(block, s)
        except ConsistencyError:
            entries.append(RankDecomposition(k, math.nan, 1, axes, math.nan, resolved=False))
            continue
        sign = -1 if r < 0 else 1
        entries.append(RankDecomposition(k, abs(r), sign, axes, residual))
    return MarDecomposition(t.j, tuple(entries))


def collinearity_check(m: MarDecomposition, tol: float = 1e-8) -> bool:
    """True when all axes across ranks with nonzero radius share one line."""
    vectors = []
    for entry in m.ranks:
        if entry.resolved and entry.radius > tol:
            vectors.extend(axis.unit_vector for axis in entry.axes)
    for i, v in enumerate(vectors):
        for w in vectors[i + 1 :]:
            if abs(float(v @ w)) < 1.0 - tol:
                return False
    return True
