"""Symmetric multi-qubit states and their spin-j ladder representation.

N qubits prepared identically along unit vectors live in the symmetric
subspace of (C^2)^{tensor N}, which carries the spin j = N/2 representation.
``symmetric_subspace_unitary`` changes basis from the computational product
basis to total angular momentum sectors, with the 2j+1 symmetric states
|j m> (m descending) as its first rows.  ``product_state_in_jm`` builds the
same pure states directly as coherent states, and mixtures of them form
:class:`SeparableEnsemble` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import MAX_DOUBLED_J, _scaled_direction
from .errors import DomainError, ValidationError
from .halfint import HalfInt, _index
from .pfunc import _coherent_amplitudes, coherent_state
from .tensors import SpinDensityMatrix

MAX_QUBITS = 12
WEIGHT_SUM_TOL = 1e-12
# Terms whose amplitudes ensemble_to_rho builds at once
_TERM_BLOCK = 256


@dataclass(frozen=True)
class BlochVector:
    """A direction on the unit sphere, theta in [0, pi], phi in [0, 2 pi)."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        phi = float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise DomainError("angles must be finite")
        if not -1e-12 <= theta <= math.pi + 1e-12:
            raise DomainError(f"theta = {theta:.6g} outside [0, pi]")
        theta = min(max(theta, 0.0), math.pi)
        phi = phi % (2 * math.pi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def from_cartesian(cls, x: float, y: float, z: float) -> "BlochVector":
        # atan2 keeps the polar angle near the poles, where acos(z / r) would lose it
        x, y, z = _scaled_direction(np.array([(x, y, z)], dtype=float))[0][0]
        return cls(math.atan2(math.hypot(x, y), z), math.atan2(y, x))

    @property
    def cartesian(self) -> np.ndarray:
        s = math.sin(self.theta)
        return np.array([s * math.cos(self.phi), s * math.sin(self.phi), math.cos(self.theta)])

    def dot(self, other: "BlochVector") -> float:
        return float(self.cartesian @ other.cartesian)


def qubit_density(direction: BlochVector) -> np.ndarray:
    """Pure qubit state (I + n.sigma)/2 pointing along the direction."""
    x, y, z = direction.cartesian
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def _spin_half_cg(dj: int, djn: int, dmn: int, dms: int) -> float:
    """<j m - s, 1/2 s | j' m> in doubled units, j' = j +- 1/2 (closed form).

    <j m-+1/2, 1/2 +-1/2 | j+1/2 m> = sqrt((j +- m + 1/2)/(2j+1)) and
    <j m-+1/2, 1/2 +-1/2 | j-1/2 m> = -+sqrt((j -+ m + 1/2)/(2j+1)).
    """
    if djn > dj:
        return math.sqrt((dj + dms * dmn + 1) / (2 * (dj + 1)))
    return -dms * math.sqrt((dj - dms * dmn + 1) / (2 * (dj + 1)))


def symmetric_subspace_unitary(n_qubits: int) -> np.ndarray:
    """Unitary mapping the product basis to total angular momentum states.

    Qubits are coupled one at a time; each row is a coupled state |j m>
    expressed over the computational basis (last qubit varying fastest).
    Rows are grouped by coupling path, higher j branch first, with m
    descending inside a group, so rows 0 .. n_qubits span the symmetric
    subspace j = n_qubits / 2.
    """
    _index(n_qubits, "n_qubits", 1, MAX_QUBITS)
    up = np.array([1.0, 0.0])
    down = np.array([0.0, 1.0])
    # Each sector is (doubled_j, rows) with rows[i] the state of m = j - i.
    sectors = [(1, np.array([up, down], dtype=complex))]
    for _ in range(n_qubits - 1):
        grown = []
        for dj, rows in sectors:
            for djn in (dj + 1, dj - 1):
                if djn < 0:
                    continue
                new_rows = []
                for dmn in range(djn, -djn - 1, -2):
                    vec = 0.0
                    for dms, spin in ((1, up), (-1, down)):
                        dm = dmn - dms
                        if abs(dm) > dj:
                            continue
                        vec = vec + _spin_half_cg(dj, djn, dmn, dms) * np.kron(rows[(dj - dm) // 2], spin)
                    new_rows.append(vec)
                grown.append((djn, np.array(new_rows)))
        sectors = grown
    return np.concatenate([rows for _, rows in sectors], axis=0)


def symmetrize_pair(d1: BlochVector, d2: BlochVector) -> tuple[np.ndarray, float]:
    """Symmetrized two-qubit product state and its antisymmetric weight.

    Returns (rho1 x rho2 + rho2 x rho1)/2 in the computational basis along
    with the weight on the singlet after rotating into coupled sectors,
    which equals (1 - n1.n2)/4.
    """
    r1, r2 = qubit_density(d1), qubit_density(d2)
    rho = 0.5 * (np.kron(r1, r2) + np.kron(r2, r1))
    u = symmetric_subspace_unitary(2)
    coupled = u @ rho @ u.conj().T
    return rho, float(coupled[3, 3].real)


def product_state_in_jm(direction: BlochVector, n_qubits: int) -> SpinDensityMatrix:
    """The N-fold product of one pure qubit, written in the |j m> ladder.

    The product state of N aligned qubits is the spin-N/2 coherent state
    along the same direction.
    """
    _index(n_qubits, "n_qubits", 1, MAX_DOUBLED_J)
    vec = coherent_state(HalfInt(n_qubits), direction.theta, direction.phi)
    return SpinDensityMatrix(HalfInt(n_qubits), np.outer(vec, vec.conj()))


@dataclass(frozen=True)
class SeparableEnsemble:
    """A convex mixture of aligned product states of n_qubits qubits."""

    n_qubits: int
    terms: tuple

    def __post_init__(self) -> None:
        _index(self.n_qubits, "n_qubits", 1, MAX_DOUBLED_J)
        terms = []
        for weight, direction in self.terms:
            w = float(weight)
            if not math.isfinite(w) or w <= 0:
                raise ValidationError(f"weights must be positive, got {weight!r}")
            if not isinstance(direction, BlochVector):
                raise ValidationError(f"expected a BlochVector, got {direction!r}")
            terms.append((w, direction))
        if not terms:
            raise ValidationError("ensemble needs at least one term")
        total = math.fsum(w for w, _ in terms)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights sum to {total:.12g}, expected 1 within 1e-12")
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def j(self) -> HalfInt:
        return HalfInt(self.n_qubits)


def ensemble_to_rho(ensemble: SeparableEnsemble) -> SpinDensityMatrix:
    """Mixture of the ensemble's product states in the |j m> ladder basis.

    Each term adds w v v^dag, v its coherent-state amplitudes, in term order;
    the amplitudes are built _TERM_BLOCK terms at a time, so memory stays
    bounded however many terms the ensemble has.
    """
    dj, terms = ensemble.n_qubits, ensemble.terms
    acc = np.zeros((dj + 1, dj + 1), dtype=complex)
    for lo in range(0, len(terms), _TERM_BLOCK):
        block = terms[lo : lo + _TERM_BLOCK]
        theta, phi = np.array([(d.theta, d.phi) for _, d in block]).T
        for (weight, _), v in zip(block, _coherent_amplitudes(dj, theta, phi)):
            acc += weight * np.outer(v, v.conj())
    return SpinDensityMatrix(ensemble.j, acc)


def purity(rho: SpinDensityMatrix) -> float:
    """Tr(rho^2); equals 1 exactly on pure states."""
    return rho.purity()
