"""Coupling multi-qubit product states into the spin-j ladder basis."""

import math

import numpy as np
import pytest

from spinaxes import (
    BlochVector,
    DomainError,
    HalfInt,
    SeparableEnsemble,
    ValidationError,
    cg_value,
    coherent_state,
    ensemble_to_rho,
    product_state_in_jm,
    purity,
    qubit_density,
    symmetric_subspace_unitary,
    symmetrize_pair,
)
from spinaxes import symmetric as symmetric_module
from spinaxes.pfunc import _coherent_amplitudes
from spinaxes.symmetric import _TERM_BLOCK, _spin_half_cg

h = HalfInt


def random_direction(rng):
    v = rng.normal(size=3)
    return BlochVector.from_cartesian(*v)


class TestBlochVector:
    def test_cartesian_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = random_direction(rng)
            back = BlochVector.from_cartesian(*d.cartesian)
            assert back.theta == pytest.approx(d.theta, abs=1e-12)
            assert abs(back.phi - d.phi) % (2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_phi_wraps(self):
        d = BlochVector(1.0, 2.0 * math.pi + 0.5)
        assert d.phi == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_theta(self):
        with pytest.raises(DomainError):
            BlochVector(3.5, 0.0)
        with pytest.raises(DomainError):
            BlochVector(-0.1, 0.0)
        with pytest.raises(DomainError):
            BlochVector(math.nan, 0.0)

    def test_zero_vector_has_no_direction(self):
        with pytest.raises(DomainError):
            BlochVector.from_cartesian(0.0, 0.0, 0.0)

    def test_from_cartesian_near_the_poles_and_at_tiny_scales(self):
        # acos(z / r) gave theta = 0 and pi here; r^2 underflowed to zero for the small vectors
        north = BlochVector.from_cartesian(1e-9, 0.0, 1.0)
        assert north.theta == pytest.approx(1e-9, rel=1e-15)
        south = BlochVector.from_cartesian(0.0, 1e-9, -1.0)
        assert south.theta == pytest.approx(math.pi - 1e-9, rel=1e-15)
        assert south.phi == math.pi / 2
        tiny = BlochVector.from_cartesian(1e-200, 0.0, 0.0)
        assert (tiny.theta, tiny.phi) == (math.pi / 2, 0.0)
        small = BlochVector.from_cartesian(3e-170, 4e-170, 0.0)
        assert (small.theta, small.phi) == (math.pi / 2, math.atan2(4.0, 3.0))

    def test_from_cartesian_at_the_top_of_the_float_range(self):
        # hypot(x, y) overflowed to inf here and gave theta = pi/2
        big = BlochVector.from_cartesian(1.5e308, 1.5e308, 1.5e308)
        assert big.theta == pytest.approx(math.atan(math.sqrt(2.0)), rel=1e-15)
        assert big.phi == pytest.approx(math.pi / 4, rel=1e-15)
        for v in ((math.inf, 0.0, 0.0), (0.0, math.nan, 1.0)):
            with pytest.raises(DomainError, match="non-finite"):
                BlochVector.from_cartesian(*v)

    def test_dot(self):
        x = BlochVector(math.pi / 2, 0.0)
        z = BlochVector(0.0, 0.0)
        assert x.dot(z) == pytest.approx(0.0, abs=1e-15)
        assert x.dot(x) == pytest.approx(1.0, abs=1e-15)


class TestQubitDensity:
    def test_projects_onto_direction(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = random_direction(rng)
            rho = qubit_density(d)
            np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)

    def test_poles(self):
        np.testing.assert_allclose(qubit_density(BlochVector(0.0, 0.0)), np.diag([1.0, 0.0]), atol=1e-16)
        np.testing.assert_allclose(qubit_density(BlochVector(math.pi, 0.0)), np.diag([0.0, 1.0]), atol=1e-16)


class TestSubspaceUnitary:
    def test_two_qubits_explicit(self):
        s = 1.0 / math.sqrt(2.0)
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, s, s, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, s, -s, 0.0],
            ]
        )
        np.testing.assert_allclose(symmetric_subspace_unitary(2), expected, atol=1e-15)

    def test_unitary(self):
        for n in range(1, 7):
            u = symmetric_subspace_unitary(n)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2**n), atol=1e-13)

    def test_top_rows_are_symmetric_states(self):
        # the first n+1 rows must be invariant under any qubit swap
        for n in (2, 3, 4):
            u = symmetric_subspace_unitary(n)
            top = u[: n + 1]
            for axes in _adjacent_swaps(n):
                swapped = top.reshape((n + 1,) + (2,) * n).transpose((0,) + axes).reshape(n + 1, 2**n)
                np.testing.assert_allclose(swapped, top, atol=1e-13)

    def test_spin_half_couplings_match_exact_cg(self):
        for dj in range(12):
            for djn in (dj + 1, dj - 1):
                for dmn in range(djn, -djn - 1, -2):
                    for dms in (1, -1):
                        if abs(dmn - dms) <= dj and djn >= 0:
                            want = cg_value(h(dj), h(1), h(djn), h(dmn - dms), h(dms), h(dmn))
                            assert _spin_half_cg(dj, djn, dmn, dms) == pytest.approx(want, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            symmetric_subspace_unitary(0)
        with pytest.raises(DomainError):
            symmetric_subspace_unitary(13)


def _adjacent_swaps(n):
    out = []
    for i in range(n - 1):
        axes = list(range(1, n + 1))
        axes[i], axes[i + 1] = axes[i + 1], axes[i]
        out.append(tuple(axes))
    return out


class TestSymmetrizePair:
    def test_antisymmetric_weight_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            d1, d2 = random_direction(rng), random_direction(rng)
            rho, weight = symmetrize_pair(d1, d2)
            assert weight == pytest.approx((1.0 - d1.dot(d2)) / 4.0, abs=1e-13)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)

    def test_no_coherence_between_sectors(self):
        rng = np.random.default_rng(13)
        u = symmetric_subspace_unitary(2)
        for _ in range(25):
            rho, _ = symmetrize_pair(random_direction(rng), random_direction(rng))
            coupled = u @ rho @ u.conj().T
            assert np.abs(coupled[:3, 3]).max() < 1e-13
            assert np.abs(coupled[3, :3]).max() < 1e-13

    def test_aligned_pair_has_no_singlet(self):
        d = BlochVector(0.7, 1.2)
        _, weight = symmetrize_pair(d, d)
        assert weight == pytest.approx(0.0, abs=1e-15)

    def test_opposite_pair_maximizes_singlet(self):
        _, weight = symmetrize_pair(BlochVector(0.0, 0.0), BlochVector(math.pi, 0.0))
        assert weight == pytest.approx(0.5, abs=1e-15)


class TestProductState:
    def test_matches_full_tensor_route(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 4):
            u = symmetric_subspace_unitary(n)
            for _ in range(5):
                d = random_direction(rng)
                full = qubit_density(d)
                for _ in range(n - 1):
                    full = np.kron(full, qubit_density(d))
                coupled = u @ full @ u.conj().T
                block = coupled[: n + 1, : n + 1]
                direct = product_state_in_jm(d, n)
                np.testing.assert_allclose(block, direct.matrix, atol=1e-13)
                # aligned products never leave the symmetric subspace
                assert np.trace(block).real == pytest.approx(1.0, abs=1e-13)

    def test_north_pole_is_top_basis_state(self):
        rho = product_state_in_jm(BlochVector(0.0, 0.0), 4)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_is_coherent_state_projector(self):
        d = BlochVector(1.1, 0.4)
        vec = coherent_state(h(3), d.theta, d.phi)
        rho = product_state_in_jm(d, 3)
        np.testing.assert_allclose(rho.matrix, np.outer(vec, vec.conj()), atol=1e-15)


class TestSeparableEnsemble:
    def test_validation(self):
        z = BlochVector(0.0, 0.0)
        with pytest.raises(ValidationError, match="positive"):
            SeparableEnsemble(2, ((-0.5, z), (1.5, z)))
        with pytest.raises(ValidationError, match="sum"):
            SeparableEnsemble(2, ((0.3, z), (0.3, z)))
        with pytest.raises(ValidationError, match="BlochVector"):
            SeparableEnsemble(2, ((1.0, (0.0, 0.0)),))
        with pytest.raises(ValidationError, match="at least one"):
            SeparableEnsemble(2, ())
        with pytest.raises(DomainError):
            SeparableEnsemble(0, ((1.0, z),))

    def test_j_is_half_the_qubit_count(self):
        z = BlochVector(0.0, 0.0)
        assert SeparableEnsemble(3, ((1.0, z),)).j == h(3)

    def test_single_term_is_pure(self):
        rho = ensemble_to_rho(SeparableEnsemble(3, ((1.0, BlochVector(0.9, 2.2)),)))
        assert purity(rho) == pytest.approx(1.0, abs=1e-13)

    def test_mixture_matches_weighted_sum(self):
        rng = np.random.default_rng(19)
        dirs = [random_direction(rng) for _ in range(3)]
        weights = (0.2, 0.5, 0.3)
        ens = SeparableEnsemble(4, tuple(zip(weights, dirs)))
        rho = ensemble_to_rho(ens)
        manual = sum(w * product_state_in_jm(d, 4).matrix for w, d in zip(weights, dirs))
        np.testing.assert_allclose(rho.matrix, manual, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 60])
    @pytest.mark.parametrize("k", [1, 3, 8, 300])
    def test_is_the_term_ordered_sum_bit_for_bit(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        weights = rng.dirichlet(np.ones(k))
        dirs = [random_direction(rng) for _ in range(k)]
        manual = np.zeros((n + 1, n + 1), dtype=complex)
        for w, d in zip(weights, dirs):
            manual += w * product_state_in_jm(d, n).matrix
        rho = ensemble_to_rho(SeparableEnsemble(n, tuple(zip(weights, dirs))))
        np.testing.assert_array_equal(rho.matrix, manual)

    def test_amplitudes_come_in_bounded_blocks(self, monkeypatch):
        rows = []

        def spy(dj, theta, phi):
            rows.append(len(theta))
            return _coherent_amplitudes(dj, theta, phi)

        monkeypatch.setattr(symmetric_module, "_coherent_amplitudes", spy)
        k, rng = 2 * _TERM_BLOCK + 5, np.random.default_rng(5)
        dirs = [random_direction(rng) for _ in range(k)]
        ensemble_to_rho(SeparableEnsemble(6, tuple((1.0 / k, d) for d in dirs)))
        assert rows == [_TERM_BLOCK, _TERM_BLOCK, 5]

    def test_distinct_directions_mix(self):
        ens = SeparableEnsemble(
            2, ((0.5, BlochVector(0.0, 0.0)), (0.5, BlochVector(math.pi / 2, 0.0)))
        )
        assert purity(ensemble_to_rho(ens)) < 1.0 - 1e-9
