"""Tensor operators, tensor parameters, and the density-matrix maps."""

import math

import numpy as np
import pytest

from spinaxes import (
    DomainError,
    HalfInt,
    NonPhysicalWarning,
    SpinDensityMatrix,
    TensorParams,
    ValidationError,
    cg_value,
    maximally_mixed,
    rho_to_t,
    rotate_t,
    t_to_rho,
    tau_operator,
)
from spinaxes.pfunc import SphericalExpansion, default_grid, t_from_distribution, ylm_squared_t
from spinaxes.tensors import _conjugation_mirror, _order_stack, _quarter_turns, _real_product, _turn_layout

from oracles import jplus_matrix, jy_matrix, jz_matrix, random_density

h = HalfInt


class TestTauOperator:
    def test_rank0_is_identity(self):
        for dj in (1, 2, 3, 5):
            np.testing.assert_array_equal(tau_operator(h(dj), 0, 0), np.eye(dj + 1))

    def test_rank1_is_scaled_angular_momentum(self):
        # Wigner-Eckart on the vector operator: tau^1_q = sqrt(3/(j(j+1))) J_q
        # with spherical components J_0 = Jz, J_{+1} = -J+/sqrt(2), J_{-1} = J-/sqrt(2).
        for dj in (1, 2, 3, 4, 7):
            j = dj / 2.0
            scale = math.sqrt(3.0 / (j * (j + 1.0)))
            np.testing.assert_allclose(
                tau_operator(h(dj), 1, 0), scale * jz_matrix(dj), atol=1e-14
            )
            jp = jplus_matrix(dj)
            np.testing.assert_allclose(
                tau_operator(h(dj), 1, 1), -scale / math.sqrt(2.0) * jp, atol=1e-14
            )
            np.testing.assert_allclose(
                tau_operator(h(dj), 1, -1), scale / math.sqrt(2.0) * jp.conj().T, atol=1e-14
            )

    def test_pauli_for_spin_half(self):
        np.testing.assert_allclose(tau_operator(h(1), 1, 0), np.diag([1.0, -1.0]), atol=1e-15)
        np.testing.assert_allclose(
            tau_operator(h(1), 1, 1), np.array([[0.0, -math.sqrt(2.0)], [0.0, 0.0]]), atol=1e-15
        )
        np.testing.assert_allclose(
            tau_operator(h(1), 1, -1), np.array([[0.0, 0.0], [math.sqrt(2.0), 0.0]]), atol=1e-15
        )

    def test_gram_orthogonality(self):
        # Tr(tau^k_q^dag tau^k'_q') = (2j+1) delta_kk' delta_qq'
        for dj in (1, 2, 3, 4, 6, 8):
            ops = [tau_operator(h(dj), k, q) for k in range(dj + 1) for q in range(-k, k + 1)]
            flat = np.array([op.ravel() for op in ops])
            gram = flat.conj() @ flat.T
            np.testing.assert_allclose(gram, (dj + 1) * np.eye(len(ops)), atol=1e-10)

    def test_adjoint_relation(self):
        for dj in (2, 3, 5):
            for k in range(dj + 1):
                for q in range(-k, k + 1):
                    lhs = tau_operator(h(dj), k, q).conj().T
                    rhs = (-1.0) ** q * tau_operator(h(dj), k, -q)
                    np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_highest_order_is_single_corner_entry(self):
        op = tau_operator(h(2), 2, 2)
        expected = np.zeros((3, 3))
        expected[0, 2] = math.sqrt(5.0) * cg_value(h(2), h(4), h(2), h(-2), h(4), h(2))
        np.testing.assert_allclose(op, expected, atol=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            tau_operator(h(2), 3, 0)
        with pytest.raises(DomainError):
            tau_operator(h(2), 1, 2)
        with pytest.raises(DomainError):
            tau_operator(h(2), -1, 0)

    def test_returns_copy(self):
        op = tau_operator(h(2), 1, 0)
        op[0, 0] = 99.0
        assert tau_operator(h(2), 1, 0)[0, 0] != 99.0


def exact_tau_table(dj):
    """The tau table filled one exact-rational CG value at a time."""
    dim = dj + 1
    table = np.zeros((dim * dim, dim * dim))
    for k in range(dim):
        for q in range(-k, k + 1):
            for col, dm in enumerate(range(dj, -dj - 1, -2)):
                dmp = dm + 2 * q
                if abs(dmp) <= dj:
                    cg = cg_value(h(dj), h(2 * k), h(dj), h(dm), h(2 * q), h(dmp))
                    table[k * k + k + q, (dj - dmp) // 2 * dim + col] = math.sqrt(2 * k + 1) * cg
    return table


def stack_ops(dj, k):
    """tau^k_q for q = -k .. k, rebuilt from the order-block stack.

    The order -p operator holds stack[p, k] on its p-th lower diagonal, and
    tau^k_p = (-1)^p (tau^k_-p)^T.
    """
    dim = dj + 1
    stack = _order_stack(dj)
    ops = np.zeros((2 * k + 1, dim, dim))
    for p in range(k + 1):
        lower = np.diag(stack[p, k, : dim - p], -p)
        ops[k - p] = lower
        ops[k + p] = (-1.0) ** p * lower.T
    return ops


def stack_tau_table(dj):
    """The tau table of exact_tau_table's layout, rebuilt from the stack."""
    return np.concatenate([stack_ops(dj, k) for k in range(dj + 1)]).reshape((dj + 1) ** 2, -1)


class TestTauTable:
    @pytest.mark.parametrize("dj", range(17))
    def test_matches_exact_cg(self, dj):
        np.testing.assert_allclose(stack_tau_table(dj), exact_tau_table(dj), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dj", [40, 60])
    def test_commutators_with_angular_momentum(self, dj):
        # [Jz, tau^k_q] = q tau^k_q and [J-, tau^k_q] = sqrt((k+q)(k-q+1)) tau^k_{q-1}
        dim = dj + 1
        jz, jm = jz_matrix(dj), jplus_matrix(dj).T
        for k in range(dim):
            ops = stack_ops(dj, k)
            q = np.arange(-k, k + 1)[:, None, None]
            lowered = np.concatenate((np.zeros((1, dim, dim)), ops[:-1]))
            np.testing.assert_allclose(jz @ ops - ops @ jz, q * ops, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                jm @ ops - ops @ jm, np.sqrt((k + q) * (k - q + 1)) * lowered, rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("dj", [40, 60])
    def test_rows_orthogonal(self, dj):
        from scipy import sparse

        table = sparse.vstack(
            [sparse.csr_matrix(stack_ops(dj, k).reshape(2 * k + 1, -1)) for k in range(dj + 1)]
        )
        gram = table @ table.T - (dj + 1) * sparse.identity(table.shape[0])
        assert abs(gram).max() < 1e-12

    def test_seeded_entries_at_top_spin(self):
        dj, dim = 60, 61
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(0, dim))
            q = int(rng.integers(-k, k + 1))
            dm = int(rng.choice(np.arange(min(dj, dj - 2 * q), max(-dj, -dj - 2 * q) - 1, -2)))
            dmp = dm + 2 * q
            want = math.sqrt(2 * k + 1) * cg_value(h(dj), h(2 * k), h(dj), h(dm), h(2 * q), h(dmp))
            got = stack_ops(dj, k)[k + q, (dj - dmp) // 2, (dj - dm) // 2]
            assert got == pytest.approx(want, abs=1e-13)

    def test_read_only(self):
        with pytest.raises(ValueError):
            _order_stack(3)[0, 0, 0] = 2.0


class TestSpinDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.6, 0.2 + 0.1j], [0.2 + 0.3j, 0.4]])
        with pytest.raises(ValidationError, match="hermiticity"):
            SpinDensityMatrix(h(1), m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            SpinDensityMatrix(h(1), np.eye(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            SpinDensityMatrix(h(2), np.eye(2) / 2.0)

    def test_purity_and_eigenvalues(self):
        pure = np.zeros((3, 3), dtype=complex)
        pure[0, 0] = 1.0
        rho = SpinDensityMatrix(h(2), pure)
        assert rho.purity() == pytest.approx(1.0, abs=1e-15)
        assert rho.min_eigenvalue() == pytest.approx(0.0, abs=1e-15)
        assert rho.is_physical

    def test_matrix_is_read_only(self):
        rho = maximally_mixed(h(2))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0


class TestTensorParams:
    def test_normalization_enforced(self):
        with pytest.raises(ValidationError, match="t\\^0_0"):
            TensorParams.from_table(h(1), {(0, 0): 0.5})

    def test_conjugation_enforced(self):
        with pytest.raises(ValidationError, match="violates conj"):
            TensorParams.from_table(h(1), {(1, 1): 0.1 + 0.2j, (1, -1): 0.1 + 0.2j})

    def test_from_table_fills_and_reads_back(self):
        t = TensorParams.from_table(h(2), {(1, 1): 0.1 + 0.05j, (1, -1): -0.1 + 0.05j})
        assert t.item(1, 1) == pytest.approx(0.1 + 0.05j)
        assert t.item(2, 0) == 0.0
        assert t.item(0, 0) == 1.0
        assert t.max_rank == 2
        table = t.table()
        assert table[(1, -1)] == pytest.approx(-0.1 + 0.05j)

    def test_rank_returns_copy(self):
        t = TensorParams.from_table(h(2), {})
        block = t.rank(1)
        block[0] = 7.0
        assert t.item(1, -1) == 0.0

    @staticmethod
    def _valid_blocks(dj):
        rng = np.random.default_rng(dj)
        return list(rho_to_t(SpinDensityMatrix(h(dj), random_density(rng, dj + 1))).ranks)

    @pytest.mark.parametrize("k", [0, 6, 12])
    def test_non_finite_entry_names_its_rank(self, k):
        blocks = self._valid_blocks(12)
        blocks[k] = blocks[k].copy()
        blocks[k][k] = np.nan
        with pytest.raises(ValidationError, match=f"^rank {k} block has a non-finite entry$"):
            TensorParams(h(12), tuple(blocks))

    def test_non_finite_entry_reported_before_a_later_bad_shape(self):
        blocks = self._valid_blocks(12)
        blocks[3] = blocks[3].copy()
        blocks[3][0] = np.inf
        blocks[9] = blocks[9][:-1]
        with pytest.raises(ValidationError, match="^rank 3 block has a non-finite entry$"):
            TensorParams(h(12), tuple(blocks))
        blocks[3] = blocks[3].copy()
        blocks[3][0] = 0.0
        with pytest.raises(ValidationError, match="^rank 9 block has shape"):
            TensorParams(h(12), tuple(blocks))

    @pytest.mark.parametrize("k", [0, 6, 12])
    def test_conjugation_violation_names_its_rank(self, k):
        blocks = self._valid_blocks(12)
        blocks[k] = blocks[k].copy()
        # an imaginary part of t^k_k beyond its mirror's; at k = 0 it stays
        # inside the normalization tolerance and fails only the identity
        blocks[k][-1] += 0.9e-12j if k == 0 else 1e-9
        with pytest.raises(ValidationError, match=f"^rank {k} violates conj"):
            TensorParams(h(12), tuple(blocks))

    def test_later_changes_to_inputs_do_not_leak(self):
        blocks = [b.copy() for b in self._valid_blocks(6)]
        t = TensorParams(h(6), tuple(blocks))
        before = t.table()
        for b in blocks:
            b[:] = 7.0
        assert t.table() == before

    def test_every_rank_is_read_only(self):
        t = TensorParams(h(6), tuple(self._valid_blocks(6)))
        for k, block in enumerate(t.ranks):
            assert block.shape == (2 * k + 1,)
            with pytest.raises(ValueError):
                block[0] = 1.0


class TestRoundTrip:
    def test_rho_to_t_to_rho_random(self):
        rng = np.random.default_rng(7)
        for dj in (1, 2, 3, 4, 5, 7):
            for _ in range(5):
                rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
                back = t_to_rho(rho_to_t(rho))
                np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-13)

    def test_t_to_rho_to_t_random(self):
        rng = np.random.default_rng(11)
        for dj in (1, 2, 3, 12):
            rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
            t = rho_to_t(rho)
            again = rho_to_t(t_to_rho(t))
            assert t.max_abs_diff(again) < 1e-13

    def test_four_point_mixture_values(self):
        # equal-weight +-x, +-z product pairs of two qubits, in the j = 1 block
        m = np.array(
            [[6.0, 0.0, 2.0], [0.0, 4.0, 0.0], [2.0, 0.0, 6.0]], dtype=complex
        ) / 16.0
        t = rho_to_t(SpinDensityMatrix(h(2), m))
        assert t.item(2, 0) == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)), abs=1e-15)
        assert t.item(2, 2) == pytest.approx(math.sqrt(3.0) / 8.0, abs=1e-15)
        assert t.item(2, -2) == pytest.approx(math.sqrt(3.0) / 8.0, abs=1e-15)
        assert abs(t.rank(1)).max() < 1e-15

    def test_non_physical_table_warns(self):
        t = TensorParams.from_table(h(1), {(1, 0): 1.5})
        with pytest.warns(NonPhysicalWarning):
            rho = t_to_rho(t)
        assert rho.min_eigenvalue() == pytest.approx(-0.25, abs=1e-12)
        assert not rho.is_physical

    def test_nearly_hermitian_input_reads_its_hermitian_part(self):
        rng = np.random.default_rng(43)
        for dj in (1, 4, 13, 40):
            herm = random_density(rng, dj + 1)
            skew = rng.normal(size=(dj + 1, dj + 1)) + 1j * rng.normal(size=(dj + 1, dj + 1))
            skew = skew - skew.conj().T
            rho = SpinDensityMatrix(h(dj), herm + 0.5e-13 / np.abs(skew).max() * skew)
            assert np.abs(rho.matrix - rho.matrix.conj().T).max() > 1e-14
            t = rho_to_t(rho)
            hermitian_part = 0.5 * (rho.matrix + rho.matrix.conj().T)
            assert t.max_abs_diff(rho_to_t(SpinDensityMatrix(h(dj), hermitian_part))) < 1e-15
            for block in t.ranks:
                np.testing.assert_array_equal(block, _conjugation_mirror(block))

    def test_maximally_mixed(self):
        rho = maximally_mixed(h(3))
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4.0, atol=1e-15)
        t = rho_to_t(rho)
        for k in range(1, 4):
            assert abs(t.rank(k)).max() < 1e-15


class TestRotation:
    def test_matches_unitary_conjugation(self):
        # rotating parameters must equal rotating the state
        from spinaxes import wigner_D_matrix

        rng = np.random.default_rng(23)
        for dj in (1, 2, 3, 5):
            rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
            phi, theta, psi = rng.uniform(0.0, 2.0 * math.pi, size=3)
            u = wigner_D_matrix(h(dj), phi, theta, psi)
            rotated = SpinDensityMatrix(h(dj), u @ rho.matrix @ u.conj().T)
            direct = rho_to_t(rotated)
            via_t = rotate_t(rho_to_t(rho), phi, theta, psi)
            assert direct.max_abs_diff(via_t) < 1e-13

    def test_matches_expm_rotation_at_top_spin(self):
        from scipy.linalg import expm

        dj = 60
        rng = np.random.default_rng(41)
        rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
        phi, theta, psi = 0.7, 2.1, -1.3
        jz, jy = jz_matrix(dj), jy_matrix(dj)
        u = expm(-1j * phi * jz) @ expm(-1j * theta * jy) @ expm(-1j * psi * jz)
        rotated = SpinDensityMatrix(h(dj), u @ rho.matrix @ u.conj().T)
        assert rho_to_t(rotated).max_abs_diff(rotate_t(rho_to_t(rho), phi, theta, psi)) < 1e-12

    def test_preserves_rank_norms(self):
        rng = np.random.default_rng(29)
        rho = SpinDensityMatrix(h(4), random_density(rng, 5))
        t = rho_to_t(rho)
        out = rotate_t(t, 0.3, 1.1, -0.7)
        for k in range(5):
            before = np.sum(np.abs(t.rank(k)) ** 2)
            after = np.sum(np.abs(out.rank(k)) ** 2)
            assert after == pytest.approx(before, abs=1e-13)

    def test_identity_rotation(self):
        rng = np.random.default_rng(31)
        rho = SpinDensityMatrix(h(3), random_density(rng, 4))
        t = rho_to_t(rho)
        assert t.max_abs_diff(rotate_t(t, 0.0, 0.0, 0.0)) < 1e-15

    def test_composition(self):
        rng = np.random.default_rng(37)
        rho = SpinDensityMatrix(h(2), random_density(rng, 3))
        t = rho_to_t(rho)
        # two z-rotations compose additively
        one = rotate_t(rotate_t(t, 0.4, 0.0, 0.0), 0.9, 0.0, 0.0)
        both = rotate_t(t, 1.3, 0.0, 0.0)
        assert one.max_abs_diff(both) < 1e-14

    @pytest.mark.parametrize("dj", [1, 7, 24, 60])
    def test_two_general_rotations_in_turn(self, dj):
        from scipy.linalg import expm

        rng = np.random.default_rng(53 + dj)
        rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
        jz, jy = jz_matrix(dj), jy_matrix(dj)
        first, second = rng.uniform(0.0, 2.0 * math.pi, size=(2, 3))

        def unitary(phi, theta, psi):
            return expm(-1j * phi * jz) @ expm(-1j * theta * jy) @ expm(-1j * psi * jz)

        u = unitary(*second) @ unitary(*first)
        rotated = SpinDensityMatrix(h(dj), u @ rho.matrix @ u.conj().T)
        in_turn = rotate_t(rotate_t(rho_to_t(rho), *first), *second)
        assert rho_to_t(rotated).max_abs_diff(in_turn) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi])
    def test_special_polar_angles_match_wigner_D(self, theta):
        from spinaxes import wigner_D_matrix

        rng = np.random.default_rng(59)
        for dj in (1, 2, 5, 12, 40):
            rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
            u = wigner_D_matrix(h(dj), 0.8, theta, -2.2)
            rotated = SpinDensityMatrix(h(dj), u @ rho.matrix @ u.conj().T)
            assert rho_to_t(rotated).max_abs_diff(rotate_t(rho_to_t(rho), 0.8, theta, -2.2)) < 1e-13

    def test_quarter_turn_tables_are_read_only(self):
        rotate_t(rho_to_t(maximally_mixed(h(8))), 0.1, 0.2, 0.3)
        tables = _quarter_turns(8)
        assert len(tables) >= 9
        for k, d in enumerate(tables[:9]):
            assert d.shape == (2 * k + 1, 2 * k + 1)
            with pytest.raises(ValueError):
                d[0, 0] = 2.0


class TestRealProduct:
    """The one real-table times complex-operand product, against the complex products it replaces."""

    @staticmethod
    def _close(got, want):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("dj", [0, 60])
    def test_matches_complex_products(self, dj):
        rng = np.random.default_rng(900 + dj)
        dim = dj + 1
        m = rng.normal(size=(dim, dim))
        v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        stack = _order_stack(dj)
        self._close(_real_product(m, v[0]), m.astype(complex) @ v[0])
        self._close(_real_product(m, v[:, 0]), m.astype(complex) @ v[:, 0])  # a strided vector
        self._close(_real_product(m, v), m.astype(complex) @ v)
        self._close(_real_product(m, v.T), m.astype(complex) @ v.T)  # a transposed view
        # the stacks of rho_to_t and t_to_rho, the latter on up.T
        self._close(_real_product(stack, v[:, :, None])[:, :, 0].T, np.einsum("pkc,pc->kp", stack, v))
        self._close(
            _real_product(stack.transpose(0, 2, 1), v.T[:, :, None])[:, :, 0], np.einsum("pkc,kp->pc", stack, v)
        )

    @pytest.mark.parametrize("dj", [40, 60])
    def test_conversions_at_high_spin(self, dj):
        rng = np.random.default_rng(950 + dj)
        rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
        t = rho_to_t(rho)
        for k in range(0, dj + 1, 7):
            for q in range(-k, k + 1):
                assert abs(t.item(k, q) - np.trace(rho.matrix @ tau_operator(h(dj), k, q))) < 1e-13
        np.testing.assert_allclose(t_to_rho(t).matrix, rho.matrix, atol=1e-13)
        assert t.max_abs_diff(rho_to_t(t_to_rho(t))) < 1e-13


class TestStackedRotation:
    """rotate_t's stacked passes against the per-rank product from the quarter-turn tables."""

    @staticmethod
    def _per_rank(t, phi, theta, psi, k):
        # d^k(theta) = diag(i^-q) Delta^T diag(e^{i q theta}) Delta diag(i^q), q = +k .. -k
        delta = _quarter_turns(k)[k]
        q = np.arange(k, -k - 1, -1)
        into = np.exp(1j * psi * q) * 1j**q
        out = np.exp(1j * phi * q) * (-1j) ** q
        return (out * (delta.T @ (np.exp(1j * theta * q) * (delta @ (into * t.ranks[k][::-1])))))[::-1]

    def test_each_rank_is_the_per_rank_product(self):
        rng = np.random.default_rng(71)
        # 60 first, so the tables built for it serve the spins after it
        for dj in (60, 4, 40, 12, 0, 1, 2):
            t = rho_to_t(SpinDensityMatrix(h(dj), random_density(rng, dj + 1)))
            angles = rng.uniform(0.0, 2.0 * math.pi, 3)
            turned = rotate_t(t, *angles)
            for k in range(dj + 1):
                want = self._per_rank(t, *angles, k)
                assert np.abs(turned.ranks[k] - want).max() <= 1e-15 * max(np.linalg.norm(want), 1e-300), (dj, k)

    def test_tables_are_views_of_one_read_only_stack(self):
        rotate_t(rho_to_t(maximally_mixed(h(40))), 0.1, 0.2, 0.3)
        tables = _quarter_turns(40)
        assert all(d.base is tables[0].base for d in tables)
        assert not tables[0].base.flags.writeable
        for k in (0, 1, 7, 8, 40):
            np.testing.assert_allclose(tables[k] @ tables[k].T, np.eye(2 * k + 1), atol=1e-13)

    def test_layout_cache_is_bounded_and_read_only(self):
        rotate_t(rho_to_t(maximally_mixed(h(9))), 0.1, 0.2, 0.3)
        assert _turn_layout.cache_info().maxsize is not None
        assert _turn_layout.cache_info().currsize >= 1
        where = _turn_layout(9, len(_quarter_turns(9)) - 1)[0]
        assert sorted(set(where.tolist())) == sorted(where.tolist())  # one slot per entry
        with pytest.raises(ValueError):
            where[0] = 0


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


class TestFlatConstruction:
    """Every table is checked once, as one flat array, whichever way it was built."""

    @staticmethod
    def _one_flat(blocks):
        base = blocks[0].base
        start = blocks[0].__array_interface__["data"][0]
        assert base is not None and base.size == len(blocks) ** 2 and not base.flags.writeable
        for k, b in enumerate(blocks):
            assert b.base is base and not b.flags.writeable
            assert b.__array_interface__["data"][0] == start + k * k * b.itemsize
            with pytest.raises(ValueError):
                b[0] = 0.0

    def test_producers_hand_over_one_read_only_flat_array(self):
        rng = np.random.default_rng(72)
        lam = SphericalExpansion.from_table(2, {(0, 0): 1.0 / math.sqrt(4.0 * math.pi), (2, 1): 0.01 + 0.02j,
                                                (2, -1): -0.01 + 0.02j})
        for dj in (0, 3, 12):
            t = rho_to_t(SpinDensityMatrix(h(dj), random_density(rng, dj + 1)))
            for table in (t, rotate_t(t, 0.4, 1.3, -2.2), t_from_distribution(lam, h(dj)),
                          t_from_distribution(lam, h(dj), default_grid(2, h(dj))), ylm_squared_t(2, 1, h(dj)),
                          TensorParams(h(dj), t.ranks)):
                self._one_flat(table.ranks)

    def test_flat_path_equals_blocks_path_bit_for_bit(self):
        rng = np.random.default_rng(73)
        for dj in (0, 5, 40):
            t = rotate_t(rho_to_t(SpinDensityMatrix(h(dj), random_density(rng, dj + 1))), 0.9, 2.1, 0.3)
            from_blocks = TensorParams(h(dj), tuple(b.copy() for b in t.ranks))
            from_flat = TensorParams._from_flat(h(dj), np.concatenate(t.ranks))
            for table in (from_blocks, from_flat):
                np.testing.assert_array_equal(_bits(np.concatenate(table.ranks)), _bits(np.concatenate(t.ranks)))

    @pytest.mark.parametrize("flat_path", [False, True])
    def test_pinned_messages(self, flat_path):
        def build(flat):
            if flat_path:
                return TensorParams._from_flat(h(3), flat)
            return TensorParams(h(3), tuple(flat[k * k : (k + 1) ** 2] for k in range(4)))

        good = np.concatenate(rho_to_t(maximally_mixed(h(3))).ranks)
        cases = [
            (2 * 2 + 1, np.nan, "rank 2 block has a non-finite entry"),
            (0, 1.5, "t^0_0 = 1.5+0j, expected 1 (normalization)"),
            (3 * 3 + 4, 0.25, "rank 3 violates conj(t^k_q) = (-1)^q t^k_-q"),
        ]
        for index, value, message in cases:
            flat = good.copy()
            flat[index] = value
            with pytest.raises(ValidationError) as caught:
                build(flat)
            assert str(caught.value) == message
        if not flat_path:
            blocks = list(rho_to_t(maximally_mixed(h(3))).ranks)
            blocks[2] = blocks[2][:-1]
            with pytest.raises(ValidationError) as caught:
                TensorParams(h(3), tuple(blocks))
            assert str(caught.value) == "rank 2 block has shape (4,), expected (5,)"

    def test_expansion_messages_are_unchanged(self):
        base = [np.array([1.0 / math.sqrt(4.0 * math.pi)], dtype=complex), np.zeros(3, dtype=complex)]
        cases = [
            ([base[0], np.array([0, np.inf, 0], dtype=complex)], "degree 1 block has a non-finite entry"),
            ([base[0], np.zeros(2)], "degree 1 block has shape (2,), expected (3,)"),
            ([base[0], np.array([0, 0, 0.1])], "degree 1 violates the reality condition conj(a^l_m) = (-1)^m a^l_-m"),
        ]
        for blocks, message in cases:
            with pytest.raises(ValidationError) as caught:
                SphericalExpansion(1, tuple(blocks))
            assert str(caught.value) == message
