"""Coherent states, quadrature, and weight-function reconstruction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinaxes import (
    DomainError,
    HalfInt,
    NonClassicalWarning,
    QuadratureGrid,
    SphericalExpansion,
    ValidationError,
    cg_value,
    coherent_state,
    default_grid,
    expansion_from_function,
    maximally_mixed,
    multipole_scale,
    product_state_in_jm,
    rho_from_distribution,
    rho_to_t,
    spherical_harmonic,
    t_from_distribution,
    wigner_D_matrix,
    ylm_squared_t,
)
from spinaxes import pfunc as pfunc_module
from spinaxes.pfunc import _grid_legendre_table, _grid_phases, _legendre_table, _ring_tables, _state_grid
from spinaxes.pfunc import _tensor_and_minimum, _values_on_grid
from spinaxes.symmetric import BlochVector
from spinaxes.tensors import _conjugation_mirror

from oracles import jx_matrix, jy_matrix, jz_matrix, rho_by_nodes

h = HalfInt


class TestCoherentState:
    def test_normalized(self):
        rng = np.random.default_rng(2)
        for dj in (1, 2, 3, 5, 9):
            for _ in range(5):
                theta = rng.uniform(0.0, math.pi)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                vec = coherent_state(h(dj), theta, phi)
                assert np.vdot(vec, vec).real == pytest.approx(1.0, abs=1e-13)

    def test_poles(self):
        top = coherent_state(h(4), 0.0, 0.0)
        np.testing.assert_allclose(top, np.eye(5)[0], atol=1e-15)
        bottom = coherent_state(h(4), math.pi, 0.0)
        np.testing.assert_allclose(bottom, np.eye(5)[4], atol=1e-15)

    def test_overlap_law(self):
        # |<n1|n2>|^2 = ((1 + n1.n2)/2)^(2j)
        rng = np.random.default_rng(4)
        for dj in (1, 3, 6):
            for _ in range(10):
                d1 = BlochVector.from_cartesian(*rng.normal(size=3))
                d2 = BlochVector.from_cartesian(*rng.normal(size=3))
                v1 = coherent_state(h(dj), d1.theta, d1.phi)
                v2 = coherent_state(h(dj), d2.theta, d2.phi)
                got = abs(np.vdot(v1, v2)) ** 2
                want = ((1.0 + d1.dot(d2)) / 2.0) ** dj
                assert got == pytest.approx(want, abs=1e-12)

    def test_maximal_along_own_axis(self):
        # <alpha| J.n |alpha> = j
        rng = np.random.default_rng(6)
        for dj in (1, 2, 5):
            d = BlochVector.from_cartesian(*rng.normal(size=3))
            v = coherent_state(h(dj), d.theta, d.phi)
            x, y, z = d.cartesian
            jn = x * jx_matrix(dj) + y * jy_matrix(dj) + z * jz_matrix(dj)
            assert np.vdot(v, jn @ v).real == pytest.approx(dj / 2.0, abs=1e-12)

    @pytest.mark.parametrize("dj", [1, 5, 40, 60])
    def test_is_first_column_of_wigner_D(self, dj):
        # <j m|alpha(theta, phi)> = D^j_{m j}(phi, theta, 0)
        rng = np.random.default_rng(dj)
        for _ in range(5):
            theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
            column = wigner_D_matrix(h(dj), phi, theta, 0.0)[:, 0]
            np.testing.assert_allclose(coherent_state(h(dj), theta, phi), column, rtol=0, atol=1e-14)

    def test_array_angles(self):
        thetas = np.array([0.3, 1.2, 2.8])
        phis = np.array([0.0, 2.0, 5.0])
        batch = coherent_state(h(3), thetas, phis)
        assert batch.shape == (3, 4)
        for i in range(3):
            np.testing.assert_allclose(batch[i], coherent_state(h(3), thetas[i], phis[i]), atol=1e-15)


class TestMultipoleScale:
    def test_matches_exact_coefficient(self):
        for dj in range(61):
            for k in range(dj + 1):
                want = math.sqrt(4.0 * math.pi) * cg_value(
                    h(dj), h(2 * k), h(dj), h(dj), h(0), h(dj)
                )
                tol = 1e-15 if dj <= 4 else 1e-14
                assert multipole_scale(h(dj), k) == pytest.approx(want, abs=tol)

    def test_matches_exact_coefficient_relatively(self):
        # c_k falls to 8e-18 at 2j = k = 60, where an absolute bound says nothing
        for dj in range(61):
            for k in range(dj + 1):
                want = math.sqrt(4.0 * math.pi) * cg_value(h(dj), h(2 * k), h(dj), h(dj), h(0), h(dj))
                assert multipole_scale(h(dj), k) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_rank_zero(self):
        assert multipole_scale(h(3), 0) == pytest.approx(math.sqrt(4.0 * math.pi), abs=1e-15)


class TestCoherentMultipoles:
    def test_tensor_parameters_are_scaled_harmonics(self):
        rng = np.random.default_rng(8)
        for dj in (1, 2, 4):
            d = BlochVector.from_cartesian(*rng.normal(size=3))
            t = rho_to_t(product_state_in_jm(d, dj))
            for k in range(dj + 1):
                for q in range(-k, k + 1):
                    want = multipole_scale(h(dj), k) * spherical_harmonic(k, q, d.theta, d.phi)
                    assert t.item(k, q) == pytest.approx(want, abs=1e-12)

    def test_north_pole_closed_form(self):
        for dj in (2, 3, 5):
            t = rho_to_t(product_state_in_jm(BlochVector(0.0, 0.0), dj))
            for k in range(dj + 1):
                want = math.sqrt(2 * k + 1) * cg_value(h(dj), h(2 * k), h(dj), h(dj), h(0), h(dj))
                assert t.item(k, 0) == pytest.approx(want, abs=1e-13)
                for q in range(1, k + 1):
                    assert abs(t.item(k, q)) < 1e-13
                    assert abs(t.item(k, -q)) < 1e-13


class TestQuadratureGrid:
    def test_total_weight(self):
        g = QuadratureGrid.build(8, 17)
        assert float(np.sum(g.weights())) == pytest.approx(4.0 * math.pi, abs=1e-12)

    def test_integrates_harmonics_to_zero(self):
        # integral of Y^l_m over the sphere vanishes for l >= 1
        g = QuadratureGrid.for_band_limit(6)
        th, ph = g.mesh()
        for l in range(1, 7):
            for m in range(-l, l + 1):
                val = g.integrate(spherical_harmonic(l, m, th, ph))
                assert abs(val) < 1e-12

    def test_orthonormal_within_band(self):
        g = QuadratureGrid.for_band_limit(8)
        th, ph = g.mesh()
        y1 = spherical_harmonic(4, 2, th, ph)
        y2 = spherical_harmonic(4, -2, th, ph)
        assert g.integrate(y1 * y1.conj()) == pytest.approx(1.0, abs=1e-12)
        assert abs(g.integrate(y1 * y2.conj())) < 1e-12

    def test_build_validation(self):
        with pytest.raises(DomainError):
            QuadratureGrid.build(0, 5)
        with pytest.raises(DomainError):
            QuadratureGrid.for_band_limit(-1)

    def test_default_grid_checks_spin_and_degree_first(self):
        # band l_max + 2j is built only from values inside the supported range
        with pytest.raises(DomainError, match="j = 31"):
            default_grid(0, 31)
        with pytest.raises(DomainError, match="l_max"):
            default_grid(61, 1)

    def test_band_limit_grid_is_built_once(self):
        g = QuadratureGrid.for_band_limit(11)
        assert QuadratureGrid.for_band_limit(11) is g
        assert default_grid(8, h(3)) is g
        for a in (g.theta, g.phi, g.theta_weights):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_legendre_table_is_built_once_per_grid_and_degree(self):
        g = QuadratureGrid.for_band_limit(13)
        other = QuadratureGrid.build(g.n_theta, g.n_phi)
        table = _grid_legendre_table(g, 9)
        assert _grid_legendre_table(g, 9) is table
        assert _grid_legendre_table(other, 9) is not table  # grids hash by identity
        assert _grid_legendre_table(g, 8) is not table
        np.testing.assert_array_equal(table, _legendre_table(9, g.theta))
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0


class TestSphericalExpansion:
    def test_uniform_is_normalized(self):
        lam = SphericalExpansion.uniform()
        assert lam.is_normalized
        assert lam.norm_integral == pytest.approx(1.0, abs=1e-15)
        assert lam.evaluate(0.7, 1.1) == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-15)

    def test_reality_condition_enforced(self):
        with pytest.raises(ValidationError, match="reality"):
            SphericalExpansion.from_table(1, {(0, 0): 1.0 / math.sqrt(4 * math.pi), (1, 1): 0.2})

    def test_from_table_round_trip(self):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        lam = SphericalExpansion.from_table(
            2, {(0, 0): a, (1, 0): 0.1, (2, 1): 0.05 + 0.02j, (2, -1): -0.05 + 0.02j}
        )
        assert lam.item(2, 1) == pytest.approx(0.05 + 0.02j)
        assert lam.item(1, 1) == 0.0
        with pytest.raises(DomainError):
            lam.item(3, 0)

    def test_normalized_rescales(self):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        lam = SphericalExpansion.from_table(1, {(0, 0): 2.0 * a, (1, 0): 0.3})
        out = lam.normalized()
        assert out.is_normalized
        assert out.item(1, 0) == pytest.approx(0.15, abs=1e-15)

    def test_evaluate_matches_manual_sum(self):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        lam = SphericalExpansion.from_table(1, {(0, 0): a, (1, 0): 0.2})
        theta, phi = 0.9, 2.3
        want = a * np.conj(spherical_harmonic(0, 0, theta, phi)) + 0.2 * np.conj(
            spherical_harmonic(1, 0, theta, phi)
        )
        assert lam.evaluate(theta, phi) == pytest.approx(want, abs=1e-14)
        assert abs(lam.evaluate(theta, phi).imag) < 1e-15

    def test_evaluate_across_point_blocks(self):
        # 5000 scattered points at degree 30 take three blocks of the Legendre table
        rng = np.random.default_rng(17)
        table = {(0, 0): 1.0 / math.sqrt(4.0 * math.pi)}
        for l in range(1, 31):
            for m in range(0, l + 1):
                z = 0.01 * complex(rng.normal(), rng.normal() if m else 0.0)
                table[(l, m)] = z
                table[(l, -m)] = (-1.0) ** m * z.conjugate()
        lam = SphericalExpansion.from_table(30, table)
        theta = rng.uniform(0.0, math.pi, 5000)
        phi = rng.uniform(0.0, 2.0 * math.pi, 5000)
        got = lam.evaluate(theta, phi)
        for i in (0, 2500, 4999):
            want = sum(v * np.conj(spherical_harmonic(l, m, theta[i], phi[i])) for (l, m), v in table.items())
            assert got[i] == pytest.approx(want, abs=1e-13)

    @staticmethod
    def _random_real(rng, l_max):
        table = {(0, 0): 1.0 / math.sqrt(4.0 * math.pi)}
        for l in range(1, l_max + 1):
            for m in range(0, l + 1):
                z = complex(rng.normal(), rng.normal() if m else 0.0) / (l + 1)
                table[(l, m)] = z
                table[(l, -m)] = (-1.0) ** m * z.conjugate()
        return SphericalExpansion.from_table(l_max, table)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 8),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(0.0, math.pi), min_size=1, max_size=3),
        st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=4),
    )
    def test_evaluate_matches_harmonic_sum(self, l_max, seed, thetas, phis):
        # spherical_harmonic is computed independently of the ring synthesis
        lam = self._random_real(np.random.default_rng(seed), l_max)

        def direct(theta, phi):
            return sum(
                lam.item(l, m) * np.conj(spherical_harmonic(l, m, theta, phi))
                for l in range(l_max + 1)
                for m in range(-l, l + 1)
            )

        # every theta is repeated along the phi axis of the mesh
        want = np.array([[direct(a, b) for b in phis] for a in thetas])
        tol = 1e-13 * max(1.0, np.abs(want).max())
        got = lam.evaluate(np.array(thetas)[:, None], np.array(phis)[None, :])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol
        scalar = lam.evaluate(thetas[0], phis[0])
        assert np.ndim(scalar) == 0
        assert abs(scalar - want[0, 0]) <= tol

    @pytest.mark.parametrize("l_max", [0, 1, 4, 60])
    def test_grid_values_match_evaluate(self, l_max):
        lam = self._random_real(np.random.default_rng(61 + l_max), l_max)
        for grid in (QuadratureGrid.for_band_limit(l_max + 3), QuadratureGrid.build(l_max + 2, 2 * l_max + 4)):
            want = lam.evaluate(*grid.mesh()).real
            got = _values_on_grid(lam, grid)
            assert got.shape == (grid.n_theta, grid.n_phi)
            # relative to the largest value, which grows like l_max at degree 60
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("l_max", [1, 4, 60])
    def test_grid_values_alias_like_evaluate(self, l_max):
        # fewer phi nodes than orders: e^{-i m phi} at the nodes folds m onto
        # m - n_phi, and the ring values must fold the same way
        lam = self._random_real(np.random.default_rng(67 + l_max), l_max)
        grid = QuadratureGrid.build(l_max + 2, l_max // 2 + 1)
        want = lam.evaluate(*grid.mesh()).real
        got = _values_on_grid(lam, grid)
        assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())

    def test_grid_values_in_blocks_of_rings(self):
        # at degree 60 the Legendre table of 600 rings exceeds one block
        lam = self._random_real(np.random.default_rng(71), 60)
        grid = QuadratureGrid.build(600, 7)
        want = lam.evaluate(*grid.mesh()).real
        got = _values_on_grid(lam, grid)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("l", [0, 1, 3])
    def test_non_finite_coefficient_names_its_degree(self, l, bad):
        table = {(0, 0): 1.0 / math.sqrt(4.0 * math.pi), (1, 0): 0.1, (3, 0): 0.05}
        table[(l, 0)] = bad
        message = f"^degree {l} block has a non-finite entry$"
        with pytest.raises(ValidationError, match=message):
            SphericalExpansion.from_table(3, table)
        blocks = tuple(np.array([table.get((d, m), 0.0) for m in range(-d, d + 1)]) for d in range(4))
        with pytest.raises(ValidationError, match=message):
            SphericalExpansion(3, blocks)

    def test_zero_normalization_rejected(self):
        with pytest.raises(DomainError, match="zero mean"):
            SphericalExpansion.from_table(0, {(0, 0): 0.0}).normalized()


class TestValueSemantics:
    def test_array_holding_types_compare_by_identity_and_hash(self):
        rho = maximally_mixed(h(2))
        objects = [
            rho,
            rho_to_t(rho),
            SphericalExpansion.uniform(),
            QuadratureGrid.for_band_limit(3),
        ]
        for x in objects:
            assert (x == x) is True
            assert isinstance(hash(x), int)
        twins = [maximally_mixed(h(2)), rho_to_t(rho), SphericalExpansion.uniform(), QuadratureGrid.build(5, 9)]
        for x, y in zip(objects, twins):
            assert (x == y) is False
            assert (x != y) is True
        assert QuadratureGrid.for_band_limit(3) is objects[3]


class TestLegendreTable:
    def test_matches_spherical_harmonic_to_degree_60(self):
        theta = np.array([0.0, 0.3, 1.2, 2.9, math.pi])
        table = _legendre_table(60, theta)
        for l in range(61):
            for m in range(l + 1):
                assert np.abs(table[l, m] - spherical_harmonic(l, m, theta, 0.0).real).max() < 1e-12
            assert not table[l, l + 1 :].any()

    def test_degree_cap(self):
        with pytest.raises(DomainError, match="l_max"):
            SphericalExpansion.from_table(61, {})
        with pytest.raises(DomainError, match="l_max"):
            expansion_from_function(lambda th, ph: np.ones_like(th), 61)


class TestExpansionFromFunction:
    def test_recovers_band_limited_function(self):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        src = SphericalExpansion.from_table(3, {(0, 0): a, (2, 2): 0.1j, (2, -2): -0.1j, (3, 0): 0.04})
        out = expansion_from_function(lambda th, ph: src.evaluate(th, ph), 3)
        for l in range(4):
            for m in range(-l, l + 1):
                assert out.item(l, m) == pytest.approx(src.item(l, m), abs=1e-12)

    def test_round_trip_at_degree_20(self):
        rng = np.random.default_rng(19)
        table = {(0, 0): 1.0 / math.sqrt(4.0 * math.pi)}
        for l in range(1, 21):
            for m in range(0, l + 1):
                z = 0.01 * complex(rng.normal(), rng.normal() if m else 0.0)
                table[(l, m)] = z
                table[(l, -m)] = (-1.0) ** m * z.conjugate()
        src = SphericalExpansion.from_table(20, table)
        out = expansion_from_function(src.evaluate, 20)
        for l in range(21):
            np.testing.assert_allclose(out.blocks[l], src.blocks[l], rtol=0, atol=1e-12)

    def test_requires_real_function(self):
        with pytest.raises(ValidationError, match="complex"):
            expansion_from_function(lambda th, ph: np.exp(1j * ph), 2)


class TestDistributionRoutes:
    def _random_classical(self, rng, l_max):
        # positive mixture of coherent projectors has a smooth positive weight;
        # build one by shifting a random band-limited function above zero
        table = {}
        for l in range(1, l_max + 1):
            for m in range(0, l + 1):
                re = rng.normal() * 0.05
                im = rng.normal() * 0.05 if m else 0.0
                table[(l, m)] = re + 1j * im
                table[(l, -m)] = (-1.0) ** m * (re - 1j * im)
        table[(0, 0)] = 1.0 / math.sqrt(4.0 * math.pi)
        lam = SphericalExpansion.from_table(l_max, table)
        fine = QuadratureGrid.for_band_limit(40)
        low = float(lam.evaluate(*fine.mesh()).real.min())
        if low < 0.01:
            shift = (0.01 - low) * 4.0 * math.pi
            table[(0, 0)] = (1.0 + shift) / math.sqrt(4.0 * math.pi)
            lam = SphericalExpansion.from_table(l_max, table).normalized()
        return lam

    def test_two_routes_agree(self):
        rng = np.random.default_rng(12)
        for dj in (1, 2, 3, 5):
            lam = self._random_classical(rng, 4)
            direct = t_from_distribution(lam, h(dj))
            via_rho = rho_to_t(rho_from_distribution(lam, h(dj)))
            assert direct.max_abs_diff(via_rho) < 1e-12

    @pytest.mark.parametrize("dj", [24, 40, 60])
    def test_two_routes_agree_at_high_spin(self, dj):
        lam = self._random_classical(np.random.default_rng(dj), 4)
        direct = t_from_distribution(lam, h(dj))
        via_rho = rho_to_t(rho_from_distribution(lam, h(dj)))
        assert direct.max_abs_diff(via_rho) < 1e-12

    @staticmethod
    def _by_nodes(lam, dj, grid):
        th, ph = grid.mesh()
        vals = lam.evaluate(th, ph).real if isinstance(lam, SphericalExpansion) else lam(th, ph)
        return rho_by_nodes(dj, th.ravel(), ph.ravel(), (grid.weights() * vals).ravel())

    @pytest.mark.parametrize("dj", [1, 2, 5, 24, 40, 60])
    def test_ring_sum_matches_node_sum(self, dj):
        lam = self._random_classical(np.random.default_rng(100 + dj), 4)
        rho = rho_from_distribution(lam, h(dj)).matrix
        assert np.abs(rho - self._by_nodes(lam, dj, default_grid(4, h(dj)))).max() < 1e-14
        # an even number of phi nodes
        grid = QuadratureGrid.build(dj + 6, 2 * dj + 10)
        rho = rho_from_distribution(lam, h(dj), grid).matrix
        assert np.abs(rho - self._by_nodes(lam, dj, grid)).max() < 1e-14

    @pytest.mark.parametrize("dj", [1, 2, 5, 24, 40, 60])
    def test_ring_sum_keeps_phi_aliasing(self, dj):
        # with n_phi < 4j + 1 phi nodes, e^{-i p phi} for |p| >= n_phi folds onto
        # order p - n_phi: the continuum state of a zonal weight is diagonal, the grid's is not
        a = 1.0 / math.sqrt(4.0 * math.pi)
        lam = SphericalExpansion.from_table(4, {(0, 0): a, (2, 0): 0.1, (4, 0): 0.05})
        grid = QuadratureGrid.build(dj + 6, dj // 2 + 1)
        rho = rho_from_distribution(lam, h(dj), grid).matrix
        assert np.abs(rho - self._by_nodes(lam, dj, grid)).max() < 1e-14
        continuum = rho_from_distribution(lam, h(dj)).matrix
        assert np.abs(continuum - np.diag(np.diag(continuum))).max() < 1e-14
        assert np.abs(rho - continuum).max() > 1e-6

    @pytest.mark.parametrize("dj", [1, 2, 5, 24, 40, 60])
    def test_ring_sum_of_callable_matches_node_sum(self, dj):
        def lam(th, ph):
            return (1.0 + 0.5 * np.cos(th) + 0.3 * np.sin(th) * np.sin(ph)) / (4.0 * math.pi)

        grid = QuadratureGrid.build(dj + 3, 2 * dj + 3)
        rho = rho_from_distribution(lam, h(dj), grid).matrix
        assert np.abs(rho - self._by_nodes(lam, dj, grid)).max() < 1e-14

    def test_closed_form_at_high_spin(self):
        # t^k_q = c_k a^k_q through the expansion's degree, zero above it
        rng = np.random.default_rng(14)
        lam = self._random_classical(rng, 4)
        t = t_from_distribution(lam, h(40))
        for k in range(41):
            want = [multipole_scale(h(40), k) * lam.item(k, q) if k <= 4 else 0.0 for q in range(-k, k + 1)]
            np.testing.assert_allclose(t.rank(k), want, rtol=0, atol=1e-12)

    def test_uniform_gives_maximally_mixed(self):
        for dj in (1, 2, 4):
            rho = rho_from_distribution(SphericalExpansion.uniform(), h(dj))
            np.testing.assert_allclose(rho.matrix, maximally_mixed(h(dj)).matrix, atol=1e-14)
            t = t_from_distribution(SphericalExpansion.uniform(), h(dj))
            for k in range(1, dj + 1):
                assert abs(t.rank(k)).max() < 1e-13

    @pytest.mark.filterwarnings("ignore::spinaxes.NonClassicalWarning")
    def test_point_mass_limit_matches_coherent_state(self):
        # truncating a point mass rings slightly negative; that warning is expected
        d = BlochVector(1.0, 0.8)
        t_pure = rho_to_t(product_state_in_jm(d, 3))
        lam = _delta_like(d, l_max=14)
        t_num = t_from_distribution(lam, h(3), QuadratureGrid.for_band_limit(20))
        # truncation at l_max = 14 >> 2j keeps the first ranks exact
        for k in range(4):
            np.testing.assert_allclose(t_num.rank(k), t_pure.rank(k), atol=1e-10)

    def test_negative_weight_warns(self):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        lam = SphericalExpansion.from_table(1, {(0, 0): a, (1, 0): 0.5})
        with pytest.warns(NonClassicalWarning):
            t_from_distribution(lam, h(1))

    def test_negative_weight_warning_names_the_caller(self):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        lam = SphericalExpansion.from_table(1, {(0, 0): a, (1, 0): 0.5})
        for route in (t_from_distribution, rho_from_distribution):
            with pytest.warns(NonClassicalWarning) as caught:
                route(lam, h(1))
            assert [w.filename for w in caught] == [__file__]

    def test_negativity_above_2j_warns_about_the_weight_only(self):
        # the negative part lies in degree 4 > 2j, which never reaches rho: the
        # state is the maximally mixed one, and the warning must not say otherwise
        a = 1.0 / math.sqrt(4.0 * math.pi)
        lam = SphericalExpansion.from_table(4, {(0, 0): a, (4, 0): 0.6})
        with pytest.warns(NonClassicalWarning) as caught:
            direct = t_from_distribution(lam, h(2))
            via_rho = rho_to_t(rho_from_distribution(lam, h(2)))
        for t in (direct, via_rho):
            for k in range(1, 3):
                assert np.abs(t.rank(k)).max() < 1e-14
        for w in caught:
            text = str(w.message)
            assert "negative on the grid" in text
            assert "state" not in text and "classical" not in text

    def test_unnormalized_rejected(self):
        lam = SphericalExpansion.from_table(0, {(0, 0): 0.5})
        with pytest.raises(ValidationError, match="integrates"):
            t_from_distribution(lam, h(1))

    def test_callable_needs_grid(self):
        with pytest.raises(DomainError, match="grid"):
            t_from_distribution(lambda th, ph: np.ones_like(th) / (4 * math.pi), h(1))

    @pytest.mark.parametrize("dj", [1, 4, 13, 40])
    def test_analysis_blocks_obey_the_identity_exactly(self, dj):
        lam = self._random_classical(np.random.default_rng(200 + dj), 4)

        def f(th, ph):
            return (1.0 + 0.4 * np.cos(th) + 0.2 * np.sin(th) ** 2 * np.sin(2.0 * ph - 0.3)) / (4.0 * math.pi)

        outputs = (
            t_from_distribution(lam, h(dj)).ranks,
            t_from_distribution(f, h(dj), QuadratureGrid.for_band_limit(dj + 2)).ranks,
            expansion_from_function(f, min(dj, 30)).blocks,
        )
        for blocks in outputs:
            for block in blocks:
                np.testing.assert_array_equal(block, _conjugation_mirror(block))

    def test_callable_with_grid(self):
        grid = default_grid(0, h(2))
        t = t_from_distribution(lambda th, ph: np.ones_like(th) / (4 * math.pi), h(2), grid)
        for k in range(1, 3):
            assert abs(t.rank(k)).max() < 1e-13


class TestExpansionWithoutGrid:
    """An expansion with no grid: t read from its coefficients, checked on the
    grid of band 2 l_max, and rho summed on the smallest exact grid."""

    @staticmethod
    def _positive(seed, l_max):
        return TestDistributionRoutes()._random_classical(np.random.default_rng(seed), l_max)

    # the fixture is positive on the nodes of band 40; at degree 20 the finer
    # grids of default_grid find it slightly negative between them
    @pytest.mark.filterwarnings("ignore::spinaxes.NonClassicalWarning")
    @pytest.mark.parametrize("l_max", [0, 2, 4, 20])
    @pytest.mark.parametrize("dj", [1, 4, 24, 40, 60])
    def test_closed_form_matches_quadrature(self, l_max, dj):
        lam = self._positive(300 + 61 * l_max + dj, l_max)
        t = t_from_distribution(lam, h(dj))
        assert t.max_abs_diff(t_from_distribution(lam, h(dj), default_grid(l_max, h(dj)))) <= 1e-13
        for k, block in enumerate(t.ranks):
            np.testing.assert_array_equal(block, _conjugation_mirror(block))
            if k > l_max:
                assert not block.any()

    @pytest.mark.parametrize("dj", [4, 40])
    def test_identity_is_exact_for_coefficients_that_obey_it_within_tolerance(self, dj):
        rng = np.random.default_rng(400 + dj)
        noise = [0.28e-12 * (rng.uniform(-1, 1, 2 * l + 1) + 1j * rng.uniform(-1, 1, 2 * l + 1)) for l in range(5)]
        lam = SphericalExpansion(4, tuple(b + e for b, e in zip(self._positive(dj, 4).blocks, noise)))
        for block in t_from_distribution(lam, h(dj)).ranks:
            np.testing.assert_array_equal(block, _conjugation_mirror(block))

    @pytest.mark.parametrize("dj", [1, 4, 60])
    def test_uniform_has_exactly_zero_ranks(self, dj):
        t = t_from_distribution(SphericalExpansion.uniform(), h(dj))
        assert t.item(0, 0) == 1.0
        assert not any(block.any() for block in t.ranks[1:])

    def test_normalization_and_reality_are_checked(self):
        with pytest.raises(ValidationError, match="integrates"):
            t_from_distribution(SphericalExpansion.from_table(2, {(0, 0): 0.5, (2, 1): 0.1, (2, -1): -0.1}), h(3))
        # i b with b real and obeying the identity breaks it by 2|b| <= 1e-12, under the
        # constructor's tolerance, yet its values at one probe node sum to 4e-10 imaginary
        probe = QuadratureGrid.for_band_limit(120)
        sign = np.sign(_legendre_table(60, probe.theta[40:41])[:, :, 0])
        blocks = [0.49e-12j * np.concatenate([sign[l, l:0:-1] * (-1.0) ** np.arange(l, 0, -1), sign[l, : l + 1]])
                  for l in range(61)]
        blocks[0] = blocks[0] + 1.0 / math.sqrt(4.0 * math.pi)
        lam = SphericalExpansion(60, tuple(blocks))
        for route in (t_from_distribution, rho_from_distribution):
            with pytest.raises(ValidationError, match="complex values"):
                route(lam, h(2))

    def test_reported_minimum_does_not_depend_on_spin(self):
        # 1/sqrt(4 pi) + 0.6 Y^4_0 dips below zero; the probe's grid is set by degree 4 alone
        lam = SphericalExpansion.from_table(4, {(0, 0): 1.0 / math.sqrt(4.0 * math.pi), (4, 0): 0.6})
        texts = set()
        for dj in (1, 2, 24, 60):
            for route in (t_from_distribution, rho_from_distribution):
                with pytest.warns(NonClassicalWarning) as caught:
                    route(lam, h(dj))
                assert [w.filename for w in caught] == [__file__]
                texts.update(str(w.message) for w in caught)
        low = _values_on_grid(lam, QuadratureGrid.for_band_limit(8)).min()
        assert texts == {
            f"weight function is negative on the grid (min {low:.6g}), "
            "so it is a quasi-probability, not a probability density"
        }

    @pytest.mark.parametrize(
        "l_max, dj, probe",
        [(0, 2, True), (4, 1, True), (4, 14, True), (20, 60, True), (0, 3, False), (4, 15, False), (4, 60, False)],
    )
    def test_state_grid_is_exact_for_its_band(self, l_max, dj, probe):
        band = l_max + dj
        grid = _state_grid(l_max, dj)
        assert (grid is QuadratureGrid.for_band_limit(2 * l_max)) is probe
        if not probe:
            assert (grid.n_theta, grid.n_phi) == (band // 2 + 1, band + 1)
            assert _state_grid(l_max, dj) is grid
        # integral Y^D_m = sqrt(4 pi) delta_D0, for every D <= band and m >= 0 (m < 0 by conjugation)
        rings = _legendre_table(band, grid.theta) @ grid.theta_weights
        turns = np.exp(1j * np.outer(np.arange(band + 1), grid.phi)).sum(axis=1) * (2 * math.pi / grid.n_phi)
        want = np.zeros((band + 1, band + 1))
        want[0, 0] = math.sqrt(4.0 * math.pi)
        assert np.abs(rings * turns - want).max() < 1e-13

    @pytest.mark.parametrize("l_max, dj", [(4, 1), (4, 14), (4, 15), (4, 40), (2, 60), (20, 24)])
    def test_rho_is_the_node_sum_on_its_grid(self, l_max, dj):
        lam = self._positive(500 + dj, l_max)
        rho = rho_from_distribution(lam, h(dj)).matrix
        assert np.abs(rho - TestDistributionRoutes._by_nodes(lam, dj, _state_grid(l_max, dj))).max() < 1e-14


class TestRingTables:
    """The per-grid tables of both routes: cached, bounded, read-only, and summing what the nodes sum."""

    def test_caches_are_bounded_and_hold_read_only_tables(self):
        grid = QuadratureGrid.for_band_limit(9)
        b, e = _ring_tables(grid, 6)
        assert _ring_tables(grid, 6)[0] is b and _ring_tables(grid, 5)[0] is not b
        phases = _grid_phases(grid, 3)
        assert _grid_phases(grid, 3) is phases
        for cache in (_ring_tables, _grid_phases):
            assert cache.cache_info().maxsize is not None
        for table in (b, e, phases):
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
        np.testing.assert_array_equal(b, coherent_state(h(6), grid.theta, np.zeros_like(grid.theta)).real)
        np.testing.assert_array_equal(e, np.exp(-1j * np.outer(grid.phi, np.arange(-6, 7))))
        np.testing.assert_array_equal(phases, np.exp(-1j * np.outer(np.arange(-3, 4), grid.phi)))

    # both branches of _state_grid: the probe's grid (band 2L) and the smallest exact one
    @pytest.mark.filterwarnings("ignore::spinaxes.NonClassicalWarning")
    @pytest.mark.parametrize(
        "dj, l_max, probe",
        [(1, 4, True), (4, 4, True), (4, 0, False), (40, 20, True), (40, 4, False), (60, 20, True), (60, 4, False)],
    )
    def test_cached_tables_keep_the_node_sum(self, dj, l_max, probe):
        lam = TestExpansionWithoutGrid._positive(700 + dj + l_max, l_max)
        grid = _state_grid(l_max, dj)
        assert (grid is QuadratureGrid.for_band_limit(2 * l_max)) is probe
        want = TestDistributionRoutes._by_nodes(lam, dj, grid)
        first = rho_from_distribution(lam, h(dj)).matrix
        again = rho_from_distribution(lam, h(dj)).matrix  # from the cached tables
        np.testing.assert_array_equal(again, first)
        assert np.abs(first - want).max() < 1e-14


class TestTensorAndMinimum:
    """The pfunc command's one evaluation of lambda: the tensor and the minimum it was checked with."""

    @pytest.mark.filterwarnings("ignore::spinaxes.NonClassicalWarning")
    @pytest.mark.parametrize("dj", [1, 4, 20])
    def test_is_the_route_and_the_grid_minimum(self, dj, monkeypatch):
        lam = SphericalExpansion.from_table(4, {(0, 0): 1.0 / math.sqrt(4.0 * math.pi), (4, 0): 0.6, (1, 0): 0.1})
        grid = default_grid(4, h(dj))
        low = float(_values_on_grid(lam, grid).min())
        want = t_from_distribution(lam, h(dj), grid)
        calls = []
        monkeypatch.setattr(pfunc_module, "_values_on_grid", lambda *a: calls.append(a) or _values_on_grid(*a))
        t, got = _tensor_and_minimum(lam, h(dj), grid)
        assert len(calls) == 1
        assert got == low < 0.0
        assert t.max_abs_diff(want) == 0.0

def _delta_like(direction, l_max):
    # band-limited approximation of a point mass: sum_l conj(Y)(dir) Y, normalized
    table = {}
    for l in range(l_max + 1):
        for m in range(-l, l + 1):
            table[(l, m)] = complex(spherical_harmonic(l, m, direction.theta, direction.phi))
    lam = SphericalExpansion(l_max, tuple(
        np.array([table[(l, m)] for m in range(-l, l + 1)]) for l in range(l_max + 1)
    ))
    return lam.normalized()


class TestYlmSquared:
    def test_matches_quadrature(self):
        for l in range(4):
            for m in range(-l, l + 1):
                for dj in (1, 2, 3):
                    closed = ylm_squared_t(l, m, h(dj))
                    grid = QuadratureGrid.for_band_limit(2 * l + dj)
                    lam = _ylm_squared_callable(l, m)
                    numeric = t_from_distribution(lam, h(dj), grid)
                    assert closed.max_abs_diff(numeric) < 1e-10

    def test_zonal_structure(self):
        t = ylm_squared_t(2, 1, h(3))
        for k in range(1, 4):
            block = t.rank(k)
            for q in range(-k, k + 1):
                if q != 0:
                    assert block[q + k] == 0.0
        # odd ranks vanish because |Y|^2 is even under inversion
        assert t.item(1, 0) == 0.0
        assert t.item(3, 0) == 0.0

    def test_matches_exact_gaunt_product(self):
        # t^k_0 = c_k sqrt((2k+1)/4pi) <l 0, k 0|l 0><l m, k 0|l m>, exact CG as the oracle
        for dj in range(13):
            j = h(dj)
            for l in range(7):
                for m in range(-l, l + 1):
                    t = ylm_squared_t(l, m, j)
                    for k in range(1, dj + 1):
                        ck = math.sqrt(4.0 * math.pi) * cg_value(j, h(2 * k), j, j, h(0), j)
                        gaunt = cg_value(l, k, l, 0, 0, 0) * cg_value(l, k, l, m, 0, m)
                        want = ck * math.sqrt((2 * k + 1) / (4.0 * math.pi)) * gaunt
                        assert t.item(k, 0) == pytest.approx(want, abs=1e-14)

    def test_y00_squared_is_uniform(self):
        t = ylm_squared_t(0, 0, h(2))
        for k in range(1, 3):
            assert abs(t.rank(k)).max() < 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ylm_squared_t(1, 2, h(2))
        with pytest.raises(DomainError):
            ylm_squared_t(-1, 0, h(2))
        # checked before any table of size 2l + 1 is built
        with pytest.raises(DomainError, match="supported range"):
            ylm_squared_t(61, 0, h(2))
        with pytest.raises(DomainError, match="supported range"):
            ylm_squared_t(100_000_000, 0, h(2))


def _ylm_squared_callable(l, m):
    def lam(th, ph):
        y = spherical_harmonic(l, m, th, ph)
        return (y * y.conj()).real

    return lam
