"""Root-finding, axis pairing, and the multiaxial decomposition."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinaxes import (
    Axis,
    ConsistencyError,
    DomainError,
    HalfInt,
    SpinDensityMatrix,
    TensorParams,
    axes_to_tensor,
    collinearity_check,
    extract_mar,
    fit_radius,
    mar_polynomial,
    polynomial_roots,
    rho_to_t,
    roots_to_axes,
    rotate_t,
    t_to_rho,
)
from spinaxes import axes

from oracles import random_density

h = HalfInt

SQ3 = math.sqrt(3.0)
SEEDED_DIRECTION = tuple(np.random.default_rng(45).uniform([0.0, 0.0], [math.pi, 2.0 * math.pi]))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def paper_tensor():
    return TensorParams.from_table(
        h(2),
        {
            (2, 0): 1.0 / (4.0 * math.sqrt(2.0)),
            (2, 2): SQ3 / 8.0,
            (2, -2): SQ3 / 8.0,
        },
    )


class TestAxisCanonicalization:
    def test_upper_hemisphere_kept(self):
        a = Axis.from_direction([0.3, -0.2, 0.9])
        assert math.cos(a.theta) > 0.0

    def test_lower_hemisphere_flipped(self):
        a = Axis.from_direction([0.3, -0.2, -0.9])
        b = Axis.from_direction([-0.3, 0.2, 0.9])
        assert a.theta == pytest.approx(b.theta, abs=1e-15)
        assert a.phi == pytest.approx(b.phi, abs=1e-15)

    def test_equator_uses_phi_window(self):
        a = Axis.from_direction([0.0, -1.0, 0.0])
        assert a.theta == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert a.phi == pytest.approx(math.pi / 2.0, abs=1e-12)
        b = Axis.from_direction([-1.0, 0.0, 0.0])
        assert b.phi == pytest.approx(0.0, abs=1e-12)

    def test_normalizes_length(self):
        a = Axis.from_direction([0.0, 0.0, 7.5])
        assert a.theta == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("theta, phi, name", [(math.nan, 0.0, "theta"), (0.3, math.inf, "phi")])
    def test_non_finite_angle_rejected(self, theta, phi, name):
        with pytest.raises(DomainError, match=f"^angle {name} has a non-finite value$"):
            Axis(theta, phi)

    def test_antipodal_inputs_agree(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            u = rng.normal(size=3)
            a, b = Axis.from_direction(u), Axis.from_direction(-u)
            assert a.theta == pytest.approx(b.theta, abs=1e-12)
            assert a.phi == pytest.approx(b.phi, abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            Axis.from_direction([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("u", [[math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0], [1.0, math.inf, 0.0]])
    def test_non_finite_direction_rejected(self, u):
        with pytest.raises(DomainError, match="non-finite"):
            Axis.from_direction(u)

    def test_tiny_negative_y_gives_phi_zero(self):
        # atan2 of a tiny negative y is -1e-17, which mod 2 pi rounds to 2 pi
        a = Axis.from_direction([0.1, -1e-18, 0.99])
        assert a.phi == 0.0
        # phi = 2 pi - 1e-15 is representable, but still the direction of phi = 0
        b = Axis.from_direction([0.1, -1e-16, 0.99])
        assert b.phi == 0.0

    @pytest.mark.parametrize("y, snaps", [(-1.2e-15, False), (-0.9e-15, True), (-1e-18, True)])
    def test_phi_snap_moves_the_direction_by_less_than_1e_15(self, y, snaps):
        u = np.array([1.0, y, 0.0])
        a = Axis.from_direction(u)
        assert 0.0 <= a.phi < 2.0 * math.pi
        assert (a.phi == 0.0) == snaps
        v = a.unit_vector
        # a snap moves it by |y|; keeping phi leaves only its rounding
        assert min(np.abs(v - u).max(), np.abs(v + u).max()) <= (1e-15 if snaps else 3e-16)

    @pytest.mark.parametrize("theta", [1e-9, 1e-7])
    def test_theta_near_the_pole_is_accurate(self, theta):
        # acos(cos theta) returned 0.0 at 1e-9 and was 4e-4 off at 1e-7
        a = Axis.from_direction([math.sin(theta) * math.cos(0.7), math.sin(theta) * math.sin(0.7), math.cos(theta)])
        assert a.theta == pytest.approx(theta, rel=1e-14)
        assert a.phi == pytest.approx(0.7, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(FINITE, FINITE, FINITE).filter(any))
    def test_any_direction_has_a_canonical_axis(self, u):
        a = Axis.from_direction(u)
        d = np.array(u) / np.abs(u).max()
        d /= np.linalg.norm(d)
        # within EQUATOR_TOL of the equator phi picks the endpoint, so theta may pass pi/2 by that much
        assert 0.0 <= a.theta <= math.pi / 2.0 + axes.EQUATOR_TOL + 1e-15
        assert 0.0 <= a.phi < 2.0 * math.pi
        if abs(d[2]) < axes.EQUATOR_TOL / 2.0:
            assert a.phi < math.pi
        # a y within 1e-15 below zero snaps phi to 0, which moves the direction by
        # up to 1e-15 plus the rounding of phi
        v = a.unit_vector
        assert min(np.abs(v - d).max(), np.abs(v + d).max()) <= 2e-15


class TestMarPolynomial:
    def test_coefficients_are_weighted_parameters(self):
        t = paper_tensor()
        coeffs = mar_polynomial(t, 2)
        want = np.array(
            [
                math.sqrt(math.comb(4, 0)) * t.item(2, -2),
                math.sqrt(math.comb(4, 1)) * t.item(2, -1),
                math.sqrt(math.comb(4, 2)) * t.item(2, 0),
                math.sqrt(math.comb(4, 3)) * t.item(2, 1),
                math.sqrt(math.comb(4, 4)) * t.item(2, 2),
            ]
        )
        np.testing.assert_allclose(coeffs, want, atol=1e-15)
        np.testing.assert_allclose(coeffs, [SQ3 / 8, 0, SQ3 / 4, 0, SQ3 / 8], atol=1e-15)

    def test_zero_rank_gives_zero_vector(self):
        t = paper_tensor()
        np.testing.assert_array_equal(mar_polynomial(t, 1), np.zeros(3))

    def test_domain(self):
        t = paper_tensor()
        with pytest.raises(DomainError):
            mar_polynomial(t, 0)
        with pytest.raises(DomainError):
            mar_polynomial(t, 3)


class TestPolynomialRoots:
    def test_known_factorization(self):
        roots, at_inf = polynomial_roots(np.poly([2.0, 2.0, -1.0]))
        assert at_inf == 0
        got = sorted(roots, key=lambda rm: rm[0].real)
        assert got[0][1] == 1 and got[0][0] == pytest.approx(-1.0, abs=1e-10)
        assert got[1][1] == 2 and got[1][0] == pytest.approx(2.0, abs=1e-7)

    def test_leading_zeros_are_roots_at_infinity(self):
        roots, at_inf = polynomial_roots([0.0, 0.0, 1.0, 0.0, -1.0])
        assert at_inf == 2
        vals = sorted(z.real for z, _ in roots)
        assert vals == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_trailing_zeros_are_zero_roots(self):
        roots, at_inf = polynomial_roots([1.0, 0.0, 0.0, 0.0, 0.0])
        assert at_inf == 0
        assert roots == [(0j, 4)]

    def test_mixed_structural_zeros(self):
        roots, at_inf = polynomial_roots([0.0, 1.0, 0.0])
        assert at_inf == 1
        assert roots == [(0j, 1)]

    def test_complex_double_roots_cluster(self):
        roots, at_inf = polynomial_roots(np.poly([1j, 1j, -1j, -1j]).real)
        assert at_inf == 0
        assert sorted(m for _, m in roots) == [2, 2]
        for z, _ in roots:
            assert abs(abs(z.imag) - 1.0) < 1e-7
            assert abs(z.real) < 1e-7

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            polynomial_roots([0.0, 0.0, 0.0])

    def test_leading_coefficient_below_float_range_is_at_infinity(self):
        # dividing by it would overflow the companion matrix
        roots, at_inf = polynomial_roots([1e-320, 1.0, -1.0])
        assert at_inf == 1
        assert len(roots) == 1 and roots[0][1] == 1
        assert roots[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        big = polynomial_roots([3e8, 0.0, -3e8])
        small = polynomial_roots([3e-8, 0.0, -3e-8])
        for (z1, m1), (z2, m2) in zip(
            sorted(big[0], key=lambda rm: rm[0].real), sorted(small[0], key=lambda rm: rm[0].real)
        ):
            assert m1 == m2
            assert z1 == pytest.approx(z2, abs=1e-12)


class TestRootsToAxes:
    def test_paper_roots(self):
        axes = roots_to_axes([(1j, 2), (-1j, 2)], 0, 2)
        assert len(axes) == 2
        for a in axes:
            assert a.theta == pytest.approx(math.pi / 2.0, abs=1e-12)
            assert a.phi == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_zero_and_infinity_pair_to_vertical_axis(self):
        axes = roots_to_axes([(0j, 1)], 1, 1)
        assert len(axes) == 1
        assert axes[0].theta == pytest.approx(0.0, abs=1e-15)

    def test_generic_pair(self):
        z = 0.7 + 0.2j
        partner = -1.0 / z.conjugate()
        axes = roots_to_axes([(z, 1), (partner, 1)], 0, 1)
        theta = 2.0 * math.atan(abs(z))
        assert axes[0].theta == pytest.approx(theta, abs=1e-12)
        assert axes[0].phi == pytest.approx(cmath_phase(z), abs=1e-12)

    def test_unpairable_roots_raise(self):
        with pytest.raises(ConsistencyError, match="conjugation"):
            roots_to_axes([(2.0 + 0j, 1), (3.0 + 0j, 1)], 0, 1)

    def test_wrong_count_rejected(self):
        with pytest.raises(DomainError):
            roots_to_axes([(1j, 1), (-1j, 1)], 0, 2)

    def test_rank_zero_rejected(self):
        with pytest.raises(DomainError, match="^rank k = 0 outside 1 .. inf$"):
            roots_to_axes([], 0, 0)

    def test_sorted_output(self):
        # z-axis (theta 0) and equatorial x-axis (theta pi/2): equator first
        axes = roots_to_axes([(0j, 1), (1.0 + 0j, 1), (-1.0 + 0j, 1)], 1, 2)
        assert axes[0].theta > axes[1].theta


def cmath_phase(z):
    return math.atan2(z.imag, z.real)


class TestAxesToTensor:
    def test_single_vertical_axis(self):
        s = axes_to_tensor([Axis(0.0, 0.0)], 1)
        np.testing.assert_allclose(s, [0.0, 1.0, 0.0], atol=1e-15)

    def test_single_x_axis(self):
        s = axes_to_tensor([Axis(math.pi / 2.0, 0.0)], 1)
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(s, [r, 0.0, -r], atol=1e-15)

    @pytest.mark.parametrize("k", [2, 34, 60])
    def test_two_vertical_axes(self, k):
        # k vertical axes: s^k_0 = 2^(k/2) / sqrt(C(2k, k)), every other q zero;
        # C(2k, k) exceeds int64 from k = 34
        s = axes_to_tensor([Axis(0.0, 0.0)] * k, k)
        want = np.zeros(2 * k + 1, dtype=complex)
        want[k] = 2.0 ** (k / 2) / math.sqrt(math.comb(2 * k, k))
        np.testing.assert_allclose(s, want, atol=1e-15)
        assert s[k].real == pytest.approx(want[k].real, rel=1e-13)

    def test_order_independent(self):
        a = Axis.from_direction([1.0, 0.5, 0.8])
        b = Axis.from_direction([-0.3, 0.9, 0.1])
        c = Axis.from_direction([0.2, -0.1, 1.3])
        s1 = axes_to_tensor([a, b, c], 3)
        s2 = axes_to_tensor([c, a, b], 3)
        np.testing.assert_allclose(s1, s2, atol=1e-13)

    def test_conjugation_symmetric(self):
        a = Axis.from_direction([1.0, 2.0, 0.5])
        b = Axis.from_direction([0.0, 0.3, -1.0])
        s = axes_to_tensor([a, b], 2)
        flipped = s[::-1].conj() * (-1.0) ** np.arange(-2, 3)
        np.testing.assert_allclose(s, flipped, atol=1e-14)

    def test_count_mismatch(self):
        with pytest.raises(DomainError):
            axes_to_tensor([Axis(0.0, 0.0)], 2)

    @pytest.mark.parametrize("k", [1, 2, 12, 24, 60])
    def test_coupling_is_bounded_away_from_zero(self, k):
        # |s^k|^2 is the Bombieri norm^2 of the product of k quadratics of norm 1,
        # so Bombieri's inequality bounds it below by 2^k / (2k)!, and no rank of
        # extract_mar can couple to zero; at k = 1 it holds with equality, up to rounding
        bound = 2.0**k / math.factorial(2 * k) * (1.0 - 1e-12)
        rng = np.random.default_rng(7000 + k)
        sets = [[Axis.from_direction(u) for u in rng.normal(size=(k, 3))] for _ in range(100)]
        sets += [[Axis.from_direction(u)] * k for u in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])]
        sets.append([Axis(math.pi / 2.0, math.pi * i / k) for i in range(k)])  # evenly over a great circle
        sets.append([Axis(math.pi / 2.0, math.pi / 2.0 * (i % 2)) for i in range(k)])  # half along x, half along y
        for axes_set in sets:
            s = axes_to_tensor(axes_set, k)
            assert float(np.vdot(s, s).real) >= bound


class TestFitRadius:
    def test_recovers_scale(self):
        s = axes_to_tensor([Axis(0.4, 1.0), Axis(1.2, 2.0)], 2)
        r, residual = fit_radius(2.5 * s, s)
        assert r == pytest.approx(2.5, abs=1e-13)
        assert residual < 1e-13

    def test_negative_scale(self):
        s = axes_to_tensor([Axis(0.4, 1.0)], 1)
        r, _ = fit_radius(-1.3 * s, s)
        assert r == pytest.approx(-1.3, abs=1e-13)

    def test_residual_measures_misfit(self):
        s = np.array([0.0, 1.0, 0.0], dtype=complex)
        t_block = np.array([0.1, 1.0, -0.1], dtype=complex)
        r, residual = fit_radius(t_block, s)
        assert r == pytest.approx(1.0, abs=1e-15)
        assert residual == pytest.approx(0.1, abs=1e-15)

    def test_zero_coupling_raises(self):
        with pytest.raises(ConsistencyError, match="degenerate"):
            fit_radius(np.ones(3, dtype=complex), np.zeros(3, dtype=complex))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            fit_radius(np.ones(3), np.ones(5))


class TestExtractMar:
    def test_four_point_mixture(self):
        m = extract_mar(paper_tensor())
        one, two = m.rank(1), m.rank(2)
        assert one.radius == 0.0
        assert one.axes == ()
        assert two.radius == pytest.approx(SQ3 / 4.0, abs=1e-9)
        assert two.sign == -1
        assert two.residual < 1e-9
        assert len(two.axes) == 2
        for a in two.axes:
            assert a.theta == pytest.approx(math.pi / 2.0, abs=1e-8)
            assert a.phi == pytest.approx(math.pi / 2.0, abs=1e-8)
        assert collinearity_check(m)

    def test_spin_zero_has_no_ranks(self):
        rho = SpinDensityMatrix(h(0), np.eye(1))
        t = rho_to_t(rho)
        m = extract_mar(t)
        assert m.j == h(0)
        assert m.ranks == ()
        assert m.max_residual == 0.0
        assert collinearity_check(m)
        assert rotate_t(t, 0.3, 1.1, 2.0).table() == {(0, 0): 1.0}
        np.testing.assert_array_equal(t_to_rho(t).matrix, rho.matrix)

    def test_rank_accessor_bounds(self):
        m = extract_mar(paper_tensor())
        with pytest.raises(DomainError):
            m.rank(0)
        with pytest.raises(DomainError):
            m.rank(3)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: extract_mar(paper_tensor()).rank(1.5), "rank k"),
            (lambda: extract_mar(paper_tensor()).rank(2.0), "rank k"),
            (lambda: extract_mar(paper_tensor()).rank(True), "rank k"),
            (lambda: axes_to_tensor([Axis(0.0, 0.0)], True), "rank k"),
            (lambda: axes_to_tensor([Axis(0.0, 0.0)], 1.0), "rank k"),
            (lambda: roots_to_axes([(0j, 1)], 1, True), "rank k"),
            (lambda: roots_to_axes([(0j, 1)], 1, 1.5), "rank k"),
            (lambda: roots_to_axes([(0j, 1)], 1.0, 1), "count of roots at infinity"),
            (lambda: roots_to_axes([(0j, 1)], True, 1), "count of roots at infinity"),
            (lambda: roots_to_axes([(0j, 1.0)], 1, 1), "multiplicity"),
            (lambda: roots_to_axes([(0j, True)], 1, 1), "multiplicity"),
        ],
        ids=["rank-float", "rank-integral-float", "rank-bool", "tensor-bool", "tensor-float", "roots-bool", "roots-float",
             "infinity-float", "infinity-bool", "multiplicity-float", "multiplicity-bool"],
    )
    def test_integer_arguments_must_be_ints(self, call, name):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            call()

    def test_numpy_integers_are_ints(self):
        k = np.int64(1)
        assert extract_mar(paper_tensor()).rank(k) == extract_mar(paper_tensor()).rank(1)
        np.testing.assert_array_equal(axes_to_tensor([Axis(0.0, 0.0)], k), axes_to_tensor([Axis(0.0, 0.0)], 1))
        assert roots_to_axes([(0j, k)], k, k) == roots_to_axes([(0j, 1)], 1, 1)

    def test_reconstruction_of_random_states(self):
        rng = np.random.default_rng(33)
        for dj in (1, 2, 3, 5, 7):
            rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
            t = rho_to_t(rho)
            m = extract_mar(t)
            for k in range(1, dj + 1):
                entry = m.rank(k)
                assert entry.resolved
                np.testing.assert_allclose(entry.reconstruct(), t.rank(k), atol=1e-8)
            assert m.max_residual < 1e-8

    def test_zero_tolerance_skips_small_blocks(self):
        t = TensorParams.from_table(h(2), {(1, 0): 1e-14, (2, 0): 0.1})
        m = extract_mar(t)
        assert m.rank(1).radius == 0.0
        assert m.rank(2).radius == pytest.approx(0.1 * math.sqrt(3.0 / 2.0), abs=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    @pytest.mark.parametrize(
        "theta, phi",
        [(0.05, 0.0), (0.1, 0.0), (math.pi / 2.0, 0.0), (math.pi / 2.0, 2.4), (0.8, 2.4), SEEDED_DIRECTION],
        ids=["theta0.05", "theta0.1", "equator-phi0", "equator", "theta0.8", "seeded"],
    )
    def test_coherent_state_is_collinear(self, theta, phi, n):
        # rank k of an n-qubit product state has one k-fold axis, which the
        # companion matrix scatters by about eps^(1/k)
        from spinaxes import BlochVector, product_state_in_jm

        d = BlochVector(theta, phi)
        m = extract_mar(rho_to_t(product_state_in_jm(d, n)))
        assert collinearity_check(m)
        for k in range(1, n + 1):
            entry = m.rank(k)
            assert entry.radius > 1e-3
            assert len(entry.axes) == k and len(set(entry.axes)) == 1
            for a in entry.axes:
                dot = abs(float(a.unit_vector @ d.cartesian))
                assert dot == pytest.approx(1.0, abs=1e-7)
                assert np.linalg.norm(np.cross(a.unit_vector, d.cartesian)) < 1e-8

    @pytest.mark.parametrize("n", [24, 32, 40, 60])
    @pytest.mark.parametrize(
        "theta, phi",
        [(0.05, 0.0), (2e-5, 0.3), (4e-5, 0.3), (math.pi / 2.0, 0.0), (math.pi / 2.0, 2.4), SEEDED_DIRECTION],
        ids=["theta0.05", "theta2e-5", "theta4e-5", "equator-phi0", "equator", "seeded"],
    )
    def test_large_coherent_state_is_collinear(self, theta, phi, n):
        # from N = 24 the rounding of the top rank blocks exceeds 1e-10 of
        # their norm and their roots scatter by up to 0.4 rad; from N = 40 the
        # one axis is only known to about 1e-6 from the rounded table
        from spinaxes import BlochVector, product_state_in_jm

        d = BlochVector(theta, phi)
        m = extract_mar(rho_to_t(product_state_in_jm(d, n)))
        assert collinearity_check(m)
        for entry in m.ranks:
            assert len(entry.axes) in (0, entry.rank) and len(set(entry.axes)) <= 1
            for a in entry.axes:
                assert np.linalg.norm(np.cross(a.unit_vector, d.cartesian)) < (1e-8 if n <= 32 else 1e-5)

    @pytest.mark.parametrize("dj", list(range(1, 25)) + [28, 32, 40, 60])
    def test_generic_state_reconstructs(self, dj):
        rng = np.random.default_rng(dj)
        t = rho_to_t(SpinDensityMatrix(h(dj), random_density(rng, dj + 1)))
        m = extract_mar(t)
        for k in range(1, dj + 1):
            block = t.rank(k)
            assert np.abs(m.rank(k).reconstruct() - block).max() <= 1e-10 * np.abs(block).max()

    @pytest.mark.parametrize("mult", [(2, 1), (2, 2), (3, 1, 1), (4, 2), (6, 1)])
    def test_repeated_axes_come_back(self, mult):
        # the rank is not one axis, so each repeated axis comes back from the
        # companion matrix as a cluster of scattered roots
        dirs = np.random.default_rng(sum(mult)).normal(size=(len(mult), 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        axes = [Axis.from_direction(d) for d, m in zip(dirs, mult) for _ in range(m)]
        k = len(axes)
        block = 0.01 * axes_to_tensor(axes, k)
        t = TensorParams.from_table(h(k), {(k, q): block[q + k] for q in range(-k, k + 1)})
        got = [a.unit_vector for a in extract_mar(t).rank(k).axes]
        assert len(got) == k
        for d, m in zip(dirs, mult):
            assert sum(np.linalg.norm(np.cross(g, d)) < 1e-8 for g in got) == m

    @pytest.mark.parametrize("theta", [1e-9, 1e-7])
    def test_coherent_state_near_the_pole(self, theta):
        from spinaxes import BlochVector, product_state_in_jm

        d = BlochVector(theta, 0.3)
        for entry in extract_mar(rho_to_t(product_state_in_jm(d, 16))).ranks:
            for a in entry.axes:
                assert np.linalg.norm(a.unit_vector - d.cartesian) < 1e-14

    def test_mixed_directions_are_not_collinear(self):
        y20 = math.sqrt(5.0 / (16.0 * math.pi))
        y22 = math.sqrt(15.0 / (32.0 * math.pi))
        scale = 0.2 * math.sqrt(4.0 * math.pi / 5.0)
        t = TensorParams.from_table(
            h(2),
            {
                (1, 0): 0.3,
                (2, 0): -scale * y20,
                (2, 2): scale * y22,
                (2, -2): scale * y22,
            },
        )
        m = extract_mar(t)
        assert m.rank(1).axes[0].theta == pytest.approx(0.0, abs=1e-12)
        for a in m.rank(2).axes:
            assert a.unit_vector[2] == pytest.approx(0.0, abs=1e-7)
        assert not collinearity_check(m)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_collinearity_tolerance_must_be_finite_and_non_negative(self, tol):
        m = extract_mar(TensorParams.from_table(h(1), {(1, 0): 0.3}))
        with pytest.raises(DomainError, match="tolerance"):
            collinearity_check(m, tol)


class TestResidualFloor:
    """Any block rebuilt with an axis at Z has a polynomial vanishing at Z, so
    its fit residual is at least the floor at Z: a trial whose floor is above
    the bound cannot pass and is skipped."""

    @staticmethod
    def generic_table(dj):
        return rho_to_t(SpinDensityMatrix(h(dj), random_density(np.random.default_rng(dj), dj + 1)))

    @staticmethod
    def assert_below(floor, block, units):
        # a trial that rebuilds the block leaves a residual of rounding, and the
        # floor's own rounding is about 1e-16 of the block, far below any bound
        residual = fit_radius(block, _stretched(units))[1]
        assert floor <= residual * (1.0 + 1e-9) + 1e-14 * np.abs(block).max()

    @pytest.mark.parametrize("dj", [4, 12, 24, 40])
    def test_floor_is_below_every_trial_residual(self, dj, monkeypatch):
        t = self.generic_table(dj)
        joins, seen = axes._joins, []

        def recording(z, points, pairs, directions, chosen, layout):
            found = joins(z, points, pairs, directions, chosen, layout)
            seen.append((directions.copy(), *found))
            return found

        monkeypatch.setattr(axes, "_joins", recording)
        extract_mar(t)
        assert seen[0][1] or dj == 4  # no two axes of that state lie within the window
        layout = axes._layout(dj)
        for directions, groups, ranks, roots in seen:
            for members, k, point, z in zip(groups, ranks, axes._sphere_points(roots), roots):
                rows = layout.axes(int(k))
                trial = directions[rows].copy()
                trial[np.array(members) - rows.start] = point
                self.assert_below(_floor(t, int(k), z), t.rank(int(k)), trial)
        for k in range(1, dj + 1):
            block = t.rank(k)
            entries = slice(k * k, (k + 1) ** 2)
            zonal = axes._zonal_axes(block, layout.q[entries], layout.ladder[entries], np.zeros(1, dtype=int))[0]
            x, y, w = zonal if zonal[2] >= 0.0 else -zonal
            self.assert_below(_floor(t, k, complex(x, y) / (1.0 + w)), block, np.tile(zonal, (k, 1)))

    def test_floor_beyond_the_unit_circle(self):
        t, k = self.generic_table(12), 6
        block = t.rank(k)
        rest = [a.unit_vector for a in extract_mar(t).rank(k).axes[1:]]
        south = _floor(t, k, complex(math.inf))
        assert south == pytest.approx(abs(block[0]), rel=1e-15)
        self.assert_below(south, block, np.array([[0.0, 0.0, -1.0]] + rest))
        u = np.array([0.6, -0.3, -0.5]) / np.linalg.norm([0.6, -0.3, -0.5])
        z = complex(u[0], u[1]) / (1.0 + u[2])
        assert abs(z) > 1.0
        self.assert_below(_floor(t, k, z), block, np.array([u] + rest))
        # the floor at Z by the formula written out on rank k's polynomial alone
        coeffs = mar_polynomial(t, k)
        for root in (complex(math.inf), z, 0.3 - 0.2j):
            assert _floor(t, k, root) == pytest.approx(_reference_floor(coeffs, root)[0], rel=1e-13)

    def test_rejected_collapses_are_not_built(self, monkeypatch):
        # a generic state has no repeated axis, so only the final fit builds
        # stretched tensors: one row for each rank 0 .. 24
        rows = []
        rebuilt = axes._rebuilt
        monkeypatch.setattr(axes, "_rebuilt", lambda flat, directions, ks, layout: rows.append(len(ks)) or rebuilt(flat, directions, ks, layout))
        extract_mar(self.generic_table(24))
        assert sum(rows) <= 24 + 1


def _floor(t, k, z):
    """``axes._residual_floors`` of rank k of the table t at one root z."""
    layout = axes._layout(t.max_rank)
    coeffs = layout.binomials * t._flat
    return float(axes._residual_floors(coeffs, np.array([z], dtype=complex), np.array([k]), layout)[0])


def _stretched(units):
    """s^k_q of k unit vectors (rows), q ascending, built for this rank alone: the oracle of every trial fit."""
    k = len(units)
    return axes._stretched_rows(units[None], [k])[0] / axes._root_binomials(2 * k)


def _reference_floor(coeffs, z):
    """The residual floor of one rank's polynomial (highest degree first) at each z, summed as written."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    outer = np.abs(z) > 1.0
    powers = np.vander(np.where(outer, 1.0 / np.where(outer, z, 1.0), z), len(coeffs), increasing=True)
    value = np.abs(np.where(outer, powers @ coeffs, powers @ coeffs[::-1]))
    return value / (np.abs(powers) @ np.sqrt([float(math.comb(len(coeffs) - 1, i)) for i in range(len(coeffs))]))


def _reference_cluster_roots(z, points, pairs, groups):
    """Mean root of each group of pairs (boolean rows), on the side of the group's first upper-hemisphere root."""
    ends = np.repeat(groups, 2, axis=1)
    upper = ends & (points[pairs.ravel(), 2] >= 0.0)
    ref = points[pairs.ravel()[np.where(upper.any(axis=1), np.argmax(upper, axis=1), np.argmax(ends, axis=1))]]
    near = np.where(points[pairs[:, 0]] @ ref.T >= points[pairs[:, 1]] @ ref.T, pairs[:, :1], pairs[:, 1:]).T
    return np.array([np.mean(z[near[g][members]]) for g, members in enumerate(groups)])


def _reference_collapse(block, coeffs, bound, z, points, pairs, units, axis_pairs, angle):
    """The per-rank join loop that ``axes._joins`` and ``axes._root_pass`` must reproduce, on one rank.

    ``pairs`` index its roots in z and points, ``units`` are its axes
    (changed in place: each kept join), ``angle`` is the angle of each pair
    of axes in ``axis_pairs``.  Axes closer than 0.5 rad join, nearest
    first; each join tries its group at the mean of its roots when the floor
    there is within the bound.  Returns the joins (boolean rows) and their
    mean roots.
    """
    close = np.flatnonzero(angle < 0.5)
    group = np.arange(len(units))
    joins = []
    for a, b in axis_pairs[close[np.argsort(angle[close], kind="stable")]].tolist():
        ga, gb = group[a], group[b]
        if ga != gb:
            group[group == gb] = ga
            joins.append(group == ga)
    joins = np.array(joins, dtype=bool).reshape(-1, len(units))
    roots = _reference_cluster_roots(z, points, pairs, joins)
    kept = _reference_floor(coeffs, roots) <= bound
    for members, point in zip(joins[kept], axes._sphere_points(roots[kept])):
        trial = units.copy()
        trial[members] = point
        if fit_radius(block, _stretched(trial))[1] <= bound:
            units[members] = point
    return joins, roots


class TestTableJoins:
    """The join stage of ``_root_pass`` runs over the whole table at once; the
    per-rank loop of ``_reference_collapse`` must give the same joins, mean
    roots within an ulp, and the same accepted collapses."""

    @staticmethod
    def compare(t, monkeypatch):
        """Check extract_mar(t)'s join stage against the reference; return (joins formed, axes moved by kept joins)."""
        joins, root_pass, seen = axes._joins, axes._root_pass, {}

        def recording_joins(z, points, pairs, directions, chosen, layout):
            seen.update(args=(z, points, pairs, directions.copy(), chosen, layout))
            seen["found"] = joins(z, points, pairs, directions, chosen, layout)
            return seen["found"]

        def recording_pass(flat, coeffs, bound, ks, directions, layout):
            root_pass(flat, coeffs, bound, ks, directions, layout)
            seen.update(bound=bound, final=directions.copy())

        monkeypatch.setattr(axes, "_joins", recording_joins)
        monkeypatch.setattr(axes, "_root_pass", recording_pass)
        try:
            extract_mar(t)
        except ConsistencyError:
            pass
        if "args" not in seen:
            return 0, 0
        z, points, pairs, directions, chosen, layout = seen["args"]
        groups, ranks, means = seen["found"]
        a, b = layout.pairs.T
        angle = np.arccos(np.minimum(np.abs(np.einsum("ij,ij->i", directions[a], directions[b])), 1.0))
        got, accepted = 0, 0
        for k in np.flatnonzero(chosen).tolist():
            rows, mine = layout.axes(k), layout.axis_rank[a] == k
            units = directions[rows].copy()
            want, roots = _reference_collapse(
                t.rank(k), mar_polynomial(t, k), seen["bound"][k], z, points, pairs[rows], units, layout.pairs[mine] - rows.start, angle[mine]
            )
            ours = [g for g, r in enumerate(ranks) if r == k]
            assert [groups[g] for g in ours] == [(np.flatnonzero(w) + rows.start).tolist() for w in want]
            assert (np.abs(means[ours] - roots) <= np.spacing(np.abs(roots))).all()
            assert np.abs(seen["final"][rows] - units).max() <= 1e-15
            got += len(ours)
            accepted += int((np.abs(units - directions[rows]).max(axis=1) > 0.0).sum())
        return got, accepted

    @pytest.mark.parametrize("dj", [4, 12, 24, 40])
    def test_generic_tables(self, dj, monkeypatch):
        t = rho_to_t(SpinDensityMatrix(h(dj), random_density(np.random.default_rng(dj), dj + 1)))
        joins, accepted = self.compare(t, monkeypatch)
        assert accepted == 0 and (joins > 0 or dj == 4)

    # the cube at N = 23 and the octahedron at N = 40 keep a join and then try another of the same rank with other
    # members: a wave that read the axes from before the previous wave's kept joins would keep other joins there
    @pytest.mark.parametrize(
        "name, n", [("octahedron", 12), ("icosahedron", 24), ("dodecahedron", 40), ("cube", 8), ("icosahedron", 60), ("cube", 23), ("octahedron", 40)]
    )
    def test_platonic_states_accept_joins(self, name, n, monkeypatch):
        assert self.compare(_platonic_table(name, n), monkeypatch)[1] > 0

    # (60, 25) tries hundreds of joins, many of them per rank: dozens of waves
    @pytest.mark.parametrize("n, i", [(8, 1), (8, 3), (24, 5), (40, 7), (60, 25)])
    def test_two_m_states_accept_joins(self, n, i, monkeypatch):
        assert self.compare(_two_m_table(n, i), monkeypatch)[1] > 0

    @pytest.mark.parametrize("table", ["generic", "icosahedron"])
    def test_a_rank_fits_the_same_in_any_list_of_ranks(self, table):
        # the waves fit a few ranks at a time, the final pass all of them: each rank's bits must not depend on the others
        if table == "generic":
            t = rho_to_t(SpinDensityMatrix(h(24), random_density(np.random.default_rng(24), 25)))
        else:
            t = _platonic_table("icosahedron", 24)
        layout = axes._layout(t.max_rank)
        rng = np.random.default_rng(7)
        directions = rng.normal(size=(len(layout.axis_rank), 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        for entry in extract_mar(t).ranks:
            if entry.axes:
                directions[layout.axes(entry.rank)] = [a.unit_vector for a in entry.axes]
        whole = axes._rebuilt(t._flat, directions, layout.ranks, layout)
        for ks in (layout.ranks[1:], layout.ranks[::3], layout.ranks[-1:], np.sort(rng.choice(layout.ranks, 7, replace=False))):
            for got, want in zip(axes._rebuilt(t._flat, directions, ks, layout), whole):
                assert got.tobytes() == want[ks].tobytes()


class TestEquivariance:
    def test_radii_and_lines_rotate_with_the_state(self):
        rng = np.random.default_rng(39)
        for dj in (2, 3, 4):
            rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
            t = rho_to_t(rho)
            m0 = extract_mar(t)
            phi, theta, psi = rng.uniform(0.0, 2.0 * math.pi, size=3)
            m1 = extract_mar(rotate_t(t, phi, theta, psi))
            rot = _rotation_matrix(phi, theta, psi)
            for k in range(1, dj + 1):
                a, b = m0.rank(k), m1.rank(k)
                assert b.radius == pytest.approx(a.radius, abs=1e-7)
                _assert_same_lines([rot @ ax.unit_vector for ax in a.axes], [bx.unit_vector for bx in b.axes])


def _assert_same_lines(expected, got, tol=1e-5):
    # lines have no orientation: match greedily on |u.v|
    remaining = list(got)
    for u in expected:
        dots = [abs(float(u @ v)) for v in remaining]
        best = int(np.argmax(dots))
        assert dots[best] == pytest.approx(1.0, abs=tol)
        remaining.pop(best)
    assert not remaining


def _rotation_matrix(phi, theta, psi):
    def rz(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    def ry(a):
        c, s = math.cos(a), math.sin(a)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])

    return rz(phi) @ ry(theta) @ rz(psi)


def _greedy_pairs(points):
    """The pairing loop that ``_antipodal_pairs`` must reproduce: each point in
    turn takes the free point nearest its antipode."""
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


def _nearest_antipode_is_involution(points):
    gram = points @ points.T
    np.fill_diagonal(gram, np.inf)
    nearest = gram.argmin(axis=1)
    return bool((nearest[nearest] == np.arange(len(points))).all())


def _antipodal_roots(rng, k):
    z = (rng.normal(size=k) + 1j * rng.normal(size=k)) * np.exp(rng.normal(size=k))
    return rng.permutation(np.concatenate([z, -1.0 / z.conj()]))


class TestPairingFastPath:
    """When each point's nearest antipode is an involution, ``_antipodal_pairs``
    takes its pairs at once; otherwise it runs the greedy loop.  Both must give
    exactly the greedy loop's pairs and gaps."""

    @staticmethod
    def assert_greedy(points):
        pairs = axes._antipodal_pairs(points[None], np.array([len(points)]))
        want_pairs, want_gaps = _greedy_pairs(points)
        np.testing.assert_array_equal(pairs, want_pairs)
        np.testing.assert_array_equal(axes._pair_vectors(points, pairs)[1], want_gaps)

    @pytest.mark.parametrize("n", [2, 8, 48, 120])
    def test_random_antipodal_sets(self, n):
        rng = np.random.default_rng(8100 + n)
        for _ in range(20):
            points = axes._sphere_points(_antipodal_roots(rng, n // 2))
            assert _nearest_antipode_is_involution(points)
            self.assert_greedy(points)

    @pytest.mark.parametrize("fold", [2, 3, 5])
    def test_k_fold_duplicates(self, fold):
        rng = np.random.default_rng(8200 + fold)
        for _ in range(10):
            z = _antipodal_roots(rng, 3)
            points = axes._sphere_points(rng.permutation(np.concatenate([z, np.repeat(z[:2], fold - 1)])))
            # every copy of a root has the same nearest antipode, the first copy of its partner
            assert not _nearest_antipode_is_involution(points)
            self.assert_greedy(points)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_roots_at_infinity(self, count):
        rng = np.random.default_rng(8300 + count)
        for _ in range(10):
            z = np.concatenate([_antipodal_roots(rng, 3), np.zeros(count), np.full(count, complex(math.inf))])
            points = axes._sphere_points(rng.permutation(z))
            assert _nearest_antipode_is_involution(points) == (count == 1)
            self.assert_greedy(points)

    def test_perturbed_sets_fall_back_to_the_loop(self):
        rng = np.random.default_rng(8400)
        fallbacks = 0
        for _ in range(200):
            points = axes._sphere_points(_antipodal_roots(rng, 6))
            points = points + rng.normal(scale=0.3, size=points.shape)
            points /= np.linalg.norm(points, axis=1)[:, None]
            fallbacks += not _nearest_antipode_is_involution(points)
            self.assert_greedy(points)
        assert fallbacks >= 50

    def test_stacked_rows_pair_like_each_row_alone(self):
        # rows of different sizes in one zero-padded stack, two of them not involutions
        rng = np.random.default_rng(8500)
        sets, greedy = [], 0
        while len(sets) < 6:
            points = axes._sphere_points(_antipodal_roots(rng, int(rng.integers(1, 7))))
            if greedy < 2:
                points = points + rng.normal(scale=0.3, size=points.shape)
                points /= np.linalg.norm(points, axis=1)[:, None]
                if _nearest_antipode_is_involution(points):
                    continue
                greedy += 1
            sets.append(points)
        sets = [sets[2], sets[0], sets[3], sets[4], sets[1], sets[5]]  # the greedy rows between others
        width = max(len(p) for p in sets)
        stack = np.zeros((len(sets), width, 3))
        for r, p in enumerate(sets):
            stack[r, : len(p)] = p
        pairs = axes._antipodal_pairs(stack, np.array([len(p) for p in sets]))
        np.testing.assert_array_equal(pairs, np.concatenate([_greedy_pairs(p)[0] + r * width for r, p in enumerate(sets)]))


def _awkward_directions():
    rng = np.random.default_rng(8500)
    u = rng.normal(size=(400, 3))
    u[:, 2] = rng.uniform(-1e-9, 1e-9, 400) * rng.choice([1.0, 0.5, 2.0], 400)  # within about 1e-9 of the equator
    v = rng.normal(size=(100, 3))
    v[:, 0] = np.abs(v[:, 0])
    v[:, 1] = -rng.uniform(0.0, 1e-15, 100)  # y in (-1e-15, 0)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-300, 0.0, 1.0], [0.0, -1e-17, -1.0], [-0.0, 0.0, 3.0]])
    w = rng.normal(size=(100, 3))
    w[:, 2] = -np.abs(w[:, 2]) - 1e-9  # z < -1e-9
    big = rng.normal(size=(100, 3)) * 10.0 ** rng.choice([300.0, -300.0, 0.0], size=(100, 3))
    return np.concatenate([u, v, poles, w, big])


class TestCanonicalizationIsOneRoutine:
    def test_from_direction_is_a_row_of_the_table_routine(self):
        u = _awkward_directions()
        theta, phi = axes._canonical(u)
        for row, a, b in zip(u, theta.tolist(), phi.tolist()):
            axis = Axis.from_direction(row)
            assert (axis.theta, axis.phi) == (a, b)

    def test_unit_vector_is_a_row_of_the_table_routine(self):
        theta, phi = axes._canonical(_awkward_directions())
        table = axes._unit_vectors(theta, phi)
        for a, b, row in zip(theta.tolist(), phi.tolist(), table):
            np.testing.assert_array_equal(Axis(a, b).unit_vector, row)


class TestTablePassesMatchThePublicSteps:
    """extract_mar runs the public per-rank steps as passes over the whole
    table; on ranks without a collapsed cluster they must agree."""

    @pytest.mark.parametrize("dj", [2, 8, 24, 40])
    def test_generic_ranks_match_their_composition(self, dj):
        rng = np.random.default_rng(8600 + dj)
        checked = 0
        for _ in range(3 if dj < 40 else 1):
            t = rho_to_t(SpinDensityMatrix(h(dj), random_density(rng, dj + 1)))
            for entry in extract_mar(t).ranks:
                k = entry.rank
                v = np.array([a.unit_vector for a in entry.axes])
                if not entry.axes or (k > 1 and (np.abs(v @ v.T)[np.triu_indices(k, 1)] > math.cos(1e-6)).any()):
                    continue
                want = roots_to_axes(*polynomial_roots(mar_polynomial(t, k)), k)
                for a, b in zip(entry.axes, want):
                    u, w = a.unit_vector, b.unit_vector
                    assert math.atan2(np.linalg.norm(np.cross(u, w)), abs(float(u @ w))) <= 1e-12
                r, residual = fit_radius(t.rank(k), axes_to_tensor(entry.axes, k))
                assert entry.sign * entry.radius == pytest.approx(r, rel=1e-12)
                assert entry.residual == pytest.approx(residual, rel=1e-12)
                checked += 1
        assert checked >= dj


class TestCollinearityInOnePass:
    @staticmethod
    def per_axis(m, tol):
        v = np.array([a.unit_vector for e in m.ranks if e.radius > tol for a in e.axes]).reshape(-1, 3)
        return bool((np.abs(v @ v.T) >= 1.0 - tol).all())

    def test_verdicts_match_the_per_axis_check(self):
        from spinaxes import BlochVector, product_state_in_jm

        rng = np.random.default_rng(8700)
        tables = [rho_to_t(SpinDensityMatrix(h(dj), random_density(rng, dj + 1))) for dj in (1, 2, 5, 12)]
        tables += [rho_to_t(product_state_in_jm(BlochVector(theta, 0.4), n)) for theta, n in ((0.0, 3), (0.7, 8), (math.pi / 2, 16))]
        tables.append(paper_tensor())
        verdicts = set()
        for m in map(extract_mar, tables):
            for tol in (0.0, 1e-15, 1e-12, 1e-8, 1e-4, 0.5):
                verdict = collinearity_check(m, tol)
                assert verdict == self.per_axis(m, tol)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "offsets, collinear",
        [
            ([0.45], True),  # every axis within half the angle of the first's line
            ([0.6, 0.9], True),  # beyond half, so the pairs decide
            ([0.8, -0.8], False),  # each within the angle of the first, not of each other
            ([1.1], False),
        ],
    )
    def test_pairs_decide_beyond_half_the_angle_of_the_first_line(self, offsets, collinear):
        # 100 axes in one plane at 0.1 + offset * arccos(1 - tol): four blocks of rows
        tol = 1e-4
        angle = math.acos(1.0 - tol)
        theta = 0.1 + angle * np.array([0.0] + [offsets[i % len(offsets)] for i in range(99)])
        m = axes.MarDecomposition(h(1), (axes.RankDecomposition(1, 1.0, 1, tuple(Axis(a, 0.0) for a in theta.tolist()), 0.0),))
        assert collinearity_check(m, tol) == self.per_axis(m, tol) == collinear

    def test_collinear_product_state_in_linear_memory(self):
        from spinaxes import BlochVector, product_state_in_jm

        m = extract_mar(rho_to_t(product_state_in_jm(BlochVector(0.7, 0.3), 60)))
        tracemalloc.start()
        try:
            assert collinearity_check(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6  # an all-pairs table of its 1431 axes takes 16 MB


def _ensemble_table(n, directions, weights=None):
    """rho_to_t of the n-qubit ensemble of BlochVectors, uniform unless weights are given."""
    from spinaxes import SeparableEnsemble, ensemble_to_rho

    weights = [1.0 / len(directions)] * len(directions) if weights is None else weights
    return rho_to_t(ensemble_to_rho(SeparableEnsemble(n, tuple(zip(weights, directions)))))


def _seeded_ensemble_table(n, count, seed):
    """Weights from a Dirichlet draw, then per term theta = acos(uniform(-1, 1)) and phi = uniform(0, 2 pi)."""
    from spinaxes import BlochVector

    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(count)).tolist()
    directions = [BlochVector(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)) for _ in weights]
    return _ensemble_table(n, directions, weights)


def _cycled(points):
    return [p[i:] + p[:i] for p in points for i in range(3)]


_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_CUBE = [(a, b, c) for a in (1.0, -1.0) for b in (1.0, -1.0) for c in (1.0, -1.0)]
# vertices in textbook orientation
PLATONIC = {
    "tetrahedron": [(1.0, 1.0, 1.0), (1.0, -1.0, -1.0), (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)],
    "cube": _CUBE,
    "octahedron": _cycled([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]),
    "icosahedron": _cycled([(0.0, a, b * _GOLDEN) for a in (1.0, -1.0) for b in (1.0, -1.0)]),
    "dodecahedron": _CUBE + _cycled([(0.0, a / _GOLDEN, b * _GOLDEN) for a in (1.0, -1.0) for b in (1.0, -1.0)]),
}


def _platonic_table(name, n):
    from spinaxes import BlochVector

    v = np.array(PLATONIC[name])
    theta = np.arccos(v[:, 2] / np.linalg.norm(v, axis=1))
    phi = np.arctan2(v[:, 1], v[:, 0]) % (2.0 * math.pi)
    return _ensemble_table(n, [BlochVector(a, b) for a, b in zip(theta.tolist(), phi.tolist())])


def _two_m_table(n, i):
    """rho_to_t of the pure state (|j, m> + |j, -m>) / norm, m = j - i, basis m = j .. -j."""
    psi = np.zeros(n + 1)
    psi[[i, n - i]] = 1.0
    psi /= np.linalg.norm(psi)
    return rho_to_t(SpinDensityMatrix(h(n), np.outer(psi, psi).astype(complex)))


def _decomposes_within_bound(t):
    """Whether extract_mar decomposes t; it either raises naming the rank, residual and bound, or every
    nonzero rank rebuilds within max(1e-10 |block|, 1e-14 |t|)."""
    try:
        m = extract_mar(t)
    except ConsistencyError as exc:
        assert re.fullmatch(r"rank \d+ axes rebuild the block with residual \S+, over its bound \S+", str(exc))
        return False
    floor = 1e-14 * np.linalg.norm(np.concatenate(t.ranks))
    for entry in m.ranks:
        if entry.axes:
            assert entry.residual <= max(1e-10 * np.linalg.norm(t.rank(entry.rank)), floor), entry.rank
    return True


class TestOneAcceptanceRule:
    """Every rank's axes are accepted by one rule, the residual against its
    bound: no decomposition returns a rank over its bound, and a rank no
    candidate rebuilds raises with its residual, not a pairing gap."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 24, 40, 56, 60])
    @pytest.mark.parametrize("name", list(PLATONIC))
    def test_platonic_ensembles(self, name, n):
        # the tetrahedral rank-3 block is proportional to xyz, whose rounded
        # extreme coefficients move the roots +-1, +-i by up to 2e-7: at N = 4
        # its greedy axes rebuild it only to 3.7e-7 of its norm, so it raises
        decomposed = _decomposes_within_bound(_platonic_table(name, n))
        assert decomposed or name in ("tetrahedron", "cube")

    @pytest.mark.parametrize("n", list(range(2, 13)) + [24, 40, 60])
    def test_ghz_states(self, n):
        assert _decomposes_within_bound(_two_m_table(n, 0))

    @pytest.mark.parametrize("n", [8, 24])
    def test_two_m_states(self, n):
        for i in range(1, n // 2 + 1):
            assert _decomposes_within_bound(_two_m_table(n, i)), i

    @pytest.mark.parametrize("n, seed", [(20, 12), (20, 24), (24, 8), (24, 12), (24, 24)])
    def test_near_parallel_pairs_decompose(self, n, seed):
        # two-term ensembles whose directions are close: their top ranks have
        # clustered simple roots that miss being antipodal by up to 2e-4,
        # yet the greedy pairs rebuild every block within its bound
        assert _decomposes_within_bound(_seeded_ensemble_table(n, 2, seed))

    def test_near_parallel_pair_is_within_bound_or_named(self):
        _decomposes_within_bound(_seeded_ensemble_table(16, 2, 27))

    @pytest.mark.parametrize("name, n", [("octahedron", 41), ("tetrahedron", 54)])
    def test_platonic_state_is_within_bound_or_named(self, name, n):
        # both raise today, naming the rank: the octahedron's rank 10 at 1.31x its
        # bound, the tetrahedron's rank 3 at 2.2e4x
        _decomposes_within_bound(_platonic_table(name, n))


class TestKnownAnswerTables:
    """Tables built from chosen axes and radii come back as those axes and radii."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dj", [6, 12, 24, 40, 60])
    def test_chosen_axes_and_radii_come_back(self, dj, seed):
        # rank k: k Gaussian directions, and a radius of random sign that puts the block's largest entry in [0.05, 1]
        rng = np.random.default_rng(7700 + 10 * dj + seed)
        blocks, known = [np.ones(1, dtype=complex)], {}
        for k in range(1, dj + 1):
            chosen = [Axis.from_direction(u) for u in rng.normal(size=(k, 3))]
            s = axes_to_tensor(chosen, k)
            r = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0) / np.abs(s).max()
            blocks.append(r * s)
            known[k] = (np.array([a.unit_vector for a in chosen]), r)
        m = extract_mar(TensorParams(h(dj), tuple(blocks)))
        assert [entry.rank for entry in m.ranks] == list(range(1, dj + 1))
        for entry in m.ranks:
            want, r = known[entry.rank]
            assert abs(entry.sign * entry.radius - r) <= 1e-10 * abs(r), entry.rank
            # every returned axis takes the nearest free known axis, within 1e-8 rad as unoriented lines
            v = np.array([axis.unit_vector for axis in entry.axes])
            angles = np.arctan2(np.linalg.norm(np.cross(v[:, None], want[None]), axis=2), np.abs(v @ want.T))
            free = np.ones(len(want), dtype=bool)
            for row in angles:
                best = int(np.argmin(np.where(free, row, np.inf)))
                assert row[best] <= 1e-8, (entry.rank, row[best])
                free[best] = False
            assert not free.any()
