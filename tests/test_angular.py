import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import sph_harm_y

from spinaxes.angular import (
    ExactCoefficient,
    _d_ladder,
    _ladder_weights,
    _root_binomials,
    cg,
    cg_value,
    spherical_harmonic,
    wigner_D,
    wigner_D_matrix,
    wigner_d,
    wigner_d_matrix,
)
from spinaxes.errors import DomainError
from spinaxes.halfint import HalfInt, m_range

from oracles import cg_table_by_coupling, small_d_by_expm

h = HalfInt


class TestExactCoefficient:
    def test_float_squares_back(self):
        c = ExactCoefficient(-1, Fraction(3, 8))
        assert float(c) == -math.sqrt(3 / 8)
        assert abs(float(c) ** 2 - 3 / 8) < 1e-14 * (3 / 8)

    def test_product(self):
        a = ExactCoefficient(1, Fraction(1, 2))
        b = ExactCoefficient(-1, Fraction(2, 3))
        assert a * b == ExactCoefficient(-1, Fraction(1, 3))

    def test_zero_consistency(self):
        with pytest.raises(ValueError):
            ExactCoefficient(0, Fraction(1, 2))
        with pytest.raises(ValueError):
            ExactCoefficient(1, Fraction(0))


class TestClebschGordan:
    def test_singlet_value(self):
        # Frozen from the coupling oracle below: the m = 0 singlet of two
        # spin-1/2 is (|ud> - |du>)/sqrt(2).
        c = cg(h(1), h(1), h(0), h(1), h(-1), h(0))
        assert c.magnitude_squared == Fraction(1, 2)
        assert c.sign == 1
        assert float(cg(h(1), h(1), h(0), h(-1), h(1), h(0))) == pytest.approx(-1 / math.sqrt(2), abs=1e-15)

    def test_stretched_is_one(self):
        for dj1, dj2 in [(1, 1), (2, 1), (3, 3), (4, 6)]:
            c = cg(h(dj1), h(dj2), h(dj1 + dj2), h(dj1), h(dj2), h(dj1 + dj2))
            assert c.sign == 1 and c.magnitude_squared == 1

    def test_against_coupling_oracle(self):
        for dj1, dj2 in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)]:
            table = cg_table_by_coupling(dj1, dj2)
            for (dj, dm, dm1, dm2), expected in table.items():
                got = cg_value(h(dj1), h(dj2), h(dj), h(dm1), h(dm2), h(dm))
                assert got == pytest.approx(expected, abs=1e-12), (dj1, dj2, dj, dm, dm1, dm2)

    def test_swap_symmetry_exact(self):
        # <j1 m1 j2 m2|j m> = (-1)^{j1+j2-j} <j2 m2 j1 m1|j m>, exactly.
        for dj1, dj2 in [(2, 2), (3, 1), (4, 2)]:
            for dj in range(abs(dj1 - dj2), dj1 + dj2 + 1, 2):
                phase = (-1) ** ((dj1 + dj2 - dj) // 2)
                for dm1 in range(-dj1, dj1 + 1, 2):
                    for dm2 in range(-dj2, dj2 + 1, 2):
                        if abs(dm1 + dm2) > dj:
                            continue
                        a = cg(h(dj1), h(dj2), h(dj), h(dm1), h(dm2), h(dm1 + dm2))
                        b = cg(h(dj2), h(dj1), h(dj), h(dm2), h(dm1), h(dm1 + dm2))
                        assert a.magnitude_squared == b.magnitude_squared
                        assert a.sign == phase * b.sign

    def test_coupling_to_zero(self):
        # <j m, j -m|0 0> = (-1)^{j-m} / sqrt(2j+1), exactly.
        for dj in [1, 2, 3, 4, 7]:
            for dm in range(-dj, dj + 1, 2):
                c = cg(h(dj), h(dj), h(0), h(dm), h(-dm), h(0))
                assert c.magnitude_squared == Fraction(1, dj + 1)
                assert c.sign == (-1) ** ((dj - dm) // 2)

    def test_selection_rules_return_zero(self):
        assert cg(h(2), h(2), h(4), h(2), h(2), h(2)).is_zero  # m1+m2 != m
        assert cg(h(1), h(1), h(4), h(1), h(1), h(2)).is_zero  # triangle, too large
        assert cg(h(2), h(4), h(0), h(0), h(0), h(0)).is_zero  # triangle, too small

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cg(h(1), h(1), h(2), h(3), h(-1), h(2))  # |m1| > j1
        with pytest.raises(DomainError):
            cg(h(2), h(1), h(1), h(1), h(1), h(2))  # m parity mismatch with j
        with pytest.raises(DomainError):
            cg(h(-2), h(1), h(1), h(0), h(1), h(1))
        with pytest.raises(DomainError):
            cg(h(200), h(0), h(200), h(0), h(0), h(0))


def _squarefree_kernel(n: int) -> int:
    import sympy

    k = 1
    for p, e in sympy.factorint(n).items():
        if e % 2:
            k *= p
    return k


def _exact_sqrt_sum(coeffs):
    """Collect sum of ExactCoefficients as {squarefree kernel: Fraction}."""
    groups = {}
    for c in coeffs:
        if c.is_zero:
            continue
        r = c.magnitude_squared
        # sqrt(p/q) = sqrt(p*q)/q with p*q = kern * s^2, kern squarefree.
        pq = r.numerator * r.denominator
        kern = _squarefree_kernel(pq)
        s = math.isqrt(pq // kern)
        assert s * s * kern == pq
        groups[kern] = groups.get(kern, Fraction(0)) + c.sign * Fraction(s, r.denominator)
    return {k: v for k, v in groups.items() if v != 0}


class TestExactOrthogonality:
    def test_column_orthonormality(self):
        # sum_{m1 m2} <j1 m1 j2 m2|j m><j1 m1 j2 m2|j' m> = delta_{jj'}, exact.
        # (Columns with different total m are orthogonal term by term.)
        for dj1, dj2 in [(1, 1), (2, 2), (3, 2), (4, 4)]:
            js = range(abs(dj1 - dj2), dj1 + dj2 + 1, 2)
            for dj in js:
                for djp in js:
                    for dm in range(-min(dj, djp), min(dj, djp) + 1, 2):
                        prods = []
                        for dm1 in range(-dj1, dj1 + 1, 2):
                            dm2 = dm - dm1
                            if abs(dm2) > dj2:
                                continue
                            a = cg(h(dj1), h(dj2), h(dj), h(dm1), h(dm2), h(dm))
                            b = cg(h(dj1), h(dj2), h(djp), h(dm1), h(dm2), h(dm))
                            prods.append(a * b)
                        total = _exact_sqrt_sum(prods)
                        if dj == djp:
                            assert total == {1: Fraction(1)}
                        else:
                            assert total == {}

    def test_row_completeness(self):
        # sum_{j m} <j1 m1 j2 m2|j m><j1 m1' j2 m2'|j m> = delta delta, exact.
        dj1, dj2 = 3, 2
        for dm1 in range(-dj1, dj1 + 1, 2):
            for dm2 in range(-dj2, dj2 + 1, 2):
                for dm1p in range(-dj1, dj1 + 1, 2):
                    dm2p = dm1 + dm2 - dm1p
                    if abs(dm2p) > dj2:
                        continue
                    prods = []
                    for dj in range(abs(dj1 - dj2), dj1 + dj2 + 1, 2):
                        if abs(dm1 + dm2) > dj:
                            continue
                        a = cg(h(dj1), h(dj2), h(dj), h(dm1), h(dm2), h(dm1 + dm2))
                        b = cg(h(dj1), h(dj2), h(dj), h(dm1p), h(dm2p), h(dm1 + dm2))
                        prods.append(a * b)
                    total = _exact_sqrt_sum(prods)
                    if dm1 == dm1p:
                        assert total == {1: Fraction(1)}
                    else:
                        assert total == {}


class TestWignerD:
    def test_half_spin_elements(self):
        for beta in np.linspace(-2.0, 5.0, 7):
            assert wigner_d(h(1), h(1), h(1), beta) == pytest.approx(math.cos(beta / 2), abs=1e-15)
            assert wigner_d(h(1), h(-1), h(1), beta) == pytest.approx(math.sin(beta / 2), abs=1e-15)
            assert wigner_d(h(1), h(1), h(-1), beta) == pytest.approx(-math.sin(beta / 2), abs=1e-15)
            assert wigner_d(1, 0, 0, beta) == pytest.approx(math.cos(beta), abs=1e-14)

    def test_against_expm_oracle(self):
        rng = np.random.default_rng(7)
        for dj in [1, 2, 3, 5, 8, 13]:
            for beta in rng.uniform(-math.pi, math.pi, 4):
                got = wigner_d_matrix(h(dj), beta)
                ref = small_d_by_expm(dj, beta)
                assert np.abs(got - ref).max() < 1e-12

    @pytest.mark.parametrize("dj", [40, 60, 80, 120])
    def test_high_rank_against_expm_oracle(self, dj):
        for beta in (0.4, math.pi / 2, -2.3, 3.1):
            assert np.abs(wigner_d_matrix(h(dj), beta) - small_d_by_expm(dj, beta)).max() < 1e-12

    def test_beta_zero_is_identity(self):
        for dj in [0, 1, 4, 9]:
            assert np.abs(wigner_d_matrix(h(dj), 0.0) - np.eye(dj + 1)).max() == 0.0

    def test_one_ladder_pass_at_beta_zero_is_exactly_identity(self):
        # the cached weights are exact integers wherever d(0) needs them
        for dj, d in enumerate(_d_ladder(120, 0.0)):
            assert np.abs(d - np.eye(dj + 1)).max() == 0.0
        assert dj == 120

    def test_ladder_weights_are_read_only(self):
        r = _ladder_weights()
        assert r.shape == (120, 120) and not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_is_rejected(self, bad):
        with pytest.raises(DomainError, match="^angle beta has a non-finite value$"):
            wigner_d_matrix(h(2), bad)

    @pytest.mark.parametrize("name", ["phi", "theta", "psi"])
    def test_non_finite_euler_angle_is_rejected(self, name):
        angles = {"phi": 0.3, "theta": 1.2, "psi": -0.5, name: math.inf}
        with pytest.raises(DomainError, match=f"^angle {name} has a non-finite value$"):
            wigner_D_matrix(h(2), **angles)
        with pytest.raises(DomainError, match=f"^angle {name} has a non-finite value$"):
            wigner_D(h(2), 1, 0, **angles)

    def test_same_axis_composition(self):
        for dj in [1, 2, 5]:
            a, b = 0.83, -1.97
            left = wigner_d_matrix(h(dj), a) @ wigner_d_matrix(h(dj), b)
            assert np.abs(left - wigner_d_matrix(h(dj), a + b)).max() < 1e-13

    def test_big_d_unitary_and_factored(self):
        rng = np.random.default_rng(11)
        for dj in [1, 2, 4, 7]:
            phi, theta, psi = rng.uniform(-math.pi, math.pi, 3)
            D = wigner_D_matrix(h(dj), phi, theta, psi)
            dim = dj + 1
            assert np.abs(D @ D.conj().T - np.eye(dim)).max() < 1e-13
            Dz1 = wigner_D_matrix(h(dj), phi, 0, 0)
            Dy = wigner_D_matrix(h(dj), 0, theta, 0)
            Dz2 = wigner_D_matrix(h(dj), 0, 0, psi)
            assert np.abs(Dz1 @ Dy @ Dz2 - D).max() < 1e-13

    def test_element_accessor_matches_matrix(self):
        dj = 3
        D = wigner_D_matrix(h(dj), 0.3, 1.2, -0.5)
        for a, mp in enumerate(m_range(h(dj))):
            for b, m in enumerate(m_range(h(dj))):
                assert wigner_D(h(dj), mp, m, 0.3, 1.2, -0.5) == pytest.approx(D[a, b], abs=1e-15)

    def test_large_j_stays_finite(self):
        # Risbo's recursion couples one spin 1/2 per step with nonnegative
        # weights, so nothing cancels: at the top of the supported range
        # d d^T stays within ~2e-15 of the identity, well inside this bound.
        d = wigner_d_matrix(h(60), 1.234)
        assert np.isfinite(d).all()
        assert np.abs(d @ d.T - np.eye(61)).max() < 1e-8
        d10 = wigner_d_matrix(h(10), 1.234)
        assert np.abs(d10 @ d10.T - np.eye(11)).max() < 1e-13


class TestRootBinomials:
    def test_squares_are_the_binomials_within_one_ulp(self):
        for n in range(121):
            b = _root_binomials(n)
            c = np.array([float(math.comb(n, i)) for i in range(n + 1)])
            assert not b.flags.writeable and _root_binomials(n) is b
            assert (np.abs(b**2 - c) <= np.spacing(c)).all()


class TestSphericalHarmonic:
    @pytest.mark.parametrize("m", [1, -1])
    @pytest.mark.parametrize("theta, phi, name", [(math.nan, 0.0, "theta"), (0.3, math.inf, "phi")])
    def test_non_finite_angle_is_rejected(self, m, theta, phi, name):
        with pytest.raises(DomainError, match=f"^angle {name} has a non-finite value$"):
            spherical_harmonic(2, m, theta, phi)

    def test_low_order_closed_forms(self):
        th, ph = 1.1, -0.4
        assert spherical_harmonic(0, 0, th, ph) == pytest.approx(0.5 / math.sqrt(math.pi), abs=1e-15)
        y11 = -math.sqrt(3 / (8 * math.pi)) * math.sin(th) * np.exp(1j * ph)
        assert spherical_harmonic(1, 1, th, ph) == pytest.approx(y11, abs=1e-15)
        y20 = math.sqrt(5 / (16 * math.pi)) * (3 * math.cos(th) ** 2 - 1)
        assert spherical_harmonic(2, 0, th, ph) == pytest.approx(y20, abs=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        theta = rng.uniform(0, math.pi, 5)
        phi = rng.uniform(0, 2 * math.pi, 5)
        for l in range(9):
            for m in range(-l, l + 1):
                got = spherical_harmonic(l, m, theta, phi)
                ref = sph_harm_y(l, m, theta, phi)
                assert np.abs(got - ref).max() < 1e-12

    def test_against_scipy_to_degree_60(self):
        # every order of every supported degree, poles and near-poles included
        rng = np.random.default_rng(61)
        theta = np.concatenate([np.arccos(rng.uniform(-1, 1, 40)), [0.0, 1e-8, math.pi / 2, math.pi - 1e-8, math.pi]])
        phi = rng.uniform(0, 2 * math.pi, theta.size)
        for l in range(61):
            for m in range(-l, l + 1):
                assert np.abs(spherical_harmonic(l, m, theta, phi) - sph_harm_y(l, m, theta, phi)).max() < 1e-13

    def test_keeps_the_shape_of_broadcast_angles(self):
        theta, phi = np.linspace(0.2, 2.8, 6).reshape(2, 3), np.array([0.4, 1.0, 5.0])
        got = spherical_harmonic(5, -2, theta, phi)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, sph_harm_y(5, -2, theta, phi), rtol=0, atol=1e-14)
        assert isinstance(spherical_harmonic(3, 1, 0.5, 0.1), complex)

    def test_conjugation_exact(self):
        theta = np.linspace(0.1, 3.0, 4)
        phi = np.linspace(0, 6.0, 4)
        for l in range(5):
            for m in range(1, l + 1):
                a = spherical_harmonic(l, -m, theta, phi)
                b = (-1) ** m * np.conj(spherical_harmonic(l, m, theta, phi))
                assert (a == b).all()

    def test_orthonormality_under_quadrature(self):
        # Gauss-Legendre x uniform phi grid, sized for the band limit.
        lmax = 10
        x, w = np.polynomial.legendre.leggauss(lmax + 2)
        nphi = 2 * lmax + 3
        theta = np.arccos(x)
        phi = np.arange(nphi) * 2 * math.pi / nphi
        TH, PH = np.meshgrid(theta, phi, indexing="ij")
        W = np.repeat(w[:, None], nphi, axis=1) * (2 * math.pi / nphi)
        ys = {}
        for l in range(lmax + 1):
            for m in range(-l, l + 1):
                ys[(l, m)] = spherical_harmonic(l, m, TH, PH)
        for l in range(lmax + 1):
            for m in range(-l, l + 1):
                for lp in range(abs(m), lmax + 1):
                    # Other orders vanish exactly by the phi sum; spot-check below.
                    val = np.sum(W * ys[(l, m)] * np.conj(ys[(lp, m)]))
                    want = 1.0 if l == lp else 0.0
                    assert abs(val - want) < 1e-12
        val = np.sum(W * ys[(3, 1)] * np.conj(ys[(5, -2)]))
        assert abs(val) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            spherical_harmonic(2, 3, 0.1, 0.2)
        with pytest.raises(DomainError):
            spherical_harmonic(-1, 0, 0.1, 0.2)
        with pytest.raises(DomainError):
            spherical_harmonic(1, 0.5, 0.1, 0.2)
