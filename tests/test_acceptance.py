"""Acceptance checks, one test per shipped guarantee.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion.  Tolerances are part of the contract and are pinned in
each test rather than shared.
"""

import math
import time
import warnings

import numpy as np
import pytest

from spinaxes import (
    BlochVector,
    HalfInt,
    QuadratureGrid,
    SeparableEnsemble,
    SphericalExpansion,
    SpinDensityMatrix,
    axes_to_tensor,
    cg,
    cg_value,
    collinearity_check,
    ensemble_to_rho,
    extract_mar,
    fit_radius,
    mar_polynomial,
    polynomial_roots,
    product_state_in_jm,
    purity,
    qubit_density,
    rho_from_distribution,
    rho_to_t,
    rotate_t,
    symmetric_subspace_unitary,
    symmetrize_pair,
    t_from_distribution,
    tau_operator,
    ylm_squared_t,
)

from oracles import cg_table_by_coupling, random_density


def h(doubled):
    return HalfInt(doubled)


def random_direction(rng):
    return BlochVector(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def test_criterion_1_worked_example_two_qubit_xz_mixture():
    start = time.perf_counter()
    ens = SeparableEnsemble(
        2,
        (
            (0.25, BlochVector(math.pi / 2.0, 0.0)),
            (0.25, BlochVector(math.pi / 2.0, math.pi)),
            (0.25, BlochVector(0.0, 0.0)),
            (0.25, BlochVector(math.pi, 0.0)),
        ),
    )
    rho = ensemble_to_rho(ens)
    expected = np.array([[6, 0, 2], [0, 4, 0], [2, 0, 6]], dtype=complex) / 16.0
    assert np.max(np.abs(rho.matrix - expected)) < 1e-9

    t = rho_to_t(rho)
    assert abs(t.item(2, 0) - 1.0 / (4.0 * math.sqrt(2.0))) < 1e-9
    assert abs(t.item(2, 2) - math.sqrt(3.0) / 8.0) < 1e-9
    assert abs(t.item(2, -2) - math.sqrt(3.0) / 8.0) < 1e-9

    roots, at_inf = polynomial_roots(mar_polynomial(t, 2))
    assert at_inf == 0
    assert sorted(mult for _, mult in roots) == [2, 2]
    for z, _ in roots:
        assert min(abs(z - 1j), abs(z + 1j)) < 1e-9

    m = extract_mar(t)
    two = m.rank(2)
    assert len(two.axes) == 2
    for axis in two.axes:
        assert abs(axis.theta - math.pi / 2.0) < 1e-9
        assert abs(axis.phi - math.pi / 2.0) < 1e-9
    assert collinearity_check(m)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_canonical_form_along_z():
    for n in range(2, 9):
        rho = product_state_in_jm(BlochVector(0.0, 0.0), n)
        expected = np.zeros((n + 1, n + 1), dtype=complex)
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-12

        t = rho_to_t(rho)
        j = h(n)
        for k in range(0, n + 1):
            exact = cg(j, h(2 * k), j, j, h(0), j)
            value = exact.sign * math.sqrt(exact.magnitude_squared)
            assert value == cg_value(j, h(2 * k), j, j, h(0), j)
            # independent numeric route, good to its own float accuracy
            assert abs(value - cg_table_by_coupling(n, 2 * k)[(n, n, n, 0)]) < 1e-10
            assert abs(t.item(k, 0) - math.sqrt(2.0 * k + 1.0) * value) < 1e-12
            for q in range(1, k + 1):
                assert abs(t.item(k, q)) < 1e-12
                assert abs(t.item(k, -q)) < 1e-12


def test_criterion_3_tensor_operator_orthogonality():
    start = time.perf_counter()
    checked = 0
    for dj in range(1, 11):
        dim = dj + 1
        ops = []
        for k in range(0, dj + 1):
            for q in range(-k, k + 1):
                ops.append(tau_operator(h(dj), k, q).reshape(-1))
        stack = np.array(ops)
        gram = stack.conj() @ stack.T
        assert np.max(np.abs(gram - dim * np.eye(len(ops)))) < 1e-10
        checked += len(ops) ** 2
    assert checked > 2000
    assert time.perf_counter() - start < 30.0


def test_criterion_4_mixtures_of_distinct_directions_are_mixed():
    rng = np.random.default_rng(41)
    for _ in range(100):
        n_qubits = int(rng.integers(2, 7))
        n_terms = int(rng.integers(2, 5))
        dirs = [random_direction(rng) for _ in range(n_terms)]
        # keep the directions genuinely distinct so impurity is forced
        while True:
            dots = [dirs[a].dot(dirs[b]) for a in range(n_terms) for b in range(a + 1, n_terms)]
            if max(dots) < 0.999:
                break
            dirs = [random_direction(rng) for _ in range(n_terms)]
        weights = rng.uniform(0.1, 1.0, n_terms)
        weights = weights / weights.sum()
        ens = SeparableEnsemble(n_qubits, tuple(zip(weights, dirs)))
        assert purity(ensemble_to_rho(ens)) < 1.0 - 1e-9

    for _ in range(10):
        n_qubits = int(rng.integers(1, 7))
        ens = SeparableEnsemble(n_qubits, ((1.0, random_direction(rng)),))
        assert abs(purity(ensemble_to_rho(ens)) - 1.0) < 1e-12


def test_criterion_5_pair_block_structure_and_permutation_invariance():
    rng = np.random.default_rng(52)
    u4 = symmetric_subspace_unitary(2)
    for _ in range(50):
        d1, d2 = random_direction(rng), random_direction(rng)
        sym, weight = symmetrize_pair(d1, d2)
        raw = 0.5 * (
            np.kron(qubit_density(d1), qubit_density(d2))
            + np.kron(qubit_density(d2), qubit_density(d1))
        )
        assert np.max(np.abs(sym - raw)) < 1e-12
        coupled = u4 @ sym @ u4.conj().T
        assert np.max(np.abs(coupled[:3, 3])) < 1e-12
        assert np.max(np.abs(coupled[3, :3])) < 1e-12
        gamma_cos = d1.dot(d2)
        assert abs(weight - (1.0 - gamma_cos) / 4.0) < 1e-12
        assert abs(coupled[3, 3].real - weight) < 1e-12

    for n_qubits in (3, 4):
        for _ in range(5):
            dirs = [random_direction(rng) for _ in range(3)]
            weights = rng.uniform(0.1, 1.0, 3)
            weights = weights / weights.sum()
            full = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
            for w, d in zip(weights, dirs):
                term = qubit_density(d)
                for _ in range(n_qubits - 1):
                    term = np.kron(term, qubit_density(d))
                full += w * term
            shaped = full.reshape((2,) * (2 * n_qubits))
            for a in range(n_qubits):
                for b in range(a + 1, n_qubits):
                    perm = list(range(2 * n_qubits))
                    perm[a], perm[b] = perm[b], perm[a]
                    perm[n_qubits + a], perm[n_qubits + b] = perm[n_qubits + b], perm[n_qubits + a]
                    swapped = shaped.transpose(perm).reshape(full.shape)
                    assert np.max(np.abs(swapped - full)) < 1e-12


def _matched_as_lines(expected, got, tol):
    pool = list(got)
    for u in expected:
        best = max(range(len(pool)), key=lambda i: abs(float(np.dot(u, pool[i]))))
        v = pool.pop(best)
        if min(np.linalg.norm(u - v), np.linalg.norm(u + v)) > tol:
            return False
    return True


def _rotation_matrix(phi, theta, psi):
    def rz(a):
        return np.array(
            [[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]]
        )

    ry = np.array(
        [
            [math.cos(theta), 0.0, math.sin(theta)],
            [0.0, 1.0, 0.0],
            [-math.sin(theta), 0.0, math.cos(theta)],
        ]
    )
    return rz(phi) @ ry @ rz(psi)


def test_criterion_6_axis_extraction_reconstructs_and_rotates():
    rng = np.random.default_rng(63)
    for trial in range(200):
        dj = int(rng.integers(1, 9))
        rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
        t = rho_to_t(rho)
        m = extract_mar(t)
        for k in range(1, dj + 1):
            dec = m.rank(k)
            assert dec.resolved
            s = axes_to_tensor(dec.axes, k)
            r, residual = fit_radius(t.rank(k), s)
            assert residual < 1e-8
            assert abs(abs(r) - dec.radius) < 1e-8

    for trial in range(20):
        dj = int(rng.integers(1, 9))
        rho = SpinDensityMatrix(h(dj), random_density(rng, dj + 1))
        t = rho_to_t(rho)
        phi, theta, psi = rng.uniform(0.0, 2.0 * math.pi, 3)
        rot = _rotation_matrix(phi, theta, psi)
        before = extract_mar(t)
        after = extract_mar(rotate_t(t, phi, theta, psi))
        for k in range(1, dj + 1):
            assert abs(before.rank(k).radius - after.rank(k).radius) < 1e-7
            expected = [rot @ a.unit_vector for a in before.rank(k).axes]
            got = [a.unit_vector for a in after.rank(k).axes]
            assert _matched_as_lines(expected, got, 1e-7)


def _random_classical(rng, l_max):
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


def test_criterion_7_distribution_routes_agree():
    rng = np.random.default_rng(74)
    for trial in range(50):
        dj = int(rng.integers(1, 9))
        lam = _random_classical(rng, int(rng.integers(1, 5)))
        direct = t_from_distribution(lam, h(dj))
        via_rho = rho_to_t(rho_from_distribution(lam, h(dj)))
        assert direct.max_abs_diff(via_rho) < 1e-10

    for dj in (1, 2, 3, 5, 8):
        rho = rho_from_distribution(SphericalExpansion.uniform(), h(dj))
        assert np.max(np.abs(rho.matrix - np.eye(dj + 1) / (dj + 1))) < 1e-12


def _ylm_squared(l, m):
    from spinaxes import spherical_harmonic

    def weight(theta, phi):
        y = spherical_harmonic(l, m, theta, phi)
        return (y * np.conj(y)).real

    return weight


def test_criterion_8_harmonic_squares_are_zonal_with_collinear_axes():
    for l in range(0, 4):
        for m in range(-l, l + 1):
            for dj in range(1, 7):
                j = h(dj)
                closed = ylm_squared_t(l, m, j)
                grid = QuadratureGrid.for_band_limit(2 * l + dj)
                quad = t_from_distribution(_ylm_squared(l, m), j, grid=grid)
                assert closed.max_abs_diff(quad) < 1e-10
                for k in range(0, dj + 1):
                    for q in range(1, k + 1):
                        assert abs(closed.item(k, q)) < 1e-12
                        assert abs(closed.item(k, -q)) < 1e-12
                dec = extract_mar(closed)
                for k in range(1, dj + 1):
                    rd = dec.rank(k)
                    if rd.radius > 1e-12:
                        for axis in rd.axes:
                            assert abs(math.sin(axis.theta)) < 1e-9
                assert collinearity_check(dec)


@pytest.mark.parametrize("dj", [2, 6, 12, 24, 40, 60])
def test_criterion_9_phi_independent_distributions_are_uniaxial(dj):
    # lambda = sum_l a_l Y^l_0 with a_0 = 1/sqrt(4 pi) and sum_{l >= 1} |a_l| sqrt((2l + 1)/4 pi) = 1/(8 pi),
    # so lambda >= 1/(8 pi) everywhere: every axis of every rank lies exactly on z
    for seed in range(5):
        for l_max in sorted({1, 2, min(dj, 8), dj}):
            a = np.random.default_rng(seed).normal(size=l_max)
            a /= 8.0 * math.pi * np.sum(np.abs(a) * np.sqrt((2.0 * np.arange(1, l_max + 1) + 1.0) / (4.0 * math.pi)))
            table = {(0, 0): 1.0 / math.sqrt(4.0 * math.pi), **{(l, 0): a[l - 1] for l in range(1, l_max + 1)}}
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dec = extract_mar(t_from_distribution(SphericalExpansion.from_table(l_max, table), h(dj)))
            assert all(axis.theta == 0.0 for rank in dec.ranks for axis in rank.axes), (seed, l_max)
            assert collinearity_check(dec), (seed, l_max)
