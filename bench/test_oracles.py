"""Tests of the benchmark's oracles, with numpy alone.

    python3 -m pytest bench/test_oracles.py
"""

import numpy as np

import oracles


def test_two_phase_laminate_gives_harmonic_mean():
    # criterion 6's medium: a_1 alternates 1 and 4 across x_1
    profiles = np.array([[1.0, 4.0] * 16])
    assert np.isclose(oracles.laminate_a_hom(profiles)[0, 0], 1.6, rtol=0, atol=1e-14)


def test_laminate_transverse_entries_are_arithmetic_means():
    profiles = np.array([[1.0, 4.0, 1.0, 4.0], [1.0, 3.0, 2.0, 2.0], [0.5, 0.5, 1.0, 1.0]])
    assert np.allclose(np.diag(oracles.laminate_a_hom(profiles)), [1.6, 2.0, 0.75])


def test_em_covariance_tends_to_massive_greens_function():
    for d, L, m in [(1, 16, 1.0), (2, 8, 0.7)]:
        A = oracles.laplacian_symbol(d, L) + m * m
        continuum = np.fft.ifftn(1.0 / A).real.ravel()
        errs = [np.abs(oracles.em_covariance(d, L, m, dt) - continuum).max()
                for dt in (1e-2, 1e-4, 1e-6)]
        assert errs[2] < 1e-6 and errs[2] < errs[1] < errs[0]


def test_free_kernel_matches_explicit_steps():
    d, L, c, dt, n = 2, 6, 1.3, 0.1, 7
    u = np.zeros((L, L))
    u[0, 0] = 1.0
    for _ in range(n):
        lap = sum(2 * u - np.roll(u, 1, axis=j) - np.roll(u, -1, axis=j) for j in range(d))
        u = u - dt * c * lap
    assert np.abs(oracles.free_kernel(d, L, c, dt, n) - u.ravel()).max() < 1e-15


def test_em_variance_and_poincare_bound_match_explicit_sums():
    L, m, dt, n = 8, 1.0, 0.05, 30
    u = np.zeros(L)
    u[0] = 1.0
    rho = np.exp(-m * m * dt / 2)
    var, bound, w = 0.0, 0.0, u.copy()
    for _ in range(n):
        var += dt * (u**2).sum()
        bound += dt * (w**2).sum()
        lap = 2 * u - np.roll(u, 1) - np.roll(u, -1)
        u = u - dt / 2 * (lap + m * m * u)
        w = rho * (w - dt / 2 * (2 * w - np.roll(w, 1) - np.roll(w, -1)))
    assert abs(oracles.em_variance(1, L, m, dt, n) - var) < 1e-14
    assert abs(oracles.poincare_bound(1, L, m, dt, n) - bound) < 1e-14
    assert var <= bound


def test_dense_corrector_vanishes_for_constant_coefficients():
    a = np.full((3, 2, 16), 1.7)
    for xi in ([0.0, 0.0], [0.4, -2.1]):
        phi, q = oracles.dense_corrector(a, 4, 0.1, xi, 0.01)
        assert np.abs(phi).max() < 1e-12
        assert np.abs(q - 1.7 * np.eye(2)).max() < 1e-12


def test_dense_corrector_reproduces_the_laminate():
    # time-constant laminate in d=2: q(0, eta) -> harmonic / arithmetic means
    rng = np.random.default_rng(3)
    prof = rng.uniform(0.5, 1.5, size=(2, 6))
    x1 = np.repeat(np.arange(6), 6)
    a = np.broadcast_to(prof[:, x1], (2, 2, 36)).copy()
    _, q = oracles.dense_corrector(a, 6, 0.1, [0.0, 0.0], 1e-9)
    assert np.abs(q - oracles.laminate_a_hom(prof)).max() < 1e-7


def test_corrector_energy_of_zero_field_is_zero():
    assert oracles.corrector_energy(np.zeros((2, 3, 8)), 2, 0.1, 0.7) == 0.0
