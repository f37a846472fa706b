"""Sampler, coefficient-map, and covariance-transform tests."""

import numpy as np
import pytest
from scipy import stats

from parahom import (
    CoefficientMap,
    ConfigError,
    IntegrityError,
    PeriodicCube,
    PotentialSpec,
    UnsupportedVariantError,
    coefficient_field,
    dump_trajectory,
    gaussian_field_sample,
    langevin_simulate,
    load_trajectory,
    poincare_fourier_check,
)
from parahom.environments import brownian_increments, langevin_drift, langevin_path


# -- potentials --------------------------------------------------------------


def test_potential_validation():
    with pytest.raises(ConfigError):
        PotentialSpec("cubic")
    with pytest.raises(ConfigError):
        PotentialSpec("dipole", c=1.0, a_dip=1.0)  # loses convexity
    with pytest.raises(ConfigError):
        PotentialSpec("quadratic", c=1.0, a_dip=0.1)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    assert V.window.lam == pytest.approx(0.7)
    assert V.window.Lam == pytest.approx(1.3)


def test_dipole_derivatives():
    V = PotentialSpec("dipole", c=2.0, a_dip=0.5)
    z = np.array([0.3, -1.1])
    assert np.allclose(V.dv(z), 2.0 * z - 0.5 * np.sin(z))
    assert np.allclose(V.d2v_diag(z), 2.0 - 0.5 * np.cos(z))
    quad = PotentialSpec("quadratic", c=1.5)
    assert np.allclose(quad.dv(z), 1.5 * z)
    assert np.allclose(quad.d2v_diag(z), 1.5)


# -- Langevin dynamics ------------------------------------------------------------


def test_langevin_zero_noise_decay_of_constant_field():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    m, dt, K = 1.0, 0.01, 2.0
    zero = np.zeros(cube.n_sites)
    phi0 = np.full(cube.n_sites, K)
    path = list(langevin_path(V, m, cube, dt, phi0, [zero] * 100))
    # gradient term vanishes on constants: phi(t) = K e^{-m^2 t / 2}
    expect = K * np.exp(-m * m * dt * 100 / 2.0)
    assert np.abs(path[-1] - expect).max() < 2e-3  # O(dt)
    assert len(path) == 100


def test_langevin_streamed_and_predrawn_increments_agree():
    cube = PeriodicCube(2, 4)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    m, dt, n = 1.0, 0.05, 30
    phi0 = np.zeros((3, cube.n_sites))

    def path(phi, increments):
        return np.array(list(langevin_path(V, m, cube, dt, phi, increments)))

    base = path(phi0, brownian_increments(np.random.default_rng(7), dt, phi0.shape, n))
    drawn = np.sqrt(dt) * np.random.default_rng(7).standard_normal((n,) + phi0.shape)
    assert np.array_equal(path(phi0, drawn), base)
    # a zero bump replays the base path exactly; a nonzero one moves it
    # only from the bumped step on
    bumped = drawn.copy()
    bumped[12, 1, 5] += 0.0
    assert np.array_equal(path(phi0, bumped), base)
    bumped[12, 1, 5] += 1e-3
    moved = path(phi0, bumped)
    assert np.array_equal(moved[:12], base[:12])
    assert not np.array_equal(moved[12:], base[12:])
    # langevin_simulate runs this stepper on streamed draws from phi = 0
    traj = langevin_simulate(V, m, cube, dt, n - 5, burn_in=5, seed=7)
    rng = np.random.default_rng(7)
    full = path(phi0[0], brownian_increments(rng, dt, cube.n_sites, n))
    assert np.array_equal(traj.values, full[4:])


def test_langevin_drift_indicator_hand_computed():
    cube = PeriodicCube(1, 4)
    V = PotentialSpec("quadratic", c=1.0)
    m = 1.0
    phi = np.array([1.0, 0.0, 0.0, 0.0])
    # div V'(grad phi) = laplacian phi = [2, -1, 0, -1]
    expect = -0.5 * (np.array([2.0, -1.0, 0.0, -1.0]) + m * m * phi)
    assert np.allclose(langevin_drift(V, m, cube, phi), expect)


def test_langevin_guards():
    cube = PeriodicCube(2, 4)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    with pytest.raises(UnsupportedVariantError):
        langevin_simulate(V, 0.0, cube, 0.1, 10)
    with pytest.raises(ConfigError):
        langevin_simulate(V, 1.0, cube, 0.5, 10)  # above stability window


def test_langevin_determinism():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.2)
    t1 = langevin_simulate(V, 1.0, cube, 0.05, 20, burn_in=10, seed=42)
    t2 = langevin_simulate(V, 1.0, cube, 0.05, 20, burn_in=10, seed=42)
    assert np.array_equal(t1.values, t2.values)


def test_langevin_stationary_variance_quadratic():
    # single-site variance -> (grad* grad + m^2)^{-1}(0,0); on Z^1 with m=1
    # this is 1/sqrt(5); the L=16 cube value differs by < 1e-4
    cube = PeriodicCube(1, 16)
    V = PotentialSpec("quadratic", c=1.0)
    m, dt = 1.0, 0.02
    traj = langevin_simulate(V, m, cube, dt, n_steps=40000, seed=3)
    var_hat = float((traj.values[::5] ** 2).mean())
    A = cube.laplacian_symbol() + 1.0
    oracle = float((1.0 / A).mean())
    assert oracle == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-4)
    assert var_hat == pytest.approx(oracle, abs=0.02)


# -- exact Gaussian sampler ----------------------------------------------------------


def test_gaussian_sampler_determinism_and_shapes():
    cube = PeriodicCube(2, 6)
    t1 = gaussian_field_sample(1.0, cube, 0.1, 15, seed=5)
    t2 = gaussian_field_sample(1.0, cube, 0.1, 15, seed=5)
    assert np.array_equal(t1.values, t2.values)
    assert t1.values.shape == (16, 36)
    with pytest.raises(UnsupportedVariantError):
        gaussian_field_sample(0.0, cube, 0.1, 3)


def test_gaussian_sampler_equal_time_covariance():
    cube = PeriodicCube(1, 8)
    m = 1.0
    A = cube.laplacian_symbol() + m * m
    traj = gaussian_field_sample(m, cube, 0.5, 4000, seed=6)
    var_hat = float((traj.values**2).mean())
    oracle = float((1.0 / A).mean())
    # effective sample count ~ n_steps at lag 0.5 with unit rates
    sigma = oracle * np.sqrt(2.0 / (4000 * 0.4))
    assert abs(var_hat - oracle) < 3.0 * sigma


def test_gaussian_sampler_mode_autocorrelation():
    cube = PeriodicCube(1, 8)
    m, dt = 1.0, 0.25
    traj = gaussian_field_sample(m, cube, dt, 20000, seed=7)
    modes = np.fft.fft(traj.values.reshape(-1, 8), axis=-1)
    A = cube.laplacian_symbol() + m * m
    k = 2
    z = modes[:, k]
    lag = 4  # tau = 1.0
    rho_hat = float(
        np.real(np.mean(z[:-lag] * np.conj(z[lag:]))) / np.real(np.mean(z * np.conj(z)))
    )
    rho = float(np.exp(-A.ravel()[k] * lag * dt / 2.0))
    assert rho_hat == pytest.approx(rho, abs=0.05)


def test_gaussian_sampler_spatial_stationarity():
    cube = PeriodicCube(1, 8)
    traj = gaussian_field_sample(1.0, cube, 0.5, 6000, seed=8)
    v = traj.values
    # covariance at offset 1 measured from two different base points
    c_01 = float((v[:, 0] * v[:, 1]).mean())
    c_45 = float((v[:, 4] * v[:, 5]).mean())
    spread = abs(c_01 - c_45)
    scale = float((v**2).mean())
    assert spread < 0.15 * scale


def test_langevin_matches_gaussian_sampler_in_law():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    m, dt = 1.0, 0.05
    lv = langevin_simulate(V, m, cube, dt, 12000, seed=9)
    gs = gaussian_field_sample(m, cube, dt * 4, 3000, seed=10)
    ks = stats.ks_2samp(lv.values[::4].ravel(), gs.values.ravel()).statistic
    assert ks < 0.05


# -- trajectory dump format -----------------------------------------------------------


def test_dump_load_round_trip(tmp_path):
    cube = PeriodicCube(2, 4)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.2)
    traj = langevin_simulate(V, 0.7, cube, 0.05, 12, burn_in=5, seed=11)
    path = tmp_path / "traj.bin"
    dump_trajectory(traj, str(path))
    back = load_trajectory(str(path))
    assert np.array_equal(back.values, traj.values)
    assert back.dt == traj.dt and back.m == traj.m
    assert back.provenance == traj.provenance
    with pytest.raises(IntegrityError):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b'{"magic": "nope"}\n')
        load_trajectory(str(bad))


# -- coefficient maps -------------------------------------------------------------------


def test_constant_scalar_map():
    cube = PeriodicCube(1, 8)
    traj = gaussian_field_sample(1.0, cube, 0.2, 5, seed=12)
    from parahom import EllipticityPair

    cmap = CoefficientMap(
        "scalar-of-field",
        window=EllipticityPair(2.0, 2.0),
        scalar_map=lambda s: np.full_like(s, 2.0),
    )
    a = coefficient_field(traj, cmap)
    assert np.all(a.values == 2.0)
    assert a.values.shape == (6, 1, 8)


def test_tanh_scalar_map_spectrum():
    cube = PeriodicCube(2, 6)
    traj = gaussian_field_sample(0.8, cube, 0.2, 10, seed=13)
    from parahom import EllipticityPair

    cmap = CoefficientMap(
        "scalar-of-field",
        window=EllipticityPair(0.5, 1.5),
        scalar_map=lambda s: 1.0 + 0.5 * np.tanh(s),
    )
    a = coefficient_field(traj, cmap)
    assert a.values.min() >= 0.5 and a.values.max() <= 1.5


def test_matrix_of_gradient_dipole_entries():
    cube = PeriodicCube(2, 6)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    traj = langevin_simulate(V, 1.0, cube, 0.05, 8, burn_in=50, seed=14)
    cmap = CoefficientMap("matrix-of-gradient", potential=V)
    a = coefficient_field(traj, cmap)
    grads = cube.grad(traj.values)
    assert np.allclose(a.values, 1.0 - 0.3 * np.cos(grads))
    assert a.values.min() >= 0.7 - 1e-12 and a.values.max() <= 1.3 + 1e-12


def test_violating_map_raises_integrity_error():
    cube = PeriodicCube(1, 8)
    traj = gaussian_field_sample(1.0, cube, 0.2, 5, seed=15)
    from parahom import EllipticityPair

    cmap = CoefficientMap(
        "scalar-of-field",
        window=EllipticityPair(1.0, 1.1),
        scalar_map=lambda s: 1.0 + np.abs(s),  # escapes the declared window
    )
    with pytest.raises(IntegrityError):
        coefficient_field(traj, cmap)


# -- covariance transform ------------------------------------------------------------------


def test_poincare_check_delta_covariance():
    dt = 0.1
    gamma = np.zeros((5, 7))
    gamma[2, 3] = 1.0 / dt  # delta in space, delta mass in one time bin
    out = poincare_fourier_check(gamma, dt)
    assert out["bounded"] and not out["warning"]
    assert out["sup_value"] == pytest.approx(1.0, rel=1e-12)


def test_poincare_check_massive_gaussian_sup():
    # Gamma(x, tau) = (1/n) sum_k e^{ikx} (1/A_k) e^{-A_k |tau|/2}
    L = 64  # large cube proxy for Z^1; covariance decays like e^{-|x|}
    cube = PeriodicCube(1, L)
    m = 1.0
    A = cube.laplacian_symbol().ravel() + m * m
    dt = 0.05
    n_lag = 801  # tau up to +-20
    taus = dt * (np.arange(n_lag) - n_lag // 2)
    offsets = np.arange(-25, 26)  # centered odd spatial window
    phases = np.exp(2j * np.pi * np.outer(offsets, np.fft.fftfreq(L)))
    decay = np.exp(-np.abs(taus)[:, None] * A[None, :] / 2.0) / A[None, :]
    gamma_c = np.real(decay @ phases.T) / L
    out = poincare_fourier_check(gamma_c, dt)
    assert out["sup_value"] == pytest.approx(4.0 / m**4, rel=5e-3)


def test_poincare_check_warns_on_slow_decay():
    # Gamma(x) ~ 1/(1+|x|), time delta: boundary shell keeps finite mass
    x = np.arange(-50, 51)
    gamma = (1.0 / (1.0 + np.abs(x)))[None, :]
    out = poincare_fourier_check(gamma, 1.0)
    assert out["warning"] and not out["bounded"]
