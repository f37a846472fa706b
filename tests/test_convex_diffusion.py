"""Finite-dimensional convex-potential diffusion tests."""

import numpy as np
import pytest
from scipy import stats

from parahom import (
    ConfigError,
    EllipticityPair,
    convex_diffusion_simulate,
    cosine_perturbed_potential,
    exact_gaussian_path,
    feynman_kac_estimate,
    path_action_hessian_probe,
    quadratic_potential,
    stationary_moments_check,
)
from parahom.convex_diffusion import _batch_sigma, finite_dimensional_suite
from test_environments import assert_sigma_matches_spread


def fd_hessian(W, p, h=1e-5):
    """Central finite differences of W.grad at p: the Hessian W''(p)."""
    cols = []
    for j in range(p.size):
        e = np.zeros(p.size)
        e[j] = h
        cols.append((W.grad(p + e) - W.grad(p - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def noise(k, dt, n_steps, seed):
    return np.sqrt(dt) * np.random.default_rng(seed).standard_normal((n_steps, k))


# -- potentials ---------------------------------------------------------------


def test_quadratic_potential_validation():
    with pytest.raises(ConfigError):
        quadratic_potential(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ConfigError):
        quadratic_potential(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    W = quadratic_potential(np.diag([1.0, 4.0]), [1.0, 1.0])
    assert W.window == EllipticityPair(1.0, 4.0) and W.k == 2


def test_quadratic_potential_derivatives():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([0.3, -0.2])
    W = quadratic_potential(A, b)
    p = np.array([0.7, -1.1])
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (W.value(p + e) - W.value(p - e)) / (2 * h)
        assert W.grad(p)[j] == pytest.approx(fd, abs=1e-8)
    assert np.allclose(fd_hessian(W, p), A, atol=1e-8)
    assert W.laplacian(p) == pytest.approx(np.trace(A))
    assert np.array_equal(W.laplacian(np.stack([p, -p])), [np.trace(A)] * 2)
    eig = np.linalg.eigvalsh(A)
    assert W.window == EllipticityPair(eig.min(), eig.max())


def test_cosine_perturbed_potential():
    with pytest.raises(ConfigError):
        cosine_perturbed_potential(1.0)
    W = cosine_perturbed_potential(0.3)
    assert W.window.lam == pytest.approx(0.7) and W.window.Lam == pytest.approx(1.3)
    p = np.array([0.9])
    assert W.grad(p)[0] == pytest.approx(0.9 - 0.3 * np.sin(0.9))
    assert W.laplacian(p) == pytest.approx(1.0 - 0.3 * np.cos(0.9))
    assert fd_hessian(W, p)[0, 0] == pytest.approx(1.0 - 0.3 * np.cos(0.9), abs=1e-8)


# -- path simulation ----------------------------------------------------------------


def test_simulate_zero_noise_exponential_decay():
    W = quadratic_potential(np.eye(1))
    dt, n = 0.01, 100
    path = convex_diffusion_simulate(W, dt, np.zeros((n, 1)), phi0=[2.0])
    assert path[-1, 0] == pytest.approx(2.0 * np.exp(-0.5), abs=3e-3)


def test_simulate_stability_guard_and_determinism():
    W = quadratic_potential(np.diag([1.0, 4.0]))
    with pytest.raises(ConfigError):
        convex_diffusion_simulate(W, 0.5, noise(2, 0.5, 10, 3))
    p1 = convex_diffusion_simulate(W, 0.1, noise(2, 0.1, 50, 3))
    p2 = convex_diffusion_simulate(W, 0.1, noise(2, 0.1, 50, 3))
    assert np.array_equal(p1, p2) and p1.shape == (51, 2)


def test_euler_matches_exact_integrator_first_order():
    A = np.array([[1.5, 0.4], [0.4, 0.8]])
    b = np.array([0.2, -0.1])
    W = quadratic_potential(A, b)
    errs = []
    for dt, n in [(0.1, 10), (0.05, 20)]:
        zeros = np.zeros((n, 2))
        path = convex_diffusion_simulate(W, dt, zeros, phi0=[1.0, -1.0])
        exact = exact_gaussian_path(A, b, dt, zeros, phi0=[1.0, -1.0])
        errs.append(np.abs(path - exact).max())
    assert errs[1] < 0.7 * errs[0]  # first order in dt
    # with noise the exact integrator stays pathwise O(dt)-close
    incr = noise(2, 0.05, 200, 4)
    path = convex_diffusion_simulate(W, 0.05, incr)
    exact = exact_gaussian_path(A, b, 0.05, incr)
    assert np.abs(path - exact).max() < 0.15


# -- stationary moments --------------------------------------------------------------


def test_stationary_mean_two_dimensional():
    out = stationary_moments_check(
        np.diag([1.0, 4.0]), [1.0, 1.0], lags=[], dt=0.1, n_keep=20000, seed=5
    )
    assert np.allclose(out["mean_oracle"], [1.0, 0.25])
    assert out["mean_passes"], out


def test_stationary_covariance_scalar():
    out = stationary_moments_check(
        [[2.0]], [0.0], lags=[0.0, 1.0], dt=0.02, n_keep=40000, seed=6
    )
    lag0, lag1 = out["lags"]
    assert lag0["oracle"][0, 0] == pytest.approx(0.5)
    assert lag1["oracle"][0, 0] == pytest.approx(0.5 * np.exp(-1.0))
    assert lag0["passes"] and lag1["passes"], out
    assert abs(lag0["cov_hat"][0, 0] - 0.5) < 0.05


def test_batch_sigma_refuses_fewer_rows_than_batches():
    # 19 rows would leave an empty batch, whose mean is NaN
    assert np.isfinite(_batch_sigma(np.arange(20.0)))
    with pytest.raises(ConfigError, match="20"):
        _batch_sigma(np.arange(19.0))


def test_batch_sigma_covers_the_time_average_of_a_stationary_ar1_path():
    # 100 independent coordinates of the quadratic diffusion with A = I at
    # criterion 12's dt = 0.1 and 20000 levels: each is the AR(1) path
    # x' = rho x + sqrt(dt) N(0, 1), rho = 1 - dt/2, started in its stationary
    # law N(0, s2), s2 = dt / (1 - rho^2), so the time average of N levels
    # has the exact variance (s2 / N^2) (N + 2 sum_k (N - k) rho^k)
    k, dt, n = 100, 0.1, 20000
    rho = 1.0 - dt / 2.0
    s2 = dt / (1.0 - rho**2)
    phi0 = np.sqrt(s2) * np.random.default_rng(3).standard_normal(k)
    vals = convex_diffusion_simulate(quadratic_potential(np.eye(k)), dt,
                                     noise(k, dt, n - 1, 4), phi0=phi0)
    lags = np.arange(1, n)
    exact = s2 / n**2 * (n + 2.0 * np.sum((n - lags) * rho**lags))
    sigmas = _batch_sigma(vals)
    # each sigma^2 has 19 degrees of freedom (20 batch means)
    lo, hi = stats.chi2.ppf([1e-4, 1.0 - 1e-4], 19 * k) / (19 * k)
    assert lo <= np.mean(sigmas**2) / exact <= hi
    assert_sigma_matches_spread(vals.mean(axis=0)[:, None], sigmas[:, None])


# -- Feynman--Kac estimator -------------------------------------------------------------


def test_feynman_kac_constant_function_is_exact():
    W = quadratic_potential(np.eye(1))
    out = feynman_kac_estimate(W, lambda p: np.ones(p.shape[0]), 2.0, 500, 0.02, seed=7)
    assert out["estimate"] == pytest.approx(1.0, abs=1e-14)
    assert out["sigma"] == pytest.approx(0.0, abs=1e-14)


def test_feynman_kac_second_moment_quadratic():
    W = quadratic_potential(np.eye(1))
    out = feynman_kac_estimate(
        W, lambda p: p[:, 0] ** 2, T=5.0, n_paths=30000, dt=0.01, seed=8
    )
    assert not out["degenerate"]
    assert abs(out["estimate"] - 1.0) <= 3.0 * out["sigma"] + 0.03


def test_feynman_kac_matches_time_average_perturbed():
    W = cosine_perturbed_potential(0.3)
    fk = feynman_kac_estimate(
        W, lambda p: p[:, 0] ** 2, T=5.0, n_paths=30000, dt=0.01, seed=9
    )
    path = convex_diffusion_simulate(W, 0.02, noise(1, 0.02, 120000, 10))
    vals = path[20000:, 0] ** 2
    ta = float(vals.mean())
    ta_sigma = float(_batch_sigma(vals))
    assert abs(fk["estimate"] - ta) <= 3.0 * np.hypot(fk["sigma"], ta_sigma) + 0.03


def test_feynman_kac_degeneracy_flag():
    W = quadratic_potential(np.eye(1))
    out = feynman_kac_estimate(W, lambda p: p[:, 0] ** 2, 30.0, 200, 0.05, seed=11)
    assert out["degenerate"]


# -- path-action log-concavity probe ------------------------------------------------


def test_action_hessian_quadratic_positive():
    W = quadratic_potential(np.eye(1))
    path = np.linspace(-1.0, 1.0, 21)
    assert path_action_hessian_probe(W, path, h=0.25) > 0


def test_action_hessian_negative_direction_perturbed():
    # W = phi^2/2 + eps cos phi: the transformed potential
    # U = -(1/2) W'' + (1/4) (W')^2 dips concave near phi = 3 pi / 2,
    # and a long enough constant path window exposes a negative mode
    W = cosine_perturbed_potential(0.3)
    n_pts, h = 41, 0.25  # window length 10
    path = np.full(n_pts, 1.5 * np.pi)
    assert path_action_hessian_probe(W, path, h=h) < -1e-3
    # the same window on the unperturbed quadratic stays positive
    W0 = quadratic_potential(np.eye(1))
    assert path_action_hessian_probe(W0, np.full(n_pts, 1.5 * np.pi), h=h) > 0


@pytest.mark.parametrize("n_pts, h", [(9, 0.3), (41, 0.25)])
def test_action_hessian_two_dimensional_quadratic(n_pts, h):
    # U = -(1/2) tr A + (1/4)|A phi - b|^2 has U'' = A^2 / 2 on every path, so
    # the Hessian is (1/h) tridiag(-1, 2, -1) x I + h I x A^2 / 2 and its least
    # eigenvalue is the sum of the two factors' least eigenvalues
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    W = quadratic_potential(A, [0.3, -0.2])
    path = np.random.default_rng(5).standard_normal((n_pts, 2))
    n_int = n_pts - 2
    expected = ((2.0 - 2.0 * np.cos(np.pi / (n_int + 1))) / h
                + h * np.linalg.eigvalsh(A)[0] ** 2 / 2.0)
    assert abs(path_action_hessian_probe(W, path, h=h) - expected) < 1e-5


def test_action_hessian_guard():
    W = quadratic_potential(np.eye(1))
    with pytest.raises(ConfigError):
        path_action_hessian_probe(W, np.array([0.0, 1.0]), h=0.1)


def test_time_average_error_bar_comes_from_batch_means():
    # criterion 12's Feynman--Kac band at its seed: the means of 20 batches
    # of the correlated time average give 3 sigma = 0.126, where reading
    # every 50th step as an independent draw gave 0.463
    out, verdicts = finite_dimensional_suite(12, n_keep=2000)
    assert out["fk_tolerance"] < 0.25
    assert out["fk_gap"] <= out["fk_tolerance"]
    assert verdicts["estimator_nondegenerate"]
