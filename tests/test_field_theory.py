"""Correlation-identity, Malliavin, and variance-inequality tests."""

import numpy as np
import pytest
from scipy import integrate

from parahom import (
    ConfigError,
    PeriodicCube,
    PotentialSpec,
    TerminalFunctional,
    UnsupportedVariantError,
    correlation_identity_check,
    hom_elliptic_greens,
    malliavin_fd_check,
    massive_lattice_greens,
    poincare_variance_check,
    thm13_decay_check,
)
from parahom import heat_kernel_1d, hom_gaussian_kernel


def massive_greens_integral(m, x, c=1.0):
    """(c grad* grad + m^2)^{-1}(x, 0) on the infinite lattice as the
    Laplace-time integral of the Bessel-product heat kernel."""
    x = np.atleast_1d(np.asarray(x, dtype=int))

    def integrand(t):
        out = np.exp(-m * m * t)
        for xj in x:
            out *= float(heat_kernel_1d(np.array([xj]), c * t)[0])
        return out

    t_max = -np.log(1e-16) / (m * m)
    val, _ = integrate.quad(integrand, 0.0, t_max, limit=400)
    return float(val)


def hom_elliptic_greens_quadrature(a_hom, x, rel_tol=1e-7):
    """The d >= 3 Green's function of -div(a_hom grad) by Gaussian-time
    quadrature: Gamma(x) = int_0^infty (4 pi t)^{-d/2} det^{-1/2}
    exp(-x.a^{-1}x/4t) dt."""
    val, err = integrate.quad(
        lambda t: hom_gaussian_kernel(x, t, a_hom), 0.0, np.inf, limit=600,
        epsabs=1e-13, epsrel=1e-13,
    )
    assert err <= rel_tol * max(abs(val), 1e-300), f"quadrature error {err:.2e}"
    return float(val)


# -- quadratic-case oracles -----------------------------------------------------


def test_massive_lattice_greens_origin_value():
    # d=1, m=1: (grad* grad + 1)^{-1}(0,0) = 1/sqrt(5) on Z; L=64 is
    # exponentially close
    cube = PeriodicCube(1, 64)
    val = massive_lattice_greens(cube, 1.0, [0])
    assert val == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-4)


def test_massive_lattice_vs_integral():
    cube = PeriodicCube(1, 64)
    for x in ([0], [1], [3]):
        lat = massive_lattice_greens(cube, 1.0, x)
        integ = massive_greens_integral(1.0, x)
        assert abs(lat - integ) < 1e-6
    cube2 = PeriodicCube(2, 32)
    assert massive_lattice_greens(cube2, 1.2, [1, 0]) == pytest.approx(
        massive_greens_integral(1.2, [1, 0]), abs=1e-6
    )


# -- correlation identity ---------------------------------------------------------


def test_correlation_identity_quadratic_pathwise():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    out = correlation_identity_check(
        V, 1.0, cube, [[0], [1], [2]], n_samples=2000, dt=0.05, seed=4
    )
    assert not out["flagged"]
    for p in range(3):
        assert abs(out["difference"][p]) <= 3.5 * out["sigma"][p] + 1e-4


def test_correlation_identity_forward_method_biased_but_close():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    out = correlation_identity_check(
        V, 1.0, cube, [[0]], n_samples=500, dt=0.02, seed=5, method="forward"
    )
    # plain quadrature carries an O(dt) bias; just check the magnitude
    assert abs(out["difference"][0]) < 0.05


def test_correlation_identity_guards():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    with pytest.raises(ConfigError):
        correlation_identity_check(V, 0.0, cube, [[0]], 10, 0.05)
    with pytest.raises(ConfigError):
        correlation_identity_check(V, 1.0, cube, [[0]], 10, 0.05, method="magic")
    with pytest.raises(ConfigError):
        correlation_identity_check(V, 1.0, cube, [[0]], 10, dt=2.0)


# -- continuum elliptic kernel -----------------------------------------------------


def test_hom_elliptic_greens_isotropic_d3():
    # identity coefficients: 1 / (4 pi |x|)
    x = np.array([1.0, 2.0, -2.0])
    val = hom_elliptic_greens(np.eye(3), x)
    assert val == pytest.approx(1.0 / (4.0 * np.pi * 3.0), rel=1e-12)
    # homogeneity: G(2x) = G(x) / 2 in d=3
    assert hom_elliptic_greens(np.eye(3), 2 * x) == pytest.approx(val / 2.0)


def test_hom_elliptic_greens_gradient_d2():
    # identity coefficients: grad G = -x / (2 pi |x|^2)
    x = np.array([3.0, -4.0])
    g = hom_elliptic_greens(np.eye(2), x, gradient=True)
    assert np.allclose(g, -x / (2.0 * np.pi * 25.0), rtol=1e-12)
    with pytest.raises(UnsupportedVariantError):
        hom_elliptic_greens(np.eye(2), x)


def test_hom_elliptic_greens_anisotropic_vs_quadrature():
    a = np.array([[1.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.8]])
    for x in ([1.0, 0.0, 0.0], [1.0, -2.0, 0.5]):
        closed = hom_elliptic_greens(a, np.array(x))
        quad = hom_elliptic_greens_quadrature(a, np.array(x))
        assert abs(closed - quad) < 1e-6 * abs(closed)


def test_hom_elliptic_greens_gradient_finite_difference():
    a = np.array([[1.3, 0.3, 0.0], [0.3, 0.9, 0.0], [0.0, 0.0, 1.1]])
    x = np.array([1.0, 0.5, -0.7])
    g = hom_elliptic_greens(a, x, gradient=True)
    h = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (hom_elliptic_greens(a, x + e) - hom_elliptic_greens(a, x - e)) / (2 * h)
        assert g[j] == pytest.approx(fd, rel=1e-5)


def test_hom_elliptic_greens_rejects_indefinite():
    with pytest.raises(ConfigError):
        hom_elliptic_greens(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 0.0])


# -- decay-rate extraction -------------------------------------------------------------


def test_thm13_decay_check_synthetic():
    radii = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    base = 1.0  # first differences in d=2
    excess = 0.4
    diffs = 2.0 * radii ** -(base + excess)
    rep = thm13_decay_check(diffs, radii, d=2, base_exponent=base)
    assert rep.extras["excess"] == pytest.approx(excess, abs=1e-6)
    assert rep.extras["excess_lower"] > 0
    assert rep.extras["excluded"] == 0


def test_thm13_decay_check_excludes_noisy_points():
    radii = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    diffs = radii**-1.3
    sigma = np.zeros(6)
    sigma[-1] = 10.0 * diffs[-1]  # drown the last point in noise
    rep = thm13_decay_check(diffs, radii, d=2, base_exponent=1.0, sigma=sigma)
    assert rep.extras["excluded"] == 1
    assert rep.extras["excess"] == pytest.approx(0.3, abs=1e-6)


# -- Malliavin finite difference ---------------------------------------------------------


def test_malliavin_zero_when_bump_at_terminal_time():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    out = malliavin_fd_check(V, 1.0, cube, 0.01, 2, 30, 0, 30)
    assert out["fd_value"] == 0.0 and out["formula_value"] == 0.0


def test_malliavin_quadratic_small_dt():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    out = malliavin_fd_check(
        V, 1.0, cube, 1e-3, y_site=2, s_index=100, x_site=0, t_index=200,
        delta=1e-5, seed=1,
    )
    assert out["rel_error"] < 1e-3


def test_malliavin_dipole_and_dt_halving():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    errs = []
    for dt, s, t in [(2e-3, 50, 100), (1e-3, 100, 200)]:
        out = malliavin_fd_check(
            V, 1.0, cube, dt, y_site=1, s_index=s, x_site=0, t_index=t,
            delta=1e-5, seed=2,
        )
        errs.append(out["rel_error"])
    assert errs[0] < 5e-3
    assert errs[1] < 0.75 * errs[0]  # first-order in dt


def test_malliavin_guards():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    with pytest.raises(ConfigError):
        malliavin_fd_check(V, 1.0, cube, 0.01, 0, 5, 0, 10, delta=1e-2)
    with pytest.raises(ConfigError):
        malliavin_fd_check(V, 1.0, cube, 0.01, 0, 12, 0, 10)


# -- variance inequality -------------------------------------------------------------------


def linear_site_functional(site):
    return TerminalFunctional(
        value=lambda phi: phi[..., site],
        grad=lambda phi: _delta_like(phi, site),
        name=f"phi({site})",
    )


def _delta_like(phi, site):
    g = np.zeros_like(phi)
    g[..., site] = 1.0
    return g


def test_poincare_variance_linear_functional():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    out = poincare_variance_check(
        V, 1.0, cube, 0.05, 120, linear_site_functional(0), 4000, seed=6
    )
    assert out["passes"], out
    assert out["ratio"] > 0.5  # bound is tight for linear functionals


def test_poincare_variance_constant_functional():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    const = TerminalFunctional(
        value=lambda phi: np.ones(phi.shape[:-1]),
        grad=lambda phi: np.zeros_like(phi),
        name="const",
    )
    out = poincare_variance_check(V, 1.0, cube, 0.05, 40, const, 400, seed=7)
    assert out["variance"] == 0.0 and out["ratio"] == 0.0


def test_poincare_variance_nonlinear_dipole():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    tanh_sum = TerminalFunctional(
        value=lambda phi: np.tanh(phi).sum(axis=-1),
        grad=lambda phi: 1.0 / np.cosh(phi) ** 2,
        name="sum tanh",
    )
    out = poincare_variance_check(V, 1.0, cube, 0.05, 120, tanh_sum, 4000, seed=8)
    assert out["passes"], out


def test_poincare_variance_guards():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    with pytest.raises(ConfigError):
        poincare_variance_check(
            V, 1.0, cube, 2.0, 10, linear_site_functional(0), 10
        )
