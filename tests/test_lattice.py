"""Lattice calculus and constant-coefficient kernel tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from parahom import (
    ConfigError,
    PeriodicCube,
    EllipticityPair,
    heat_kernel,
    heat_kernel_1d,
    heat_kernel_solver,
    heat_kernel_table,
    hom_gaussian_kernel,
)


# -- geometry -----------------------------------------------------------------


def test_cube_validation():
    with pytest.raises(ConfigError):
        PeriodicCube(0, 4)
    with pytest.raises(ConfigError):
        PeriodicCube(2, 5)  # odd side
    with pytest.raises(ConfigError):
        PeriodicCube(1, 0)


def test_site_indexing_bijection_and_wraparound():
    cube = PeriodicCube(2, 6)
    seen = set()
    for idx in range(cube.n_sites):
        coords = cube.site_coords(idx)
        assert cube.site_index(coords) == idx
        seen.add(tuple(coords))
    assert len(seen) == cube.n_sites
    assert cube.site_index([7, -1]) == cube.site_index([1, 5])
    with pytest.raises(IndexError):
        cube.site_index([1, 2, 3])
    with pytest.raises(IndexError):
        cube.site_coords(cube.n_sites)


def test_ellipticity_pair_validation():
    with pytest.raises(ConfigError):
        EllipticityPair(0.0, 1.0)
    with pytest.raises(ConfigError):
        EllipticityPair(2.0, 1.0)
    assert EllipticityPair(1.0, 4.0).contrast == pytest.approx(0.75)


def test_min_image():
    cube = PeriodicCube(1, 8)
    folded = cube.min_image(np.array([[7], [4], [3]]))
    assert folded.tolist() == [[-1], [-4], [3]]


# -- discrete calculus -----------------------------------------------------------


def test_gradient_of_constant_is_zero():
    cube = PeriodicCube(3, 4)
    assert np.all(cube.grad(np.full(cube.n_sites, 2.5)) == 0)


def test_indicator_gradient_d1_L4():
    cube = PeriodicCube(1, 4)
    phi = np.zeros(4)
    phi[0] = 1.0
    assert cube.grad_at(phi, 0)[0] == -1.0
    assert cube.grad_at(phi, 3)[0] == +1.0
    g = cube.grad(phi)
    assert g[0].tolist() == [-1.0, 0.0, 0.0, 1.0]


def test_divergence_of_constant_field():
    cube = PeriodicCube(2, 4)
    F = np.ones((cube.d, cube.n_sites))
    assert np.all(cube.div(F) == 0)


def test_adjointness_random_pairs():
    rng = np.random.default_rng(7)
    for d, L in [(1, 4), (2, 6), (3, 4)]:
        cube = PeriodicCube(d, L)
        for _ in range(10):
            phi = rng.standard_normal(cube.n_sites)
            F = rng.standard_normal((d, cube.n_sites))
            lhs = float((cube.grad(phi) * F).sum())
            rhs = float((phi * cube.div(F)).sum())
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_adjointness_brute_force_double_sum():
    cube = PeriodicCube(2, 4)
    rng = np.random.default_rng(1)
    phi = rng.standard_normal(cube.n_sites)
    F = rng.standard_normal((2, cube.n_sites))
    lhs = sum(
        cube.grad_at(phi, x) @ F[:, x] for x in range(cube.n_sites)
    )
    rhs = sum(phi[x] * cube.div_at(F, x) for x in range(cube.n_sites))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    L=st.sampled_from([2, 4, 6]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_adjointness_property(d, L, seed):
    cube = PeriodicCube(d, L)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(cube.n_sites)
    F = rng.standard_normal((d, cube.n_sites))
    lhs = float((cube.grad(phi) * F).sum())
    rhs = float((phi * cube.div(F)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_dirichlet_form_nonnegative():
    cube = PeriodicCube(2, 6)
    rng = np.random.default_rng(3)
    for _ in range(5):
        phi = rng.standard_normal(cube.n_sites)
        assert float(phi @ cube.laplacian(phi)) >= 0
        assert np.allclose(cube.laplacian(phi), cube.div(cube.grad(phi)))


def test_laplacian_symbol_matches_operator():
    cube = PeriodicCube(2, 6)
    rng = np.random.default_rng(11)
    phi = rng.standard_normal(cube.n_sites)
    via_fft = np.fft.ifftn(
        cube.laplacian_symbol() * np.fft.fftn(phi.reshape(cube.shape))
    ).real.ravel()
    assert np.allclose(via_fft, cube.laplacian(phi), atol=1e-10)


# -- heat kernel ---------------------------------------------------------------


def test_heat_kernel_initial_condition():
    assert heat_kernel([0], 0.0) == 1.0
    assert heat_kernel([3], 0.0) == 0.0
    assert heat_kernel([0, 0], 0.0) == 1.0


def test_heat_kernel_bessel_value():
    # d=1: G(0,1) = e^{-2} I_0(2)
    oracle = np.exp(-2.0) * special.iv(0, 2.0)
    assert heat_kernel([0], 1.0) == pytest.approx(oracle, abs=1e-14)
    assert oracle == pytest.approx(0.30851, abs=5e-6)
    # d=2 factorizes
    assert heat_kernel([1, 2], 0.7) == pytest.approx(
        heat_kernel([1], 0.7) * heat_kernel([2], 0.7), rel=1e-14
    )


def test_heat_kernel_rejects_negative_time():
    with pytest.raises(ConfigError):
        heat_kernel_1d(np.array([0]), -1.0)


def test_heat_kernel_mass_conservation():
    for d, radius in [(1, 60), (2, 40)]:
        for t in (0.5, 2.0, 10.0):
            table = heat_kernel_table(d, radius, t)
            assert table.min() >= 0
            assert abs(table.sum() - 1.0) < 1e-10


def test_heat_kernel_solver_matches_bessel():
    for d, radius in [(1, 60), (2, 30)]:
        for t in (0.3, 2.0, 10.0):
            solved = heat_kernel_solver(d, radius, t)
            oracle = heat_kernel_table(d, radius, t)
            assert np.abs(solved - oracle).max() < 1e-10


def test_heat_kernel_gaussian_envelope_bound():
    # G(x,t) <= C (t+1)^{-d/2} exp(-gamma min(|x|, |x|^2/(t+1)))
    gamma = 0.25
    for d, radius in [(1, 20), (2, 20)]:
        worst = 0.0
        for t in np.linspace(0.0, 10.0, 11):
            table = heat_kernel_table(d, radius, t)
            axes = np.arange(-radius, radius + 1)
            grids = np.meshgrid(*([axes] * d), indexing="ij")
            r = np.sqrt(sum(g**2 for g in grids))
            envelope = (t + 1.0) ** (-d / 2.0) * np.exp(
                -gamma * np.minimum(r, r**2 / (t + 1.0))
            )
            worst = max(worst, float((table / envelope).max()))
        assert np.isfinite(worst) and worst < 10.0


# -- continuum Gaussian kernel -----------------------------------------------------


def test_hom_gaussian_kernel_identity_matrix():
    # isotropic case: product of 1-d normals with variance 2t
    t = 0.8
    val = hom_gaussian_kernel([1.0, -0.5], t, np.eye(2))
    ref = np.prod(
        [np.exp(-x * x / (4 * t)) / np.sqrt(4 * np.pi * t) for x in (1.0, -0.5)]
    )
    assert val == pytest.approx(ref, rel=1e-12)


def test_hom_gaussian_kernel_symmetry_and_quadrature():
    a = np.array([[1.2, 0.3], [0.3, 0.9]])
    t = 1.5
    assert hom_gaussian_kernel([2.0, 1.0], t, a) == pytest.approx(
        hom_gaussian_kernel([-2.0, -1.0], t, a), rel=1e-14
    )
    # grid quadrature over a large box
    h = 0.05
    axis = np.arange(-12, 12, h) + h / 2
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    total = hom_gaussian_kernel(pts, t, a).sum() * h * h
    assert abs(total - 1.0) < 1e-6


def test_hom_gaussian_kernel_pde_residual():
    a = np.array([[1.0, 0.2], [0.2, 1.5]])
    t, h, ht = 1.0, 1e-3, 1e-4
    x = np.array([0.7, -0.4])

    def val(p, tt):
        return hom_gaussian_kernel(p, tt, a)

    dudt = (val(x, t + ht) - val(x, t - ht)) / (2 * ht)
    lap = 0.0
    for i in range(2):
        for j in range(2):
            ei = np.eye(2)[i] * h
            ej = np.eye(2)[j] * h
            dij = (
                val(x + ei + ej, t) - val(x + ei - ej, t)
                - val(x - ei + ej, t) + val(x - ei - ej, t)
            ) / (4 * h * h)
            lap += a[i, j] * dij
    assert abs(dudt - lap) < 1e-4


def test_hom_gaussian_kernel_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        hom_gaussian_kernel([0.0], 0.0, np.eye(1))
    with pytest.raises(np.linalg.LinAlgError):
        hom_gaussian_kernel([0.0, 0.0], 1.0, np.array([[1.0, 2.0], [2.0, 1.0]]))
