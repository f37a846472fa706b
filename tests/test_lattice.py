"""Lattice calculus and constant-coefficient kernel tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from parahom import (
    CoefficientMap,
    ConfigError,
    PeriodicCube,
    EllipticityPair,
    PotentialSpec,
    coefficient_field,
    constant_coefficients,
    heat_kernel_1d,
    heat_kernel_solver,
    heat_kernel_table,
    hom_gaussian_kernel,
    langevin_simulate,
    solve_forward,
)
from parahom.lattice import _shift_into


# -- oracles ------------------------------------------------------------------


def grad_at(cube, phi, site):
    """Gradient vector at one site, from the coordinates of its neighbours."""
    coords = cube.site_coords(site)  # validates the index
    out = np.empty(cube.d, dtype=phi.dtype)
    for j in range(cube.d):
        step = coords.copy()
        step[j] += 1
        out[j] = phi[cube.site_index(step)] - phi[site]
    return out


def div_at(cube, F, site):
    """Divergence at one site, summed from zero in the order j = 0..d-1."""
    coords = cube.site_coords(site)
    total = np.zeros((), dtype=F.dtype)
    for j in range(cube.d):
        back = coords.copy()
        back[j] -= 1
        total += F[j, cube.site_index(back)] - F[j, site]
    return total


def laplacian(cube, phi):
    """div(grad phi) = sum_j [2 phi - phi(.+e_j) - phi(.-e_j)] (>= 0 operator)."""
    out = 2.0 * cube.d * phi
    for j in range(cube.d):
        out -= roll_shift(cube, phi, j, +1)
        out -= roll_shift(cube, phi, j, -1)
    return out


def heat_kernel(x, t):
    """Exact heat kernel G(x, t) on Z^d solving dG/dt + div grad G = 0: the
    product over coordinates of e^{-2t} I_{x_j}(2t), for an integer point
    or an (..., d) array of points."""
    x = np.atleast_2d(np.asarray(x, dtype=int))
    out = np.prod(heat_kernel_1d(x, t), axis=-1)
    return out if out.size > 1 else float(out[0])


# the stencil as np.roll expressions: the reference the slice-copy stencil
# and the paths built on it must reproduce bit for bit


def roll_shift(cube, field, j, step):
    grid = field.reshape(field.shape[:-1] + cube.shape)
    return np.roll(grid, -step, axis=-cube.d + j).reshape(field.shape)


def roll_grad(cube, phi):
    out = np.empty(phi.shape[:-1] + (cube.d, cube.n_sites), dtype=phi.dtype)
    for j in range(cube.d):
        out[..., j, :] = roll_shift(cube, phi, j, +1) - phi
    return out


def roll_div(cube, F):
    out = np.zeros(F.shape[:-2] + (cube.n_sites,), dtype=F.dtype)
    for j in range(cube.d):
        F_j = F[..., j, :]
        out += roll_shift(cube, F_j, j, -1) - F_j
    return out


def same_bits(a, b):
    """Equal shape, dtype and bytes: unlike ==, tells -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    assert grad_at(cube, phi, 0)[0] == -1.0
    assert grad_at(cube, phi, 3)[0] == +1.0
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
        grad_at(cube, phi, x) @ F[:, x] for x in range(cube.n_sites)
    )
    rhs = sum(phi[x] * div_at(cube, F, x) for x in range(cube.n_sites))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    L=st.sampled_from([2, 4, 6]),
    twisted=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(d=3, L=4, twisted=True, seed=5)
def test_adjointness_property(d, L, twisted, seed):
    # <grad phi, F> = <phi, div F>; twisted, with complex xi-phases and
    # complex fields under the inner product sum conj(u) v
    cube = PeriodicCube(d, L)
    rng = np.random.default_rng(seed)

    def data(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if twisted else x

    phi, F = data(cube.n_sites), data((d, cube.n_sites))
    xi = rng.uniform(-np.pi, np.pi, size=d) if twisted else None
    lhs = np.vdot(cube.grad(phi, xi=xi), F)
    rhs = np.vdot(phi, cube.div(F, xi=xi))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_dirichlet_form_nonnegative():
    cube = PeriodicCube(2, 6)
    rng = np.random.default_rng(3)
    for _ in range(5):
        phi = rng.standard_normal(cube.n_sites)
        assert float(phi @ laplacian(cube, phi)) >= 0
        assert np.allclose(laplacian(cube, phi), cube.div(cube.grad(phi)))


def test_laplacian_symbol_matches_operator():
    cube = PeriodicCube(2, 6)
    rng = np.random.default_rng(11)
    phi = rng.standard_normal(cube.n_sites)
    via_fft = np.fft.ifftn(
        cube.laplacian_symbol() * np.fft.fftn(phi.reshape(cube.shape))
    ).real.ravel()
    assert np.allclose(via_fft, laplacian(cube, phi), atol=1e-10)


# -- the slice-copy stencil against np.roll and the pointwise oracles -----------


def _stencil_data(rng, shape, complex_):
    """Small integers with signed zeros mixed in, so that differences hit
    exact zeros and the sign of zero is exercised."""
    def part():
        x = rng.integers(-2, 3, size=shape).astype(float)
        x[rng.random(shape) < 0.2] = -0.0
        return x
    return part() + 1j * part() if complex_ else part()


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    L=st.sampled_from([2, 4, 6]),
    batch=st.sampled_from([(), (2,), (3, 2)]),
    step=st.sampled_from([1, -1]),
    complex_=st.booleans(),
    use_out=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_stencil_matches_roll_and_pointwise_oracles(d, L, batch, step, complex_, use_out,
                                                     seed):
    cube = PeriodicCube(d, L)
    rng = np.random.default_rng(seed)
    phi = _stencil_data(rng, batch + (cube.n_sites,), complex_)
    F = _stencil_data(rng, batch + (d, cube.n_sites), complex_)

    def call(op, arg, shape, *extra):
        if not use_out:
            return op(arg, *extra)
        out = np.full(shape, np.nan, dtype=arg.dtype)
        assert op(arg, *extra, out=out) is out
        return out

    for j in range(d):
        shifted = np.full(phi.shape, np.nan, dtype=phi.dtype)
        _shift_into(cube._shift_views(phi, shifted, j, step))
        assert same_bits(shifted, roll_shift(cube, phi, j, step))
    g = call(cube.grad, phi, batch + (d, cube.n_sites))
    assert same_bits(g, roll_grad(cube, phi))
    dv = cube.div(F)
    assert same_bits(dv, roll_div(cube, F))
    for idx in np.ndindex(batch):
        for x in range(cube.n_sites):
            assert same_bits(g[idx][:, x], grad_at(cube, phi[idx], x))
            assert same_bits(dv[idx][x], div_at(cube, F[idx], x))


def test_stencil_out_aliasing_its_input_raises():
    cube = PeriodicCube(2, 4)
    buf = np.arange(3.0 * cube.n_sites).reshape(3, cube.n_sites) ** 2
    with pytest.raises(ConfigError):
        cube.grad(buf[0], out=buf[:2])
    # adjacent rows of one buffer do not overlap
    assert same_bits(cube.grad(buf[0], out=buf[1:]), roll_grad(cube, buf[0]))


# -- bit-identity pins: Langevin paths, coefficient maps and forward sweeps ------


def roll_langevin(V, m, cube, dt, n_steps, burn_in, seed):
    """Euler--Maruyama levels burn_in..burn_in+n_steps from phi = 0, one
    increment draw per step, with the drift as np.roll expressions."""
    rng = np.random.default_rng(seed)
    phi = np.zeros(cube.n_sites)
    levels = [phi]
    for _ in range(burn_in + n_steps):
        dB = np.sqrt(dt) * rng.standard_normal(cube.n_sites)
        z = roll_grad(cube, phi)
        flux = V.c * z if V.form == "quadratic" else V.c * z - V.a_dip * np.sin(z)
        drift = -0.5 * (roll_div(cube, flux) + m * m * phi)
        phi = phi + dt * drift + dB
        levels.append(phi)
    return np.array(levels[burn_in:])


def roll_coefficients(V, cube, values):
    z = roll_grad(cube, values)
    if V.form == "quadratic":
        return np.full_like(z, V.c)
    return V.c - V.a_dip * np.cos(z)


def roll_forward(cube, a, h, n_steps, dt):
    levels = [h]
    for i in range(n_steps):
        u = levels[-1]
        levels.append(u - dt * roll_div(cube, a[min(i, len(a) - 1)] * roll_grad(cube, u)))
    return np.array(levels)


@pytest.mark.parametrize("d, L", [(1, 8), (2, 6), (3, 4)])
@pytest.mark.parametrize("V", [PotentialSpec("quadratic", c=1.0),
                               PotentialSpec("dipole", c=1.0, a_dip=0.3)],
                         ids=["quadratic", "dipole"])
def test_langevin_coefficients_and_forward_sweep_are_pinned_to_roll(d, L, V):
    cube = PeriodicCube(d, L)
    m, dt, n_steps, burn_in, seed = 1.0, 0.05, 12, 7, 11 * d
    traj = langevin_simulate(V, m, cube, dt, n_steps, burn_in=burn_in, seed=seed)
    assert same_bits(traj.values, roll_langevin(V, m, cube, dt, n_steps, burn_in, seed))
    a = coefficient_field(traj, CoefficientMap("matrix-of-gradient", potential=V))
    assert same_bits(a.values, roll_coefficients(V, cube, traj.values))
    h = np.random.default_rng(seed).standard_normal((2, cube.n_sites))
    assert same_bits(solve_forward(a, h, n_steps),
                     roll_forward(cube, a.values, h, n_steps, dt))
    const = constant_coefficients(cube, dt, 1.3)
    assert same_bits(solve_forward(const, h[0], 5),
                     roll_forward(cube, const.values, h[0], 5, dt))


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


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_heat_kernel_rejects_a_time_that_is_not_finite(t):
    # unguarded, t = inf made the solver's expm_multiply fail on a NaN step
    # count, and t = nan slipped past the sign check into a NaN kernel
    for kernel in (lambda: heat_kernel_1d(np.array([0]), t),
                   lambda: heat_kernel_solver(1, 3, t)):
        with pytest.raises(ConfigError, match="finite"):
            kernel()


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


@pytest.mark.parametrize("d, radius", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 3)])
def test_heat_kernel_solver_matches_dense_exponential(d, radius):
    # the box Laplacian built site by site from coordinates: 2d on the
    # diagonal, -1 between neighbours inside the box
    from scipy.linalg import expm

    coords = list(np.ndindex(*(2 * radius + 1,) * d))
    index = {x: i for i, x in enumerate(coords)}
    K = 2.0 * d * np.eye(len(coords))
    for i, x in enumerate(coords):
        for j in range(d):
            y = x[:j] + (x[j] + 1,) + x[j + 1:]
            if y in index:
                K[i, index[y]] = K[index[y], i] = -1.0
    origin = index[(radius,) * d]
    for t in (0.3, 2.0, 10.0):
        dense = expm(-t * K)[:, origin].reshape((2 * radius + 1,) * d)
        solved = heat_kernel_solver(d, radius, t)
        assert np.abs(solved - dense).max() <= 1e-13 * np.abs(dense).max()
    assert same_bits(heat_kernel_solver(d, radius, 0.0),
                     (np.arange(len(coords)) == origin).astype(float).reshape(
                         (2 * radius + 1,) * d))


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
    cases = [
        (np.array([[1.0, 0.2], [0.2, 1.5]]), np.array([0.7, -0.4])),
        (np.array([[1.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 0.8]]),
         np.array([1.0, 0.0, 0.0])),
    ]
    t, h, ht = 1.0, 1e-3, 1e-4
    for a, x in cases:
        d = x.size

        def val(p, tt):
            return hom_gaussian_kernel(p, tt, a)

        dudt = (val(x, t + ht) - val(x, t - ht)) / (2 * ht)
        lap = 0.0
        for i in range(d):
            for j in range(d):
                ei = np.eye(d)[i] * h
                ej = np.eye(d)[j] * h
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
