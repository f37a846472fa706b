"""Forward/backward solver, Green's table, and perturbation-series tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parahom import (
    ConfigError,
    EllipticityPair,
    IntegrityError,
    PeriodicCube,
    CoefficientField,
    constant_coefficients,
    damped_perturbation_terms,
    damped_resolvent,
    duhamel_solve,
    greens_backward,
    greens_backward_matrix,
    greens_perturbation_terms,
    heat_kernel,
    heat_kernel_table,
    max_stable_dt,
    periodic_greens,
    solve_forward,
    spacetime_norm,
    aronson_fit,
    aronson_constant,
    aronson_gradient_exponent,
)


def random_diagonal_field(cube, dt, n_times, lam, Lam, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lam, Lam, size=(n_times, cube.d, cube.n_sites))
    return CoefficientField(cube, dt, vals, EllipticityPair(lam, Lam), diagonal=True)


# Hypothesis inputs for the kernel invariants: a lattice (d, L), a window
# [lam, Lam], a step dt as a fraction of the stability bound, and a seed
# for the coefficient values.
lattices = st.sampled_from([(1, 2), (1, 4), (1, 6), (2, 2), (2, 4), (2, 6), (3, 2)])
lams = st.floats(0.1, 1.0)
contrasts = st.floats(1.0, 4.0)  # Lam / lam
dt_fractions = st.floats(0.05, 1.0)
seeds = st.integers(0, 2**32 - 1)


def drawn_field(lattice, n_times, lam, ratio, dt_fraction, seed):
    cube = PeriodicCube(*lattice)
    window = EllipticityPair(lam, lam * ratio)
    dt = dt_fraction * max_stable_dt(window, cube.d)
    return random_diagonal_field(cube, dt, n_times, window.lam, window.Lam, seed)


def dense_step(a, i, h):
    """Dense oracle of one step: I - h D^T diag(a_i) D, with D the
    forward-difference matrix, so that D^T diag(a_i) D = div(a_i grad .)."""
    n = a.cube.n_sites
    D = a.cube.grad(np.eye(n)).transpose(1, 2, 0).reshape(a.cube.d * n, n)
    a_i = a.values[0 if a.n_times == 1 else i].ravel()
    return np.eye(n) - h * D.T @ (a_i[:, None] * D)


@settings(max_examples=40, deadline=None)
@given(lattice=lattices, n_times=st.integers(1, 8), lam=lams, ratio=contrasts,
       dt_fraction=dt_fractions, m=st.floats(0.3, 3.0), seed=seeds)
def test_solves_match_dense_step_matrices(lattice, n_times, lam, ratio,
                                          dt_fraction, m, seed):
    a = drawn_field(lattice, n_times, lam, ratio, dt_fraction, seed)
    n, dt = a.cube.n_sites, a.dt
    rng = np.random.default_rng(seed)
    # forward: u_{i+1} = (I - dt D^T a_i D) u_i
    u = rng.standard_normal(n)
    traj = solve_forward(a, u, n_times)
    for i in range(n_times):
        u = dense_step(a, i, dt) @ u
        assert np.abs(traj[i + 1] - u).max() <= 1e-12
    # backward: every source row through I - (dt/2) D^T a_i D
    _, mats = greens_backward_matrix(a, t_index=n_times)
    P = np.eye(n)
    for i in range(n_times - 1, -1, -1):
        P = P @ dense_step(a, i, dt / 2.0).T
        assert np.abs(mats[i] - P).max() <= 1e-12
    # damped: v_i = rho (M_i v_{i+1} + dt g_{i+1})
    g = rng.standard_normal((n_times + 1, n))
    v = damped_resolvent(a, m, g)
    rho = np.exp(-m * m * dt / 2.0)
    w = np.zeros(n)
    for i in range(n_times - 1, -1, -1):
        w = rho * (dense_step(a, i, dt / 2.0) @ w + dt * g[i + 1])
        assert np.abs(v[i] - w).max() <= 1e-12 * max(1.0, np.abs(w).max())


# -- coefficient fields -----------------------------------------------------------


def test_validate_catches_window_violation():
    cube = PeriodicCube(1, 8)
    a = random_diagonal_field(cube, 0.05, 4, 1.0, 2.0, seed=1)
    a.validate()
    a.values[2, 0, 3] = 5.0
    with pytest.raises(IntegrityError):
        a.validate()


def test_contrast_window():
    cube = PeriodicCube(2, 4)
    a = random_diagonal_field(cube, 0.05, 3, 1.0, 4.0, seed=2)
    b = a.contrast()
    assert b.min() >= 0.0
    assert b.max() <= 1.0 - 1.0 / 4.0 + 1e-12


# -- forward problem ---------------------------------------------------------------


def test_forward_constant_matches_heat_kernel():
    cube = PeriodicCube(1, 64)
    Lam = 2.0
    dt = 0.002
    a = constant_coefficients(cube, dt, Lam, n_times=1)
    h = np.zeros(cube.n_sites)
    h[0] = 1.0
    n_steps = 500  # t = 1
    traj = solve_forward(a, h, n_steps)
    offs = cube.min_image(cube.all_coords())[:, 0]
    oracle = heat_kernel(offs[:, None], Lam * 1.0)
    assert np.abs(traj[-1] - oracle).max() < 5e-3  # O(dt)
    # refine dt: error shrinks proportionally
    a2 = constant_coefficients(cube, dt / 2, Lam, n_times=1)
    traj2 = solve_forward(a2, h, 2 * n_steps)
    e1 = np.abs(traj[-1] - oracle).max()
    e2 = np.abs(traj2[-1] - oracle).max()
    assert e2 < 0.65 * e1


def test_forward_constant_initial_stays_constant():
    cube = PeriodicCube(2, 6)
    a = random_diagonal_field(cube, 0.04, 10, 0.5, 1.5, seed=3)
    traj = solve_forward(a, np.full(cube.n_sites, 3.3), 10)
    assert np.abs(traj - 3.3).max() < 1e-13


@settings(max_examples=40, deadline=None)
@given(lattice=lattices, n_times=st.integers(1, 30), lam=lams, ratio=contrasts,
       dt_fraction=dt_fractions, seed=seeds)
@example(lattice=(2, 8), n_times=30, lam=0.5, ratio=4.0, dt_fraction=0.4, seed=4)
def test_forward_l2_contraction(lattice, n_times, lam, ratio, dt_fraction, seed):
    a = drawn_field(lattice, n_times, lam, ratio, dt_fraction, seed)
    rng = np.random.default_rng(seed + 1)
    traj = solve_forward(a, rng.standard_normal(a.cube.n_sites), n_times)
    norms = np.linalg.norm(traj, axis=-1)
    assert np.all(np.diff(norms) <= 1e-12)


def test_forward_stability_guard():
    cube = PeriodicCube(2, 4)
    a = constant_coefficients(cube, 0.3, 1.0, n_times=1)  # bound is 0.25
    with pytest.raises(ConfigError):
        solve_forward(a, np.zeros(cube.n_sites), 1)
    with pytest.raises(ConfigError):
        solve_forward(
            constant_coefficients(cube, 0.1, 1.0), np.full(cube.n_sites, np.nan), 1
        )


# -- backward Green's function --------------------------------------------------------


def test_greens_terminal_delta_and_constant_reduction():
    cube = PeriodicCube(1, 64)
    c = 1.5
    dt = 0.01
    a = constant_coefficients(cube, dt, c, n_times=200)
    table = greens_backward(a, source_site=0, t_index=200)
    assert table.values[-1, 0] == 1.0 and table.values[-1, 1:].sum() == 0.0
    # constant coefficients: G(y, s; x, t) = heat kernel at rate c/2 over t-s
    offs = cube.min_image(cube.all_coords())[:, 0]
    lag = 1.0  # 100 steps
    oracle = heat_kernel(offs[:, None], c * lag / 2.0)
    assert np.abs(table.values[100] - oracle).max() < 5e-3


@settings(max_examples=40, deadline=None)
@given(lattice=lattices, n_times=st.integers(1, 40), lam=lams, ratio=contrasts,
       dt_fraction=dt_fractions, seed=seeds)
@example(lattice=(2, 6), n_times=40, lam=0.5, ratio=4.0, dt_fraction=0.9, seed=6)
def test_greens_sum_rules_and_nonnegativity(lattice, n_times, lam, ratio,
                                            dt_fraction, seed):
    a = drawn_field(lattice, n_times, lam, ratio, dt_fraction, seed)
    levels, mats = greens_backward_matrix(a, t_index=n_times)
    # sum over y (axis -1) and over sources x (axis -2), every stored level
    assert np.abs(mats.sum(axis=-1) - 1.0).max() < 1e-12
    assert np.abs(mats.sum(axis=-2) - 1.0).max() < 1e-12
    assert mats.min() >= -1e-14


def test_greens_single_source_matches_matrix_row():
    cube = PeriodicCube(1, 8)
    a = random_diagonal_field(cube, 0.1, 12, 0.5, 2.0, seed=7)
    src = 3
    table = greens_backward(a, src, t_index=12)
    _, mats = greens_backward_matrix(a, t_index=12)
    assert np.allclose(table.values, mats[:, src, :], atol=1e-14)


def test_greens_semigroup_property():
    cube = PeriodicCube(1, 10)
    a = random_diagonal_field(cube, 0.08, 20, 0.5, 2.0, seed=8)
    _, m_t = greens_backward_matrix(a, t_index=20)  # levels 0..20
    _, m_r = greens_backward_matrix(a, t_index=12)  # levels 0..12
    # propagator from 20 down to 4 = (20 -> 12) then (12 -> 4)
    lhs = m_t[4]
    rhs = m_t[12] @ m_r[4]
    assert np.abs(lhs - rhs).max() < 1e-12


def test_greens_invalid_levels():
    cube = PeriodicCube(1, 4)
    a = constant_coefficients(cube, 0.1, 1.0, n_times=5)
    with pytest.raises(ConfigError):
        greens_backward(a, 0, t_index=3, s_min_index=3)


def test_steps_beyond_the_field_raise():
    cube = PeriodicCube(1, 4)
    a = random_diagonal_field(cube, 0.1, 5, 0.5, 2.0, seed=20)
    with pytest.raises(ConfigError, match="coefficient levels"):
        greens_backward(a, 0, t_index=8)
    with pytest.raises(ConfigError, match="coefficient levels"):
        greens_perturbation_terms(a, 0, t_index=8, n_max=1)
    with pytest.raises(ConfigError, match="coefficient levels"):
        solve_forward(a, np.zeros(cube.n_sites), 6)
    with pytest.raises(ConfigError, match="levels"):
        damped_perturbation_terms(a, 1.0, np.zeros((9, cube.n_sites)), 1)
    # a one-level field is constant in time and serves every step
    const = constant_coefficients(cube, 0.1, 1.0, n_times=1)
    assert greens_backward(const, 0, t_index=8).values.shape == (9, cube.n_sites)


# -- periodization ----------------------------------------------------------------------


def test_periodic_greens_folds_and_conserves_mass():
    cube = PeriodicCube(1, 8)
    kernel = heat_kernel_table(1, 30, 2.0)  # decayed well below 1e-12 at radius 30
    folded = periodic_greens(kernel, cube)
    assert abs(folded.sum() - 1.0) < 1e-10
    # center value: sum of images
    axis = np.arange(-30, 31)
    expect0 = kernel[(axis % 8) == 0].sum()
    assert folded[0] == pytest.approx(expect0, abs=1e-14)


def test_periodic_greens_rejects_fat_tails():
    cube = PeriodicCube(1, 8)
    kernel = heat_kernel_table(1, 6, 3.0)  # boundary mass far above 1e-12
    with pytest.raises(IntegrityError):
        periodic_greens(kernel, cube)


def test_periodic_greens_matches_free_kernel_on_large_cube():
    cube = PeriodicCube(2, 24)
    kernel = heat_kernel_table(2, 25, 1.0)
    folded = periodic_greens(kernel, cube)
    center = heat_kernel([0, 0], 1.0)
    assert folded[cube.site_index([0, 0])] == pytest.approx(center, abs=1e-10)


# -- envelope fits -------------------------------------------------------------------------


def _constant_tables(d, L, c, dt, n_steps, n_tables, seed=0):
    cube = PeriodicCube(d, L)
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n_tables):
        a = constant_coefficients(cube, dt, c, n_times=n_steps)
        out.append(greens_backward(a, int(rng.integers(cube.n_sites)), n_steps))
    return out


def test_aronson_constant_finite_and_stable():
    tables = _constant_tables(2, 12, 1.0, 0.2, 40, 8, seed=9)
    fit = aronson_fit(tables)
    assert np.isfinite(fit["C_hat"]) and fit["C_hat"] > 0
    assert fit["passes"]  # constant environments: no growth under doubling


def test_aronson_gradient_exponent_positive_for_free_kernel():
    tables = _constant_tables(1, 32, 1.0, 0.1, 300, 2, seed=10)
    fit = aronson_gradient_exponent(tables, tau_min=2.0)
    # free-kernel gradients decay one half-order faster at least
    assert fit["beta"] > 0.2


# -- Duhamel -------------------------------------------------------------------------------


def duhamel_via_greens(a, f):
    """Duhamel sum u_i = dt * sum_{k>i} P(i, k-1) f_k assembled from
    stored Green's tables, O(nt^2 n^2)."""
    out = np.zeros_like(f, dtype=float)
    out[0] += a.dt * f[1]
    for k in range(2, f.shape[0]):
        # tables[i, x, y] = G(y, s_i; x, t_{k-1}); contract over sources
        _, tables = greens_backward_matrix(a, t_index=k - 1, s_min_index=0)
        out[:k] += a.dt * np.einsum("ixy,x->iy", tables[:k], f[k])
    return out


def test_duhamel_direct_equals_greens_path():
    cube = PeriodicCube(1, 8)
    a = random_diagonal_field(cube, 0.08, 10, 0.5, 2.0, seed=11)
    rng = np.random.default_rng(12)
    f = rng.standard_normal((11, cube.n_sites))
    assert np.abs(duhamel_solve(a, f) - duhamel_via_greens(a, f)).max() < 1e-12


def test_duhamel_delta_forcing_is_table_slice():
    cube = PeriodicCube(1, 8)
    a = random_diagonal_field(cube, 0.08, 10, 0.5, 2.0, seed=13)
    f = np.zeros((11, cube.n_sites))
    src = 2
    f[7, src] = 1.0 / a.dt  # delta in the time bin
    u = duhamel_solve(a, f)
    table = greens_backward(a, src, t_index=6)
    assert np.allclose(u[:7], table.values, atol=1e-12)
    assert np.abs(u[7:]).max() == 0.0


def test_duhamel_shape_guard():
    cube = PeriodicCube(1, 4)
    a = constant_coefficients(cube, 0.1, 1.0, n_times=5)
    with pytest.raises(ConfigError):
        duhamel_solve(a, np.zeros((3, cube.n_sites)))


# -- damped resolvent -------------------------------------------------------------------------


def test_damped_resolvent_zero_data():
    cube = PeriodicCube(1, 6)
    a = random_diagonal_field(cube, 0.1, 8, 0.5, 2.0, seed=14)
    v = damped_resolvent(a, 1.0, np.zeros((9, cube.n_sites)))
    assert np.abs(v).max() == 0.0


def test_damped_resolvent_bound_random_pairs():
    rng = np.random.default_rng(15)
    cube = PeriodicCube(1, 10)
    m = 0.8
    for k in range(20):
        a = random_diagonal_field(cube, 0.1, 30, 0.5, 2.0, seed=100 + k)
        g = rng.standard_normal((31, cube.n_sites))
        v = damped_resolvent(a, m, g)
        assert spacetime_norm(v, a.dt) <= 2.0 / m**2 * spacetime_norm(g, a.dt)


def test_damped_resolvent_fourier_mode_oracle():
    # constant coefficients, single spatial mode, time-constant forcing:
    # closed-form damped integral per mode, O(dt) agreement
    cube = PeriodicCube(1, 16)
    c, m, dt, nt = 1.3, 1.0, 0.01, 800
    a = constant_coefficients(cube, dt, c, n_times=nt)
    k = 3
    mode = np.cos(2 * np.pi * k * np.arange(16) / 16)
    g = np.tile(mode, (nt + 1, 1))
    v = damped_resolvent(a, m, g)
    mu = 2.0 - 2.0 * np.cos(2 * np.pi * k / 16)
    rate = (m * m + c * mu) / 2.0
    T = nt * dt
    s_check = 200
    oracle = (1.0 - np.exp(-rate * (T - s_check * dt))) / rate
    got = v[s_check] @ mode / (mode @ mode)
    assert got == pytest.approx(oracle, rel=2e-2)


def test_damped_resolvent_rejects_bad_mass():
    cube = PeriodicCube(1, 4)
    a = constant_coefficients(cube, 0.1, 1.0, n_times=3)
    with pytest.raises(ConfigError):
        damped_resolvent(a, 0.0, np.zeros((4, cube.n_sites)))


# -- perturbation expansion ------------------------------------------------------------------


def test_perturbation_zero_contrast():
    cube = PeriodicCube(1, 8)
    Lam = 2.0
    a = constant_coefficients(cube, 0.1, Lam, n_times=10)
    series = greens_perturbation_terms(a, 0, t_index=10, n_max=3)
    for t in series.terms[1:]:
        assert np.abs(t).max() < 1e-14
    g = np.random.default_rng(16).standard_normal((11, cube.n_sites))
    dser = damped_perturbation_terms(a, 1.0, g, 3)
    for t in dser.terms[1:]:
        assert np.abs(t).max() < 1e-14
    # v_0 alone reproduces the damped resolvent
    v = damped_resolvent(a, 1.0, g)
    assert np.abs(dser.terms[0] - v).max() < 1e-12


def test_greens_perturbation_partial_sums_geometric():
    cube = PeriodicCube(1, 10)
    a = random_diagonal_field(cube, 0.08, 20, 1.0, 2.0, seed=17)
    table = greens_backward(a, 0, t_index=20)
    series = greens_perturbation_terms(a, 0, t_index=20, n_max=8)
    resid = [
        spacetime_norm(ps - table.values, a.dt) for ps in series.partial_sums()
    ]
    contrast = a.window.contrast  # 0.5
    for i in range(2, len(resid)):
        assert resid[i] <= (contrast + 0.1) * resid[i - 1] + 1e-13
    assert resid[-1] < 1e-2 * resid[0]


@settings(max_examples=30, deadline=None)
@given(lattice=lattices, n_times=st.integers(1, 120), lam=lams, ratio=contrasts,
       dt_fraction=dt_fractions, m=st.floats(0.3, 3.0), offset=st.floats(0.0, 3.0),
       seed=seeds)
@example(lattice=(1, 10), n_times=25, lam=1.0, ratio=2.0, dt_fraction=0.32, m=1.0,
         offset=0.0, seed=18)
def test_damped_perturbation_sums_telescope_and_contract(
    lattice, n_times, lam, ratio, dt_fraction, m, offset, seed
):
    a = drawn_field(lattice, n_times, lam, ratio, dt_fraction, seed)
    # the offset puts weight on the constant mode, which the free sweep
    # does not damp: term 0 then comes close to the 2 m^-2 resolvent bound
    g = offset + np.random.default_rng(seed + 1).standard_normal(
        (n_times + 1, a.cube.n_sites))
    v = damped_resolvent(a, m, g)
    n_max = 10
    ser = damped_perturbation_terms(a, m, g, n_max)
    norms = ser.norms()
    contrast = a.window.contrast
    gnorm = spacetime_norm(g, a.dt)
    for n, nn in enumerate(norms):
        assert nn <= (2.0 / m**2) * contrast**n * gnorm * (1 + 1e-9)
    # exact telescoping: v - (v_0 + ... + v_n) is the damped resolvent of
    # the contrast forcing (Lam/2) div(b grad v_n), one level later
    cube, Lam, b = a.cube, a.window.Lam, a.contrast()
    last = ser.terms[-1]
    forcing = np.zeros_like(g)
    forcing[1:] = (Lam / 2.0) * cube.div(b * cube.grad(last[1:]))
    remainder = damped_resolvent(a, m, forcing)
    gap = v - ser.partial_sums()[-1] - remainder
    assert np.abs(gap).max() <= 1e-12 * max(1.0, np.abs(v).max())
    ratios = norms[1:] / np.maximum(norms[:-1], 1e-300)
    assert np.all(ratios <= contrast + 0.05)
