"""Forward/backward solver, Green's table, and perturbation-series tests."""

import dataclasses
import itertools

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
    greens_backward,
    greens_backward_matrix,
    greens_perturbation_terms,
    heat_kernel_1d,
    solve_forward,
    spacetime_norm,
    aronson_fit,
    avg_greens_mc,
)
from parahom import parabolic
from test_lattice import same_bits


def random_diagonal_field(cube, dt, n_times, lam, Lam, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lam, Lam, size=(n_times, cube.d, cube.n_sites))
    return CoefficientField(cube, dt, vals, EllipticityPair(lam, Lam))


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
    dt = dt_fraction * (1.0 / (2.0 * cube.d * window.Lam))  # 1/(2 d Lam): stability
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
    mats = greens_backward_matrix(a, t_index=n_times)
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
    # a checked field cannot leave its window afterwards ...
    with pytest.raises(ValueError, match="read-only"):
        a.values[2, 0, 3] = 5.0
    # ... and a copy carrying the bad entry is refused when it is made
    bad = a.values.copy()
    bad[2, 0, 3] = 5.0
    with pytest.raises(IntegrityError):
        CoefficientField(cube, a.dt, bad, a.window)


@pytest.mark.parametrize("name", ["values", "window", "dt", "cube"])
def test_checked_field_members_cannot_be_rebound(name):
    cube = PeriodicCube(1, 8)
    a = random_diagonal_field(cube, 0.05, 4, 1.0, 2.0, seed=1)
    replacement = {"values": np.full_like(a.values, 5.0),
                   "window": EllipticityPair(1.0, 10.0),
                   "dt": 1.0, "cube": PeriodicCube(1, 4)}[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, name, replacement)
    a.validate()


def test_field_checks_its_layout_and_window_on_construction():
    cube = PeriodicCube(2, 4)
    window = EllipticityPair(1.0, 2.0)
    full = np.broadcast_to(np.eye(2)[None, :, :, None], (3, 2, 2, cube.n_sites))
    with pytest.raises(ConfigError, match="shape"):
        CoefficientField(cube, 0.05, full.copy(), window)
    with pytest.raises(ConfigError, match="shape"):
        CoefficientField(cube, 0.05, np.ones((3, 1, cube.n_sites)), window)
    above = np.full((3, 2, cube.n_sites), 1.5)
    above[1, 0, 5] = 2.5
    with pytest.raises(IntegrityError):
        CoefficientField(cube, 0.05, above, window)


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
    oracle = heat_kernel_1d(offs, Lam * 1.0)
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


@pytest.mark.parametrize("n_steps", [-1, -3, 2.5, 2.0, "2", None, True])
def test_forward_refuses_a_step_count_that_is_not_a_non_negative_integer(n_steps,
                                                                          monkeypatch):
    # before the guard, -1 raised IndexError, -3 ValueError and 2.5 TypeError
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before n_steps was checked")

    monkeypatch.setattr(parabolic, "_sweep", no_step)
    a = constant_coefficients(PeriodicCube(1, 4), 0.1, 1.0)
    with pytest.raises(ConfigError, match="n_steps"):
        solve_forward(a, np.zeros(4), n_steps)


def test_forward_takes_zero_steps_and_numpy_integers():
    a = constant_coefficients(PeriodicCube(1, 4), 0.1, 1.0)
    h = np.arange(4.0)
    assert same_bits(solve_forward(a, h, 0), h[None])
    assert same_bits(solve_forward(a, h, np.int64(3)), solve_forward(a, h, 3))


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
    oracle = heat_kernel_1d(offs, c * lag / 2.0)
    assert np.abs(table.values[100] - oracle).max() < 5e-3


@settings(max_examples=40, deadline=None)
@given(lattice=lattices, n_times=st.integers(1, 40), lam=lams, ratio=contrasts,
       dt_fraction=dt_fractions, seed=seeds)
@example(lattice=(2, 6), n_times=40, lam=0.5, ratio=4.0, dt_fraction=0.9, seed=6)
def test_greens_sum_rules_and_nonnegativity(lattice, n_times, lam, ratio,
                                            dt_fraction, seed):
    a = drawn_field(lattice, n_times, lam, ratio, dt_fraction, seed)
    mats = greens_backward_matrix(a, t_index=n_times)
    # sum over y (axis -1) and over sources x (axis -2), every stored level
    assert np.abs(mats.sum(axis=-1) - 1.0).max() < 1e-12
    assert np.abs(mats.sum(axis=-2) - 1.0).max() < 1e-12
    assert mats.min() >= -1e-14


def test_greens_single_source_matches_matrix_row():
    cube = PeriodicCube(1, 8)
    a = random_diagonal_field(cube, 0.1, 12, 0.5, 2.0, seed=7)
    src = 3
    table = greens_backward(a, src, t_index=12)
    mats = greens_backward_matrix(a, t_index=12)
    assert np.allclose(table.values, mats[:, src, :], atol=1e-14)


def test_greens_semigroup_property():
    cube = PeriodicCube(1, 10)
    a = random_diagonal_field(cube, 0.08, 20, 0.5, 2.0, seed=8)
    m_t = greens_backward_matrix(a, t_index=20)  # levels 0..20
    m_r = greens_backward_matrix(a, t_index=12)  # levels 0..12
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


@pytest.mark.parametrize("site", [4, 9, -1])
def test_source_site_outside_the_lattice_raises(site):
    a = constant_coefficients(PeriodicCube(1, 4), 0.1, 1.0, n_times=3)

    def no_sample(seed):
        raise AssertionError("sampled before the source site was checked")

    with pytest.raises(ConfigError, match="source_site"):
        greens_backward(a, site, 2)
    with pytest.raises(ConfigError, match="source_site"):
        greens_perturbation_terms(a, site, t_index=2, n_max=1)
    with pytest.raises(ConfigError, match="source_site"):
        avg_greens_mc(no_sample, a.cube, site, [1, 2], 2)


@pytest.mark.parametrize("t_indices", [[-1, 10], [3, -2], []])
def test_avg_greens_rejects_negative_time_indices_before_sampling(t_indices):
    # a negative index would silently read the level counted from the end
    def no_sample(seed):
        raise AssertionError("sampled before the time indices were checked")

    with pytest.raises(ConfigError, match="t_indices"):
        avg_greens_mc(no_sample, PeriodicCube(1, 4), 0, t_indices, 2)


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


# -- damped resolvent: a damped Duhamel integral ---------------------------------------------


def duhamel_via_greens(a, m, g):
    """The damped Duhamel sum v_i = sum_{k>i} rho^{k-i} dt P(i, k-1) g_k,
    rho = e^{-m^2 dt/2}, assembled from stored Green's tables,
    O(nt^2 n^2)."""
    rho = np.exp(-m * m * a.dt / 2.0)
    out = np.zeros_like(g, dtype=float)
    out[0] += rho * a.dt * g[1]
    for k in range(2, g.shape[0]):
        # tables[i, x, y] = G(y, s_i; x, t_{k-1}); contract over sources
        tables = greens_backward_matrix(a, t_index=k - 1)
        weights = rho ** (k - np.arange(k))
        out[:k] += a.dt * weights[:, None] * np.einsum("ixy,x->iy", tables[:k], g[k])
    return out


def test_duhamel_direct_equals_greens_path():
    cube = PeriodicCube(1, 8)
    a = random_diagonal_field(cube, 0.08, 10, 0.5, 2.0, seed=11)
    rng = np.random.default_rng(12)
    g = rng.standard_normal((11, cube.n_sites))
    v = damped_resolvent(a, 0.9, g)
    assert np.abs(v - duhamel_via_greens(a, 0.9, g)).max() < 1e-12


def test_duhamel_delta_forcing_is_table_slice():
    cube = PeriodicCube(1, 8)
    a = random_diagonal_field(cube, 0.08, 10, 0.5, 2.0, seed=13)
    m, src = 0.9, 2
    g = np.zeros((11, cube.n_sites))
    g[7, src] = 1.0 / a.dt  # delta in the time bin
    v = damped_resolvent(a, m, g)
    table = greens_backward(a, src, t_index=6)
    damping = np.exp(-m * m * a.dt / 2.0) ** (7 - np.arange(7))
    assert np.allclose(v[:7], damping[:, None] * table.values, atol=1e-12)
    assert np.abs(v[7:]).max() == 0.0


def test_duhamel_shape_guard():
    cube = PeriodicCube(1, 4)
    a = constant_coefficients(cube, 0.1, 1.0, n_times=5)
    with pytest.raises(ConfigError, match="levels"):
        damped_resolvent(a, 1.0, np.zeros((3, cube.n_sites)))


def test_damped_resolvent_zero_data():
    cube = PeriodicCube(1, 6)
    a = random_diagonal_field(cube, 0.1, 8, 0.5, 2.0, seed=14)
    v = damped_resolvent(a, 1.0, np.zeros((9, cube.n_sites)))
    assert np.abs(v).max() == 0.0


@settings(max_examples=40, deadline=None)
@given(lattice=lattices, n_times=st.integers(1, 40), lam=lams, ratio=contrasts,
       dt_fraction=dt_fractions, m=st.floats(0.3, 3.0), offset=st.floats(0.0, 3.0),
       seed=seeds)
@example(lattice=(1, 10), n_times=30, lam=0.5, ratio=4.0, dt_fraction=0.4, m=0.8,
         offset=0.0, seed=100)
def test_damped_resolvent_bound_random_pairs(lattice, n_times, lam, ratio, dt_fraction,
                                             m, offset, seed):
    a = drawn_field(lattice, n_times, lam, ratio, dt_fraction, seed)
    # the offset weights the constant mode, the slowest to decay
    g = offset + np.random.default_rng(seed + 1).standard_normal(
        (n_times + 1, a.cube.n_sites))
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
    terms = greens_perturbation_terms(a, 0, t_index=10, n_max=3)
    assert len(terms) == 4
    for t in terms[1:]:
        assert np.abs(t).max() < 1e-14
    g = np.random.default_rng(16).standard_normal((11, cube.n_sites))
    dterms = damped_perturbation_terms(a, 1.0, g, 3)
    for t in dterms[1:]:
        assert np.abs(t).max() < 1e-14
    # v_0 alone reproduces the damped resolvent
    v = damped_resolvent(a, 1.0, g)
    assert np.abs(dterms[0] - v).max() < 1e-12


def test_greens_perturbation_partial_sums_geometric():
    cube = PeriodicCube(1, 10)
    a = random_diagonal_field(cube, 0.08, 20, 1.0, 2.0, seed=17)
    table = greens_backward(a, 0, t_index=20)
    terms = greens_perturbation_terms(a, 0, t_index=20, n_max=8)
    resid = [
        spacetime_norm(ps - table.values, a.dt) for ps in itertools.accumulate(terms)
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
    terms = damped_perturbation_terms(a, m, g, n_max)
    norms = np.array([spacetime_norm(t, a.dt) for t in terms])
    contrast = a.window.contrast
    gnorm = spacetime_norm(g, a.dt)
    for n, nn in enumerate(norms):
        assert nn <= (2.0 / m**2) * contrast**n * gnorm * (1 + 1e-9)
    # exact telescoping: v - (v_0 + ... + v_n) is the damped resolvent of
    # the contrast forcing (Lam/2) div(b grad v_n), one level later
    cube, Lam, b = a.cube, a.window.Lam, a.contrast()
    last = terms[-1]
    forcing = np.zeros_like(g)
    forcing[1:] = (Lam / 2.0) * cube.div(b * cube.grad(last[1:]))
    remainder = damped_resolvent(a, m, forcing)
    gap = v - sum(terms) - remainder
    assert np.abs(gap).max() <= 1e-12 * max(1.0, np.abs(v).max())
    ratios = norms[1:] / np.maximum(norms[:-1], 1e-300)
    assert np.all(ratios <= contrast + 0.05)
