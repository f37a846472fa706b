"""Corrector, effective-coefficient, T-operator, and rate-fit tests."""

import os
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from parahom import (
    ConfigError,
    EllipticityPair,
    PeriodicCube,
    PotentialSpec,
    CoefficientField,
    SolverError,
    a_hom_extract,
    avg_greens_mc,
    constant_coefficients,
    corrector_solve,
    greens_hat_formula,
    greens_hat_quadrature,
    neumann_series_q,
    q_matrix,
    rate_fit,
    spacetime_norm,
    t_operator_apply,
)
from parahom import homogenize
from parahom.environments import _map_chunks_on_cores, sample_environment
from test_environments import assert_sigma_matches_spread
from parahom.homogenize import q_matrix_single
from test_lattice import same_bits


def two_phase_field(L=32, dt=0.1):
    """d=1 checkerboard a in {1, 4}, time-independent."""
    cube = PeriodicCube(1, L)
    vals = np.where(np.arange(L) % 2 == 0, 1.0, 4.0)[None, None, :]
    return CoefficientField(cube, dt, vals.copy(), EllipticityPair(1.0, 4.0))


def random_field(d, L, nt, lam, Lam, dt=0.05, seed=0):
    cube = PeriodicCube(d, L)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lam, Lam, size=(nt, d, cube.n_sites))
    return CoefficientField(cube, dt, vals, EllipticityPair(lam, Lam))


def layered_field(d, L, nt, depends, in_time, tie_last, seed=0):
    """a_k in [0.5, 1.5) that varies along x_j only where depends[k][j] and
    in time only when ``in_time``; with ``tie_last``, a_d = a_{d-1}."""
    cube = PeriodicCube(d, L)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 1.5, size=(nt if in_time else 1, d) + cube.shape)
    for k in range(d):
        for j in range(d):
            if not depends[k][j]:
                vals[:, k] = np.take(vals[:, k], [0], axis=1 + j)
    if tie_last:
        vals[:, -1] = vals[:, -2]
    vals = np.broadcast_to(vals, (nt, d) + cube.shape).reshape(nt, d, cube.n_sites)
    return CoefficientField(cube, 0.1, vals, EllipticityPair(0.5, 1.5))


# the cell of the ahom-d3 benchmark: a_j = f_j(x_1), a_3 = a_2, constant in time
LAMINATE = dict(d=3, depends=[[True, False, False]] * 3, in_time=False, tie_last=True)


def dense_differences(cube, xi):
    """Dense matrices of the twisted differences
    (D_j u)(x) = e^{-i xi_j} u(x + e_j) - u(x), built from coordinates."""
    coords = cube.all_coords()
    n = cube.n_sites
    out = []
    for j in range(cube.d):
        step = coords.copy()
        step[:, j] += 1
        D = -np.eye(n, dtype=complex)
        for x in range(n):
            D[x, cube.site_index(step[x])] += np.exp(-1j * xi[j])
        out.append(D)
    return out


def dense_time_difference(nt, n, dt):
    """Periodic backward difference (u_i - u_{i-1}) / dt on time-major
    space-time vectors of nt levels of n sites."""
    C = np.eye(nt) - np.roll(np.eye(nt), -1, axis=1)
    return np.kron(C / dt, np.eye(n))


def dense_twisted_operator(a, xi, eta):
    """A_xi = (eta + D_t) + sum_j D_j^H a_j D_j as a dense matrix on
    time-major space-time vectors, from the coordinate-built differences."""
    cube, nt, n = a.cube, a.n_times, a.cube.n_sites
    D = dense_differences(cube, xi)
    op = (eta * np.eye(nt * n) + dense_time_difference(nt, n, a.dt)).astype(complex)
    for i in range(nt):
        block = slice(i * n, (i + 1) * n)
        op[block, block] += sum(D[j].conj().T @ (a.values[i, j][:, None] * D[j])
                                for j in range(cube.d))
    return op


def dense_corrector_q(a, xi, eta):
    """q(xi, eta) from a dense solve of A_xi Phi_k = -P D_k^H a_k."""
    cube, nt, n, d = a.cube, a.n_times, a.cube.n_sites, a.cube.d
    D = dense_differences(cube, xi)
    op = dense_twisted_operator(a, xi, eta)
    q = np.diag(a.values.mean(axis=(0, 2))).astype(complex)
    for k in range(d):
        rhs = np.concatenate([-(D[k].conj().T @ a.values[i, k]) for i in range(nt)])
        phi = np.linalg.solve(op, rhs - rhs.mean()).reshape(nt, n)
        for j in range(d):
            q[j, k] += np.mean(a.values[:, j] * (phi @ D[j].T))
    return q


# -- twisted calculus ---------------------------------------------------------


def test_twisted_gradient_of_one_is_e_of_xi():
    # (dxi 1)_j = e^{-i xi_j} - 1 at every site: the vector e(xi) of
    # greens_hat_formula
    cube = PeriodicCube(2, 4)
    ones = np.ones(cube.n_sites)
    g = cube.grad(ones, xi=[0.0, np.pi])
    assert np.all(g[0] == 0.0) and np.abs(g[1] + 2.0).max() <= 1e-15
    xi = np.array([0.3, 1.1])
    g = cube.grad(ones, xi=xi)
    e = np.exp(-1j * xi) - 1.0
    assert same_bits(g, np.repeat(e[:, None], cube.n_sites, axis=1))
    # |e(xi)|^2 = sum 2(1 - cos xi_j)
    assert np.vdot(e, e).real == pytest.approx(float((2 - 2 * np.cos(xi)).sum()))
    # real zeros at xi = 0
    assert same_bits(cube.grad(ones, xi=[0.0, 0.0]), np.zeros((2, cube.n_sites)))


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    L=st.sampled_from([2, 4, 6]),
    batch=st.sampled_from([(), (2,), (3, 2)]),
    complex_=st.booleans(),
    xi_zero=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_twisted_stencils_into_out_match_the_allocating_forms(d, L, batch, complex_,
                                                              xi_zero, seed):
    cube = PeriodicCube(d, L)
    rng = np.random.default_rng(seed)

    def data(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if complex_ else x

    psi, F = data(batch + (cube.n_sites,)), data(batch + (d, cube.n_sites))
    xi = np.zeros(d) if xi_zero else rng.uniform(-np.pi, np.pi, size=d)
    g = cube.grad(psi, xi=xi)
    dv = cube.div(F, xi=xi)
    assert g.dtype == dv.dtype == (np.float64 if xi_zero and not complex_
                                   else np.complex128)
    g_out = np.full_like(g, np.nan)
    assert cube.grad(psi, out=g_out, xi=xi) is g_out
    assert same_bits(g_out, g)
    # at xi = 0 the twisted stencils are the plain ones, bit for bit
    if xi_zero:
        assert same_bits(g, cube.grad(psi)) and same_bits(dv, cube.div(F))
    # an out that overlaps the input is refused
    buf = np.zeros(batch + (d + 1, cube.n_sites), dtype=g.dtype)
    with pytest.raises(ConfigError, match="overlap"):
        cube.grad(buf[..., 0, :], out=buf[..., :d, :], xi=xi)


def symbol_division(cube, xi, nt, dt, eta, c, r):
    """M^{-1} r for M = (eta + D_t) + c dxi* dxi by numpy.fft: division by
    the space-time symbol eta + tau_l + c sum_j |d_j(k)|^2, with
    d_j(k) = e^{-i xi_j + 2 pi i k_j / L} - 1 and the periodic backward
    difference's tau_l = (1 - e^{-2 pi i l / nt}) / dt.  At xi = 0 the
    spatial-mean mode k = 0 is mapped to 0, as the preconditioner maps it."""
    mu = np.zeros(())
    for xi_j in xi:
        d_j = np.exp(-1j * xi_j + 2j * np.pi * np.fft.fftfreq(cube.L)) - 1.0
        mu = np.add.outer(mu, np.abs(d_j) ** 2)
    tau = (1.0 - np.exp(-2j * np.pi * np.fft.fftfreq(nt))) / dt
    symbol = eta + tau.reshape((nt,) + (1,) * cube.d) + c * mu
    if not np.any(xi):
        symbol[(slice(None),) + (0,) * cube.d] = np.inf
    axes = (0,) + tuple(range(2, 2 + cube.d))
    w = np.fft.fftn(r.reshape(r.shape[:2] + cube.shape), axes=axes)
    return np.fft.ifftn(w / symbol[:, None], axes=axes).reshape(r.shape)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    L=st.sampled_from([2, 4, 6, 8]),
    nt=st.sampled_from([1, 2, 5, 17]),
    k=st.sampled_from([1, 3]),
    xi_zero=st.lists(st.booleans(), min_size=3, max_size=3),
    log_eta=st.floats(-3.0, 0.0),
    c=st.floats(0.1, 5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(d=3, L=8, nt=17, k=3, xi_zero=[True] * 3, log_eta=-3.0, c=1.0, seed=0)
@example(d=1, L=2, nt=1, k=1, xi_zero=[False] * 3, log_eta=0.0, c=0.5, seed=1)
@example(d=2, L=2, nt=1, k=3, xi_zero=[True] * 3, log_eta=-3.0, c=2.0, seed=2)
@example(d=3, L=4, nt=5, k=1, xi_zero=[False, True, False], log_eta=-2.0, c=1.0, seed=3)
def test_preconditioner_matches_the_fourier_symbol_division(d, L, nt, k, xi_zero,
                                                            log_eta, c, seed):
    # each xi_j is 0 (the real eigenbasis) or random (the DFT)
    rng = np.random.default_rng(seed)
    cube = PeriodicCube(d, L)
    xi = rng.uniform(-np.pi, np.pi, d) * ~np.array(xi_zero[:d])
    r = rng.standard_normal((nt, k, cube.n_sites))
    if xi.any():
        r = r + 1j * rng.standard_normal(r.shape)
    dt, eta = 0.1, 10.0**log_eta
    x = homogenize._preconditioner(cube, xi, nt, dt, eta, c)(r)
    expected = symbol_division(cube, xi, nt, dt, eta, c, r)
    # real arithmetic at xi = 0
    assert x.dtype == r.dtype and x.shape == r.shape
    assert np.abs(x - expected).max() <= 1e-12 * np.abs(expected).max()


# -- corrector ------------------------------------------------------------------


def test_corrector_vanishes_for_constant_coefficients():
    cube = PeriodicCube(2, 6)
    a = constant_coefficients(cube, 0.05, 1.7, n_times=4)
    for xi in ([0.0, 0.0], [0.6, -0.4]):
        corr = corrector_solve(a, xi, eta=0.01)
        assert np.abs(corr.values).max() < 1e-10
        q = q_matrix_single(corr, a)
        assert np.allclose(q, 1.7 * np.eye(2), atol=1e-10)


def test_corrector_of_a_zero_right_side_takes_no_sweep():
    # on 4 x 4 sites and 4 levels the mean of a constant rounds to itself,
    # so the projected right side is exactly zero at xi != 0 too (on 6 x 6
    # sites it is ~1e-17, and one sweep is taken, as the test above allows)
    a = constant_coefficients(PeriodicCube(2, 4), 0.05, 1.7, n_times=4)
    for xi in ([0.0, 0.0], [0.6, -0.4]):
        corr = corrector_solve(a, xi, eta=0.01)
        assert corr.iterations == 0 and corr.residual == 0.0
        assert corr.values.shape == (4, 2, 16) and np.all(corr.values == 0.0)
        assert corr.values.dtype == (np.complex128 if any(xi) else np.float64)


def test_corrector_at_a_vanishing_eta_maps_the_spatial_mean_to_zero():
    # the default d = 2, L = 8, 8-step corrector cell at xi = 0: M would
    # divide the spatial mean of a residual by about nt dt eta, and at
    # eta = 1e-300 that blew rounding up to a relative residual of 1.0;
    # the corrector has no spatial mean there, and the mode goes to 0
    a = sample_environment(PotentialSpec("dipole", c=1.0, a_dip=0.3), 1.0,
                           PeriodicCube(2, 8), 0.1, 8, 0)
    ref = q_matrix_single(corrector_solve(a, [0.0, 0.0], eta=1e-20), a)
    corr = corrector_solve(a, [0.0, 0.0], eta=1e-300)
    assert corr.residual <= 1e-12
    assert np.abs(q_matrix_single(corr, a) - ref).max() <= 1e-15


def test_corrector_two_phase_harmonic_mean():
    a = two_phase_field()
    corr = corrector_solve(a, [0.0], eta=1e-3)
    q = q_matrix_single(corr, a)
    assert abs(q[0, 0].real - 1.6) < 0.016  # 1 percent of the harmonic mean
    assert abs(q[0, 0].imag) < 1e-12


def test_corrector_energy_bound():
    for seed in range(4):
        a = random_field(2, 6, 5, 0.5, 2.0, seed=seed)
        corr = corrector_solve(a, [0.4, 0.1], eta=0.05)
        chk = corr.energy_check(a.window)
        assert chk["passes"], chk


def test_energy_check_sums_over_directions():
    a = random_field(2, 6, 4, 0.5, 2.0, seed=3)
    xi = np.array([0.5, -1.2])
    eta = 0.05
    corr = corrector_solve(a, xi, eta)
    phiv = corr.values.sum(axis=1) / np.sqrt(2)  # v = (1, 1) / sqrt(2)
    grid = phiv.reshape((a.n_times,) + a.cube.shape)
    grad2 = sum(np.abs(np.exp(-1j * xi[j]) * np.roll(grid, -1, axis=1 + j) - grid) ** 2
                for j in range(2))
    expected = eta * np.mean(np.abs(phiv) ** 2) + a.window.lam * np.mean(grad2)
    chk = corr.energy_check(a.window)
    assert chk["lhs"] == pytest.approx(expected, rel=1e-12)
    assert chk["passes"]


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    L=st.sampled_from([2, 4, 6]),
    nt=st.sampled_from([1, 2, 3]),
    xi=st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2),
    log_eta=st.floats(-3.0, 0.0),
    lam=st.floats(0.1, 1.0),
    ratio=st.floats(1.0, 5.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(d=1, L=6, nt=3, xi=[0.0, 0.0], log_eta=-3.0, lam=0.2, ratio=5.0, seed=3)
@example(d=2, L=4, nt=2, xi=[0.0, 0.0], log_eta=-1.0, lam=0.5, ratio=3.0, seed=7)
@example(d=2, L=6, nt=3, xi=[0.0, 1.1], log_eta=-2.0, lam=0.3, ratio=4.0, seed=11)
# the contrast recurrence stops at 1e-12 where f - A u reads 1.0000138e-12
@example(d=1, L=6, nt=2, xi=[1.5, 0.0], log_eta=-2.3125, lam=0.9375,
         ratio=4.766204896425603, seed=2819)
def test_corrector_matches_dense_solve(d, L, nt, xi, log_eta, lam, ratio, seed):
    a = random_field(d, L, nt, lam, lam * ratio, dt=0.1, seed=seed)
    xi, eta = np.array(xi[:d]), 10.0**log_eta
    corr = corrector_solve(a, xi, eta)
    # real arithmetic exactly at xi = 0
    assert corr.values.dtype == (np.complex128 if xi.any() else np.float64)
    assert corr.residual <= 1e-12
    q_dense = dense_corrector_q(a, xi, eta)
    assert np.abs(q_matrix_single(corr, a) - q_dense).max() <= 1e-10


def corrector_right_side(a, xi):
    """f = -P dxi* a e_k for each component k, shape (nt, d, n)."""
    cube, d = a.cube, a.cube.d
    f = -cube.div(a.values[:, None] * np.eye(d)[None, :, :, None], xi=xi)
    return f - f.mean(axis=(0, 2), keepdims=True)


def true_residual(a, xi, eta, u):
    """f - A u with A u = eta u + (u - u_prev)/dt + dxi* (a dxi u), one
    new array per term and np.roll for the time difference."""
    cube = a.cube
    return corrector_right_side(a, xi) - (
        eta * u + (u - np.roll(u, 1, axis=0)) / a.dt
        + cube.div(a.values[:, None] * cube.grad(u, xi=xi), xi=xi))


def component_norms(w):
    return np.sqrt(np.sum(np.abs(w) ** 2, axis=(0, 2)))


def relative_residual(a, xi, eta, values):
    """max_k |f_k - A u_k| / |f_k| over the components with f_k != 0."""
    xi = np.asarray(xi, dtype=float)
    f_norm = component_norms(corrector_right_side(a, xi))
    r_norm = component_norms(true_residual(a, xi, eta, values))
    return float((r_norm / np.where(f_norm > 0, f_norm, 1.0)).max())


def allocating_corrector_solve(a, xi, eta):
    """(values, iterations, residual) of the Richardson solve that makes a
    new array for every term: w = M^{-1} r, u = u + w, and the next
    residual dxi* ((c - a) dxi w); then the true residual f - A u, from
    which the sweeps resume while it is above 1e-12.  A field whose
    levels are all equal is solved on its first level and the solution
    repeated."""
    cube, nt = a.cube, a.n_times
    if nt > 1 and np.all(a.values == a.values[0]):
        values, iterations, residual = allocating_corrector_solve(
            CoefficientField(cube, a.dt, a.values[:1], a.window), xi, eta)
        return np.repeat(values, nt, axis=0), iterations, residual
    xi = np.asarray(xi, dtype=float)
    lam_s, Lam_s = float(a.values.min()), float(a.values.max())
    rate = (Lam_s - lam_s) / (Lam_s + lam_s)
    max_iter = 10 + int(np.ceil(np.log(1e-14) / np.log(max(rate, 1e-14))))
    c = 0.5 * (lam_s + Lam_s)
    contrast = c - a.values[:, None]
    f = corrector_right_side(a, xi)
    apply = homogenize._preconditioner(cube, xi, nt, a.dt, eta, c)
    f_norm = component_norms(f)
    scale = np.where(f_norm > 0, f_norm, 1.0)
    u, r, r_norm, iterations = np.zeros_like(f), f, f_norm, 0
    while True:
        while (r_norm / scale).max() > 1e-12 and iterations < max_iter:
            w = apply(r)
            u = u + w
            r = cube.div(contrast * cube.grad(w, xi=xi), xi=xi)
            r_norm = component_norms(r)
            iterations += 1
        r = true_residual(a, xi, eta, u)
        r_norm = component_norms(r)
        rel = float((r_norm / scale).max())
        if not rel > 1e-12 or iterations >= max_iter:
            return u, iterations, rel


@pytest.mark.parametrize("xi", [[0.0, 0.0, 0.0], [0.7, 0.0, -0.3]])
def test_corrector_pinned_to_the_allocating_residual(xi):
    a = random_field(3, 4, 5, 0.5, 2.0, dt=0.1, seed=31)
    corr = corrector_solve(a, xi, eta=0.0013)
    values, iterations, residual = allocating_corrector_solve(a, xi, 0.0013)
    assert corr.values.dtype == (np.complex128 if any(xi) else np.float64)
    assert corr.iterations == iterations
    assert same_bits(corr.values, values)
    assert corr.residual == residual


def spied_levels(monkeypatch):
    """The level counts the corrector's preconditioner is built for, in
    call order."""
    preconditioner, levels = homogenize._preconditioner, []

    def spy(cube, xi, nt, *args):
        levels.append(nt)
        return preconditioner(cube, xi, nt, *args)

    monkeypatch.setattr(homogenize, "_preconditioner", spy)
    return levels


CELLS = dict(
    d=st.sampled_from([1, 2, 3]),
    L=st.sampled_from([2, 4]),
    nt=st.integers(min_value=2, max_value=4),
    complex_xi=st.booleans(),
    log_eta=st.floats(-3.0, 0.0),
    seed=st.integers(min_value=0, max_value=2**31),
)


def cell_xi(d, complex_xi, seed):
    return np.random.default_rng([seed, 2]).uniform(-np.pi, np.pi, d) * complex_xi


@settings(max_examples=30, deadline=None)
@given(**CELLS)
@example(d=3, L=4, nt=4, complex_xi=False, log_eta=-3.0, seed=5)
@example(d=2, L=4, nt=3, complex_xi=True, log_eta=-1.0, seed=6)
@example(d=1, L=2, nt=3, complex_xi=True, log_eta=0.0, seed=432)
def test_corrector_of_a_time_constant_field_is_its_one_level_solve_repeated(
        d, L, nt, complex_xi, log_eta, seed):
    # D_t Phi = 0 for a time-constant Phi, and the periodic solution is unique;
    # the residual is the one-level solve's: f - A u on nt levels agrees with
    # it only to the rounding of the projection of f, which on a small |f|
    # can reach a few 1e-14 of the relative residual
    one = random_field(d, L, 1, 0.5, 2.0, dt=0.1, seed=seed)
    a = CoefficientField(one.cube, one.dt, np.repeat(one.values, nt, axis=0), one.window)
    xi, eta = cell_xi(d, complex_xi, seed), 10.0**log_eta
    with pytest.MonkeyPatch.context() as mp:
        levels = spied_levels(mp)
        corr = corrector_solve(a, xi, eta)
    ref = corrector_solve(one, xi, eta)
    assert levels == [1]
    assert np.array_equal(corr.values, np.repeat(ref.values, nt, axis=0))
    assert corr.iterations == ref.iterations and corr.residual == ref.residual
    assert np.abs(q_matrix_single(corr, a) - dense_corrector_q(a, xi, eta)).max() <= 1e-10
    assert abs(corr.residual - relative_residual(one, xi, eta, ref.values)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(**CELLS, level=st.integers(min_value=0, max_value=3), entry=st.integers(min_value=0),
       value=st.floats(0.5, 2.0))
@example(d=3, L=4, nt=4, complex_xi=False, log_eta=-3.0, seed=5, level=3, entry=7,
         value=1.9)
def test_corrector_of_a_field_with_one_changed_entry_solves_every_level(
        d, L, nt, complex_xi, log_eta, seed, level, entry, value):
    one = random_field(d, L, 1, 0.5, 2.0, dt=0.1, seed=seed)
    vals = np.repeat(one.values, nt, axis=0)
    k, site = np.unravel_index(entry % (d * one.cube.n_sites), (d, one.cube.n_sites))
    assume(vals[level % nt, k, site] != value)
    vals[level % nt, k, site] = value
    a = CoefficientField(one.cube, one.dt, vals, one.window)
    xi, eta = cell_xi(d, complex_xi, seed), 10.0**log_eta
    with pytest.MonkeyPatch.context() as mp:
        levels = spied_levels(mp)
        corr = corrector_solve(a, xi, eta)
    assert levels == [nt]
    assert np.abs(q_matrix_single(corr, a) - dense_corrector_q(a, xi, eta)).max() <= 1e-10
    assert abs(corr.residual - relative_residual(a, xi, eta, corr.values)) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    L=st.sampled_from([2, 4, 6]),
    nt=st.sampled_from([1, 2, 3, 5]),
    depends=st.lists(st.lists(st.booleans(), min_size=3, max_size=3),
                     min_size=3, max_size=3),
    in_time=st.booleans(),
    tie_last=st.booleans(),
    complex_xi=st.booleans(),
    log_eta=st.floats(-3.0, 0.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(L=4, nt=3, complex_xi=False, log_eta=-2.0, seed=1, **LAMINATE)
@example(d=2, L=4, nt=3, depends=[[True, True, True], [True, False, True], [True] * 3],
         in_time=True, tie_last=False, complex_xi=True, log_eta=-1.0, seed=2)
def test_corrector_skips_the_components_with_a_zero_right_side(
        d, L, nt, depends, in_time, tie_last, complex_xi, log_eta, seed):
    # a_k independent of x_k at xi_k = 0 gives -D_k^H a_k = 0, so Phi_k = 0
    depends = [row[:d] for row in depends[:d]]
    if tie_last:
        depends[-1] = depends[-2]
    zero = [k for k in range(d) if not depends[k][k]]
    assume(zero)
    rest = [k for k in range(d) if depends[k][k]]
    a = layered_field(d, L, nt, depends, in_time, tie_last, seed)
    xi = np.random.default_rng([seed, 1]).uniform(-np.pi, np.pi, d) * complex_xi
    xi[zero] = 0.0
    eta = 10.0**log_eta
    corr = corrector_solve(a, xi, eta)
    values, iterations, residual = allocating_corrector_solve(a, xi, eta)
    assert np.all(corr.values[:, zero] == 0.0)
    assert same_bits(corr.values[:, rest], values[:, rest])
    assert corr.iterations == iterations
    # the norms sum over fewer components here, in another order
    assert abs(corr.residual - residual) <= 1e-14
    assert np.abs(q_matrix_single(corr, a) - dense_corrector_q(a, xi, eta)).max() <= 1e-10


def test_laminate_corrector_transforms_one_component(monkeypatch):
    preconditioner, components = homogenize._preconditioner, []

    def recording_preconditioner(*args):
        apply = preconditioner(*args)

        def recording_apply(r):
            components.append(r.shape[1])
            return apply(r)

        return recording_apply

    monkeypatch.setattr(homogenize, "_preconditioner", recording_preconditioner)
    a = layered_field(L=4, nt=3, **LAMINATE)
    corr = corrector_solve(a, [0.0] * 3, eta=0.01)
    assert corr.iterations > 0 and len(components) == corr.iterations
    assert set(components) == {1}


def _no_thread(self):
    raise AssertionError("a thread was started")


def test_corrector_starts_no_thread_on_one_core_or_in_a_map(two_cores, monkeypatch):
    a = random_field(2, 4, 3, 0.5, 2.0, seed=4)
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    # two free cores: the solve still runs on the calling thread alone
    on_two = corrector_solve(a, [0.0, 0.0], eta=0.1)
    assert on_two.iterations > 0
    # the map's parent chunk and its forked worker run their solves on one thread
    iterations = _map_chunks_on_cores(
        lambda chunk: [corrector_solve(b, [0.0, 0.0], eta=0.1).iterations for b in chunk],
        [a, a])
    assert iterations[0] == iterations[1] and iterations[0][0] > 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert corrector_solve(a, [0.0, 0.0], eta=0.1).iterations == iterations[0][0]
    assert iterations[0][0] == on_two.iterations


def scaled_preconditioner(factor):
    """homogenize._preconditioner with its output multiplied by ``factor``."""
    preconditioner = homogenize._preconditioner

    def scaled(*args):
        apply = preconditioner(*args)
        return lambda r: factor * apply(r)

    return scaled


def test_corrector_solver_error_reports_statistics(monkeypatch):
    # a preconditioner scaled ten times too large makes the iteration diverge
    monkeypatch.setattr(homogenize, "_preconditioner", scaled_preconditioner(10.0))
    a = random_field(1, 8, 3, 0.5, 2.0, seed=1)
    with pytest.raises(SolverError, match=r"after \d+ iterations at relative residual"):
        corrector_solve(a, [0.3], eta=0.1)


def test_corrector_non_finite_residual_raises(monkeypatch):
    # an infinite preconditioner (a zero symbol) turns the iterate into NaN
    # on the first sweep
    monkeypatch.setattr(homogenize, "_preconditioner", scaled_preconditioner(np.inf))
    a = random_field(1, 8, 3, 0.5, 2.0, seed=1)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="relative residual nan"):
        corrector_solve(a, [0.0], eta=0.1)


def test_corrector_guards():
    a = two_phase_field()
    with pytest.raises(ConfigError):
        corrector_solve(a, [0.0], eta=0.0)
    with pytest.raises(ConfigError):
        corrector_solve(a, [0.0, 0.0], eta=0.1)
    # not finite: refused before the sweeps, which would end at residual nan
    for xi, eta in [([0.0], np.inf), ([0.0], np.nan), ([np.nan], 0.1), ([-np.inf], 0.1)]:
        with pytest.raises(ConfigError, match="finite"):
            corrector_solve(a, xi, eta=eta)


# -- q matrix and a_hom ------------------------------------------------------------


def test_q_matrix_aggregation():
    pairs = []
    for seed in range(3):
        a = random_field(1, 8, 3, 0.5, 1.5, seed=seed)
        corr = corrector_solve(a, [0.0], eta=0.1)
        pairs.append((corr, a))
    q = q_matrix(pairs)
    assert q.value.shape == (1, 1) and q.stderr.shape == (1, 1)
    assert q.stderr[0, 0] > 0


def test_q_stderr_is_the_standard_error_of_the_mean(monkeypatch):
    # entries 1, 2, 4 and 1+i, 1-i, 3: both have sample variance
    # sum |q - mean|^2 / (n - 1) = 7/3, so the standard error is sqrt(7)/3
    qs = [np.array([[1.0, 1 + 1j]]), np.array([[2.0, 1 - 1j]]),
          np.array([[4.0, 3.0 + 0j]])]
    monkeypatch.setattr(homogenize, "q_matrix_single", lambda k, a: qs[k])
    est = q_matrix([(k, None) for k in range(3)])
    assert np.abs(est.value - [[7 / 3, 5 / 3]]).max() <= 1e-15
    assert np.abs(est.stderr - np.sqrt(7.0) / 3.0).max() <= 1e-15
    assert same_bits(q_matrix([(0, None)]).stderr, np.zeros((1, 2)))


def test_q_stderr_covers_the_spread_over_independent_cells():
    # 60 estimates of q, each over 4 i.i.d. random_field cells
    qs = [q_matrix([(corrector_solve(a, [0.0], eta=0.1), a)
                    for a in (random_field(1, 8, 3, 0.5, 1.5, seed=4 * k + j)
                              for j in range(4))])
          for k in range(60)]
    assert_sigma_matches_spread([q.value.real for q in qs], [q.stderr for q in qs])


def test_a_hom_extract_constant_exact():
    etas = np.array([0.1, 0.01, 0.001])
    qs = [np.array([[2.2]])] * 3
    out = a_hom_extract(etas, qs)
    assert out["a_hom"][0, 0] == pytest.approx(2.2, abs=1e-14)
    assert out["uncertainty"] < 1e-14


def test_a_hom_extract_quadratic_exact():
    # data quadratic in eta: the extrapolation through three points is exact
    A = np.array([[1.3, 0.2], [0.2, 0.9]])
    B = np.array([[-2.0, 0.5], [0.5, 3.0]])
    C = np.array([[7.0, -1.0], [-1.0, 4.0]])
    for etas in (np.array([0.13, 0.013, 0.0013]), np.array([0.4, 0.2, 0.1, 0.05])):
        qs = [A + B * eta + C * eta**2 for eta in etas]
        out = a_hom_extract(etas, qs)
        assert np.abs(out["a_hom"] - A).max() <= 1e-12
        # the first-order extrapolants of neighbouring pairs are still reported
        linear = [qs[i] + (qs[i] - qs[i - 1]) * etas[i] / (etas[i - 1] - etas[i])
                  for i in range(1, len(etas))]
        assert np.abs(np.array(out["extrapolants"]) - np.array(linear)).max() <= 1e-14
        assert out["uncertainty"] == pytest.approx(np.abs(linear[-1] - linear[-2]).max())


def test_a_hom_extract_two_phase():
    a = two_phase_field()
    etas = np.array([1e-1, 1e-2, 1e-3])
    qs = []
    for eta in etas:
        corr = corrector_solve(a, [0.0], eta=float(eta))
        qs.append(q_matrix_single(corr, a))
    out = a_hom_extract(etas, qs)
    assert out["a_hom"][0, 0] == pytest.approx(1.6, abs=0.005)


def test_a_hom_ladder_is_the_extrapolated_sample_mean_ladder():
    fields = [random_field(2, 6, 4, 0.5, 1.5, seed=s) for s in range(2)]
    etas = [0.2, 0.02, 0.002]
    out = homogenize.a_hom_ladder(fields, etas)
    qs = [q_matrix([(corrector_solve(a, [0.0, 0.0], eta=eta), a) for a in fields])
          for eta in etas]
    assert all(same_bits(q.value, r.value) and same_bits(q.stderr, r.stderr)
               for q, r in zip(out["q"], qs))
    ref = a_hom_extract(np.array(etas), [q.value for q in qs])
    assert same_bits(out["a_hom"], ref["a_hom"])
    assert out["uncertainty"] == ref["uncertainty"]
    assert out["c_hom"] == np.trace(ref["a_hom"]) / 2


def test_a_hom_extract_guards():
    with pytest.raises(ConfigError):
        a_hom_extract(np.array([0.1, 0.2, 0.3]), [np.eye(1)] * 3)


# -- T operator ----------------------------------------------------------------------


def test_t_operator_zero_input():
    cube = PeriodicCube(1, 8)
    g = np.zeros((4, 1, 8))
    out = t_operator_apply(cube, g, [0.3], 0.1, 0.1, 2.0)
    assert np.abs(out).max() == 0.0


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    L=st.sampled_from([2, 4, 6]),
    nt=st.integers(1, 4),
    dt=st.floats(0.01, 1.0),
    Lam=st.floats(0.1, 10.0),
    xi_zero=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
    n_draws=st.just(5),
)
@example(d=2, L=6, nt=3, dt=0.1, Lam=2.0, xi_zero=False, seed=21, n_draws=100)
def test_t_operator_contraction(d, L, nt, dt, Lam, xi_zero, seed, n_draws):
    # g, xi in [-pi, pi]^d and eta in [1e-3, 1] from the seed, in that order
    rng = np.random.default_rng(seed)
    cube = PeriodicCube(d, L)
    for _ in range(n_draws):
        g = rng.standard_normal((nt, d, cube.n_sites))
        xi = rng.uniform(-np.pi, np.pi, size=d) * (not xi_zero)
        eta = 10.0 ** rng.uniform(-3, 0)
        out = t_operator_apply(cube, g, xi, eta, dt, Lam)
        assert out.dtype == (np.float64 if xi_zero else np.complex128)
        assert spacetime_norm(out, dt) <= spacetime_norm(g, dt) * (1 + 1e-12)


def test_t_operator_matches_dense_solve():
    rng = np.random.default_rng(22)
    cube, nt, dt, Lam = PeriodicCube(2, 4), 4, 0.1, 1.5
    n = cube.n_sites
    g_complex = rng.standard_normal((nt, 2, n)) + 1j * rng.standard_normal((nt, 2, n))
    g_real = rng.standard_normal((nt, 2, n))
    for xi, eta, g in [([0.0, 0.0], 0.2, g_complex), ([0.7, -2.1], 0.05, g_complex),
                       ([0.0, 0.0], 0.03, g_real)]:
        D = dense_differences(cube, xi)
        op = (eta * np.eye(nt * n) + dense_time_difference(nt, n, dt)) / Lam + np.kron(
            np.eye(nt), sum(Dj.conj().T @ Dj for Dj in D))
        rhs = np.concatenate([sum(D[j].conj().T @ g[i, j] for j in range(2))
                              for i in range(nt)])
        psi = np.linalg.solve(op, rhs).reshape(nt, n)
        expected = np.stack([psi @ Dj.T for Dj in D], axis=1)
        out = t_operator_apply(cube, g, xi, eta, dt, Lam)
        # real only for real g at xi = 0; complex g stays complex there
        assert out.dtype == np.result_type(g, complex if any(xi) else float)
        assert np.abs(out - expected).max() < 1e-12 * max(1.0, np.abs(expected).max())


# -- Neumann series ---------------------------------------------------------------------


def test_neumann_series_zero_contrast():
    cube = PeriodicCube(1, 8)
    a = constant_coefficients(cube, 0.05, 2.0, n_times=3)
    q, term_norms = neumann_series_q(a, [0.0], 0.1, m_max=3)
    assert np.allclose(q, 2.0 * np.eye(1), atol=1e-12)
    assert len(term_norms) == 3 and max(term_norms) < 1e-12


def test_neumann_matches_corrector_two_phase():
    a = two_phase_field()
    eta = 0.01
    corr = corrector_solve(a, [0.0], eta=eta)
    q_corr = q_matrix_single(corr, a)
    q_series, term_norms = neumann_series_q(a, [0.0], eta, m_max=80)
    assert abs(q_series[0, 0] - q_corr[0, 0]) < 1e-5
    norms = np.array(term_norms)
    ratios = norms[1:] / norms[:-1]
    assert np.all(ratios <= 0.75 + 0.05)  # contrast of the {1,4} field


def test_neumann_series_time_dependent_sample():
    a = random_field(1, 8, 6, 1.0, 2.0, seed=5)
    eta = 0.05
    corr = corrector_solve(a, [0.0], eta=eta)
    q_corr = q_matrix_single(corr, a)
    q_series, _ = neumann_series_q(a, [0.0], eta, m_max=60)
    assert abs(q_series[0, 0] - q_corr[0, 0]) < 1e-6


def test_neumann_series_matches_corrector_in_two_dimensions():
    a = random_field(2, 4, 3, 1.0, 2.0, seed=3)
    eta = 0.1
    q_corr = q_matrix_single(corrector_solve(a, [0.0, 0.0], eta=eta), a)
    q_series, term_norms = neumann_series_q(a, [0.0, 0.0], eta, m_max=60)
    assert q_series.shape == (2, 2) and len(term_norms) == 60
    assert np.abs(q_series - q_corr).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    L=st.sampled_from([2, 4, 6]),
    nt=st.sampled_from([1, 2, 3]),
    lam=st.floats(0.1, 1.0),
    ratio=st.floats(1.0, 3.0),
    log_eta=st.floats(-2.0, 0.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(d=3, L=4, nt=2, lam=0.5, ratio=3.0, log_eta=-2.0, seed=4)
def test_neumann_series_q_meets_the_exact_averaged_resolvent(d, L, nt, lam, ratio,
                                                            log_eta, seed):
    # mean(A_xi^{-1} 1) = 1 / (eta + e* q e) with e_j = e^{-i xi_j} - 1: the
    # Fourier--Laplace transform of the averaged kernel of the sample
    a = random_field(d, L, nt, lam, lam * ratio, dt=0.1, seed=seed)
    xi = np.random.default_rng([seed, 1]).uniform(-np.pi, np.pi, d)
    assume(xi.any())
    eta = 10.0**log_eta
    exact = np.linalg.solve(dense_twisted_operator(a, xi, eta), np.ones(nt * a.cube.n_sites))
    # the terms contract at the contrast 1 - lam/Lam: sum them to 1e-16
    rate = 1.0 - 1.0 / ratio
    m_max = 1 if rate == 0.0 else max(1, int(np.ceil(np.log(1e-16) / np.log(rate))))
    q, _ = neumann_series_q(a, xi, eta, m_max)
    assert abs(exact.mean() - greens_hat_formula(q, xi, eta)) <= 1e-12 * max(
        1.0, abs(exact.mean()))


# -- averaged Green's function --------------------------------------------------------------


def test_avg_greens_constant_environment():
    cube = PeriodicCube(1, 16)
    dt = 0.05

    def sampler(seed):
        return constant_coefficients(cube, dt, 1.0, n_times=40)

    out = avg_greens_mc(sampler, cube, cube.site_index([0]), [10, 40], 4, seed=1)
    assert np.abs(out["stderr"]).max() < 1e-14  # zero variance
    assert np.abs(out["mean"].sum(axis=-1) - 1.0).max() < 1e-10


def test_avg_greens_is_the_same_on_one_core_and_on_two(monkeypatch):
    cube = PeriodicCube(1, 12)

    def sampler(seed_seq):  # a closure: it reaches the workers by fork
        vals = np.random.default_rng(seed_seq).uniform(0.5, 1.5, size=(20, 1, 12))
        return CoefficientField(cube, 0.05, vals, EllipticityPair(0.5, 1.5))

    outs = []
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        outs.append(avg_greens_mc(sampler, cube, 3, [5, 20], 7, seed=4))
    for key in ("mean", "stderr"):
        assert np.array_equal(outs[0][key], outs[1][key])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # the worker was reaped


@pytest.mark.parametrize("n_samples, t_indices", [(1, [5, 10]), (4, [-1, 10])])
def test_avg_kernel_excess_checks_its_inputs_before_the_cells(monkeypatch, n_samples,
                                                              t_indices):
    def no_ladder(*args, **kwargs):
        raise AssertionError("solved the cells before the inputs were checked")

    monkeypatch.setattr(homogenize, "a_hom_ladder", no_ladder)
    with pytest.raises(ConfigError, match="n_samples|t_indices"):
        homogenize.avg_kernel_excess(PotentialSpec("dipole", c=1.0, a_dip=0.3), 1.0,
                                     PeriodicCube(1, 8), 0.1, [0.1, 0.01, 0.001], [0],
                                     t_indices, n_samples)


def test_avg_greens_stderr_covers_the_spread_over_independent_seeds():
    # 60 means of 8 environments each; by t = 4 every site of the L = 8
    # ring is reached, so no sigma is 0
    cube = PeriodicCube(1, 8)

    def sampler(seed_seq):
        vals = np.random.default_rng(seed_seq).uniform(0.5, 1.5, size=(6, 1, 8))
        return CoefficientField(cube, 0.05, vals, EllipticityPair(0.5, 1.5))

    outs = [avg_greens_mc(sampler, cube, 0, [4, 6], 8, seed=k) for k in range(60)]
    assert_sigma_matches_spread([o["mean"] for o in outs], [o["stderr"] for o in outs])


def test_avg_greens_mass_and_symmetry():
    cube = PeriodicCube(1, 12)
    dt = 0.05
    rng_pool = {}

    def sampler(seed_seq):
        rng = np.random.default_rng(seed_seq)
        vals = rng.uniform(0.5, 1.5, size=(30, 1, cube.n_sites))
        return CoefficientField(cube, dt, vals, EllipticityPair(0.5, 1.5))

    out = avg_greens_mc(sampler, cube, cube.site_index([0]), [30], 40, seed=2)
    assert np.abs(out["mean"].sum(axis=-1) - 1.0).max() < 1e-8
    mean, se = out["mean"][0], out["stderr"][0]
    for x in range(1, 6):
        i, j = cube.site_index([x]), cube.site_index([-x])
        tol = 3.0 * np.hypot(se[i], se[j]) + 1e-12
        assert abs(mean[i] - mean[j]) <= tol


# -- Fourier-Laplace consistency ----------------------------------------------------------


def test_greens_hat_formula_vs_quadrature():
    for d, a_diag in [(1, [1.0]), (2, [1.3, 0.8])]:
        for xi in ([0.5] * d, [1.2] * d):
            for eta in (0.3, 1.0):
                lhs = greens_hat_quadrature(a_diag, xi, eta)
                rhs = greens_hat_formula(np.diag(a_diag), xi, eta)
                assert abs(lhs - rhs) < 1e-8


# -- rate fitting ---------------------------------------------------------------------------


def test_rate_fit_exact_power_law():
    eps = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
    vals = 3.0 * eps**0.5
    rep = rate_fit(eps, vals, mode="epsilon")
    assert rep.alpha_hat == pytest.approx(0.5, abs=1e-6)
    assert rep.slope_stderr < 1e-12  # an exact power law leaves no residual
    assert rep.warning == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["scales", "values"])
def test_rate_fit_refuses_a_scale_or_value_that_is_not_finite(where, bad):
    # refused before the nonpositive values are dropped: unguarded, an
    # infinite value gave a NaN slope with no warning, a NaN value was
    # dropped as nonpositive, and a scale that was not finite raised
    # LinAlgError
    data = {"scales": np.array([1.0, 0.5, 0.25, 0.125, 0.0625]),
            "values": np.array([1.0, 0.26, 0.06, 0.015, 0.004])}
    data[where][2] = bad
    with pytest.raises(ConfigError, match="finite"):
        rate_fit(data["scales"], data["values"], mode="epsilon")


@pytest.mark.parametrize("scales, values", [
    ([0.0, 1.0, 2.0, 3.0], [1.0, 0.26, 0.0624, 0.0158]),
    ([-1.0, -2.0, -3.0, -4.0], [1.0, 0.26, 0.0624, 0.0158]),
    ([1.0, 1.0, 1.0, 1.0], [1.0, 0.26, 0.0624, 0.0158]),
    # two scales, but the one value at scale 1 is dropped as nonpositive
    ([1.0, 2.0, 2.0, 2.0, 2.0], [-1.0, 0.26, 0.0624, 0.0158, 0.004]),
])
def test_rate_fit_refuses_a_nonpositive_scale_or_a_single_scale(scales, values):
    # unguarded, a scale <= 0 raised LinAlgError, and a single scale gave
    # an infinite slope_stderr
    with pytest.raises(ConfigError, match="scales"):
        rate_fit(np.array(scales), np.array(values), mode="epsilon")


def test_rate_fit_greens_decay_mode():
    scales = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    d = 2
    alpha = 0.7
    vals = 5.0 * scales ** (-(d + alpha) / 2.0)
    rep = rate_fit(scales, vals, mode="greens-decay", d=d)
    assert rep.alpha_hat == pytest.approx(alpha, abs=1e-6)


def test_rate_fit_noise_flag_and_filtering():
    rng = np.random.default_rng(23)
    eps = np.array([1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125])
    vals = np.abs(rng.standard_normal(6)) + 0.5
    rep = rate_fit(eps, vals, mode="epsilon")
    assert "noise-dominated" in rep.warning
    vals2 = vals.copy()
    vals2[2] = -1.0
    rep2 = rate_fit(eps, vals2, mode="epsilon")
    assert "dropped 1" in rep2.warning
    with pytest.raises(ConfigError):
        rate_fit(eps[:3], vals[:3])
