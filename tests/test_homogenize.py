"""Corrector, effective-coefficient, T-operator, and rate-fit tests."""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parahom import (
    ConfigError,
    EllipticityPair,
    PeriodicCube,
    CoefficientField,
    SolverError,
    a_hom_extract,
    avg_greens_mc,
    constant_coefficients,
    corrector_solve,
    e_vector,
    greens_hat_formula,
    greens_hat_quadrature,
    neumann_series_q,
    q_matrix,
    rate_fit,
    t_operator_apply,
)
from parahom import homogenize
from parahom.homogenize import q_matrix_single, sample_norm
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


def dense_corrector_q(a, xi, eta):
    """q(xi, eta) from a dense solve of
    (eta + D_t) Phi_k + sum_j D_j^H a_j D_j Phi_k = -P D_k^H a_k."""
    cube, nt, n, d = a.cube, a.n_times, a.cube.n_sites, a.cube.d
    D = dense_differences(cube, xi)
    op = (eta * np.eye(nt * n) + dense_time_difference(nt, n, a.dt)).astype(complex)
    for i in range(nt):
        block = slice(i * n, (i + 1) * n)
        op[block, block] += sum(D[j].conj().T @ (a.values[i, j][:, None] * D[j])
                                for j in range(d))
    q = np.diag(a.values.mean(axis=(0, 2))).astype(complex)
    for k in range(d):
        rhs = np.concatenate([-(D[k].conj().T @ a.values[i, k]) for i in range(nt)])
        phi = np.linalg.solve(op, rhs - rhs.mean()).reshape(nt, n)
        for j in range(d):
            q[j, k] += np.mean(a.values[:, j] * (phi @ D[j].T))
    return q


# -- twisted calculus ---------------------------------------------------------


def test_e_vector_values():
    ev = e_vector([0.0, np.pi])
    assert ev[0] == 0.0
    assert ev[1] == pytest.approx(-2.0)
    # |e(xi)|^2 = sum 2(1 - cos xi_j)
    xi = np.array([0.3, 1.1])
    assert np.vdot(e_vector(xi), e_vector(xi)).real == pytest.approx(
        float((2 - 2 * np.cos(xi)).sum())
    )


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
    g = homogenize.twisted_grad(cube, xi, psi)
    dv = homogenize.twisted_div(cube, xi, F)
    assert g.dtype == dv.dtype == (np.float64 if xi_zero and not complex_
                                   else np.complex128)
    g_out, dv_out = np.full_like(g, np.nan), np.full_like(dv, np.nan)
    assert homogenize.twisted_grad(cube, xi, psi, out=g_out) is g_out
    assert homogenize.twisted_div(cube, xi, F, out=dv_out) is dv_out
    assert same_bits(g_out, g) and same_bits(dv_out, dv)
    # an out that overlaps the input is refused
    buf = np.zeros(batch + (d + 1, cube.n_sites), dtype=g.dtype)
    with pytest.raises(ConfigError, match="overlap"):
        homogenize.twisted_grad(cube, xi, buf[..., 0, :], out=buf[..., :d, :])
    with pytest.raises(ConfigError, match="overlap"):
        homogenize.twisted_div(cube, xi, buf[..., 1:, :], out=buf[..., 1, :])


# -- corrector ------------------------------------------------------------------


def test_corrector_vanishes_for_constant_coefficients():
    cube = PeriodicCube(2, 6)
    a = constant_coefficients(cube, 0.05, 1.7, n_times=4)
    for xi in ([0.0, 0.0], [0.6, -0.4]):
        corr = corrector_solve(a, xi, eta=0.01)
        assert np.abs(corr.values).max() < 1e-10
        q = q_matrix_single(corr, a)
        assert np.allclose(q, 1.7 * np.eye(2), atol=1e-10)


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
def test_corrector_matches_dense_solve(d, L, nt, xi, log_eta, lam, ratio, seed):
    a = random_field(d, L, nt, lam, lam * ratio, dt=0.1, seed=seed)
    xi, eta = np.array(xi[:d]), 10.0**log_eta
    corr = corrector_solve(a, xi, eta)
    # real arithmetic exactly at xi = 0
    assert corr.values.dtype == (np.complex128 if xi.any() else np.float64)
    assert corr.residual <= 1e-12
    q_dense = dense_corrector_q(a, xi, eta)
    assert np.abs(q_matrix_single(corr, a) - q_dense).max() <= 1e-10


def allocating_corrector_solve(a, xi, eta):
    """(values, iterations) of the Richardson solve whose residual makes
    a new array for every term: np.roll for the time difference, then
    f - (eta u + (u - u_prev)/dt + dxi* (a dxi u))."""
    cube, nt, d = a.cube, a.n_times, a.cube.d
    xi = np.asarray(xi, dtype=float)
    lam_s, Lam_s = float(a.values.min()), float(a.values.max())
    rate = (Lam_s - lam_s) / (Lam_s + lam_s)
    max_iter = 10 + int(np.ceil(np.log(1e-14) / np.log(max(rate, 1e-14))))
    coeff = a.values[:, None]
    f = -homogenize.twisted_div(cube, xi, coeff * np.eye(d)[None, :, :, None])
    f -= f.mean(axis=(0, 2), keepdims=True)
    _, denom = homogenize._symbol(cube, xi, nt, a.dt, eta, 0.5 * (lam_s + Lam_s))
    forward, inverse, denom = homogenize._spectral(cube, np.isrealobj(f), denom[:, None])

    def residual(u):
        au = (eta * u + (u - np.roll(u, 1, axis=0)) / a.dt
              + homogenize.twisted_div(cube, xi,
                                       coeff * homogenize.twisted_grad(cube, xi, u)))
        return f - au

    norms = homogenize._component_norms
    f_norm = norms(f)
    scale = np.where(f_norm > 0, f_norm, 1.0)
    u, r, r_norm, iterations = np.zeros_like(f), f, f_norm, 0
    while (r_norm / scale).max() > 1e-12 and iterations < max_iter:
        u += inverse(forward(r) / denom)
        r = residual(u)
        r_norm = norms(r)
        iterations += 1
    return u, iterations


@pytest.mark.parametrize("xi", [[0.0, 0.0, 0.0], [0.7, 0.0, -0.3]])
def test_corrector_pinned_to_the_allocating_residual(xi):
    a = random_field(3, 4, 5, 0.5, 2.0, dt=0.1, seed=31)
    corr = corrector_solve(a, xi, eta=0.0013)
    values, iterations = allocating_corrector_solve(a, xi, 0.0013)
    assert corr.values.dtype == (np.complex128 if any(xi) else np.float64)
    assert corr.iterations == iterations
    assert same_bits(corr.values, values)


def test_corrector_solver_error_reports_statistics(monkeypatch):
    # a preconditioner scaled far too small makes the iteration diverge
    symbol = homogenize._symbol

    def bad_symbol(*args):
        dsym, denom = symbol(*args)
        return dsym, 0.1 * denom

    monkeypatch.setattr(homogenize, "_symbol", bad_symbol)
    a = random_field(1, 8, 3, 0.5, 2.0, seed=1)
    with pytest.raises(SolverError, match=r"after \d+ iterations at relative residual"):
        corrector_solve(a, [0.3], eta=0.1)


def test_corrector_non_finite_residual_raises(monkeypatch):
    # a zero preconditioner symbol turns the iterate into NaN on the first sweep
    symbol = homogenize._symbol

    def zero_symbol(*args):
        dsym, denom = symbol(*args)
        return dsym, 0.0 * denom

    monkeypatch.setattr(homogenize, "_symbol", zero_symbol)
    a = random_field(1, 8, 3, 0.5, 2.0, seed=1)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="relative residual nan"):
        corrector_solve(a, [0.0], eta=0.1)


def test_corrector_guards():
    a = two_phase_field()
    with pytest.raises(ConfigError):
        corrector_solve(a, [0.0], eta=0.0)
    with pytest.raises(ConfigError):
        corrector_solve(a, [0.0, 0.0], eta=0.1)


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
    assert [q.eta for q in out["q"]] == etas
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
        assert sample_norm(out) <= sample_norm(g) * (1 + 1e-6)


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
    q, ledger = neumann_series_q([a], [0.0], 0.1, m_max=3)
    assert np.allclose(q.value, 2.0 * np.eye(1), atol=1e-12)
    assert max(ledger["term_norms"][0]) < 1e-12


def test_neumann_matches_corrector_two_phase():
    a = two_phase_field()
    eta = 0.01
    corr = corrector_solve(a, [0.0], eta=eta)
    q_corr = q_matrix_single(corr, a)
    q_series, ledger = neumann_series_q([a], [0.0], eta, m_max=80)
    assert abs(q_series.value[0, 0] - q_corr[0, 0]) < 1e-5
    norms = np.array(ledger["term_norms"][0])
    ratios = norms[1:] / norms[:-1]
    assert np.all(ratios <= 0.75 + 0.05)  # contrast of the {1,4} field


def test_neumann_series_time_dependent_sample():
    a = random_field(1, 8, 6, 1.0, 2.0, seed=5)
    eta = 0.05
    corr = corrector_solve(a, [0.0], eta=eta)
    q_corr = q_matrix_single(corr, a)
    q_series, _ = neumann_series_q([a], [0.0], eta, m_max=60)
    assert abs(q_series.value[0, 0] - q_corr[0, 0]) < 1e-6


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
