"""Correlation-identity, Malliavin, and variance-inequality tests."""

import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from parahom import (
    ConfigError,
    PeriodicCube,
    PotentialSpec,
    TerminalFunctional,
    correlation_identity_check,
    malliavin_fd_check,
    massive_lattice_greens,
    poincare_variance_check,
    heat_kernel_1d,
    langevin_simulate,
)
from parahom import field_theory
from parahom.environments import (
    brownian_increments,
    hessian_coefficients,
    langevin_path,
    sample_environment,
)
from parahom.field_theory import (
    first_difference_excess,
    first_difference_reference,
    first_difference_row,
)
from parahom.parabolic import _sweep, div_a_grad
from test_lattice import same_bits


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
    for p in range(3):
        assert abs(out["difference"][p]) <= 3.5 * out["sigma"][p] + 1e-4


def gathered_pathwise_sides(V, m, cube, x_list, n_samples, dt, seed, anchors,
                            batch=None):
    """Per-path (lhs, rhs) of the pathwise estimator, one path per row, with
    the right side gathered pair by pair at every step:
    rhs = sum_i dt sum_x u_i^s(x) u_i^a(x), averaged over anchors.  The
    paths run in batches of ``batch`` (all at once when None), drawing the
    noise in the check's order."""
    burn_in = int(np.ceil(10.0 / (m * m * dt)))
    n_win = int(np.ceil(-np.log(1e-6) / (m * m) / dt))
    pairs = [(cube.site_index(cube.site_coords(a) + np.asarray(x)), a)
             for a in anchors for x in x_list]
    s_sites, a_sites = (np.array(p) for p in zip(*pairs))
    rng = np.random.default_rng(seed)

    def anchor_mean(per_pair):
        return per_pair.reshape(-1, len(anchors), len(x_list)).mean(axis=1)

    def batch_sides(b):
        phi = np.zeros((b, cube.n_sites))
        a_store = np.empty((n_win, b, 1, cube.d, cube.n_sites), dtype=np.float32)
        noise = brownian_increments(rng, dt, phi.shape, burn_in + n_win)
        for k, phi_next in enumerate(langevin_path(V, m, cube, dt, phi, noise)):
            if k >= burn_in:
                a_store[k - burn_in] = hessian_coefficients(V, cube, phi)[:, None]
            phi = phi_next
        lhs = anchor_mean(phi[:, s_sites] * phi[:, a_sites])
        u_s = np.zeros((b, len(pairs), cube.n_sites))
        u_a = np.zeros_like(u_s)
        u_s[:, np.arange(len(pairs)), s_sites] = 1.0
        u_a[:, np.arange(len(pairs)), a_sites] = 1.0
        rho = 1.0 - m * m * dt / 2.0
        rhs = dt * (u_s * u_a).sum(axis=-1)
        for i in range(n_win - 1, 0, -1):
            for u in (u_s, u_a):
                u -= dt / (2.0 * rho) * div_a_grad(cube, a_store[i], u)
                u *= rho
            rhs += dt * (u_s * u_a).sum(axis=-1)
        return lhs, anchor_mean(rhs)

    batch = batch or n_samples
    sides = [batch_sides(min(batch, n_samples - done))
             for done in range(0, n_samples, batch)]
    return tuple(np.vstack(side) for side in zip(*sides))


def assert_check_matches_the_gather(V, cube, x_list, anchors, n_samples, dt, seed,
                                    batch):
    out = correlation_identity_check(V, 1.0, cube, x_list, n_samples, dt, seed=seed,
                                     anchors=anchors, batch=batch)
    lhs, rhs = gathered_pathwise_sides(V, 1.0, cube, x_list, n_samples, dt, seed,
                                       anchors, batch)
    assert out["lhs"] == pytest.approx(lhs.mean(axis=0), rel=1e-12)
    assert out["rhs"] == pytest.approx(rhs.mean(axis=0), rel=1e-12)
    diff = lhs - rhs
    assert out["sigma"] == pytest.approx(
        diff.std(axis=0, ddof=1) / np.sqrt(n_samples), rel=1e-12)
    assert out["z_max"] == np.max(np.abs(out["difference"]) / out["sigma"])


def test_correlation_gram_accumulation_matches_the_pairwise_gather():
    # criterion 9's dipole geometry, on a few paths
    assert_check_matches_the_gather(
        PotentialSpec("dipole", c=1.0, a_dip=0.2), PeriodicCube(1, 12),
        [[x] for x in range(-4, 5)], [0, 4, 8], n_samples=3, dt=0.025, seed=19, batch=3)


@pytest.mark.parametrize("V, cube, x_list, anchors, n_samples, batch", [
    (PotentialSpec("quadratic", c=1.3), PeriodicCube(1, 8), [[0], [1], [3]], [0, 2], 3, 3),
    (PotentialSpec("dipole", c=1.0, a_dip=0.4), PeriodicCube(1, 8), [[0], [2]], [1], 5, 2),
    (PotentialSpec("dipole", c=1.0, a_dip=0.2), PeriodicCube(2, 4),
     [[0, 0], [1, 0], [1, 1]], [0, 5], 3, 3),
    # the shifts reach 6 of the 12 sites
    (PotentialSpec("dipole", c=1.0, a_dip=0.2), PeriodicCube(1, 12), [[0], [2], [-3]],
     [1, 6], 3, 3),
], ids=["quadratic-batched", "several-batches", "d2", "sparse-shifts"])
def test_correlation_sides_match_the_pairwise_gather(V, cube, x_list, anchors,
                                                     n_samples, batch):
    assert_check_matches_the_gather(V, cube, x_list, anchors, n_samples, 0.05,
                                    seed=23, batch=batch)


@settings(max_examples=15, deadline=None)
@given(d=st.integers(1, 3), half_L=st.integers(1, 3), data=st.data(),
       V=st.sampled_from([PotentialSpec("quadratic", c=1.0),
                          PotentialSpec("dipole", c=1.2, a_dip=0.0)]))
def test_constant_hessian_rhs_is_the_one_path_value(d, half_L, data, V):
    # with V'' = c the right side does not depend on the path: every gathered
    # row is the same, the check's rhs is the one-path value, and its sigma
    # is the left side's alone
    cube = PeriodicCube(d, 2 * half_L)
    anchors = data.draw(st.lists(st.integers(0, cube.n_sites - 1), min_size=1,
                                 max_size=3), label="anchors")
    x_list = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                                min_size=1, max_size=3), label="x_list")
    dt, n = 0.1, 4
    out = correlation_identity_check(V, 1.0, cube, x_list, n, dt, seed=3,
                                     anchors=anchors, batch=3)
    lhs, rhs = gathered_pathwise_sides(V, 1.0, cube, x_list, n, dt, 3, anchors, 3)
    assert (rhs == rhs[0]).all()
    _, one = gathered_pathwise_sides(V, 1.0, cube, x_list, 1, dt, 0, anchors)
    assert same_bits(rhs[:1], one)
    assert out["rhs"] == pytest.approx(one[0], rel=1e-12)
    assert out["sigma"] == pytest.approx(lhs.std(axis=0, ddof=1) / np.sqrt(n), rel=1e-12)


def test_correlation_identity_guards():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    with pytest.raises(ConfigError):
        correlation_identity_check(V, 0.0, cube, [[0]], 10, 0.05)
    with pytest.raises(ConfigError):
        correlation_identity_check(V, 1.0, cube, [[0]], 10, dt=2.0)
    with pytest.raises(ConfigError, match="n_samples"):
        correlation_identity_check(V, 1.0, cube, [[0]], 1, 0.05)


@pytest.mark.parametrize("batch", [0, -1])
def test_a_batch_below_one_raises_before_any_path(monkeypatch, batch):
    # without the guard the correlation loop never advances and the Poincare
    # check fails later; a sampler that refuses to run keeps this test bounded
    # whatever the outcome
    def no_paths(*args, **kwargs):
        raise AssertionError("a path was sampled")

    monkeypatch.setattr(field_theory, "brownian_increments", no_paths)
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    with pytest.raises(ConfigError, match="batch"):
        correlation_identity_check(V, 1.0, cube, [[0]], 10, 0.05, batch=batch)
    with pytest.raises(ConfigError, match="batch"):
        poincare_variance_check(V, 1.0, cube, 0.05, 10, linear_site_functional(0), 40,
                                batch=batch)


# -- decay-rate extraction -------------------------------------------------------------


def test_thm13_decay_check_synthetic():
    radii = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    base = 1.0  # first differences in d=2
    excess = 0.4
    diffs = 2.0 * radii ** -(base + excess)
    out = field_theory._decay_excess(diffs, radii, base_exponent=base, sigma=np.zeros(5))
    assert out["excess"] == pytest.approx(excess, abs=1e-6)
    assert out["excess_lower"] > 0
    assert out["excluded"] == 0


def test_thm13_decay_check_excludes_noisy_points():
    radii = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    diffs = radii**-1.3
    sigma = np.zeros(6)
    sigma[-1] = 10.0 * diffs[-1]  # drown the last point in noise
    out = field_theory._decay_excess(diffs, radii, base_exponent=1.0, sigma=sigma)
    assert out["excluded"] == 1
    assert out["excess"] == pytest.approx(0.3, abs=1e-6)


@pytest.mark.parametrize("c, L", [(1.0, 8), (1.3, 12)])
def test_first_difference_row_of_constant_coefficients_is_the_reference(c, L):
    # the quadratic potential's coefficients are the constant c, and the
    # damped sum of constant-coefficient steps is the reference mode by mode;
    # the row runs as the pickled partial a process pool would map
    cube = PeriodicCube(2, L)
    row_of = functools.partial(first_difference_row, PotentialSpec("quadratic", c=c),
                               1.0, cube, 0.1)
    row = pickle.loads(pickle.dumps(row_of))(5)
    ref = first_difference_reference(cube, 1.0, 0.1, c)
    assert row.shape == ref.shape == (9,)
    assert np.abs(row - ref).max() <= 1e-12
    assert np.abs(ref).min() > 1e-4  # every probe carries signal


def point_source_first_difference_row(V, m, cube, dt, seed):
    """The row by 24 point sources, each base and its e1 and e2 neighbours,
    summed as sum_i w_i (u_i + u_{i+1}) / 2, each probe read as the
    difference E[base + e_k, x] - E[base, x]."""
    n_steps, rho = field_theory._damping(m, dt)
    w = rho ** np.arange(n_steps) * (1 - rho) / (m * m)
    h, q = cube.L // 2, cube.L // 4
    bases = [[0, 0], [h, 0], [0, h], [h, h], [q, q], [3 * q, q], [q, 3 * q],
             [3 * q, 3 * q]]
    # sources 3b, 3b + 1 and 3b + 2 are base b and its e1 and e2 neighbours
    srcs = [cube.site_index([bx + ox, by + oy]) for bx, by in bases
            for ox, oy in ((0, 0), (1, 0), (0, 1))]
    a = sample_environment(V, m, cube, dt, n_steps, seed)
    u = np.zeros((len(srcs), cube.n_sites))
    u[np.arange(len(srcs)), srcs] = 1.0
    E = np.zeros_like(u)
    for i, un in _sweep(cube, a.values.__getitem__, u, range(n_steps), dt):
        E += w[i] * 0.5 * (u + un)
        u = un
    row = []
    for vx, vy in field_theory._PROBES:
        tri = []
        for b, (bx, by) in enumerate(bases):
            for k, offsets in ((1, ((vx, vy), (vx, -vy))), (2, ((vy, vx), (-vy, vx)))):
                for ox, oy in offsets:
                    x = cube.site_index([bx + ox, by + oy])
                    tri.append(E[3 * b + k, x] - E[3 * b, x])
        row.append(np.mean(tri))
    return np.array(row)


@pytest.mark.parametrize("L", [32, 8])
def test_first_difference_row_matches_the_point_source_differences(L):
    # the sweep is linear, so the dipole sources give the differences of
    # the point-source responses; at criterion 13(b)'s own parameters
    V, cube = PotentialSpec("dipole", c=1.0, a_dip=0.7), PeriodicCube(2, L)
    row = first_difference_row(V, 0.25, cube, 0.1, 1500)
    ref = point_source_first_difference_row(V, 0.25, cube, 0.1, 1500)
    assert np.abs(row - ref).max() <= 1e-13 * np.abs(row).max()


def test_first_difference_excess_fits_the_rows_of_consecutive_seeds():
    V, cube = PotentialSpec("dipole", c=1.0, a_dip=0.7), PeriodicCube(2, 8)
    out = first_difference_excess(V, 1.0, cube, 0.1, 1.0, 3, seed=40)
    rows = [first_difference_row(V, 1.0, cube, 0.1, s) for s in (40, 41, 42)]
    assert same_bits(out["first"], np.array(rows))
    assert out["excluded"] + len(out["report"].scales) == 9
    assert np.isfinite(out["excess"])


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


@pytest.mark.parametrize("m, dt", [(3.0, 0.2), (1.0, 0.5), (0.0, 0.01)],
                         ids=["1/m^2", "1/(2d Lam)", "massless"])
def test_every_langevin_entry_point_checks_the_window_before_a_step(m, dt,
                                                                    monkeypatch):
    # min(1/(2 d Lam), 1/m^2) = 1/9 at m = 3, and 1/2.6 for the dipole at d = 1
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before the window was checked")

    monkeypatch.setattr("parahom.field_theory.langevin_path", no_step)
    monkeypatch.setattr("parahom.environments.langevin_path", no_step)
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    F = linear_site_functional(0)
    calls = [
        lambda: malliavin_fd_check(V, m, cube, dt, 1, 2, 0, 5),
        lambda: malliavin_fd_check(V, m, cube, dt, 1, 5, 0, 5),  # s = t: no steps
        lambda: poincare_variance_check(V, m, cube, dt, 10, F, 10),
        lambda: correlation_identity_check(V, m, cube, [[0]], 10, dt),
        lambda: langevin_simulate(V, m, cube, dt, 10),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="dt=|m:"):
            call()


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
    # sigma comes from the ratios of 20 groups of samples, each needing two
    F = linear_site_functional(0)
    for n_samples in (1, 39):
        with pytest.raises(ConfigError, match="n_samples"):
            poincare_variance_check(V, 1.0, cube, 0.05, 10, F, n_samples)
    assert poincare_variance_check(V, 1.0, cube, 0.05, 10, F, 40, seed=3)["sigma"] > 0
