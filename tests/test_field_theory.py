"""Correlation-identity, Malliavin, and variance-inequality tests."""

import functools
import os
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
    _map_on_cores,
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
from test_environments import _no_fork, assert_sigma_matches_spread
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


def path_noise(seed, n_paths, n_steps, n_sites, dt):
    """The documented noise of paths 0..n_paths-1, shape (n_steps, n_paths,
    n_sites): path p's increments are sqrt(dt) times the normals of
    ``default_rng(SeedSequence(seed).spawn(n)[p])``, in step order."""
    children = np.random.SeedSequence(seed).spawn(n_paths)
    return np.sqrt(dt) * np.stack([np.random.default_rng(child).standard_normal(
        (n_steps, n_sites)) for child in children], axis=1)


def gathered_pathwise_sides(V, m, cube, x_list, n_samples, dt, seed, anchors):
    """Per-path (lhs, rhs) of the pathwise estimator, one path per row, with
    the right side gathered pair by pair at every step:
    rhs = sum_i dt sum_x u_i^s(x) u_i^a(x), averaged over anchors.  All the
    paths run at once, each on its own documented noise stream."""
    burn_in = int(np.ceil(10.0 / (m * m * dt)))
    n_win = int(np.ceil(-np.log(1e-6) / (m * m) / dt))
    pairs = [(cube.site_index(cube.site_coords(a) + np.asarray(x)), a)
             for a in anchors for x in x_list]
    s_sites, a_sites = (np.array(p) for p in zip(*pairs))

    def anchor_mean(per_pair):
        return per_pair.reshape(-1, len(anchors), len(x_list)).mean(axis=1)

    b = n_samples
    phi = np.zeros((b, cube.n_sites))
    a_store = np.empty((n_win, b, 1, cube.d, cube.n_sites), dtype=np.float32)
    noise = path_noise(seed, b, burn_in + n_win, cube.n_sites, dt)
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


def assert_check_matches_the_gather(V, cube, x_list, anchors, n_samples, dt, seed,
                                    batch):
    out = correlation_identity_check(V, 1.0, cube, x_list, n_samples, dt, seed=seed,
                                     anchors=anchors, batch=batch)
    lhs, rhs = gathered_pathwise_sides(V, 1.0, cube, x_list, n_samples, dt, seed,
                                       anchors)
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
    lhs, rhs = gathered_pathwise_sides(V, 1.0, cube, x_list, n, dt, 3, anchors)
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


@pytest.mark.parametrize("d, x", [(2, [1]), (1, [1, 2])], ids=["short", "long"])
def test_correlation_offsets_need_d_coordinates(d, x):
    V = PotentialSpec("quadratic", c=1.0)
    with pytest.raises(ConfigError, match="x_list"):
        correlation_identity_check(V, 1.0, PeriodicCube(d, 4), [[0] * d, x], 10, 0.05)


@pytest.mark.parametrize("x_list, anchors, key",
                         [([], [0], "x_list"), ([[0]], [], "anchors")],
                         ids=["no-offset", "no-anchor"])
def test_correlation_check_needs_an_offset_and_an_anchor_before_any_path(
        x_list, anchors, key, monkeypatch):
    def no_paths(*args, **kwargs):
        raise AssertionError("a path was sampled")

    monkeypatch.setattr(field_theory, "brownian_increments", no_paths)
    V = PotentialSpec("quadratic", c=1.0)
    with pytest.raises(ConfigError, match=key):
        correlation_identity_check(V, 1.0, PeriodicCube(1, 8), x_list, 10, 0.05,
                                   anchors=anchors)


def _correlation_on_8_sites(V, n_samples, batch):
    return correlation_identity_check(V, 1.0, PeriodicCube(1, 8), [[0], [2]], n_samples,
                                      0.05, seed=23, anchors=[1, 4], batch=batch)


_BATCHES = (1, 3, 7, 50)  # one path per batch, ranges cut inside a batch, one batch


def assert_the_same_on_one_core_and_two(monkeypatch, run, two_core_batches):
    """``run(batch)`` on two cores forks one worker per call, and on one
    core none; every output is the same bits for any batch and core count.
    Two cores take paths [0, n/2) and [n/2, n), each drawing only its own
    paths' streams; one core runs them all."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    two = [run(batch) for batch in two_core_batches]
    assert len(forks) == len(two)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for other in _BATCHES:
        one = run(other)
        for batch, out in zip(two_core_batches, two):
            for key in one:
                assert np.array_equal(one[key], out[key]), (batch, other, key)
    assert len(forks) == len(two)


@pytest.mark.parametrize("V", [PotentialSpec("dipole", c=1.0, a_dip=0.4),
                               PotentialSpec("quadratic", c=1.0)],
                         ids=["dipole", "quadratic"])
@pytest.mark.parametrize("n_samples, batch", [(7, 3), (7, 2), (2, 50)])
def test_correlation_check_is_the_same_on_one_core_and_two(two_cores, monkeypatch, V,
                                                           n_samples, batch):
    assert_the_same_on_one_core_and_two(
        monkeypatch, lambda other: _correlation_on_8_sites(V, n_samples, other), [batch])


def path_rows(monkeypatch, run, n_samples, batch):
    """The per-path rows that ``_run_paths`` stacks for ``run(n_samples,
    batch)`` on one core."""
    rows = []
    run_paths = field_theory._run_paths

    def spy(*args):
        rows.append(run_paths(*args))
        return rows[-1]

    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        patch.setattr(field_theory, "_run_paths", spy)
        run(n_samples, batch)
    (columns,) = rows
    return columns


def assert_prefix_rows_are_those_of_shorter_runs(monkeypatch, run, n_samples, batch,
                                                 shorter):
    full = path_rows(monkeypatch, run, n_samples, batch)
    for k, other in shorter:
        for column, column_k in zip(full, path_rows(monkeypatch, run, k, other)):
            assert same_bits(column[:k], column_k), (k, other)


@pytest.mark.parametrize("V", [PotentialSpec("dipole", c=1.0, a_dip=0.4),
                               PotentialSpec("quadratic", c=1.0)],
                         ids=["dipole", "quadratic"])
def test_correlation_rows_of_a_prefix_are_those_of_a_shorter_run(monkeypatch, V):
    # per path (lhs, rhs)
    assert_prefix_rows_are_those_of_shorter_runs(
        monkeypatch, functools.partial(_correlation_on_8_sites, V), 7, 3,
        ((2, 50), (4, 3), (5, 1)))


def assert_no_worker_inside_a_map(monkeypatch, run):
    """``run()`` inside the function of a two-core map, in the parent's
    chunk and in the worker's, forks nothing and gives its output alone."""
    alone = run()

    def fn(_):
        monkeypatch.setattr(os, "fork", _no_fork)  # after the outer fork
        return run()

    for inside in _map_on_cores(fn, [0, 1]):
        for key in alone:
            assert np.array_equal(inside[key], alone[key]), key


def test_correlation_check_inside_a_map_forks_no_worker(two_cores, monkeypatch):
    V = PotentialSpec("dipole", c=1.0, a_dip=0.4)
    assert_no_worker_inside_a_map(monkeypatch, lambda: _correlation_on_8_sites(V, 7, 3))


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


def test_correlation_sigma_covers_the_spread_over_independent_seeds():
    # 60 checks of 20 paths each, on independent seeds: the paired
    # differences of a dipole, whose right side varies from path to path
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    outs = [correlation_identity_check(V, 2.0, PeriodicCube(1, 4), [[0], [1]], 20, 0.1,
                                       seed=k, batch=20) for k in range(60)]
    assert_sigma_matches_spread([o["difference"] for o in outs],
                                [o["sigma"] for o in outs])


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


def test_first_difference_sigma_covers_the_spread_over_independent_seeds(monkeypatch):
    # the sigma of the mean row that decides which probes are noise, from 30
    # calls of 4 environments each on disjoint seeds
    sigmas = []
    decay_excess = field_theory._decay_excess

    def spy(*args, sigma, **kwargs):
        sigmas.append(sigma)
        return decay_excess(*args, sigma=sigma, **kwargs)

    monkeypatch.setattr(field_theory, "_decay_excess", spy)
    V, cube = PotentialSpec("dipole", c=1.0, a_dip=0.7), PeriodicCube(2, 8)
    means = [first_difference_excess(V, 2.0, cube, 0.1, 2.0, 4, seed=100 + 4 * k)
             ["first"].mean(axis=0) for k in range(30)]
    assert_sigma_matches_spread(means, sigmas)


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


@pytest.mark.parametrize("m, dt", [(3.0, 0.2), (1.0, 0.5), (0.0, 0.01), (float("nan"), 0.01),
                                   (1.0, 0.0), (1.0, -0.01), (1.0, float("nan"))],
                         ids=["1/m^2", "1/(2d Lam)", "massless", "nan-mass", "zero-step",
                              "negative-step", "nan-step"])
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


@pytest.mark.parametrize("m, dt", [(1e-200, 0.05), (1.0, 1e-300)],
                         ids=["m^2-underflows", "tiny-step"])
def test_every_derived_step_count_beyond_reach_is_refused_before_a_step(m, dt,
                                                                        monkeypatch):
    # the burn-in 10/(m^2 dt) is inf at m = 1e-200 (m^2 is 0) and 1e301 at
    # dt = 1e-300; so are the correlation window and 13(b)'s damped time sum
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before the step count was checked")

    monkeypatch.setattr("parahom.field_theory.langevin_path", no_step)
    monkeypatch.setattr("parahom.environments.langevin_path", no_step)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    calls = [
        lambda: correlation_identity_check(V, m, PeriodicCube(1, 8), [[0]], 10, dt),
        lambda: langevin_simulate(V, m, PeriodicCube(1, 8), dt, 10),
        lambda: first_difference_row(V, m, PeriodicCube(2, 8), dt, seed=0),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="m, dt"):
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


def test_poincare_sigma_covers_the_spread_over_independent_seeds():
    # 60 checks of 200 paths each on independent seeds: sigma, from the
    # ratios of 20 groups, against the spread of the whole-sample ratio
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    outs = [poincare_variance_check(V, 1.0, PeriodicCube(1, 4), 0.05, 20,
                                    field_theory.TERMINAL_FUNCTIONALS["tanh-sum"], 200,
                                    seed=k) for k in range(60)]
    assert_sigma_matches_spread([o["ratio"] for o in outs], [o["sigma"] for o in outs])


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
    # no step leaves a variance of 0 against a positive bound
    for n_steps in (0, -1):
        with pytest.raises(ConfigError, match="n_steps"):
            poincare_variance_check(V, 1.0, cube, 0.05, n_steps, F, 40)


def _poincare_on_8_sites(n_samples, batch, functional=None):
    functional = functional or field_theory.TERMINAL_FUNCTIONALS["tanh-sum"]
    return poincare_variance_check(PotentialSpec("dipole", c=1.0, a_dip=0.3), 1.0,
                                   PeriodicCube(1, 8), 0.05, 10, functional, n_samples,
                                   seed=11, batch=batch)


def test_poincare_check_is_the_same_for_any_batch_on_one_core_and_two(two_cores,
                                                                      monkeypatch):
    assert_the_same_on_one_core_and_two(
        monkeypatch, functools.partial(_poincare_on_8_sites, 41), _BATCHES)


def test_poincare_paths_of_a_prefix_are_those_of_a_shorter_run(monkeypatch):
    # per path (G, ||DG||^2) of G = sum sin phi(., T)
    run = functools.partial(_poincare_on_8_sites,
                            functional=field_theory.TERMINAL_FUNCTIONALS["sin-sum"])
    assert_prefix_rows_are_those_of_shorter_runs(monkeypatch, run, 45, 7,
                                                 ((40, 50), (41, 1)))


def test_poincare_check_inside_a_map_forks_no_worker(two_cores, monkeypatch):
    assert_no_worker_inside_a_map(monkeypatch, lambda: _poincare_on_8_sites(41, 7))
