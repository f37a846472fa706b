"""Sampler, coefficient-map and process-parallel map tests."""

import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from parahom import (
    CoefficientMap,
    ConfigError,
    PeriodicCube,
    PotentialSpec,
    coefficient_field,
    constant_coefficients,
    langevin_simulate,
)
from parahom import environments
from parahom.environments import (
    FieldTrajectory,
    _map_chunks_on_cores,
    _map_on_cores,
    _stderr,
    brownian_increments,
    langevin_drift,
    langevin_path,
)


# -- potentials --------------------------------------------------------------


def test_potential_validation():
    with pytest.raises(ConfigError):
        PotentialSpec("cubic")
    with pytest.raises(ConfigError):
        PotentialSpec("dipole", c=1.0, a_dip=1.0)  # loses convexity
    with pytest.raises(ConfigError):
        PotentialSpec("quadratic", c=1.0, a_dip=0.1)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    assert V.window.lam == pytest.approx(0.7)
    assert V.window.Lam == pytest.approx(1.3)


def test_dipole_derivatives():
    V = PotentialSpec("dipole", c=2.0, a_dip=0.5)
    z = np.array([0.3, -1.1])
    assert np.allclose(V.dv(z), 2.0 * z - 0.5 * np.sin(z))
    assert np.allclose(V.d2v_diag(z), 2.0 - 0.5 * np.cos(z))
    quad = PotentialSpec("quadratic", c=1.5)
    assert np.allclose(quad.dv(z), 1.5 * z)
    assert np.allclose(quad.d2v_diag(z), 1.5)


# -- Langevin dynamics ------------------------------------------------------------


def test_langevin_zero_noise_decay_of_constant_field():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    m, dt, K = 1.0, 0.01, 2.0
    zero = np.zeros(cube.n_sites)
    phi0 = np.full(cube.n_sites, K)
    path = list(langevin_path(V, m, cube, dt, phi0, [zero] * 100))
    # gradient term vanishes on constants: phi(t) = K e^{-m^2 t / 2}
    expect = K * np.exp(-m * m * dt * 100 / 2.0)
    assert np.abs(path[-1] - expect).max() < 2e-3  # O(dt)
    assert len(path) == 100


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
       n_sites=st.integers(1, 5), n_steps=st.integers(0, 9),
       block_floats=st.integers(1, 40), min_draw=st.integers(1, 20),
       dt=st.floats(1e-3, 1.0))
def test_each_brownian_row_is_its_own_generators_stream(seeds, n_sites, n_steps,
                                                         block_floats, min_draw, dt):
    # row r is sqrt(dt) times the normals of generator r in step order,
    # whatever the other rows and whatever size of block they are drawn in
    with mock.patch.object(environments, "_NOISE_FLOATS", block_floats), \
            mock.patch.object(environments, "_NOISE_MIN_DRAW", min_draw):
        rows = [dB.copy() for dB in brownian_increments(
            [np.random.default_rng(s) for s in seeds], dt, n_sites, n_steps)]
    rows = np.array(rows).reshape(n_steps, len(seeds), n_sites)
    for r, s in enumerate(seeds):
        alone = np.sqrt(dt) * np.random.default_rng(s).standard_normal((n_steps, n_sites))
        assert np.array_equal(rows[:, r], alone)


def test_brownian_rows_at_the_real_block_size_are_their_generators_streams():
    # criterion 9's batches: 200 rows of 16 sites fit 10 steps in 256 KB, and
    # the floor of 640 normals a draw raises that to 40, so 50 steps take two
    n_rows, n_sites, n_steps, dt = 200, 16, 50, 0.02
    assert environments._NOISE_FLOATS // (n_rows * n_sites) == 10
    assert environments._NOISE_MIN_DRAW // n_sites == 40
    seeds = np.random.SeedSequence(9).spawn(n_rows)
    rows = np.array([dB.copy() for dB in brownian_increments(
        [np.random.default_rng(s) for s in seeds], dt, n_sites, n_steps)])
    for r, s in enumerate(seeds):
        alone = np.sqrt(dt) * np.random.default_rng(s).standard_normal((n_steps, n_sites))
        assert np.array_equal(rows[:, r], alone)


def test_langevin_streamed_and_predrawn_increments_agree():
    cube = PeriodicCube(2, 4)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    m, dt, n = 1.0, 0.05, 30
    phi0 = np.zeros((3, cube.n_sites))

    def path(phi, increments):
        return np.array(list(langevin_path(V, m, cube, dt, phi, increments)))

    rngs = [np.random.default_rng(7 + r) for r in range(3)]
    base = path(phi0, brownian_increments(rngs, dt, cube.n_sites, n))
    drawn = np.sqrt(dt) * np.stack([np.random.default_rng(7 + r).standard_normal(
        (n, cube.n_sites)) for r in range(3)], axis=1)
    assert np.array_equal(path(phi0, drawn), base)
    # a zero bump replays the base path exactly; a nonzero one moves it
    # only from the bumped step on
    bumped = drawn.copy()
    bumped[12, 1, 5] += 0.0
    assert np.array_equal(path(phi0, bumped), base)
    bumped[12, 1, 5] += 1e-3
    moved = path(phi0, bumped)
    assert np.array_equal(moved[:12], base[:12])
    assert not np.array_equal(moved[12:], base[12:])
    # langevin_simulate runs this stepper from phi = 0 on one stream,
    # default_rng(seed), drawn one step of all the sites after another
    traj = langevin_simulate(V, m, cube, dt, n - 5, burn_in=5, seed=7)
    full = path(phi0[0], np.sqrt(dt) * np.random.default_rng(7).standard_normal(
        (n, cube.n_sites)))
    assert np.array_equal(traj.values, full[4:])


def test_langevin_drift_indicator_hand_computed():
    cube = PeriodicCube(1, 4)
    V = PotentialSpec("quadratic", c=1.0)
    m = 1.0
    phi = np.array([1.0, 0.0, 0.0, 0.0])
    # div V'(grad phi) = laplacian phi = [2, -1, 0, -1]
    expect = -0.5 * (np.array([2.0, -1.0, 0.0, -1.0]) + m * m * phi)
    assert np.allclose(langevin_drift(V, m, cube, phi), expect)


def test_langevin_guards():
    cube = PeriodicCube(2, 4)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    with pytest.raises(ConfigError):
        langevin_simulate(V, 0.0, cube, 0.1, 10)
    with pytest.raises(ConfigError):
        langevin_simulate(V, 1.0, cube, 0.5, 10)  # above stability window


def test_langevin_determinism():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.2)
    t1 = langevin_simulate(V, 1.0, cube, 0.05, 20, burn_in=10, seed=42)
    t2 = langevin_simulate(V, 1.0, cube, 0.05, 20, burn_in=10, seed=42)
    assert np.array_equal(t1.values, t2.values)


def test_langevin_stationary_variance_quadratic():
    # single-site variance -> (grad* grad + m^2)^{-1}(0,0); on Z^1 with m=1
    # this is 1/sqrt(5); the L=16 cube value differs by < 1e-4
    cube = PeriodicCube(1, 16)
    V = PotentialSpec("quadratic", c=1.0)
    m, dt = 1.0, 0.02
    traj = langevin_simulate(V, m, cube, dt, n_steps=40000, seed=3)
    var_hat = float((traj.values[::5] ** 2).mean())
    A = cube.laplacian_symbol() + 1.0
    oracle = float((1.0 / A).mean())
    assert oracle == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-4)
    assert var_hat == pytest.approx(oracle, abs=0.02)


# -- exact Gaussian sampler ----------------------------------------------------------


def gaussian_field_sample(
    m: float,
    cube: PeriodicCube,
    dt: float,
    n_steps: int,
    seed: int = 0,
) -> FieldTrajectory:
    """Exact stationary sample of the quadratic-potential field dynamics.

    Every spatial Fourier mode k evolves as an independent stationary
    Ornstein--Uhlenbeck process with variance 1/A_k and decay rate A_k/2,
    A_k = sum_j (2 - 2 cos(2 pi k_j / L)) + m^2.  Realized by FFT
    filtering of site white noise, so the sample is real and exact in law
    at the grid times (no integrator error).
    """
    if m <= 0:
        raise ConfigError("stationary sampler requires m > 0")
    if dt <= 0 or n_steps < 0:
        raise ConfigError(f"need dt > 0 and n_steps >= 0, got {dt}, {n_steps}")
    rng = np.random.default_rng(seed)
    A = cube.laplacian_symbol() + m * m
    rho = np.exp(-A * dt / 2.0)
    init_amp = np.sqrt(1.0 / A)
    step_amp = np.sqrt((1.0 - rho**2) / A)

    def filtered(white, amp):
        return np.fft.ifftn(np.fft.fftn(white.reshape(cube.shape)) * amp).real.ravel()

    values = np.empty((n_steps + 1, cube.n_sites))
    values[0] = filtered(rng.standard_normal(cube.n_sites), init_amp)
    for i in range(n_steps):
        prev = np.fft.fftn(values[i].reshape(cube.shape))
        innov = np.fft.fftn(rng.standard_normal(cube.shape))
        values[i + 1] = np.fft.ifftn(rho * prev + step_amp * innov).real.ravel()
    return FieldTrajectory(cube, dt, values)


def test_gaussian_sampler_determinism_and_shapes():
    cube = PeriodicCube(2, 6)
    t1 = gaussian_field_sample(1.0, cube, 0.1, 15, seed=5)
    t2 = gaussian_field_sample(1.0, cube, 0.1, 15, seed=5)
    assert np.array_equal(t1.values, t2.values)
    assert t1.values.shape == (16, 36)
    with pytest.raises(ConfigError):
        gaussian_field_sample(0.0, cube, 0.1, 3)


def test_gaussian_sampler_equal_time_covariance():
    cube = PeriodicCube(1, 8)
    m = 1.0
    A = cube.laplacian_symbol() + m * m
    traj = gaussian_field_sample(m, cube, 0.5, 4000, seed=6)
    var_hat = float((traj.values**2).mean())
    oracle = float((1.0 / A).mean())
    # effective sample count ~ n_steps at lag 0.5 with unit rates
    sigma = oracle * np.sqrt(2.0 / (4000 * 0.4))
    assert abs(var_hat - oracle) < 3.0 * sigma


def test_gaussian_sampler_mode_autocorrelation():
    cube = PeriodicCube(1, 8)
    m, dt = 1.0, 0.25
    traj = gaussian_field_sample(m, cube, dt, 20000, seed=7)
    modes = np.fft.fft(traj.values.reshape(-1, 8), axis=-1)
    A = cube.laplacian_symbol() + m * m
    k = 2
    z = modes[:, k]
    lag = 4  # tau = 1.0
    rho_hat = float(
        np.real(np.mean(z[:-lag] * np.conj(z[lag:]))) / np.real(np.mean(z * np.conj(z)))
    )
    rho = float(np.exp(-A.ravel()[k] * lag * dt / 2.0))
    assert rho_hat == pytest.approx(rho, abs=0.05)


def test_gaussian_sampler_spatial_stationarity():
    cube = PeriodicCube(1, 8)
    traj = gaussian_field_sample(1.0, cube, 0.5, 6000, seed=8)
    v = traj.values
    # covariance at offset 1 measured from two different base points
    c_01 = float((v[:, 0] * v[:, 1]).mean())
    c_45 = float((v[:, 4] * v[:, 5]).mean())
    spread = abs(c_01 - c_45)
    scale = float((v**2).mean())
    assert spread < 0.15 * scale


def test_langevin_matches_gaussian_sampler_in_law():
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("quadratic", c=1.0)
    m, dt = 1.0, 0.05
    lv = langevin_simulate(V, m, cube, dt, 12000, seed=9)
    gs = gaussian_field_sample(m, cube, dt * 4, 3000, seed=10)
    ks = stats.ks_2samp(lv.values[::4].ravel(), gs.values.ravel()).statistic
    assert ks < 0.05


# -- coefficient maps -------------------------------------------------------------------


def test_matrix_of_gradient_dipole_entries():
    cube = PeriodicCube(2, 6)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    traj = langevin_simulate(V, 1.0, cube, 0.05, 8, burn_in=50, seed=14)
    cmap = CoefficientMap("matrix-of-gradient", potential=V)
    a = coefficient_field(traj, cmap)
    grads = cube.grad(traj.values)
    assert np.allclose(a.values, 1.0 - 0.3 * np.cos(grads))
    assert a.values.min() >= 0.7 - 1e-12 and a.values.max() <= 1.3 + 1e-12
    assert a.window == V.window  # the window comes from the potential
    with pytest.raises(ConfigError):
        CoefficientMap("scalar-of-field", potential=V)  # the one variant


# -- process-parallel map -----------------------------------------------------------------


def _no_fork():
    raise AssertionError("os.fork called")


def test_map_on_cores_keeps_input_order_and_runs_closures(two_cores):
    offset = 10  # a closure: the function reaches the worker by fork
    parent = os.getpid()
    out = _map_on_cores(lambda x: (x + offset, os.getpid() == parent), range(7))
    assert [v for v, _ in out] == list(range(10, 17))
    assert [in_parent for _, in_parent in out] == [True] * 3 + [False] * 4


def test_map_on_cores_sends_a_coefficient_field_back_read_only(two_cores):
    cube = PeriodicCube(1, 4)
    fields = _map_on_cores(lambda c: constant_coefficients(cube, 0.1, c), [1.0, 2.0])
    assert fields[1].values[0, 0, 0] == 2.0 and fields[1].window.lam == 2.0
    assert not fields[1].values.flags.writeable


def test_map_on_cores_raises_a_worker_config_error_in_the_parent(two_cores):
    def fn(x):
        if x == 3:
            raise ConfigError(f"item {x} is refused")
        return x

    with pytest.raises(ConfigError, match="item 3 is refused"):
        _map_on_cores(fn, range(4))


def test_map_on_cores_names_the_exit_status_of_a_worker_without_result(two_cores):
    with pytest.raises(RuntimeError, match="exit status 3"):
        _map_on_cores(lambda x: os._exit(3) if x == 1 else x, [0, 1])


class _TwoArgumentError(Exception):
    """Pickles, but does not unpickle: its args hold one of its two arguments."""

    def __init__(self, a, b):
        super().__init__(a)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("send, message", [
    (lambda: (lambda: None), "could not be pickled"),
    (lambda: _raise(_TwoArgumentError(1, 2)), "could not be unpickled"),
])
def test_map_on_cores_reports_a_result_that_cannot_cross(two_cores, send, message):
    with pytest.raises(RuntimeError, match=message):
        _map_on_cores(lambda x: send() if x else x, [0, 1])


def test_map_on_cores_stops_the_workers_when_the_parent_chunk_raises(two_cores):
    def fn(x):
        if x == 0:
            raise KeyError("parent chunk")
        time.sleep(60)  # the worker's chunk: killed, not waited for

    t0 = time.perf_counter()
    with pytest.raises(KeyError, match="parent chunk"):
        _map_on_cores(fn, [0, 1])
    assert time.perf_counter() - t0 < 30


def test_map_on_cores_runs_a_nested_call_serially(two_cores, monkeypatch):
    def fn(x):  # in the parent's chunk and in the worker's
        monkeypatch.setattr(os, "fork", _no_fork)  # after the outer fork
        return sum(_map_on_cores(lambda y: x * y, [1, 2, 3]))

    assert _map_on_cores(fn, [1, 2]) == [6, 12]


def test_map_on_cores_forks_nothing_for_one_item_or_one_core(two_cores, monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _map_on_cores(lambda x: x + 1, [4]) == [5]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _map_on_cores(lambda x: x + 1, [4, 5, 6]) == [5, 6, 7]


def test_map_chunks_on_cores_calls_fn_once_per_contiguous_chunk(two_cores):
    parent = os.getpid()
    out = _map_chunks_on_cores(lambda chunk: (chunk, os.getpid() == parent), range(5))
    assert out == [([0, 1], True), ([2, 3, 4], False)]
    assert _map_chunks_on_cores(lambda chunk: chunk, [4]) == [[4]]
    assert _map_chunks_on_cores(lambda chunk: chunk, []) == []  # no empty chunk


# -- Monte Carlo error bars -----------------------------------------------------------------


def assert_sigma_matches_spread(estimates, sigmas, tail=1e-4):
    """Coverage of a reported standard error: over K independent seeds, the
    sample variance of each entry's estimate over the mean of its squared
    sigma lies within the ``tail`` and ``1 - tail`` quantiles of
    chi^2_{K-1} / (K - 1), the ratio's law when sigma is right and the
    estimates are normal.  Returns the ratios."""
    estimates, sigmas = np.asarray(estimates), np.asarray(sigmas)
    k = len(estimates)
    ratio = estimates.var(axis=0, ddof=1) / (sigmas**2).mean(axis=0)
    lo, hi = stats.chi2.ppf([tail, 1.0 - tail], k - 1) / (k - 1)
    assert np.all((lo <= ratio) & (ratio <= hi)), (ratio, lo, hi)
    return ratio


def test_stderr_is_the_sample_standard_deviation_over_sqrt_n():
    # 1, 2, 4, 5 have mean 3 and sample variance 10/3
    x = np.array([1.0, 2.0, 4.0, 5.0])
    assert _stderr(x) == pytest.approx(np.sqrt(10.0 / 3.0 / 4.0), rel=1e-15)
    # per entry over axis 0, the same as each column alone
    rows = np.random.default_rng(0).standard_normal((7, 2, 3))
    assert np.array_equal(_stderr(rows)[1, 2], _stderr(rows[:, 1, 2]))
    # fewer than two samples: float zeros of one sample's shape
    for few in (rows[:1], rows[:0], np.ones((1, 2), dtype=complex)):
        zero = _stderr(few)
        assert zero.dtype == np.float64 and zero.shape == few.shape[1:] and not zero.any()
    assert _stderr([]).shape == ()
