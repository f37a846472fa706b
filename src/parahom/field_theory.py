"""Checks linking the field dynamics to averaged Green's functions.

Four families of computations:

* the correlation identity <phi(x) phi(0)> = int_0^infty e^{-m^2 t}
  G_a(x, t) dt with a = V''(grad phi) evaluated along the trajectory,
  against the massive lattice Green's function as the exact covariance
  of the quadratic case,
* decay-rate measurement of a lattice-vs-continuum kernel difference,
  with criterion 13(b)'s d=2 first differences as a per-environment map,
* the Malliavin-derivative identity: the response of phi(x, t) to a
  single Brownian increment equals the damped backward Green's function,
* the variance inequality Var G <= < || D G ||^2 > for terminal-time
  functionals, with the derivative field computed by damped backward
  evolution of the functional's gradient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .environments import (
    PotentialSpec,
    _burn_in,
    _map_chunks_on_cores,
    _map_on_cores,
    _step_count,
    _stderr,
    brownian_increments,
    check_langevin_window,
    hessian_coefficients,
    langevin_path,
    sample_environment,
)
from .errors import ConfigError
from .homogenize import rate_fit
from .lattice import PeriodicCube
from .parabolic import CoefficientField, _sweep, greens_backward


# -- the quadratic-case covariance ---------------------------------------------


def massive_lattice_greens(cube: PeriodicCube, m: float, x) -> float:
    """(c grad* grad + m^2)^{-1}(x, 0) on the cube by Fourier summation
    (c = 1); the quadratic-potential stationary covariance."""
    kernel = np.fft.ifftn(1.0 / (cube.laplacian_symbol() + m * m))
    return float(kernel[tuple(np.asarray(x, dtype=int) % cube.L)].real)


# -- independent paths ----------------------------------------------------------


def _run_paths(body, n_samples: int, batch: int, seed: int, dt: float, n_sites: int,
               n_steps: int) -> tuple:
    """The per-path rows of ``n_samples`` independent Langevin paths,
    stacked in path order: ``body(noise, b)`` steps b paths on ``noise``,
    n_steps increments of shape (b, n_sites), and returns a tuple of arrays
    with one row per path.

    Path p steps on its own noise stream, the normals of
    ``default_rng(SeedSequence(seed).spawn(n)[p])`` in step order.  The
    paths are cut into contiguous ranges, one per core
    (``environments._map_chunks_on_cores``; inside another map, one range
    in the calling process), each run in batches of ``batch``.  Where the
    body's arithmetic acts on each row alone, the rows are the same for
    any ``batch``, core count and prefix of ``n_samples``.
    """
    if batch < 1:  # the loop would raise or run no path
        raise ConfigError(f"batch: need at least 1 path per batch, got {batch}")

    def rows(paths):
        parts = []
        for start in range(0, len(paths), batch):
            own = paths[start:start + batch]
            rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(p,)))
                    for p in own]
            parts.append(body(brownian_increments(rngs, dt, n_sites, n_steps), len(own)))
        return parts

    parts = [part for chunk in _map_chunks_on_cores(rows, range(n_samples))
             for part in chunk]
    return tuple(np.concatenate(column) for column in zip(*parts))


# -- correlation identity -------------------------------------------------------


def correlation_identity_check(
    V: PotentialSpec,
    m: float,
    cube: PeriodicCube,
    x_list,
    n_samples: int,
    dt: float,
    seed: int = 0,
    batch: int = 50,
    anchors=None,
) -> dict:
    """Paired Monte Carlo test of the identity
    <phi(x) phi(0)> = int_0^infty e^{-m^2 t} G_a(x, t) dt.

    Per sample, the left side is phi(anchor + x) phi(anchor) at the end
    of a stationary stretch (10/(m^2 dt) burn-in steps from 0, then a
    window long enough for the damped propagators to fall below 1e-6),
    averaged over the anchor sites.  The right side is built pathwise
    from the same trajectory: the time integral is
    expanded into sums over the trajectory's own step Jacobians (each step
    contributes the product of two damped backward propagations of the
    anchor deltas, driven by a = V''(grad phi)).  This realization makes
    the discrete identity exact for quadratic potentials at any step
    size, so the residual bias is O(dt) in the anharmonicity only.  Where
    the potential's window collapses, a = c on every path, and one
    propagation serves them all.

    The paths run through ``_run_paths``, so the output is the same for
    any ``batch``, core count and prefix of ``n_samples``.

    Differences are paired per sample; sigma is the standard error of
    the paired mean, so ``n_samples`` must be at least 2.  ``z_max`` is the
    largest |difference| / sigma over the offsets, with sigma floored at
    1e-300.  ``x_list`` and ``anchors`` must not be empty, and each offset
    in ``x_list`` has ``cube.d`` coordinates.
    """
    check_langevin_window(V, m, cube, dt)
    if n_samples < 2:
        raise ConfigError(f"n_samples: need at least 2 for sigma, got {n_samples}")
    burn_in = _burn_in(m, dt)
    x_list = [np.asarray(x, dtype=int) for x in x_list]
    if not x_list or any(x.shape != (cube.d,) for x in x_list):
        raise ConfigError(f"x_list: need at least one offset of {cube.d} coordinates, "
                          f"got {[x.tolist() for x in x_list]}")
    # the two damped propagators jointly decay like e^{-m^2 tau}
    n_win = _step_count(-np.log(1e-6), m * m, dt)
    if anchors is None:
        anchors = [cube.site_index(np.zeros(cube.d, dtype=int))]
    anchors = list(anchors)
    if not anchors or not all(0 <= site < cube.n_sites for site in anchors):
        raise ConfigError(f"anchors: need at least one site, each in "
                          f"[0, {cube.n_sites}), got {anchors}")
    n_anchors, n_x = len(anchors), len(x_list)
    # all delta sources needed, numbered in first-seen order, the anchors
    # first and then their x-shifts; pair p = (anchor, x) in anchor-major
    # order reads sources s_pos[p] and a_pos[p] < n_a
    src = {}
    a_pos = [src.setdefault(a_site, len(src)) for a_site in anchors for _ in x_list]
    n_a = len(src)
    s_pos = [src.setdefault(cube.site_index(cube.site_coords(a_site) + x), len(src))
             for a_site in anchors for x in x_list]
    sites = np.array(list(src))
    n_src = len(src)
    rho = 1.0 - m * m * dt / 2.0

    def anchor_mean(pairs):
        """(b, pairs) -> (b, x): the average over anchors, in C order (a
        gather leaves F order, which would change how the sample mean sums)."""
        pairs = np.ascontiguousarray(pairs).reshape(-1, n_anchors, n_x)
        return pairs.sum(axis=1) / n_anchors

    def pathwise_rhs(coeff, b):
        """The right side of b paths whose step i has coefficients coeff(i):
        u <- J_i u with J = I - (dt/2)(div a grad + m^2), written as
        rho (I - h div a grad) with rho = 1 - m^2 dt/2, and the sum over
        steps of the inner products <u^s, u^a> for every source s and
        anchor a at once, the Gram columns of the anchors, (b, n_src, n_a)."""
        u = np.zeros((b, n_src, cube.n_sites))
        u[:, np.arange(n_src), sites] = 1.0
        gram = u @ u[:, :n_a].transpose(0, 2, 1)
        step_gram = np.empty_like(gram)
        sweep = _sweep(cube, coeff, u, range(n_win - 1, 0, -1), dt / (2.0 * rho), rho)
        for _, u in sweep:
            gram += np.matmul(u, u[:, :n_a].transpose(0, 2, 1), out=step_gram)
        return dt * anchor_mean(gram[:, s_pos, a_pos])

    # a collapsed window means V'' = c on every path: one propagation serves
    # all paths, with c rounded as the per-path store would round it
    window = V.window
    constant = window.lam == window.Lam
    if constant:
        a_c = np.full((cube.d, cube.n_sites), V.c, dtype=np.float32)
        rhs_c = pathwise_rhs(lambda i: a_c, 1)

    def body(noise, b):
        """(lhs, rhs) of b paths stepping on ``noise``: a stationary stretch,
        burn_in steps from 0 and then the window, whose coefficients are
        kept (the batch axis broadcasts over sources)."""
        phi = np.zeros((b, cube.n_sites))
        if not constant:
            a_store = np.empty((n_win, b, 1, cube.d, cube.n_sites), dtype=np.float32)
            a_work = np.empty((b, cube.d, cube.n_sites))
        for k, phi_next in enumerate(langevin_path(V, m, cube, dt, phi, noise)):
            if k >= burn_in and not constant:
                hessian_coefficients(V, cube, phi, a_work)
                a_store[k - burn_in] = a_work[:, None]
            phi = phi_next
        # left side at the terminal level; the constant rows as a C-order
        # copy: a broadcast view would stack to F order and change how the
        # sample mean sums
        return (anchor_mean(phi[:, sites[s_pos]] * phi[:, sites[a_pos]]),
                np.repeat(rhs_c, b, axis=0) if constant
                else pathwise_rhs(a_store.__getitem__, b))

    lhs_all, rhs_all = _run_paths(body, n_samples, batch, seed, dt, cube.n_sites,
                                  burn_in + n_win)
    diff = lhs_all - rhs_all
    sigma = _stderr(diff)
    difference = diff.mean(axis=0)
    return {
        "lhs": lhs_all.mean(axis=0),
        "rhs": rhs_all.mean(axis=0),
        "difference": difference,
        "sigma": sigma,
        "z_max": float(np.max(np.abs(difference) / np.maximum(sigma, 1e-300))),
        "n_samples": diff.shape[0],
    }


# -- decay-rate extraction ---------------------------------------------------------


def _decay_excess(diffs: np.ndarray, radii: np.ndarray, base_exponent: float,
                  sigma: np.ndarray) -> dict:
    """The ``epsilon``-mode RateReport ``report`` of |diffs| against the
    radii, and the ``excess`` of its decay over ``base_exponent`` (d-2 for
    values, d-1 for first differences, d for second differences) with its
    two-standard-error ``excess_lower``.  The points whose noise level
    ``sigma`` exceeds half the signal are left out; ``excluded`` counts
    them.
    """
    radii = np.asarray(radii, dtype=float)
    diffs = np.asarray(diffs, dtype=float)
    keep = np.asarray(sigma) < 0.5 * np.abs(diffs)
    report = rate_fit(radii[keep], np.abs(diffs[keep]), mode="epsilon")
    excess = -report.slope - base_exponent
    return {"report": report, "excess": float(excess),
            "excess_lower": float(excess - 2.0 * report.slope_stderr),
            "excluded": int((~keep).sum())}


# criterion 13(b)'s probe offsets relative to the source pair (0, e): a
# single angular family with uniform deviation sign, so the log-log fit is
# not inflated by angular scatter
_PROBES = ((0, 1), (-1, 1), (0, 2), (-1, 2), (-2, 2), (0, 3), (-1, 3), (-2, 3), (0, 4))


def _damping(m: float, dt: float) -> tuple[int, float]:
    """Steps of the damped time sum, cut where the weight left is 1e-5, and
    its factor per step rho = e^{-m^2 dt}."""
    return _step_count(-np.log(1e-5), m * m, dt), np.exp(-m * m * dt)


def first_difference_row(V: PotentialSpec, m: float, cube: PeriodicCube, dt: float,
                         seed: int) -> np.ndarray:
    """Criterion 13(b) on one environment, a pure function of its arguments:
    on ``sample_environment(V, m, cube, dt, n_steps, seed)`` the forward
    solves from the dipoles delta_{b + e_k} - delta_b at eight bases b on
    the d=2 torus, summed as E = sum_j c_j u_j, the trapezoid of the
    weights w_i = rho^i (1 - rho) / m^2 (c_j = (w_{j-1} + w_j) / 2, with
    w_{-1} = w_n = 0), and per probe the mean of E over both dipoles."""
    n_steps, rho = _damping(m, dt)
    c = np.convolve(rho ** np.arange(n_steps) * (1 - rho) / (m * m), [0.5, 0.5])
    h, q = cube.L // 2, cube.L // 4
    bases = [[0, 0], [h, 0], [0, h], [h, h], [q, q], [3 * q, q], [q, 3 * q],
             [3 * q, 3 * q]]
    # row 2b + k - 1 is base b's dipole delta_{b + e_k} - delta_b
    ends = [(cube.site_index([bx, by]), cube.site_index([bx + ox, by + oy]))
            for bx, by in bases for ox, oy in ((1, 0), (0, 1))]
    u = np.zeros((len(ends), cube.n_sites))
    for r, (tail, head) in enumerate(ends):
        u[r, tail], u[r, head] = -1.0, 1.0
    a = sample_environment(V, m, cube, dt, n_steps, seed)
    E = c[0] * u
    for i, level in _sweep(cube, a.values.__getitem__, u, range(n_steps), dt):
        E += c[i + 1] * level
    row = []
    for vx, vy in _PROBES:
        reads = []
        for b, (bx, by) in enumerate(bases):
            # transpose the offset for the e2 dipole; average the reflection
            # across the dipole's axis
            for k, offsets in ((1, ((vx, vy), (vx, -vy))), (2, ((vy, vx), (-vy, vx)))):
                reads += [E[2 * b + k - 1, cube.site_index([bx + ox, by + oy])]
                          for ox, oy in offsets]
        row.append(np.mean(reads))
    return np.array(row)


def first_difference_reference(cube: PeriodicCube, m: float, dt: float,
                               c_hom: float) -> np.ndarray:
    """``first_difference_row`` for the constant coefficient c_hom: the same
    damped time sum, evaluated exactly mode by mode."""
    n_steps, rho = _damping(m, dt)
    bsym = 1.0 - dt * c_hom * cube.laplacian_symbol()
    geo = (1 - rho) / (m * m) * (1 - (rho * bsym) ** n_steps) / (1 - rho * bsym)
    r_field = np.fft.ifftn(0.5 * (1 + bsym) * geo).real.ravel()
    return np.array([r_field[cube.site_index([v[0] - 1, v[1]])]
                     - r_field[cube.site_index([v[0], v[1]])] for v in _PROBES])


def first_difference_excess(V: PotentialSpec, m: float, cube: PeriodicCube,
                            dt: float, c_hom: float, n_env: int, seed: int) -> dict:
    """Criterion 13(b): ``first_difference_row`` mapped on every core over
    the seeds seed, ..., seed + n_env - 1 as the matrix ``first``, and the
    fit of the mean row's gap to the c_hom reference against the probe
    radius: its RateReport ``report``, and the ``excess`` and
    ``excess_lower`` of the decay beyond the exponent 1 of first
    differences in d=2, with the probes ``excluded`` as noise."""
    first = np.array(_map_on_cores(functools.partial(first_difference_row, V, m, cube, dt),
                                   range(seed, seed + n_env)))
    d1 = np.abs(first.mean(axis=0) - first_difference_reference(cube, m, dt, c_hom))
    s1 = _stderr(first)
    radii = np.array([float(np.hypot(*v)) for v in _PROBES])
    return {"first": first, **_decay_excess(d1, radii, base_exponent=1.0, sigma=s1)}


# -- Malliavin derivative ----------------------------------------------------------


def malliavin_fd_check(
    V: PotentialSpec,
    m: float,
    cube: PeriodicCube,
    dt: float,
    y_site: int,
    s_index: int,
    x_site: int,
    t_index: int,
    delta: float = 1e-5,
    seed: int = 0,
) -> dict:
    """Response of phi(x, t) to a bump of the Brownian increment in the
    bin starting at s, versus e^{-m^2 (t-s)/2} G_Q(y, s; x, t).

    The Green's function is evaluated on the unperturbed trajectory with
    coefficients V''(grad phi); agreement is first order in dt.  For
    s >= t the derivative is exactly zero.
    """
    if not 1e-7 <= delta <= 1e-3:
        raise ConfigError(f"delta must lie in [1e-7, 1e-3], got {delta}")
    if not 0 <= s_index <= t_index:
        raise ConfigError("need 0 <= s_index <= t_index")
    for name, site in (("y_site", y_site), ("x_site", x_site)):
        if not 0 <= site < cube.n_sites:
            raise ConfigError(f"{name}: site {site} outside [0, {cube.n_sites})")
    check_langevin_window(V, m, cube, dt)
    if s_index == t_index:
        return {"fd_value": 0.0, "formula_value": 0.0, "rel_error": 0.0}
    # the path from phi(0) = 0, and its replay with one increment bumped
    incr = np.sqrt(dt) * np.random.default_rng(seed).standard_normal(
        (t_index, cube.n_sites))
    values = np.zeros((t_index + 1, cube.n_sites))
    for i, phi in enumerate(langevin_path(V, m, cube, dt, values[0], incr), 1):
        values[i] = phi
    bumped = incr.copy()
    bumped[s_index, y_site] += delta
    for phi in langevin_path(V, m, cube, dt, values[0], bumped):
        pass
    fd = (phi[x_site] - values[t_index, x_site]) / delta
    a_vals = hessian_coefficients(V, cube, values)  # (nt+1, d, n)
    a = CoefficientField(cube, dt, a_vals, V.window)
    table = greens_backward(a, x_site, t_index, s_min_index=s_index)
    # the bump lands at the end of step s_index, i.e. at level s_index + 1
    g_val = table.values[1, y_site]
    lag = (t_index - (s_index + 1)) * dt
    formula = float(np.exp(-m * m * lag / 2.0) * g_val)
    rel = abs(fd - formula) / max(abs(formula), 1e-300)
    return {"fd_value": float(fd), "formula_value": formula, "rel_error": float(rel)}


# -- variance inequality --------------------------------------------------------------


@dataclass
class TerminalFunctional:
    """Functional of the terminal field slice with an explicit gradient.

    ``value(phi)`` and ``grad(phi)`` take (..., n_sites) arrays; ``grad``
    returns the componentwise derivative with the same trailing shape.
    """

    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    name: str = ""


def _site_grad(phi):
    g = np.zeros_like(phi)
    g[..., 0] = 1.0
    return g


# the terminal functionals of the variance checks, by name
TERMINAL_FUNCTIONALS = {
    "site": TerminalFunctional(
        value=lambda phi: phi[..., 0], grad=_site_grad, name="phi(0)"),
    "tanh-sum": TerminalFunctional(
        value=lambda phi: np.tanh(phi).sum(axis=-1),
        grad=lambda phi: 1.0 / np.cosh(phi) ** 2, name="sum tanh"),
    "sin-sum": TerminalFunctional(
        value=lambda phi: np.sin(phi).sum(axis=-1),
        grad=np.cos, name="sum sin"),
}


def poincare_variance_check(
    V: PotentialSpec,
    m: float,
    cube: PeriodicCube,
    dt: float,
    n_steps: int,
    functional: TerminalFunctional,
    n_samples: int,
    seed: int = 0,
    batch: int = 200,
) -> dict:
    """Var G versus the mean squared derivative norm, for G a functional
    of phi(., T) under the dynamics started from 0.

    The derivative field D(y, s) is the terminal gradient evolved by the
    damped backward equation (coefficients V''(grad phi) along the same
    trajectory); the bound holds with constant 1.  The ratios of 20
    groups of samples give the sigma of the reported ratio, so each group
    needs two samples: n_samples >= 40.  The paths run through
    ``_run_paths``, so the output does not depend on ``batch`` or the
    core count.
    """
    check_langevin_window(V, m, cube, dt)
    if n_steps < 1:
        raise ConfigError(f"n_steps: need at least 1 step, got {n_steps}")
    if n_samples < 40:
        raise ConfigError("n_samples: need at least 40, two in each of the 20 groups "
                          f"that give sigma, got {n_samples}")
    rho = float(np.exp(-m * m * dt / 2.0))

    def body(noise, b):
        """(G, ||DG||^2) of b paths stepping on ``noise``."""
        traj = np.zeros((n_steps + 1, b, cube.n_sites))
        for i, phi in enumerate(langevin_path(V, m, cube, dt, traj[0], noise), 1):
            traj[i] = phi
        phi = traj[-1]
        # a copy: a view of the trajectory would keep it alive with the row
        g = np.array(functional.value(phi), dtype=float)
        # backward damped evolution of the terminal gradient
        w = np.asarray(functional.grad(phi), dtype=float)
        # the increment of step i feeds through the Jacobians of steps
        # i+1 .. n-1 only; the last increment enters undamped
        norm2 = dt * (w**2).sum(axis=-1)
        a_work = np.empty((b, cube.d, cube.n_sites))
        coeff = lambda i: hessian_coefficients(V, cube, traj[i], a_work)
        for _, w in _sweep(cube, coeff, w, range(n_steps - 1, 0, -1), dt / 2.0, rho):
            norm2 += dt * (w**2).sum(axis=-1)
        return g, norm2

    g_vals, d_norms = _run_paths(body, n_samples, batch, seed, dt, cube.n_sites, n_steps)
    variance = float(g_vals.var(ddof=1))
    bound = float(d_norms.mean())
    ratio = variance / bound if bound > 0 else 0.0
    # sigma of the ratio from its recomputation on 20 groups of paths
    groups = zip(np.array_split(g_vals, 20), np.array_split(d_norms, 20))
    sigma = float(_stderr([g.var(ddof=1) / n.mean() for g, n in groups if n.mean() > 0]))
    return {
        "variance": variance,
        "derivative_bound": bound,
        "ratio": float(ratio),
        "sigma": sigma,
        "passes": bool(ratio <= 1.0 + 3.0 * sigma),
        "n_samples": n_samples,
    }
