"""Checks linking the field dynamics to averaged Green's functions.

Four families of computations:

* the correlation identity <phi(x) phi(0)> = int_0^infty e^{-m^2 t}
  G_a(x, t) dt with a = V''(grad phi) evaluated along the trajectory,
* the continuum elliptic Green's function of the homogenized operator
  and decay-rate measurement of the lattice-vs-continuum difference,
* the Malliavin-derivative identity: the response of phi(x, t) to a
  single Brownian increment equals the damped backward Green's function,
* the variance inequality Var G <= < || D G ||^2 > for terminal-time
  functionals, with the derivative field computed by damped backward
  evolution of the functional's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate, special

from .environments import (
    PotentialSpec,
    brownian_increments,
    langevin_max_dt,
    langevin_path,
)
from .errors import ConfigError, UnsupportedVariantError
from .lattice import PeriodicCube, heat_kernel_1d
from .parabolic import CoefficientField, _sweep, greens_backward

# -- oracles for the quadratic case -------------------------------------------


def massive_lattice_greens(cube: PeriodicCube, m: float, x) -> float:
    """(c grad* grad + m^2)^{-1}(x, 0) on the cube by Fourier summation
    (c = 1); the quadratic-potential stationary covariance."""
    A = cube.laplacian_symbol() + m * m
    x = np.asarray(x, dtype=int)
    phase = np.ones(cube.shape, dtype=complex)
    for j in range(cube.d):
        shape = [1] * cube.d
        shape[j] = cube.L
        phase = phase * np.exp(
            2j * np.pi * np.fft.fftfreq(cube.L) * x[j]
        ).reshape(shape)
    return float((phase / A).sum().real / cube.n_sites)


def massive_greens_integral(m: float, x, c: float = 1.0) -> float:
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


# -- correlation identity -------------------------------------------------------


def correlation_identity_check(
    V: PotentialSpec,
    m: float,
    cube: PeriodicCube,
    x_list,
    n_samples: int,
    dt: float,
    seed: int = 0,
    burn_in: int | None = None,
    batch: int = 50,
    tail_tol: float = 1e-6,
    anchors=None,
    method: str = "pathwise",
) -> dict:
    """Paired Monte Carlo test of the identity
    <phi(x) phi(0)> = int_0^infty e^{-m^2 t} G_a(x, t) dt.

    Per sample, the left side is phi(anchor + x) phi(anchor) at the end
    of a stationary stretch, averaged over the anchor sites.  The right
    side is built from the same trajectory in one of two ways:

    * ``pathwise`` (default): the time integral is expanded into sums
      over the trajectory's own step Jacobians (each step contributes
      the product of two damped backward propagations of the anchor
      deltas, driven by a = V''(grad phi)); this realization makes the
      discrete identity exact for quadratic potentials at any step size,
      so the residual bias is O(dt) in the anharmonicity only.
    * ``forward``: the literal quadrature of e^{-m^2 t} times the
      forward fundamental solution; carries a plain O(dt) quadrature
      bias and is kept as an independent cross-check.

    Differences are paired per sample; sigma is the standard error of
    the paired mean.
    """
    if m <= 0:
        raise ConfigError("mass must be > 0")
    if dt > langevin_max_dt(V, m, cube.d) * (1 + 1e-12):
        raise ConfigError("dt outside the stability window")
    if method not in ("pathwise", "forward"):
        raise ConfigError(f"unknown method {method!r}")
    if burn_in is None:
        burn_in = int(np.ceil(10.0 / (m * m * dt)))
    x_list = [np.asarray(x, dtype=int) for x in x_list]
    # the two damped propagators jointly decay like e^{-m^2 tau}
    t_star = -np.log(tail_tol) / (m * m)
    n_win = int(np.ceil(t_star / dt))
    if anchors is None:
        anchors = [cube.site_index(np.zeros(cube.d, dtype=int))]
    anchors = list(anchors)
    if not all(0 <= site < cube.n_sites for site in anchors):
        raise ConfigError(f"anchors: sites must lie in [0, {cube.n_sites})")
    n_anchors, n_x = len(anchors), len(x_list)
    # all delta sources needed: anchors and their x-shifts; pair p = (anchor,
    # x) in anchor-major order reads sources s_pos[p] and a_pos[p]
    src_sites = []
    s_pos, a_pos = [], []
    for a_site in anchors:
        a_coord = cube.site_coords(a_site)
        for x in x_list:
            a_pos.append(_index_of(src_sites, a_site))
            s_pos.append(_index_of(src_sites, cube.site_index(a_coord + x)))
    sites = np.array(src_sites)
    n_src = len(src_sites)

    def anchor_mean(pairs):
        """(b, pairs) -> (b, x): the average over anchors, in C order (a
        gather leaves F order, which would change how the sample mean sums)."""
        pairs = np.ascontiguousarray(pairs).reshape(-1, n_anchors, n_x)
        return pairs.sum(axis=1) / n_anchors

    rng = np.random.default_rng(seed)
    lhs_all = []
    rhs_all = []
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        # a stationary stretch: burn_in steps from 0, then the window, whose
        # coefficients are kept (the batch axis broadcasts over sources)
        phi = np.zeros((b, cube.n_sites))
        a_store = np.empty((n_win, b, 1, cube.d, cube.n_sites), dtype=np.float32)
        noise = brownian_increments(rng, dt, phi.shape, burn_in + n_win)
        for k, phi_next in enumerate(langevin_path(V, m, cube, dt, phi, noise)):
            if k >= burn_in:
                a_store[k - burn_in] = V.d2v_diag(cube.grad(phi))[:, None]
            phi = phi_next
        # left side at the terminal level
        lhs = anchor_mean(phi[:, sites[s_pos]] * phi[:, sites[a_pos]])
        if method == "forward":
            # literal Laplace quadrature of the forward solution, anchored
            # at the terminal level and driven by the reversed coefficient
            # history (the stationary environment is reversible in law)
            w = dt * np.exp(-m * m * dt * np.arange(n_win))
            u = np.zeros((b, n_anchors, cube.n_sites))
            u[:, np.arange(n_anchors), anchors] = 1.0
            rows = np.repeat(np.arange(n_anchors), n_x)
            targets = sites[s_pos]
            rhs = w[0] * anchor_mean(u[:, rows, targets])
            sweep = _sweep(cube, a_store.__getitem__, u, range(n_win - 1, 0, -1), dt)
            for k, (_, u) in enumerate(sweep, 1):
                rhs += w[k] * anchor_mean(u[:, rows, targets])
        else:
            # pathwise: u <- J_i u with J = I - (dt/2)(div a grad + m^2),
            # written as rho (I - h div a grad) with rho = 1 - m^2 dt/2
            u = np.zeros((b, n_src, cube.n_sites))
            u[:, np.arange(n_src), sites] = 1.0
            rho = 1.0 - m * m * dt / 2.0
            rhs = dt * anchor_mean((u[:, s_pos] * u[:, a_pos]).sum(axis=-1))
            sweep = _sweep(cube, a_store.__getitem__, u, range(n_win - 1, 0, -1),
                           dt / (2.0 * rho), rho)
            for _, u in sweep:
                rhs += dt * anchor_mean((u[:, s_pos] * u[:, a_pos]).sum(axis=-1))
        lhs_all.append(lhs)
        rhs_all.append(rhs)
        done += b
    lhs_all = np.vstack(lhs_all)
    rhs_all = np.vstack(rhs_all)
    diff = lhs_all - rhs_all
    sigma = diff.std(axis=0, ddof=1) / np.sqrt(diff.shape[0])
    return {
        "x_list": x_list,
        "lhs": lhs_all.mean(axis=0),
        "rhs": rhs_all.mean(axis=0),
        "difference": diff.mean(axis=0),
        "sigma": sigma,
        "n_samples": diff.shape[0],
        "flagged": bool(diff.shape[0] < 2),
    }


def _index_of(pool: list, item) -> int:
    if item not in pool:
        pool.append(item)
    return pool.index(item)


# -- continuum homogenized Green's function --------------------------------------


def hom_elliptic_greens(a_hom: np.ndarray, x, gradient: bool = False):
    """Green's function of -div(a_hom grad) on R^d.

    Values for d >= 3 via the ellipsoidal formula; for d = 2 only the
    gradient exists (the value diverges) and requesting it raises
    UnsupportedVariantError.  ``x`` may carry leading axes.
    """
    a_hom = np.atleast_2d(np.asarray(a_hom, dtype=float))
    d = a_hom.shape[0]
    det = np.linalg.det(a_hom)
    if det <= 0 or np.linalg.eigvalsh(a_hom).min() <= 0:
        raise ConfigError("a_hom must be positive definite")
    x = np.asarray(x, dtype=float)
    a_inv = np.linalg.inv(a_hom)
    quad = np.einsum("...i,ij,...j->...", x, a_inv, x)
    omega = 2.0 * np.pi ** (d / 2.0) / special.gamma(d / 2.0)
    if gradient:
        grad = -np.einsum("ij,...j->...i", a_inv, x) * (
            quad ** (-d / 2.0) / (omega * np.sqrt(det))
        )[..., None]
        return grad
    if d == 2:
        raise UnsupportedVariantError(
            "the d=2 value diverges; request gradient=True"
        )
    if d < 3:
        raise ConfigError("values are defined for d >= 3")
    return quad ** (-(d - 2) / 2.0) / ((d - 2) * omega * np.sqrt(det))


def hom_elliptic_greens_quadrature(a_hom: np.ndarray, x, rel_tol: float = 1e-7):
    """Independent evaluation of the d >= 3 Green's function by radial
    Gaussian-time quadrature: Gamma(x) = int_0^infty (4 pi t)^{-d/2}
    det^{-1/2} exp(-x.a^{-1}x/4t) dt."""
    from .lattice import hom_gaussian_kernel

    val, err = integrate.quad(
        lambda t: hom_gaussian_kernel(x, t, a_hom), 0.0, np.inf, limit=600,
        epsabs=1e-13, epsrel=1e-13,
    )
    if err > rel_tol * max(abs(val), 1e-300):
        raise ConfigError(f"quadrature error {err:.2e} too large")
    return float(val)


def thm13_decay_check(
    diffs: np.ndarray,
    radii: np.ndarray,
    d: int,
    base_exponent: float,
    sigma: np.ndarray = None,
):
    """Fit the decay of |lattice correlation - continuum kernel| against
    |x| and report the excess over the reference exponent.

    ``base_exponent`` is d-2 for values, d-1 for first differences, d for
    second differences.  Points where the noise level exceeds half the
    signal are excluded and reported.
    """
    from .homogenize import rate_fit

    radii = np.asarray(radii, dtype=float)
    diffs = np.asarray(diffs, dtype=float)
    keep = np.ones(radii.size, dtype=bool)
    if sigma is not None:
        keep &= np.asarray(sigma) < 0.5 * np.abs(diffs)
    report = rate_fit(radii[keep], np.abs(diffs[keep]), mode="epsilon")
    excess = -report.slope - base_exponent
    report.extras["excess"] = float(excess)
    report.extras["excess_lower"] = float(excess - 2.0 * report.slope_stderr)
    report.extras["excluded"] = int((~keep).sum())
    return report


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
    a_vals = V.d2v_diag(cube.grad(values))  # (nt+1, d, n)
    a = CoefficientField(cube, dt, a_vals, V.window, diagonal=True)
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
    n_groups: int = 20,
) -> dict:
    """Var G versus the mean squared derivative norm, for G a functional
    of phi(., T) under the dynamics started from 0.

    The derivative field D(y, s) is the terminal gradient evolved by the
    damped backward equation (coefficients V''(grad phi) along the same
    trajectory); the bound holds with constant 1.  Group means give the
    sigma of the reported ratio.
    """
    if m <= 0 or dt > langevin_max_dt(V, m, cube.d) * (1 + 1e-12):
        raise ConfigError("need m > 0 and dt inside the stability window")
    rng = np.random.default_rng(seed)
    rho = float(np.exp(-m * m * dt / 2.0))
    g_vals = np.empty(0)
    d_norms = np.empty(0)
    done = 0
    while done < n_samples:
        b = min(batch, n_samples - done)
        traj = np.zeros((n_steps + 1, b, cube.n_sites))
        noise = brownian_increments(rng, dt, traj[0].shape, n_steps)
        for i, phi in enumerate(langevin_path(V, m, cube, dt, traj[0], noise), 1):
            traj[i] = phi
        phi = traj[-1]
        g_vals = np.concatenate([g_vals, np.asarray(functional.value(phi))])
        # backward damped evolution of the terminal gradient
        w = np.asarray(functional.grad(phi), dtype=float)
        # the increment of step i feeds through the Jacobians of steps
        # i+1 .. n-1 only; the last increment enters undamped
        norm2 = dt * (w**2).sum(axis=-1)
        coeff = lambda i: V.d2v_diag(cube.grad(traj[i]))
        for _, w in _sweep(cube, coeff, w, range(n_steps - 1, 0, -1), dt / 2.0, rho):
            norm2 += dt * (w**2).sum(axis=-1)
        d_norms = np.concatenate([d_norms, norm2])
        done += b
    variance = float(g_vals.var(ddof=1))
    bound = float(d_norms.mean())
    ratio = variance / bound if bound > 0 else 0.0
    # sigma of the ratio from group-wise recomputation
    groups = np.array_split(np.arange(n_samples), n_groups)
    ratios = []
    for idx in groups:
        if idx.size < 2:
            continue
        v = g_vals[idx].var(ddof=1)
        bnd = d_norms[idx].mean()
        if bnd > 0:
            ratios.append(v / bnd)
    sigma = float(np.std(ratios, ddof=1) / np.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
    return {
        "variance": variance,
        "derivative_bound": bound,
        "ratio": float(ratio),
        "sigma": sigma,
        "passes": bool(ratio <= 1.0 + 3.0 * sigma),
        "n_samples": n_samples,
    }
