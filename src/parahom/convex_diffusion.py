"""Finite-dimensional convex-potential diffusion in miniature.

The R^k Langevin equation d phi = -(1/2) grad W(phi) dt + dB with a
uniformly convex W: Euler--Maruyama paths, the explicit Gaussian
solution for quadratic W, stationary-moment checks against
A^{-1} e^{-A tau / 2}, a self-normalized Feynman--Kac estimator of
invariant-measure expectations over driftless Brownian paths, and a
log-concavity probe of the discretized path action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .environments import _stderr
from .errors import ConfigError

# -- potentials -----------------------------------------------------------------


@dataclass
class ConvexPotential:
    """Uniformly convex potential on R^k with callable derivatives.

    ``value``, ``grad`` and ``laplacian`` map (..., k) arrays to values,
    gradients and the trace of the Hessian, trace W''.  ``lam`` and
    ``Lam`` bound the Hessian spectrum.
    """

    k: int
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    laplacian: Callable[[np.ndarray], np.ndarray]
    lam: float
    Lam: float

    def __post_init__(self):
        if not 0 < self.lam <= self.Lam:
            raise ConfigError(f"need 0 < lam <= Lam, got ({self.lam}, {self.Lam})")


def _quadratic_data(A, b):
    """A as a float matrix and b as a float vector (zero when None)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.zeros(A.shape[0]) if b is None else np.asarray(b, dtype=float)
    return A, b


def quadratic_potential(A, b=None) -> ConvexPotential:
    """W(phi) = phi.A phi / 2 - b.phi for symmetric positive definite A."""
    A, b = _quadratic_data(A, b)
    k = A.shape[0]
    if not np.allclose(A, A.T):
        raise ConfigError("A must be symmetric")
    eig = np.linalg.eigvalsh(A)
    if eig.min() <= 0:
        raise ConfigError("A must be positive definite")
    return ConvexPotential(
        k=k,
        value=lambda p: 0.5 * np.einsum("...i,ij,...j->...", p, A, p)
        - np.einsum("...i,i->...", p, b),
        grad=lambda p: np.einsum("ij,...j->...i", A, p) - b,
        laplacian=lambda p: np.full(np.shape(p)[:-1], np.trace(A)),
        lam=float(eig.min()),
        Lam=float(eig.max()),
    )


def cosine_perturbed_potential(eps: float) -> ConvexPotential:
    """k=1 potential W(phi) = phi^2/2 + eps cos(phi), convex for |eps| < 1."""
    if abs(eps) >= 1:
        raise ConfigError("need |eps| < 1 for uniform convexity")
    return ConvexPotential(
        k=1,
        value=lambda p: 0.5 * np.asarray(p)[..., 0] ** 2
        + eps * np.cos(np.asarray(p)[..., 0]),
        grad=lambda p: np.stack([np.asarray(p)[..., 0] - eps * np.sin(np.asarray(p)[..., 0])], axis=-1),
        laplacian=lambda p: 1.0 - eps * np.cos(np.asarray(p)[..., 0]),
        lam=1.0 - abs(eps),
        Lam=1.0 + abs(eps),
    )


# -- paths ------------------------------------------------------------------------


def _increments(k: int, dt: float, n_steps: int, seed: int) -> np.ndarray:
    """(n_steps, k) Brownian increments sqrt(dt) N(0, 1), deterministic in
    the seed."""
    return np.sqrt(dt) * np.random.default_rng(seed).standard_normal((n_steps, k))


def convex_diffusion_simulate(
    W: ConvexPotential, dt: float, increments: np.ndarray, phi0=None
) -> np.ndarray:
    """Euler--Maruyama path of d phi = -(1/2) grad W dt + dB driven by the
    given increments (shape (n_steps, k), already scaled by sqrt(dt);
    zeros give the deterministic flow), from ``phi0`` (default 0).

    Requires dt <= 1/Lam.  Returns the levels, shape (n_steps + 1, k).
    """
    if dt > 1.0 / W.Lam * (1 + 1e-12):
        raise ConfigError(f"dt={dt} exceeds the stability bound 1/Lam={1.0 / W.Lam}")
    values = np.empty((increments.shape[0] + 1, W.k))
    values[0] = 0.0 if phi0 is None else np.asarray(phi0, dtype=float)
    for i in range(increments.shape[0]):
        phi = values[i]
        values[i + 1] = phi - 0.5 * dt * W.grad(phi) + increments[i]
    return values


def exact_gaussian_path(A, b, dt: float, increments: np.ndarray, phi0=None) -> np.ndarray:
    """Exponential-integrator solution of the quadratic diffusion driven by
    the given increments: phi_{i+1} = e^{-A dt/2}(phi_i + dB_i) + (I -
    e^{-A dt/2}) A^{-1} b.  Pathwise within O(dt) of the Euler path with
    the same increments."""
    from scipy.linalg import expm

    A, b = _quadratic_data(A, b)
    k = A.shape[0]
    E = expm(-A * dt / 2.0)
    mean_shift = (np.eye(k) - E) @ np.linalg.solve(A, b)
    values = np.empty((increments.shape[0] + 1, k))
    values[0] = 0.0 if phi0 is None else np.asarray(phi0, dtype=float)
    for i in range(increments.shape[0]):
        values[i + 1] = E @ (values[i] + increments[i]) + mean_shift
    return values


# -- stationary moments --------------------------------------------------------------


def _batch_sigma(x: np.ndarray) -> np.ndarray:
    """Standard error of the time average of ``x`` along axis 0: the
    spread of the means of 20 consecutive batches (``np.array_split``)
    over sqrt(20) (``environments._stderr`` of the batch means), which
    stays honest when successive steps correlate."""
    return _stderr(np.stack([batch.mean(axis=0) for batch in np.array_split(x, 20)]))


def stationary_moments_check(A, b, lags, dt: float, n_keep: int, seed: int = 0) -> dict:
    """Empirical stationary mean and lag covariances of the quadratic
    diffusion against A^{-1} b and A^{-1} e^{-A tau / 2}.

    Time averages along one long path after a burn-in of 10/lam time
    units; the means of 20 batches give the sigma used in the 3-sigma
    verdicts.  ``lags`` are in time units and are rounded to grid
    multiples.
    """
    from scipy.linalg import expm

    A_m, b_v = _quadratic_data(A, b)
    W = quadratic_potential(A_m, b_v)
    burn = int(np.ceil(10.0 / W.lam / dt))
    max_lag = int(np.ceil(max(lags) / dt)) if len(lags) else 0
    incr = _increments(W.k, dt, burn + n_keep + max_lag, seed)
    vals = convex_diffusion_simulate(W, dt, incr)[burn:]
    mean_hat = vals.mean(axis=0)
    mean_oracle = np.linalg.solve(A_m, b_v)
    k = W.k
    cov_inf = np.linalg.inv(A_m)
    results = []
    centered = vals - mean_hat
    for tau in lags:
        ell = int(round(tau / dt))
        oracle = cov_inf @ expm(-A_m * ell * dt / 2.0)
        prods = np.einsum(
            "ti,tj->tij", centered[: n_keep], centered[ell : n_keep + ell]
        )
        cov_hat = prods.mean(axis=0)
        sigma = _batch_sigma(prods)
        passes = bool(np.all(np.abs(cov_hat - oracle) <= 3.0 * sigma + 1e-12))
        results.append(
            {"lag": float(ell * dt), "cov_hat": cov_hat, "oracle": oracle,
             "sigma": sigma, "passes": passes}
        )
    mean_sigma = _batch_sigma(vals[:n_keep])
    return {
        "mean_hat": mean_hat,
        "mean_oracle": mean_oracle,
        "mean_sigma": mean_sigma,
        "mean_passes": bool(
            np.all(np.abs(mean_hat - mean_oracle) <= 3.0 * mean_sigma + 1e-12)
        ),
        "lags": results,
    }


# -- Feynman--Kac estimator ------------------------------------------------------------


def _action_potential(W: ConvexPotential, phi: np.ndarray) -> np.ndarray:
    """U(phi) = -(1/2) Lap W + (1/4) |grad W|^2, pointwise on (..., k)."""
    return -0.5 * W.laplacian(phi) + 0.25 * (W.grad(phi) ** 2).sum(axis=-1)


def feynman_kac_estimate(
    W: ConvexPotential,
    f: Callable[[np.ndarray], np.ndarray],
    T: float,
    n_paths: int,
    dt: float,
    seed: int = 0,
) -> dict:
    """Self-normalized importance-sampling estimate of the
    invariant-measure expectation of f.

    Brownian paths B from 0 are reweighted by
    exp{ -(1/2) int_0^T [ -(1/2) Lap W(B) + (1/4)|grad W(B)|^2 ] ds }
    times e^{-W(B(T))/2}; the ratio estimate converges to <f> as T and
    the path count grow.  The effective sample size is reported and the
    result flagged when it falls under 5 percent of the paths.
    """
    n_steps = int(np.ceil(T / dt))
    rng = np.random.default_rng(seed)
    B = np.zeros((n_paths, W.k))
    log_w = np.zeros(n_paths)
    for _ in range(n_steps):
        log_w -= 0.5 * dt * _action_potential(W, B)
        B = B + np.sqrt(dt) * rng.standard_normal((n_paths, W.k))
    log_w -= 0.5 * W.value(B)
    log_w -= log_w.max()
    w = np.exp(log_w)
    fx = np.asarray(f(B), dtype=float)
    estimate = float((w * fx).sum() / w.sum())
    ess = float(w.sum() ** 2 / (w**2).sum())
    # delta-method standard error of the ratio estimator
    wn = w / w.sum()
    sigma = float(np.sqrt((wn**2 * (fx - estimate) ** 2).sum()))
    return {
        "estimate": estimate,
        "sigma": sigma,
        "ess": ess,
        "degenerate": bool(ess < 0.05 * n_paths),
        "n_paths": n_paths,
    }


# -- path-action log-concavity probe ------------------------------------------------


def path_action_hessian_probe(W: ConvexPotential, path: np.ndarray, h: float) -> float:
    """Minimum eigenvalue of the discretized path-action Hessian; the
    action is log-concave along the path when it is >= 0.

    The action on a clamped window is
    S = sum_i h [ (1/2)|(phi_{i+1} - phi_i)/h|^2 + U(phi_i) ]; its
    Hessian in the interior path variables is the (positive) discrete
    kinetic form plus h diag U''(phi_i), the latter evaluated by central
    finite differences.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim == 1:
        path = path[:, None]
    n_pts, k = path.shape
    if n_pts < 3:
        raise ConfigError("need at least one interior path point")
    n_int = n_pts - 2
    # kinetic part: (1/h) * (2 I on diagonal blocks, -I on neighbors)
    tridiag = 2.0 * np.eye(n_int) - np.eye(n_int, k=1) - np.eye(n_int, k=-1)
    # potential part: h * numerical Hessian of U at each interior point, the
    # entries (a, c >= a) by central differences and mirrored below
    step = 1e-5
    p = path[1:-1, None, None, :]
    e = step * np.eye(k)
    ea, ec = e[:, None, :], e[None, :, :]
    Hu = (
        _action_potential(W, p + ea + ec)
        - _action_potential(W, p + ea - ec)
        - _action_potential(W, p - ea + ec)
        + _action_potential(W, p - ea - ec)
    ) / (4.0 * step * step)
    Hu = np.triu(Hu) + np.swapaxes(np.triu(Hu, 1), 1, 2)
    H = np.kron(tridiag / h, np.eye(k))
    for i, block in enumerate(h * Hu):
        H[i * k:(i + 1) * k, i * k:(i + 1) * k] += block
    return float(np.linalg.eigvalsh(H).min())


# -- the finite-dimensional suite ----------------------------------------------------


def finite_dimensional_suite(seed: int, n_keep: int = 20000,
                             n_paths: int = 30000) -> tuple[dict, dict]:
    """Criterion 12's checks of the R^k diffusion, on the seeds seed .. seed + 4:
    stationary mean (``n_keep`` steps) and covariances (2 n_keep steps)
    within 3 sigma; Euler error halving and pathwise gap; the Feynman--Kac
    estimate (``n_paths`` paths) against a long time average, each with
    its own error bar (the average's from 20 batch means); the sign of
    the path-action Hessian for a quadratic and a cosine potential.
    Returns (measurements, verdicts).
    """
    mom = stationary_moments_check(
        np.diag([1.0, 4.0]), [1.0, 1.0], lags=[], dt=0.1, n_keep=n_keep, seed=seed
    )
    cov = stationary_moments_check(
        [[2.0]], [0.0], lags=[0.0, 1.0], dt=0.02, n_keep=2 * n_keep, seed=seed + 1
    )
    moments_ok = mom["mean_passes"] and all(l["passes"] for l in cov["lags"])

    A = np.array([[1.5, 0.4], [0.4, 0.8]])
    b = np.array([0.2, -0.1])
    W = quadratic_potential(A, b)
    errs = []
    for dt, n in [(0.1, 10), (0.05, 20)]:
        path = convex_diffusion_simulate(W, dt, np.zeros((n, 2)), phi0=[1.0, -1.0])
        exact = exact_gaussian_path(A, b, dt, np.zeros((n, 2)), phi0=[1.0, -1.0])
        errs.append(float(np.abs(path - exact).max()))
    incr = _increments(2, 0.05, 200, seed + 2)
    path = convex_diffusion_simulate(W, 0.05, incr)
    noisy_gap = float(np.abs(path - exact_gaussian_path(A, b, 0.05, incr)).max())
    euler_ok = errs[1] < 0.7 * errs[0] and noisy_gap < 0.15

    Wc = cosine_perturbed_potential(0.3)
    fk = feynman_kac_estimate(
        Wc, lambda p: p[:, 0] ** 2, T=5.0, n_paths=n_paths, dt=0.01, seed=seed + 3
    )
    path_c = convex_diffusion_simulate(Wc, 0.02, _increments(1, 0.02, 120000, seed + 4))
    vals = path_c[20000:, 0] ** 2
    ta = float(vals.mean())
    ta_sigma = float(_batch_sigma(vals))
    fk_gap = abs(fk["estimate"] - ta)
    fk_tol = 3.0 * float(np.hypot(fk["sigma"], ta_sigma))
    fk_ok = (not fk["degenerate"]) and fk_gap <= fk_tol

    probe_q = path_action_hessian_probe(
        quadratic_potential(np.eye(1)), np.full(41, 1.5 * np.pi), h=0.25
    )
    probe_c = path_action_hessian_probe(Wc, np.full(41, 1.5 * np.pi), h=0.25)
    probe_ok = probe_q > 0 and probe_c < -1e-3

    measurements = {
        "mean_hat": [float(v) for v in mom["mean_hat"]],
        "integrator_errors": errs,
        "integrator_gap": noisy_gap,
        "fk_estimate": fk["estimate"],
        "fk_sigma": fk["sigma"],
        "fk_gap": fk_gap,
        "fk_tolerance": fk_tol,
        "min_eigenvalue_quadratic": probe_q,
        "min_eigenvalue": probe_c,
    }
    verdicts = {
        "stationary_moments": bool(moments_ok),
        "integrator_pathwise": bool(euler_ok),
        "estimator_nondegenerate": bool(fk_ok),
        "log_concavity_probe": bool(probe_ok),
    }
    return measurements, verdicts
