"""Solvers for lattice parabolic equations with space-time coefficients.

The forward initial value problem, the backward Green's function with its
two sum rules, the periodized Green's function, Duhamel representation,
the damped resolvent, and the contrast perturbation expansion all live
here.  Time stepping is explicit Euler with the environment's own step,
coefficients piecewise constant on each step, so every solve is a finite
product of sparse-stencil applications and bit-reproducible.

All of them run through one streaming kernel, ``_sweep``, which yields
(i, u) after each step u <- rho (u - h div(a_i grad u) + f_i) over a given
step order; each caller keeps only the levels or reductions it needs.  A
field with ``n_times == 1`` is constant in time and serves every step;
any other field must cover every step a solve takes, else ConfigError.

Discrete conventions (used consistently by every operation):

* forward step      u_{i+1} = u_i - dt * div(a_i grad u_i)
* backward step     u_{i}   = [I - (dt/2) div(a_i grad .)] u_{i+1}
  (the backward equation carries the diffusion matrix a/2)
* inhomogeneous     u_i = M_i u_{i+1} + dt f_{i+1}, a right-endpoint
  quadrature of the Duhamel integral, exact for the discrete dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IntegrityError
from .lattice import EllipticityPair, PeriodicCube


# -- coefficient fields ----------------------------------------------------


@dataclass
class CoefficientField:
    """Symmetric d x d coefficient matrix per site and time step.

    ``values`` has shape (n_times, d, n_sites) when ``diagonal`` is true,
    else (n_times, d, d, n_sites).  Entry i applies on [t_i, t_{i+1}).
    """

    cube: PeriodicCube
    dt: float
    values: np.ndarray
    window: EllipticityPair
    diagonal: bool = True

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    def validate(self, tol: float = 1e-12) -> None:
        """Raise IntegrityError if any matrix leaves the spectral window."""
        lam, Lam = self.window.lam, self.window.Lam
        if self.diagonal:
            lo = float(self.values.min())
            hi = float(self.values.max())
        else:
            mats = np.moveaxis(self.values, -1, -3)  # (nt, n, d, d)
            if not np.allclose(mats, np.swapaxes(mats, -1, -2), atol=1e-12):
                raise IntegrityError("coefficient matrices are not symmetric")
            eig = np.linalg.eigvalsh(mats)
            lo = float(eig.min())
            hi = float(eig.max())
        if lo < lam - tol or hi > Lam + tol:
            raise IntegrityError(
                f"coefficient spectrum [{lo}, {hi}] leaves window [{lam}, {Lam}]"
            )

    def contrast(self) -> np.ndarray:
        """The contrast field b = I - a/Lam, same layout as ``values``."""
        if self.diagonal:
            return 1.0 - self.values / self.window.Lam
        eye = np.eye(self.cube.d)[None, :, :, None]
        return eye - self.values / self.window.Lam


def constant_coefficients(
    cube: PeriodicCube, dt: float, matrix, n_times: int = 1
) -> CoefficientField:
    """Constant-in-space-and-time coefficient field.

    ``matrix`` may be a scalar c (meaning c I), a length-d diagonal, or a
    full symmetric d x d matrix.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 0:
        vals = np.full((n_times, cube.d, cube.n_sites), float(m))
        window = EllipticityPair(float(m), float(m))
        return CoefficientField(cube, dt, vals, window, diagonal=True)
    if m.ndim == 1:
        vals = np.broadcast_to(
            m[None, :, None], (n_times, cube.d, cube.n_sites)
        ).copy()
        return CoefficientField(
            cube, dt, vals, EllipticityPair(m.min(), m.max()), diagonal=True
        )
    eig = np.linalg.eigvalsh(m)
    vals = np.broadcast_to(
        m[None, :, :, None], (n_times, cube.d, cube.d, cube.n_sites)
    ).copy()
    return CoefficientField(
        cube, dt, vals, EllipticityPair(eig.min(), eig.max()), diagonal=False
    )


def div_a_grad(cube: PeriodicCube, a: np.ndarray, u: np.ndarray, diagonal: bool):
    """Apply u -> div(a grad u).  Broadcasts over leading axes of u and a.

    For diagonal coefficients ``a`` has shape (..., d, n_sites); the entry
    a_j(x) weights the edge (x, x+e_j).
    """
    if diagonal:
        return cube.div(a * cube.grad(u))
    g = cube.grad(u)  # (..., d, n)
    flux = np.einsum("...jkn,...kn->...jn", a, g)
    return cube.div(flux)


def max_stable_dt(window: EllipticityPair, d: int) -> float:
    """Explicit-step stability bound dt <= 1/(2 d Lam)."""
    return 1.0 / (2.0 * d * window.Lam)


def _check_dt(a: CoefficientField) -> None:
    if a.dt > max_stable_dt(a.window, a.cube.d) * (1 + 1e-12):
        raise ConfigError(
            f"dt={a.dt} exceeds the stability bound "
            f"1/(2 d Lam)={max_stable_dt(a.window, a.cube.d)}"
        )


def _check_levels(a: CoefficientField, g: np.ndarray, name: str, m: float = 1.0):
    """Data on the levels 0..n_times of the field, and a positive mass."""
    if m <= 0:
        raise ConfigError(f"mass must be > 0, got {m}")
    if g.shape[0] != a.n_times + 1:
        raise ConfigError(
            f"{name} needs n_times+1={a.n_times + 1} levels, got {g.shape[0]}"
        )


def _slices(values: np.ndarray, n_steps: int):
    """Lookup i -> a_i for steps 0..n_steps-1 of a coefficient stack.

    A stack of one level is constant in time and serves every step; any
    other stack must hold a level for each step, else ConfigError.
    """
    if values.shape[0] == 1:
        return lambda i: values[0]
    if n_steps > values.shape[0]:
        raise ConfigError(
            f"{n_steps} steps need {n_steps} coefficient levels, "
            f"the field has {values.shape[0]}"
        )
    return values.__getitem__


def _sweep(cube, coeff, u, steps, h, rho=1.0, forcing=None, diagonal=True):
    """The time-stepping kernel: for i in ``steps`` (in the given order)
    make the step u <- rho (u - h div(a_i grad u) + f_i) and yield (i, u).

    ``coeff(i)`` returns a_i and ``forcing(i)`` returns f_i (no forcing
    when None).  Every step makes a new array, so a caller may keep the
    ones it yields.  Batch axes of u broadcast against those of a_i.
    """
    for i in steps:
        u = u - h * div_a_grad(cube, coeff(i), u, diagonal)
        if forcing is not None:
            u = u + forcing(i)
        if rho != 1.0:
            u = rho * u
        yield i, u


def _backward_table(a, end, lo, hi, h, rho=1.0, forcing=None):
    """Levels lo..hi of the backward sweep on ``a`` that starts from
    ``end`` at level hi; row k holds level lo + k."""
    coeff = _slices(a.values, hi)
    out = np.empty((hi - lo + 1,) + end.shape)
    out[-1] = end
    steps = range(hi - 1, lo - 1, -1)
    for i, u in _sweep(a.cube, coeff, end, steps, h, rho, forcing, a.diagonal):
        out[i - lo] = u
    return out


# -- forward problem -------------------------------------------------------


def solve_forward(a: CoefficientField, h: np.ndarray, n_steps: int) -> np.ndarray:
    """Explicit solution of du/dt = -div(a grad u), u(.,0) = h.

    Returns the trajectory with shape (n_steps + 1, ..., n_sites); ``h``
    may carry leading batch axes (paired with batch axes of ``a.values``
    if present).  The discrete L2 norm is non-increasing step to step.
    """
    _check_dt(a)
    coeff = _slices(a.values, n_steps)
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ConfigError("initial data must be finite")
    out = np.empty((n_steps + 1,) + h.shape)
    out[0] = h
    for i, u in _sweep(a.cube, coeff, h, range(n_steps), a.dt, diagonal=a.diagonal):
        out[i + 1] = u
    return out


# -- backward Green's function ----------------------------------------------


@dataclass
class GreensTable:
    """Values G(y, s_k; x, t) of the backward Green's function.

    ``values[k, y]`` is G(y, s_k; source_site, t_index * dt) for the time
    levels ``s_indices[k]`` (ascending, last one equal to t_index where
    the table is the terminal delta).
    """

    cube: PeriodicCube
    dt: float
    source_site: int
    t_index: int
    s_indices: np.ndarray
    values: np.ndarray
    window: EllipticityPair
    diagonal: bool = True

    def mass(self) -> np.ndarray:
        """sum_y G(y, s_k; x, t) for each stored level (should be 1)."""
        return self.values.sum(axis=-1)

    def time_lags(self) -> np.ndarray:
        """t - s_k for each stored level."""
        return (self.t_index - self.s_indices) * self.dt


def greens_backward(
    a: CoefficientField,
    source_site: int,
    t_index: int,
    s_min_index: int = 0,
) -> GreensTable:
    """Green's function of the backward equation du/ds = (1/2) div(a grad u)
    with terminal delta at ``source_site`` at level ``t_index``.

    Both sum rules (sum over y and sum over sources x) hold exactly for
    the discrete propagator because each step matrix is symmetric with
    unit row sums; nonnegativity holds for diagonal coefficients under
    the stability bound.
    """
    _check_dt(a)
    if not 0 <= s_min_index < t_index:
        raise ConfigError(f"need 0 <= s_min_index < t_index, got {s_min_index}, {t_index}")
    levels = np.arange(s_min_index, t_index + 1)
    delta = np.zeros(a.cube.n_sites)
    delta[source_site] = 1.0
    vals = _backward_table(a, delta, s_min_index, t_index, a.dt / 2.0)
    return GreensTable(
        a.cube, a.dt, source_site, t_index, levels, vals, a.window, a.diagonal
    )


def greens_backward_matrix(
    a: CoefficientField, t_index: int, s_min_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Full propagator tables: out[k, x, y] = G(y, s_k; x, t).

    Evolves the identity matrix backwards (one row per source), so both
    (E4) sum rules can be checked directly: axis -1 sums over y, axis -2
    over sources x.  Returns (s_indices, values).
    """
    _check_dt(a)
    levels = np.arange(s_min_index, t_index + 1)
    eye = np.eye(a.cube.n_sites)
    return levels, _backward_table(a, eye, s_min_index, t_index, a.dt / 2.0)


def periodic_greens(
    kernel: np.ndarray, cube: PeriodicCube, tol: float = 1e-12
) -> np.ndarray:
    """Periodize a kernel tabulated on a centered box of Z^d onto the cube.

    ``kernel`` has shape (..., side, ..., side) with odd side; entry at
    grid position p corresponds to lattice point p - radius.  Raises
    IntegrityError when the boundary shell carries more than ``tol`` mass,
    i.e. when the truncation was too small for the periodization to be
    trusted.
    """
    d = cube.d
    side = kernel.shape[-1]
    if any(s != side for s in kernel.shape[-d:]) or side % 2 != 1:
        raise ConfigError("kernel must be a centered odd-sided box")
    boundary_mass = 0.0
    for j in range(d):
        sl_lo = [slice(None)] * kernel.ndim
        sl_hi = [slice(None)] * kernel.ndim
        sl_lo[kernel.ndim - d + j] = 0
        sl_hi[kernel.ndim - d + j] = side - 1
        boundary_mass += float(np.abs(kernel[tuple(sl_lo)]).sum())
        boundary_mass += float(np.abs(kernel[tuple(sl_hi)]).sum())
    if boundary_mass > tol:
        raise IntegrityError(
            f"kernel boundary mass {boundary_mass:.3e} exceeds tolerance {tol:.1e}"
        )
    radius = side // 2
    lead = kernel.shape[: kernel.ndim - d]
    out = np.zeros(lead + cube.shape)
    grid = kernel.reshape(lead + (side,) * d)
    # fold every box point onto its cube representative
    coords = np.indices((side,) * d).reshape(d, -1) - radius
    flat = grid.reshape(lead + (-1,))
    sites = np.ravel_multi_index(tuple(coords % cube.L), cube.shape)
    out_flat = out.reshape(lead + (cube.n_sites,))
    np.add.at(out_flat, (..., sites), flat)
    return out_flat


# -- Aronson-type envelope fits ---------------------------------------------


def _table_envelope_stats(table: GreensTable, use_gradient: bool = False):
    """Per-level maxima of G (or |grad G|) against the Gaussian envelope.

    Returns (time lags tau, max over y of value * exp(dist/sqrt(Lam tau + 1)))
    excluding the terminal delta level.
    """
    cube = table.cube
    Lam = table.window.Lam
    src = cube.site_coords(table.source_site)
    offs = cube.min_image(cube.all_coords() - src)
    dist = np.sqrt((offs**2).sum(axis=-1))
    taus = table.time_lags()
    keep = taus > 0
    taus = taus[keep]
    vals = table.values[keep]
    if use_gradient:
        vals = np.sqrt((cube.grad(vals) ** 2).sum(axis=-2))
    scale = np.sqrt(Lam * taus + 1.0)
    env = np.exp(dist[None, :] / scale[:, None])
    return taus, (np.abs(vals) * env).max(axis=-1)


def aronson_constant(tables: list[GreensTable]) -> float:
    """Least C with G <= C [Lam tau + 1]^{-d/2} exp(-|x-z|/sqrt(Lam tau + 1))
    over every stored value of every table (periodic minimum-image distance).
    """
    c = 0.0
    for table in tables:
        taus, peaks = _table_envelope_stats(table)
        d = table.cube.d
        c = max(c, float((peaks * (table.window.Lam * taus + 1.0) ** (d / 2.0)).max()))
    return c


def aronson_fit(tables: list[GreensTable]) -> dict:
    """Fitted Aronson constant plus a stability verdict under sample doubling.

    ``passes`` is true when the constant over the full set exceeds the
    constant over the first half by less than 10 percent.
    """
    if len(tables) < 2:
        raise ConfigError("need at least 2 tables to assess stability")
    c_half = aronson_constant(tables[: len(tables) // 2])
    c_full = aronson_constant(tables)
    growth = (c_full - c_half) / c_half
    return {
        "C_hat": c_full,
        "C_half": c_half,
        "growth": growth,
        "passes": bool(growth <= 0.10),
    }


def aronson_gradient_exponent(tables: list[GreensTable], tau_min: float = 1.0) -> dict:
    """Fit beta in |grad G| <= C' [Lam tau + 1]^{-(d+beta)/2} exp(-dist/sqrt(.)).

    Regresses the log of the per-lag envelope peak (pooled over tables by
    taking the max at each lag) against log(Lam tau + 1); the slope is
    -(d + beta)/2.
    """
    pooled: dict[float, float] = {}
    Lam = tables[0].window.Lam
    d = tables[0].cube.d
    for table in tables:
        taus, peaks = _table_envelope_stats(table, use_gradient=True)
        for tau, p in zip(taus, peaks):
            key = round(float(tau), 12)
            pooled[key] = max(pooled.get(key, 0.0), float(p))
    taus = np.array(sorted(t for t in pooled if t >= tau_min))
    if taus.size < 4:
        raise ConfigError("need at least 4 usable time lags for the fit")
    peaks = np.array([pooled[float(t)] for t in taus])
    x = np.log(Lam * taus + 1.0)
    slope, intercept = np.polyfit(x, np.log(peaks), 1)
    beta = -2.0 * slope - d
    return {"beta": float(beta), "C": float(np.exp(intercept)), "slope": float(slope)}


# -- Duhamel and the damped resolvent ----------------------------------------


def duhamel_solve(a: CoefficientField, f: np.ndarray) -> np.ndarray:
    """Solution of du/ds = (1/2) div(a grad u) - f with u -> 0 at the end
    of the grid, i.e. the Duhamel integral of the forcing.

    ``f`` has shape (n_times, n_sites) on the coefficient grid.  The PDE
    is integrated backwards, which realizes the discrete quadrature
    u_i = dt * sum_{k>i} P(i, k-1) f_k.
    """
    _check_levels(a, f, "forcing")
    return _backward_table(a, np.zeros(f.shape[1:]), 0, a.n_times, a.dt / 2.0,
                           forcing=lambda i: a.dt * f[i + 1])


def damped_resolvent(a: CoefficientField, m: float, g: np.ndarray) -> np.ndarray:
    """v(y,s) = sum_x int_s^inf e^{-m^2 (t-s)/2} G(y,s;x,t) g(x,t) dt,
    realized as the damped backward recursion
    v_i = e^{-m^2 dt / 2} (M_i v_{i+1} + dt g_{i+1}).

    Satisfies the resolvent bound ||v||_2 <= 2 m^{-2} ||g||_2 in the
    space-time norm (dt-weighted).
    """
    _check_levels(a, g, "data", m)
    rho = float(np.exp(-m * m * a.dt / 2.0))
    return _backward_table(a, np.zeros(g.shape[1:]), 0, a.n_times, a.dt / 2.0,
                           rho, lambda i: a.dt * g[i + 1])


def spacetime_norm(v: np.ndarray, dt: float) -> float:
    """L2 norm on the grid: sqrt(dt * sum |v|^2)."""
    return float(np.sqrt(dt * np.sum(np.abs(v) ** 2)))


# -- contrast perturbation expansion ------------------------------------------


@dataclass
class PerturbationSeries:
    """Terms of the contrast expansion and their partial sums."""

    terms: list = field(default_factory=list)
    dt: float = 0.0

    def partial_sums(self) -> list:
        out = []
        acc = np.zeros_like(self.terms[0])
        for t in self.terms:
            acc = acc + t
            out.append(acc.copy())
        return out

    def norms(self) -> np.ndarray:
        return np.array([spacetime_norm(t, self.dt) for t in self.terms])


def _contrast_series(a, b, end, lo, hi, rho, forcing, n_max) -> PerturbationSeries:
    """Terms 0..n_max of the contrast expansion on the levels lo..hi.

    Term 0 is the backward sweep of the free field (constant coefficients
    Lam, damping ``rho``) from ``end`` with ``forcing``; term n is the same
    sweep from zero, forced at step i by (dt Lam/2) div(b_i grad) of term
    n-1 one level later.  ``b`` is the lookup i -> b_i.
    """
    free = constant_coefficients(a.cube, a.dt, a.window.Lam)

    def contrast_forcing(prev):
        scale = a.dt * a.window.Lam / 2.0
        return lambda i: scale * div_a_grad(a.cube, b(i), prev[i + 1 - lo], a.diagonal)

    terms = [_backward_table(free, end, lo, hi, a.dt / 2.0, rho, forcing)]
    for _ in range(n_max):
        terms.append(_backward_table(free, np.zeros_like(end), lo, hi, a.dt / 2.0,
                                     rho, contrast_forcing(terms[-1])))
    return PerturbationSeries(terms=terms, dt=a.dt)


def greens_perturbation_terms(
    a: CoefficientField,
    source_site: int,
    t_index: int,
    n_max: int,
    s_min_index: int = 0,
) -> PerturbationSeries:
    """Terms G_n of the expansion of the backward Green's function around
    the free evolution at rate Lam/2, each multilinear of degree n in the
    contrast b = I - a/Lam.

    Term n is produced by backward-integrating the free equation with
    forcing (Lam/2) div(b grad G_{n-1}); the partial sums converge to the
    ``greens_backward`` table geometrically with ratio <= 1 - lam/Lam.
    """
    _check_dt(a)
    b = _slices(a.contrast(), t_index)
    delta = np.zeros(a.cube.n_sites)
    delta[source_site] = 1.0
    return _contrast_series(a, b, delta, s_min_index, t_index, 1.0, None, n_max)


def damped_perturbation_terms(
    a: CoefficientField, m: float, g: np.ndarray, n_max: int
) -> PerturbationSeries:
    """Terms v_n of the damped expansion; partial sums telescope exactly to
    the ``damped_resolvent`` output, and ||v_n|| <= 2 m^{-2} (1-lam/Lam)^n ||g||.
    """
    _check_levels(a, g, "data", m)
    b = _slices(a.contrast(), a.n_times)
    rho = float(np.exp(-m * m * a.dt / 2.0))
    return _contrast_series(a, b, np.zeros(g.shape[1:]), 0, a.n_times, rho,
                            lambda i: a.dt * g[i + 1], n_max)
