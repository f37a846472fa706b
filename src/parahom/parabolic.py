"""Solvers for lattice parabolic equations with space-time coefficients.

The forward initial value problem, the backward Green's function with its
two sum rules and Aronson-type envelope fits, the damped resolvent, and
the contrast perturbation expansion all live here.  Coefficients are
diagonal, one entry per edge direction, site and step.  Time stepping is
explicit Euler with the environment's own step, coefficients piecewise
constant on each step, so every solve is a finite product of
sparse-stencil applications and bit-reproducible.

All of them run through one streaming kernel, ``_sweep``, which yields
(i, u) after each step u <- rho (u - h div(a_i grad u) + f_i) over a given
step order; each caller keeps only the levels or reductions it needs.  The
kernel makes its buffers and shift views once per sweep and steps u in
place, in two buffers in turn.  A
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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrityError
from .lattice import EllipticityPair, PeriodicCube, _phases


# -- coefficient fields ----------------------------------------------------


@dataclass(frozen=True)
class CoefficientField:
    """Diagonal coefficient matrix per site and time step.

    ``values`` has shape (n_times, d, n_sites): the entry a_j(x) of level
    i weights the edge (x, x+e_j) on [t_i, t_{i+1}).  A field is checked
    on construction: any other shape raises ConfigError, and values that
    are not finite or lie outside the declared window raise
    IntegrityError.  ``values`` is then made read-only and no member can
    be rebound, so a field stays inside the window it was checked against.
    """

    cube: PeriodicCube
    dt: float
    values: np.ndarray
    window: EllipticityPair

    def __post_init__(self):
        if self.values.shape[1:] != (self.cube.d, self.cube.n_sites):
            raise ConfigError(
                f"coefficient values must have shape (n_times, {self.cube.d}, "
                f"{self.cube.n_sites}), got {self.values.shape}"
            )
        self.validate()
        self.values.flags.writeable = False

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    def validate(self) -> None:
        """Raise IntegrityError if any entry is not finite or leaves the
        window by more than 1e-12."""
        lam, Lam = self.window.lam, self.window.Lam
        lo = float(self.values.min())
        hi = float(self.values.max())
        # one NaN entry makes lo and hi NaN, and then both comparisons are false
        if not (lo >= lam - 1e-12 and hi <= Lam + 1e-12):
            raise IntegrityError(
                f"coefficient spectrum [{lo}, {hi}] leaves window [{lam}, {Lam}]"
            )

    def contrast(self) -> np.ndarray:
        """The contrast field b = 1 - a/Lam, same layout as ``values``."""
        return 1.0 - self.values / self.window.Lam


def constant_coefficients(
    cube: PeriodicCube, dt: float, c: float, n_times: int = 1
) -> CoefficientField:
    """The constant coefficient field c I in space and time."""
    vals = np.full((n_times, cube.d, cube.n_sites), float(c))
    return CoefficientField(cube, dt, vals, EllipticityPair(float(c), float(c)))


def div_a_grad(cube: PeriodicCube, a: np.ndarray, u: np.ndarray, work=None, xi=None):
    """Apply u -> div(a grad u).  Broadcasts over leading axes of u and a.

    ``a`` has shape (..., d, n_sites); the entry a_j(x) weights the edge
    (x, x+e_j).  ``work`` is an optional ``_stencil_work`` made with the
    same ``xi``; the result is then written into its ``out``.  With
    ``xi``, the differences are xi-twisted (``PeriodicCube.grad``), which
    gives the corrector's dxi* a dxi u.

    The flux a_j grad_j u is kept direction-major, one contiguous block of
    the buffer per direction j, and goes through the same per-direction
    loops as ``PeriodicCube.grad`` and ``div``, so the result is bit for
    bit ``cube.div(a * cube.grad(u, xi=xi), xi=xi)``.
    """
    a, u = np.asarray(a), np.asarray(u)
    work = _stencil_work(cube, a, u, xi) if work is None else work
    return _stencil(cube, u, work, xi)(a)


def _stencil(cube: PeriodicCube, u: np.ndarray, work, xi=None):
    """The function a -> div(a grad u) of ``div_a_grad`` for the array
    ``u``, in ``work``, with the gradient's shift views made here: a loop
    that steps ``u`` in place makes it once."""
    flux, out, div = work
    grad = cube._grad_step(u, flux, None if xi is None else _phases(xi))

    def apply(a):
        grad()
        # a's direction axis to the front by a transpose (np.moveaxis costs
        # several times more per call, which shows on small lattices), padded
        # with unit axes to the rank of the flux, so that a with fewer batch
        # axes than u lines up on the right
        a_dir = a.transpose(a.ndim - 2, *range(a.ndim - 2), a.ndim - 1)
        a_dir = a_dir[(slice(None),) + (None,) * (flux.ndim - a.ndim)]
        np.multiply(a_dir, flux, out=flux)
        div()
        return out
    return apply


def _stencil_work(cube: PeriodicCube, a: np.ndarray, u: np.ndarray, xi=None):
    """The work (flux, out, div) of ``div_a_grad(cube, a, u, work, xi)``:
    buffers in the result type of a, u and the phases of ``xi``, and the
    divergence step from the flux into out (``PeriodicCube._div_step``,
    its shift views made here, once per work).  The flux, shape
    (d,) + lead + (n_sites,) with lead the broadcast of the batch axes of
    u and a, holds direction j in its contiguous row j; the output has
    shape lead + (n_sites,)."""
    lead = np.broadcast_shapes(u.shape[:-1], a.shape[:-2])
    ph = None if xi is None else _phases(xi)
    dtype = np.result_type(a, u) if ph is None else np.result_type(a, u, ph)
    flux = np.empty((cube.d,) + lead + (cube.n_sites,), dtype)
    out = np.empty(lead + (cube.n_sites,), dtype)
    return flux, out, cube._div_step(flux, out, None if ph is None else np.conj(ph))


def _check_dt(a: CoefficientField) -> None:
    """ConfigError for a step above the explicit stability bound 1/(2 d Lam)."""
    bound = 1.0 / (2.0 * a.cube.d * a.window.Lam)
    if a.dt > bound * (1 + 1e-12):
        raise ConfigError(f"dt={a.dt} exceeds the stability bound 1/(2 d Lam)={bound}")


def _check_levels(a: CoefficientField, g: np.ndarray, name: str, m: float = 1.0):
    """Data on the levels 0..n_times of the field, and a positive mass."""
    if m <= 0:
        raise ConfigError(f"mass must be > 0, got {m}")
    if g.shape[0] != a.n_times + 1:
        raise ConfigError(
            f"{name} needs n_times+1={a.n_times + 1} levels, got {g.shape[0]}"
        )


def _point_source(cube: PeriodicCube, source_site: int) -> np.ndarray:
    """The unit mass at ``source_site``; ConfigError for a site outside
    [0, n_sites) (a negative index would silently wrap)."""
    if not 0 <= source_site < cube.n_sites:
        raise ConfigError(f"source_site: site {source_site} outside [0, {cube.n_sites})")
    delta = np.zeros(cube.n_sites)
    delta[source_site] = 1.0
    return delta


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


def _sweep(cube, coeff, u, steps, h, rho=1.0, forcing=None):
    """The time-stepping kernel: for i in ``steps`` (in the given order)
    make the step u <- rho (u - h div(a_i grad u) + f_i) and yield (i, u).

    ``coeff(i)`` returns a_i and ``forcing(i)`` returns f_i (no forcing
    when None).  Batch axes of u broadcast against those of a_i, which
    size the buffers at the first step.  The u given is never written; u
    is stepped in two buffers in turn, so a yielded u holds until the step
    after next: a caller may keep the previous yield beside the current
    one, and copies any it keeps longer.
    """
    cur = nxt = None  # (buffer, its stencil) that holds u, and the other
    for i in steps:
        a_i = coeff(i)
        if cur is None:
            work = _stencil_work(cube, a_i, u)
            cur, nxt = [(b, _stencil(cube, b, work))
                        for b in (np.empty_like(work[1]), np.empty_like(work[1]))]
            cur[0][...] = u
        du = cur[1](a_i)
        du *= h
        u = np.subtract(cur[0], du, out=nxt[0])
        if forcing is not None:
            u += forcing(i)
        if rho != 1.0:
            u *= rho
        cur, nxt = nxt, cur
        yield i, u


def _backward_table(a, end, lo, hi, h, rho=1.0, forcing=None):
    """Levels lo..hi of the backward sweep on ``a`` that starts from
    ``end`` at level hi; row k holds level lo + k."""
    coeff = _slices(a.values, hi)
    out = np.empty((hi - lo + 1,) + end.shape)
    out[-1] = end
    steps = range(hi - 1, lo - 1, -1)
    for i, u in _sweep(a.cube, coeff, end, steps, h, rho, forcing):
        out[i - lo] = u
    return out


# -- forward problem -------------------------------------------------------


def solve_forward(a: CoefficientField, h: np.ndarray, n_steps: int) -> np.ndarray:
    """Explicit solution of du/dt = -div(a grad u), u(.,0) = h.

    Returns the trajectory with shape (n_steps + 1, ..., n_sites); ``h``
    may carry leading batch axes (paired with batch axes of ``a.values``
    if present).  The discrete L2 norm is non-increasing step to step.
    An ``n_steps`` that is not a non-negative integer raises ConfigError.
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, (int, np.integer)) or n_steps < 0:
        raise ConfigError(f"n_steps must be a non-negative integer, got {n_steps!r}")
    _check_dt(a)
    coeff = _slices(a.values, n_steps)
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ConfigError("initial data must be finite")
    out = np.empty((n_steps + 1,) + h.shape)
    out[0] = h
    for i, u in _sweep(a.cube, coeff, h, range(n_steps), a.dt):
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
    unit row sums; nonnegativity holds under the stability bound.
    """
    _check_dt(a)
    if not 0 <= s_min_index < t_index:
        raise ConfigError(f"need 0 <= s_min_index < t_index, got {s_min_index}, {t_index}")
    levels = np.arange(s_min_index, t_index + 1)
    delta = _point_source(a.cube, source_site)
    vals = _backward_table(a, delta, s_min_index, t_index, a.dt / 2.0)
    return GreensTable(a.cube, a.dt, source_site, t_index, levels, vals, a.window)


def greens_backward_matrix(a: CoefficientField, t_index: int) -> np.ndarray:
    """Full propagator tables: out[k, x, y] = G(y, k dt; x, t) on the levels
    k = 0..t_index.

    Evolves the identity matrix backwards (one row per source), so both
    (E4) sum rules can be checked directly: axis -1 sums over y, axis -2
    over sources x.
    """
    _check_dt(a)
    return _backward_table(a, np.eye(a.cube.n_sites), 0, t_index, a.dt / 2.0)


# -- Aronson-type envelope fits ---------------------------------------------


def _aronson_constant(table: GreensTable) -> float:
    """Least C with G <= C [Lam tau + 1]^{-d/2} exp(-|x-z|/sqrt(Lam tau + 1))
    over every stored value of the table at a lag tau = t - s > 0
    (periodic minimum-image distance).
    """
    cube = table.cube
    Lam = table.window.Lam
    offs = cube.min_image(cube.all_coords() - cube.site_coords(table.source_site))
    dist = np.sqrt((offs**2).sum(axis=-1))
    taus = (table.t_index - table.s_indices) * table.dt
    keep = taus > 0
    taus = taus[keep]
    scale = np.sqrt(Lam * taus + 1.0)
    env = np.exp(dist[None, :] / scale[:, None])
    peaks = (np.abs(table.values[keep]) * env).max(axis=-1)
    return float((peaks * (Lam * taus + 1.0) ** (cube.d / 2.0)).max())


def aronson_fit(tables: list[GreensTable]) -> dict:
    """Fitted Aronson constant plus a stability verdict under sample doubling.

    ``passes`` is true when the constant over the full set exceeds the
    constant over the first half by less than 10 percent.
    """
    if len(tables) < 2:
        raise ConfigError("need at least 2 tables to assess stability")
    per_table = [_aronson_constant(table) for table in tables]
    c_half = max(per_table[: len(tables) // 2])
    c_full = max(per_table)
    growth = (c_full - c_half) / c_half
    return {
        "C_hat": c_full,
        "C_half": c_half,
        "growth": growth,
        "passes": bool(growth <= 0.10),
    }


# -- the damped resolvent ------------------------------------------------------


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


def _contrast_series(a, b, end, hi, rho, forcing, n_max) -> list:
    """Terms 0..n_max of the contrast expansion on the levels 0..hi, as a
    list of tables.

    Term 0 is the backward sweep of the free field (constant coefficients
    Lam, damping ``rho``) from ``end`` with ``forcing``; term n is the same
    sweep from zero, forced at step i by (dt Lam/2) div(b_i grad) of term
    n-1 one level later.  ``b`` is the lookup i -> b_i.
    """
    free = constant_coefficients(a.cube, a.dt, a.window.Lam)

    def contrast_forcing(prev):
        scale = a.dt * a.window.Lam / 2.0
        return lambda i: scale * div_a_grad(a.cube, b(i), prev[i + 1])

    terms = [_backward_table(free, end, 0, hi, a.dt / 2.0, rho, forcing)]
    for _ in range(n_max):
        terms.append(_backward_table(free, np.zeros_like(end), 0, hi, a.dt / 2.0,
                                     rho, contrast_forcing(terms[-1])))
    return terms


def greens_perturbation_terms(
    a: CoefficientField, source_site: int, t_index: int, n_max: int
) -> list:
    """Terms G_n, n = 0..n_max, of the expansion of the backward Green's
    function around the free evolution at rate Lam/2, each multilinear of
    degree n in the contrast b = I - a/Lam, on the levels 0..t_index.

    Term n is produced by backward-integrating the free equation with
    forcing (Lam/2) div(b grad G_{n-1}); the partial sums converge to the
    ``greens_backward`` table geometrically with ratio <= 1 - lam/Lam.
    """
    _check_dt(a)
    b = _slices(a.contrast(), t_index)
    delta = _point_source(a.cube, source_site)
    return _contrast_series(a, b, delta, t_index, 1.0, None, n_max)


def damped_perturbation_terms(
    a: CoefficientField, m: float, g: np.ndarray, n_max: int
) -> list:
    """Terms v_n, n = 0..n_max, of the damped expansion; partial sums
    telescope exactly to the ``damped_resolvent`` output, and
    ||v_n|| <= 2 m^{-2} (1-lam/Lam)^n ||g||.
    """
    _check_levels(a, g, "data", m)
    b = _slices(a.contrast(), a.n_times)
    rho = float(np.exp(-m * m * a.dt / 2.0))
    return _contrast_series(a, b, np.zeros(g.shape[1:]), a.n_times, rho,
                            lambda i: a.dt * g[i + 1], n_max)
