"""Corrector problems, the effective coefficient q(xi, eta), and rate fits.

A space-time periodic coefficient sample stands in for the stationary
ensemble: the abstract shift derivatives become xi-twisted periodic
lattice shifts plus periodic backward time differencing, and ensemble
averages become space-time sample means (optionally averaged over
independent samples).  On that realization this module solves the
corrector equation

    (eta + D_t) Phi + dxi* a dxi Phi = -P dxi* a,

forms q(xi, eta) = <a> + <a dxi Phi>, builds the same matrix through the
Neumann series in the contrast b = I - a/Lam with the explicit shift
operator T_{xi,eta}, extrapolates a_hom = lim_{eta->0} q(0, eta), and
fits empirical homogenization rates.

Both constructions rest on one engine, the exact inverse of the
constant-coefficient operator M = (eta + D_t) + c dxi* dxi
(``_preconditioner``).  Along each space axis it uses an eigenbasis of
D_j^H D_j, applied as a matrix product, and per spatial mode it solves
the periodic backward-difference system in time exactly, by one
recursion over the levels.  T_{xi,eta} applies it with c = Lam; the
corrector is solved matrix-free by a Richardson iteration preconditioned
with it at the midpoint c = (lam + Lam)/2, whose error map is T b with
the contrast b = 1 - a/c, so it converges at the rate
(Lam - lam)/(Lam + lam).  M holds the whole time part and eta, so a
sweep applies only the contrast, and the true residual f - A u is formed
after the last sweep; a field constant in time is solved on one level.
Everything runs on the calling thread.

At xi = 0 every twisted difference is real, so the stencils, the
corrector and T run in real arithmetic, with the real cos/sin
eigenbasis; at xi != 0 they run in complex arithmetic, with the unitary
DFT along each axis whose xi_j is not 0.  The switch is
``lattice._phases``, whose factors are the real 1.0 at xi = 0; the
stencils are ``parabolic.div_a_grad`` and ``PeriodicCube.grad``/``div``
called with ``xi``.  At xi = 0 the preconditioner also maps the spatial
mean to 0: neither the corrector nor T has one, and M would divide its
rounding residue by about nt dt eta, which is fatal as eta -> 0.

The right side carries the mean-zero projection P so that constant
coefficients yield Phi = 0 for every xi; at xi = 0 the projection is a
no-op because dxi* of anything is mean-free there.  A component whose
projected right side is zero has Phi_k = 0, and the solve does not sweep
it: a layered cell, whose a_k does not depend on x_k, solves only the
components across its layers.

The periodic time derivative is the backward difference; its symbol has
nonnegative real part, which is what makes T_{xi,eta} a contraction mode
by mode.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrityError, SolverError
from .environments import PotentialSpec, _map_on_cores, _stderr, sample_environment
from .lattice import PeriodicCube, heat_kernel_1d, hom_gaussian_kernel
from .parabolic import (CoefficientField, _point_source, _stencil_work, div_a_grad,
                        solve_forward)


# -- twisted shift calculus on a periodic sample ------------------------------


def _eigenbasis(L: int, xi_j: float):
    """An orthonormal eigenbasis of the circulant D_j^H D_j on one axis of
    length L, as the columns of an (L, L) matrix, and its eigenvalues.  At
    xi_j = 0 the real basis 1, sqrt 2 cos, sqrt 2 sin and (-1)^x, over
    sqrt L, with eigenvalues 2 - 2 cos(2 pi k / L); otherwise the unitary
    DFT, with eigenvalues |e^{-i xi_j + 2 pi i k / L} - 1|^2."""
    x = np.arange(L)
    if xi_j == 0.0:
        k = np.arange(1, L // 2)
        angle = 2.0 * np.pi * np.outer(x, k) / L
        basis = np.concatenate([np.ones((L, 1)), np.sqrt(2.0) * np.cos(angle),
                                np.sqrt(2.0) * np.sin(angle), (-1.0) ** x[:, None]], axis=1)
        freq = np.concatenate([[0], k, k, [L // 2]])
        return basis / np.sqrt(L), 2.0 - 2.0 * np.cos(2.0 * np.pi * freq / L)
    basis = np.exp(2j * np.pi * np.outer(x, x) / L) / np.sqrt(L)
    return basis, np.abs(np.exp(-1j * xi_j + 2j * np.pi * x / L) - 1.0) ** 2


def _preconditioner(cube: PeriodicCube, xi, nt: int, dt: float, eta: float, c: float):
    """apply(r) = M^{-1} r for M = (eta + D_t) + c dxi* dxi on (nt, k, n)
    fields, with D_t the periodic backward time difference.

    Each space axis j goes into the eigenbasis B_j of D_j^H D_j
    (``_eigenbasis``) by one matrix product, the last axis as one
    (., L) @ (L, L) product.  Per spatial mode, with mu the sum of its
    eigenvalues and gam = 1/(1 + dt (eta + c mu)), the periodic system
    (eta + c mu) x_i + (x_i - x_{i-1})/dt = r_i is then solved exactly:
    y_i = gam (dt r_i + y_{i-1}) from y_{-1} = 0, and
    x_i = y_i + gam^{i+1} y_{nt-1} / (1 - gam^nt).  The products with B_j
    bring x back.  Real fields stay real at xi = 0.

    At xi = 0 the spatial-mean mode (mu = 0) is mapped to 0, by s = inf:
    M would divide it by about nt dt eta, which as eta -> 0 blows up the
    rounding residue of a mean-free field.  Neither user has that mode: the
    corrector's mean solves (eta + D_t) m = 0, and T's gradient removes it."""
    L, d = cube.L, cube.d
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    bases, mu = [], np.zeros(())
    for xi_j in xi:
        basis, lam = _eigenbasis(L, xi_j)
        bases.append(basis)
        mu = np.add.outer(mu, lam)
    s = dt * (eta + c * mu.reshape(-1))
    if not xi.any():
        s[0] = np.inf  # the spatial mean, mapped to 0
    gam = 1.0 / (1.0 + s)
    # gam^{i+1} / (1 - gam^nt), the second through expm1: 1 - gam**nt loses
    # digits when dt eta is small
    log = np.log1p(s)
    wrap = (np.exp(-np.arange(1, nt + 1)[:, None] * log) / -np.expm1(-nt * log))[:, None]
    forward = [basis.conj().T for basis in bases]  # coefficients B^H r, scaled by dt
    forward[0] = dt * forward[0]

    def transform(w, mats):
        """w with each space axis j multiplied by mats[j] from the left."""
        shape = w.shape
        w = w.reshape(-1, L) @ mats[-1].T
        for j in range(d - 1):
            w = np.matmul(mats[j], w.reshape(-1, L, L ** (d - 1 - j)))
        return w.reshape(shape)

    def apply(r):
        w = transform(r, forward)
        w[0] *= gam
        for i in range(1, nt):
            w[i] += w[i - 1]
            w[i] *= gam
        w += wrap * w[-1]
        return transform(w, bases)

    return apply


def _sample_mean(w: np.ndarray) -> np.ndarray:
    """Space-time mean over the last axis (sites) and axis 0 (time)."""
    return w.mean(axis=(0, -1))


def _project_mean_zero(w: np.ndarray) -> np.ndarray:
    """P: each component of a (nt, k, n) field less its space-time mean."""
    return w - w.mean(axis=(0, 2), keepdims=True)


# -- corrector ----------------------------------------------------------------


@dataclass
class CorrectorField:
    """Row-vector corrector Phi(xi, eta; x, t_i) on one periodic sample.

    ``values[i, k]`` is the k-th component at time level i, flat over
    sites; real (float64) at xi = 0, complex otherwise.  ``iterations``
    and ``residual`` record the solve: the sweeps taken and the final
    relative residual, the largest over the swept components.  A
    component whose right side is zero is not swept; it is exactly 0, and
    when every component is, ``iterations`` is 0 and ``residual`` 0.0.
    """

    cube: PeriodicCube
    xi: np.ndarray
    eta: float
    values: np.ndarray  # (nt, d, n), real at xi = 0 and complex otherwise
    iterations: int
    residual: float

    def twisted_gradient(self) -> np.ndarray:
        """dxi Phi with shape (nt, d, d, n); axis -3 is the difference
        direction j, axis -2 the corrector component k."""
        return np.swapaxes(self.cube.grad(self.values, xi=self.xi), 1, 2)

    def energy_check(self, window) -> dict:
        """Discrete energy bound along the unit diagonal v = (1, ..., 1)/sqrt(d):
        eta * mean|Phi v|^2 + lam * mean sum_j |(dxi Phi v)_j|^2 <= Lam^2 / lam."""
        d = self.cube.d
        v = np.ones(d) / np.sqrt(d)
        v = v / np.linalg.norm(v)
        phiv = np.einsum("ikn,k->in", self.values, v)
        gradv = np.einsum("ijkn,k->ijn", self.twisted_gradient(), v)
        lhs = self.eta * float(np.mean(np.abs(phiv) ** 2)) + window.lam * float(
            np.mean(np.sum(np.abs(gradv) ** 2, axis=1))
        )
        rhs = window.Lam**2 / window.lam
        return {"lhs": lhs, "rhs": rhs, "passes": bool(lhs <= rhs * (1 + 1e-10))}


def _component_norms(w: np.ndarray) -> np.ndarray:
    """Euclidean norm of each component of a (nt, k, n) field.  Written
    out rather than np.linalg.norm, which goes through BLAS and keeps a
    second BLAS thread spinning for no gain at these sizes."""
    return np.sqrt(np.sum(np.abs(w) ** 2, axis=(0, 2)))


def corrector_solve(a: CoefficientField, xi, eta: float) -> CorrectorField:
    """Matrix-free solve of the corrector equation on a periodic sample.

    Preconditioned Richardson iteration u <- u + M^{-1} (f - A u), with
    A = (eta + D_t) + dxi* a dxi applied by stencils and the
    constant-coefficient operator M = (eta + D_t) + c dxi* dxi inverted
    exactly by ``_preconditioner``, at the midpoint c = (lam_s + Lam_s)/2
    of the range [lam_s, Lam_s] of the sample's values.  The error map acts
    on gradients as T_{xi,eta} b with the contrast b = 1 - a/c, and
    |b| <= (Lam_s - lam_s)/(Lam_s + lam_s), so every sweep shrinks the
    error by at least that rate.  At xi = 0 the solve runs in real
    arithmetic and the corrector is real.

    Two exact identities keep the time terms out of the sweeps.  M and A
    share eta + D_t, so after w = M^{-1} r the next residual is
    r - A w = dxi* (c - a) dxi w, one stencil apply.  And a field whose
    levels all equal level 0 is solved on that level alone and the
    solution repeated: a time-constant Phi has D_t Phi = 0, and the
    periodic problem has one solution (every norm scales by sqrt(nt), so
    the one-level ``iterations`` and ``residual`` stand).  The sweeps
    stop at relative residual 1e-12, or after the sweeps that rate needs
    to gain 14 digits plus 10.  Then the true residual f - A u is formed,
    summed in the order written above.  Where rounding has left it above
    1e-12 and sweeps remain, the sweeps resume from it.  Its relative
    size is ``residual``.  A residual above 1e-8 max(1, |f|), or one that
    is not finite, raises SolverError.  A non-finite or non-positive
    ``eta`` and a non-finite ``xi`` raise ConfigError.  Both residuals run
    through ``parabolic.div_a_grad`` in buffers made once per solve.

    The right side f = -P D_k^H a_k is projected to mean zero, which is
    what makes Phi = 0 the solution for constant coefficients at every xi
    (at xi = 0 the projection changes nothing).  A component whose
    projected right side is zero (a_k independent of x_k at xi_k = 0, as
    in a layered cell) has Phi_k = 0 and is not swept: the iteration runs
    on the other components only, whose iterates are bit for bit those of
    a sweep over all of them, since the preconditioner and the stencils
    act on each component alone.  ``iterations`` counts the sweeps of
    that block and ``residual`` is its largest relative residual; with no
    component left both are 0.  The rate and the sweep limit still come
    from the whole field.  The solve runs on the calling thread.
    """
    if not (np.isfinite(eta) and eta > 0):
        raise ConfigError(f"eta must be finite and > 0, got {eta}")
    cube, nt, d = a.cube, a.n_times, a.cube.d
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (cube.d,):
        raise ConfigError(f"xi must have {cube.d} components")
    if not np.all(np.isfinite(xi)):
        raise ConfigError(f"xi must be finite, got {xi.tolist()}")
    if nt > 1 and not (a.values[1:] != a.values[0]).any():
        # constant in time: the periodic solution is unique, so it is the
        # one-level solution, for which D_t Phi = 0, repeated on every level
        one = corrector_solve(CoefficientField(cube, a.dt, a.values[:1], a.window), xi, eta)
        return CorrectorField(cube, one.xi, eta, np.repeat(one.values, nt, axis=0),
                              one.iterations, one.residual)
    lam_s, Lam_s = float(a.values.min()), float(a.values.max())
    rate = (Lam_s - lam_s) / (Lam_s + lam_s)
    max_iter = 10 + int(np.ceil(np.log(1e-14) / np.log(max(rate, 1e-14))))
    coeff = a.values[:, None]  # (nt, 1, d_j, n), against gradients (nt, d_k, d_j, n)

    # component k of the right side is -D_k^H a_k: the divergence of a_k e_k
    f = _project_mean_zero(-cube.div(coeff * np.eye(d)[None, :, :, None], xi=xi))
    # a zero right side has the solution zero: sweep the others only
    active = f.any(axis=(0, 2))
    values = np.zeros_like(f)
    if not active.any():
        return CorrectorField(cube, xi, eta, values, 0, 0.0)
    f = np.compress(active, f, axis=1)  # C order, unlike f[:, active]: the same sums
    c = 0.5 * (lam_s + Lam_s)
    apply = _preconditioner(cube, xi, nt, a.dt, eta, c)
    contrast = c - coeff  # M - A = dxi* (c - a) dxi: the time terms cancel
    work = _stencil_work(cube, coeff, f, xi)
    u, r = np.zeros_like(f), f
    f_norm = _component_norms(f)
    scale = np.where(f_norm > 0, f_norm, 1.0)
    r_norm = f_norm
    iterations = 0
    while True:
        while (r_norm / scale).max() > 1e-12 and iterations < max_iter:
            # u += w with w = M^{-1} r, and the new residual r - A w = (M - A) w
            w = apply(r)
            u += w
            r = div_a_grad(cube, contrast, w, work, xi)
            del w  # before the next apply, where the solve's memory peaks
            r_norm = _component_norms(r)
            iterations += 1
        # the true residual f - A u, with the periodic backward difference
        r = f - (eta * u + (u - np.roll(u, 1, axis=0)) / a.dt
                 + div_a_grad(cube, coeff, u, work, xi))
        r_norm = _component_norms(r)
        rel = float((r_norm / scale).max())
        # the recurrence drifts from f - A u by rounding: where that leaves
        # f - A u above the target, the sweeps go on from it
        if not rel > 1e-12 or iterations >= max_iter:
            break
    if not np.all(r_norm <= 1e-8 * np.maximum(1.0, f_norm)):
        raise SolverError(
            f"corrector solve stopped after {iterations} iterations at "
            f"relative residual {rel:.3e}"
        )
    values[:, active] = u
    return CorrectorField(cube, xi, eta, values, iterations, rel)


# -- q matrix ------------------------------------------------------------------


@dataclass
class QMatrix:
    """Estimate of q(xi, eta) with per-entry standard errors."""

    value: np.ndarray  # (d, d) complex
    stderr: np.ndarray  # (d, d) real


def q_matrix_single(corr: CorrectorField, a: CoefficientField) -> np.ndarray:
    """Space-time sample average of a + a dxi Phi for one sample,
    as a d x d matrix (row j, column k)."""
    d = a.cube.d
    grad = corr.twisted_gradient()  # (nt, d_j, d_k, n)
    # diagonal a: (a dxi Phi)_{jk} = a_j (dxi Phi)_{jk}
    corr_term = _sample_mean(a.values[:, :, None, :] * grad)
    base = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(base, _sample_mean(a.values))
    return base + corr_term


def q_matrix(pairs: list) -> QMatrix:
    """Average q over independent (corrector, coefficient sample) pairs,
    with the per-entry standard errors of ``environments._stderr`` (zero
    for a single pair)."""
    if not pairs:
        raise ConfigError("need at least one (corrector, sample) pair")
    qs = np.stack([q_matrix_single(c, a) for c, a in pairs])
    return QMatrix(qs.mean(axis=0), _stderr(qs))


# -- the shift operator T and the Neumann series --------------------------------


def t_operator_apply(
    cube: PeriodicCube,
    g: np.ndarray,
    xi,
    eta: float,
    dt: float,
    Lam: float,
) -> np.ndarray:
    """Apply T_{xi,eta} g = dxi psi where psi solves
    (1/Lam)(eta + D_t) psi + dxi* dxi psi = dxi* g on the periodic sample.

    ``g`` has shape (nt, d, n).  psi = Lam M^{-1} dxi* g with the
    preconditioner of ``corrector_solve`` at c = Lam.  Per space-time
    Fourier mode the norm of T is |d|^2 / ||d|^2 + (eta + tau)/Lam| < 1,
    with d the symbol of dxi and tau that of D_t, whose real part is
    >= 0; so T is a contraction for real xi and eta > 0.  Real ``g`` at
    xi = 0 gives a real result; otherwise the result is complex.
    """
    rhs = cube.div(g, xi=xi)[:, None]  # (nt, 1, n)
    psi = Lam * _preconditioner(cube, xi, rhs.shape[0], dt, eta, Lam)(rhs)
    return cube.grad(psi[:, 0], xi=xi)


def neumann_series_q(a: CoefficientField, xi, eta: float,
                     m_max: int) -> tuple[np.ndarray, list]:
    """q(xi, eta) of one sample through the contrast series
    q = <a> - Lam sum_{m>=1} <b [P T b]^m>, truncated at m_max.

    Returns the (d, d) complex matrix and the norms of its m_max terms;
    consecutive term norms contract at rate <= 1 - lam/Lam for real xi.
    """
    if m_max < 1:
        raise ConfigError(f"m_max must be >= 1, got {m_max}")
    b = a.contrast()  # (nt, d, n)
    cube, Lam = a.cube, a.window.Lam
    q = np.zeros((cube.d, cube.d), dtype=complex)
    np.fill_diagonal(q, _sample_mean(a.values))
    term_norms = []
    # u[k] = [P T b]^m e_k, one per column k, from the constant unit vectors
    u = np.eye(cube.d)[:, None, :, None]
    for _ in range(m_max):
        u = np.stack([_project_mean_zero(t_operator_apply(cube, b * uk, xi, eta, a.dt, Lam))
                      for uk in u])
        term = -Lam * np.stack([_sample_mean(b * uk) for uk in u], axis=1).astype(complex)
        term_norms.append(float(np.linalg.norm(term)))
        q = q + term
    return q, term_norms


# -- eta -> 0 extrapolation ------------------------------------------------------


def a_hom_extract(etas: np.ndarray, q_values: list) -> dict:
    """Richardson extrapolation of q(0, eta) to eta = 0.

    ``etas`` strictly decreasing (at least 3, geometric spacing
    recommended).  ``a_hom`` is the polynomial in eta through all the
    ladder points read at eta = 0 (second order for three points), built
    by Neville's recursion from the linear extrapolants of neighbouring
    pairs.  Those first-order ``extrapolants`` are returned too, and the
    spread between the last two of them is the quoted uncertainty.  A
    sequence whose entries move non-monotonically by more than the spread
    is flagged but still reported.
    """
    etas = np.asarray(etas, dtype=float)
    if etas.size < 3 or not np.all(np.diff(etas) < 0):
        raise ConfigError("need at least 3 strictly decreasing eta values")
    qs = [np.real(np.asarray(q)) for q in q_values]
    # level k holds the degree-k interpolant of points e-k..e read at eta = 0
    level = qs
    for k in range(1, len(qs)):
        level = [hi + (hi - lo) * (etas[e] / (etas[e - k] - etas[e]))
                 for e, lo, hi in zip(range(k, len(qs)), level[:-1], level[1:])]
        if k == 1:
            extrap = level
    value = level[0]
    spread = np.abs(extrap[-1] - extrap[-2]).max()
    diffs = [np.max(np.abs(qs[i + 1] - qs[i])) for i in range(len(qs) - 1)]
    flagged = bool(any(diffs[i + 1] > diffs[i] + spread for i in range(len(diffs) - 1)))
    return {"a_hom": value, "uncertainty": float(spread), "flagged": flagged,
            "extrapolants": extrap}


def a_hom_ladder(fields: list, etas) -> dict:
    """``a_hom_extract`` of the ladder q(0, eta), eta in ``etas``, each the
    mean over the already-sampled coefficient ``fields``, plus the per-eta
    QMatrix list ``q`` and the scalar ``c_hom = trace(a_hom) / d``."""
    d = fields[0].cube.d
    qs = [q_matrix([(corrector_solve(a, [0.0] * d, eta=float(eta)), a) for a in fields])
          for eta in etas]
    out = a_hom_extract(np.asarray(etas), [q.value for q in qs])
    return {**out, "q": qs, "c_hom": float(np.trace(out["a_hom"]) / d)}


# -- averaged Green's function ----------------------------------------------------


def _check_mc_inputs(t_indices, n_samples: int) -> np.ndarray:
    """The time indices as an int array, after checking that there are
    some, none negative, and at least two samples."""
    if n_samples < 2:
        raise ConfigError("need n_samples >= 2 for error bars")
    t_indices = np.asarray(t_indices, dtype=int)
    if t_indices.size == 0 or t_indices.min() < 0:
        raise ConfigError(
            f"t_indices: need non-negative time indices, got {t_indices.tolist()}")
    return t_indices


def avg_greens_mc(
    sampler,
    cube: PeriodicCube,
    source_site: int,
    t_indices: np.ndarray,
    n_samples: int,
    seed: int = 0,
) -> dict:
    """Monte Carlo mean of the forward fundamental solution over
    independent environments.

    ``sampler(seed) -> CoefficientField`` draws one environment; each
    sample evolves a delta through the forward equation and the values at
    ``t_indices`` are averaged.  Returns the mean and the per-point
    standard error (``environments._stderr``), shapes (len(t_indices),
    n_sites).  Time indices must be non-negative: a negative one would
    silently wrap to a late level.

    The samples run on every core (``environments._map_on_cores``; the
    sampler reaches the worker processes by fork, so a closure serves) and
    are stacked in sample order, n_samples x len(t_indices) x n_sites
    floats, so the output does not depend on the number of cores.
    """
    t_indices = _check_mc_inputs(t_indices, n_samples)
    delta = _point_source(cube, source_site)
    t_max = int(t_indices.max())

    def sample(child):
        return solve_forward(sampler(child), delta, t_max)[t_indices]

    vals = np.array(_map_on_cores(sample, np.random.SeedSequence(seed).spawn(n_samples)))
    return {"t_indices": t_indices, "mean": vals.mean(axis=0), "stderr": _stderr(vals),
            "n_samples": n_samples}


def avg_kernel_excess(V: PotentialSpec, m: float, cube: PeriodicCube, dt: float,
                      etas, cell_seeds, t_indices, n_samples: int, seed: int = 0) -> dict:
    """Criterion 13(a): the homogenized c_hom, the ``a_hom_ladder`` at
    ``etas`` of the cells ``sample_environment`` (V, m, PeriodicCube(d, 8),
    dt, 16 steps, s) for s in ``cell_seeds``; then the kernel at the origin
    averaged over ``n_samples`` draws of ``sample_environment`` (V, m, cube,
    dt), against the Gaussian of diffusivity c_hom I summed over the torus
    images -3L..3L, and the ``greens-decay`` fit of their difference
    against Lam t + 1.

    Returns ``c_hom``, per t_index the ``mean`` and ``stderr`` at the
    origin, the ``gaussian`` and the ``diffs``, plus the RateReport
    ``report``.
    """
    t_indices = _check_mc_inputs(t_indices, n_samples)
    cells = _map_on_cores(functools.partial(
        sample_environment, V, m, PeriodicCube(cube.d, 8), dt, 16), cell_seeds)
    c_hom = a_hom_ladder(cells, etas)["c_hom"]
    sampler = functools.partial(sample_environment, V, m, cube, dt,
                                int(t_indices.max()))
    origin = cube.site_index([0] * cube.d)
    mc = avg_greens_mc(sampler, cube, origin, t_indices, n_samples, seed=seed)
    shifts = np.arange(-3, 4) * cube.L
    grids = np.meshgrid(*([shifts] * cube.d), indexing="ij")
    images = np.stack(grids, axis=-1).reshape(-1, cube.d)
    a_hom = c_hom * np.eye(cube.d)
    gaussian = np.array([sum(hom_gaussian_kernel(im, ti * dt, a_hom) for im in images)
                         for ti in t_indices])
    mean = mc["mean"][:, origin]
    diffs = np.abs(mean - gaussian)
    report = rate_fit(V.window.Lam * t_indices * dt + 1.0, diffs,
                      mode="greens-decay", d=cube.d)
    return {"c_hom": c_hom, "mean": mean, "stderr": mc["stderr"][:, origin],
            "gaussian": gaussian, "diffs": diffs, "report": report}


# -- Fourier--Laplace transform of the constant-coefficient kernel ----------------


def greens_hat_formula(q: np.ndarray, xi, eta: float) -> complex:
    """1 / (eta + e(xi)^* q e(xi)), the Fourier--Laplace Green's function
    of the constant-coefficient forward equation; e(xi)_j = e^{-i xi_j} - 1
    is the twisted gradient of the constant 1."""
    ev = np.exp(-1j * np.atleast_1d(np.asarray(xi, dtype=float))) - 1.0
    q = np.atleast_2d(np.asarray(q, dtype=complex))
    return 1.0 / (eta + np.conj(ev) @ q @ ev)


def greens_hat_quadrature(a_diag: np.ndarray, xi, eta: float) -> complex:
    """Same transform evaluated from the time-domain kernel: numerical
    Laplace quadrature of the spatially summed Bessel-product kernel,
    truncated to the sites |x_j| <= 60.

    Independent of the closed-form symbol; agreement with
    ``greens_hat_formula`` validates the representation.
    """
    from scipy import integrate

    a_diag = np.atleast_1d(np.asarray(a_diag, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    axis = np.arange(-60, 61)

    def spatial_sum(t: float) -> float:
        out = 1.0
        for j, aj in enumerate(a_diag):
            line = heat_kernel_1d(axis, aj * t)
            out *= float((line * np.cos(xi[j] * axis)).sum())
        return out

    t_max = -np.log(1e-16) / eta

    def integrand(t):
        return np.exp(-eta * t) * spatial_sum(t)

    val, err = integrate.quad(
        integrand, 0.0, t_max, limit=800, epsabs=1e-12, epsrel=1e-12
    )
    if err > 1e-9 * max(abs(val), 1.0):
        raise IntegrityError(f"Laplace quadrature error {err:.2e} too large")
    return complex(val)


# -- rate fitting -------------------------------------------------------------------


@dataclass
class RateReport:
    """Log-log regression of sup-differences against a scale parameter."""

    scales: np.ndarray
    values: np.ndarray
    slope: float
    slope_stderr: float
    alpha_hat: float
    mode: str
    warning: str = ""

    @property
    def alpha_lower(self) -> float:
        """alpha_hat minus two standard errors (scaled per mode)."""
        scale = 1.0 if self.mode == "epsilon" else 2.0
        return self.alpha_hat - 2.0 * scale * self.slope_stderr


def rate_fit(
    scales: np.ndarray, values: np.ndarray, mode: str = "epsilon", d: int = None
) -> RateReport:
    """Fit a power law values ~ C * scales^slope.

    mode 'epsilon': values ~ C eps^alpha, alpha_hat = slope (scales are
    the eps values, or radii, in any order).
    mode 'greens-decay': values ~ C scale^{-(d+alpha)/2} against the
    scale (Lam t + 1), so alpha_hat = -2 slope - d; requires ``d``.
    Every scale and value must be finite and every scale positive;
    nonpositive values are then dropped with a warning recorded, and the
    pairs kept must span at least two distinct scales.
    """
    scales = np.asarray(scales, dtype=float)
    values = np.asarray(values, dtype=float)
    if scales.size != values.size or scales.size < 4:
        raise ConfigError("need >= 4 matched (scale, value) pairs")
    if not (np.isfinite(scales).all() and np.isfinite(values).all()):
        raise ConfigError(f"scales, values: need finite numbers, got {scales.tolist()} "
                          f"and {values.tolist()}")
    if not (scales > 0).all():
        raise ConfigError(f"scales: need positive numbers, got {scales.tolist()}")
    if mode not in ("epsilon", "greens-decay"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == "greens-decay" and d is None:
        raise ConfigError("greens-decay mode requires the dimension d")
    warning = ""
    keep = values > 0
    if not keep.all():
        warning = f"dropped {int((~keep).sum())} nonpositive differences"
        scales, values = scales[keep], values[keep]
        if scales.size < 4:
            raise ConfigError("fewer than 4 positive differences remain")
    x = np.log(scales)
    # two distinct logs, which is what keeps sxx below from being 0
    if np.unique(x).size < 2:
        raise ConfigError(f"scales: need at least 2 distinct scales, got {scales.tolist()}")
    y = np.log(values)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    slope = float(coef[0])
    resid = y - A @ coef
    dof = max(x.size - 2, 1)
    sigma2 = float(resid @ resid) / dof
    sxx = float(((x - x.mean()) ** 2).sum())
    slope_stderr = float(np.sqrt(sigma2 / sxx))
    if mode == "epsilon":
        alpha = slope
    else:
        alpha = -2.0 * slope - d
    noise_dominated = sigma2 > 0 and abs(slope) < 2.0 * slope_stderr
    if noise_dominated:
        warning = (warning + "; " if warning else "") + "noise-dominated fit"
    return RateReport(scales, values, slope, slope_stderr, float(alpha), mode, warning)
