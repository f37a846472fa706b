"""Samplers for random space-time environments on the periodic cube.

An Euler--Maruyama integrator for the gradient-interface Langevin
dynamics

    d phi(x) = -(1/2) [ div(V'(grad phi))(x) + m^2 phi(x) ] dt + dB(x)

produces `FieldTrajectory` objects; its one stepper, ``langevin_path``,
makes its buffers and shift views once per path and steps phi in place.
The coefficient map turns a trajectory into a `CoefficientField` for the
parabolic solvers by evaluating the Hessian V''(grad phi).
``check_langevin_window`` is the one guard of the integrator's stability
window; every entry point that steps the dynamics calls it first.  ``_map_on_cores``
maps a function over independent environments (seeds) on every core, and
``_map_chunks_on_cores`` maps one over contiguous chunks of items (the
paths of the correlation and variance checks, through
``field_theory._run_paths``); ``_free_cores`` is the number of cores
either map may spread work over.  ``_step_count``
guards every step count derived from the mass and the step.  ``_stderr``
is the one standard error of a Monte Carlo mean in the package.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .lattice import EllipticityPair, PeriodicCube
from .parabolic import CoefficientField


_SIGKILL = 9  # os.kill's signal number; the signal module is not loaded
_inside_map = False  # True while a map over chunks runs its function
_NOISE_FLOATS = 1 << 15  # brownian_increments' block buffer: 256 KB of float64
_NOISE_MIN_DRAW = 640  # normals a row draws per block at least, past 256 KB if need be


# -- process-parallel map --------------------------------------------------------


def _free_cores() -> int:
    """The cores this process may spread work over: those it may run on
    (``os.sched_getaffinity``), but 1 where that is unknown or inside the
    mapped function of a map over chunks, whose processes already fill
    the cores."""
    if _inside_map or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _map_on_cores(fn, items) -> list:
    """``[fn(x) for x in items]`` in input order, computed on every core:
    ``_map_chunks_on_cores`` with the loop over each chunk as its
    function."""
    chunks = _map_chunks_on_cores(lambda chunk: [fn(x) for x in chunk], items)
    return [y for chunk in chunks for y in chunk]


def _map_chunks_on_cores(fn, items) -> list:
    """``[fn(chunk) for chunk in chunks]`` in order, computed on every core,
    where the chunks cut the items into contiguous, non-empty lists.

    There is one chunk per free core (``_free_cores``) and at most one per
    item; no items make no chunks.  The parent computes the first chunk
    itself; each other chunk runs in an ``os.fork`` child that pickles its
    result, or the exception it raised, back through a pipe.  ``fn`` and
    the items reach the children by fork, not by pickling, so closures
    work.  With one core or one item, without ``os.fork``, or inside the
    mapped function of another call (in the parent or a worker) all the
    items are one chunk, computed in the calling process, so it never runs
    more processes than cores.
    """
    global _inside_map
    items = list(items)
    n_chunks = min(_free_cores(), len(items)) if hasattr(os, "fork") else 1
    if n_chunks <= 1:
        return [fn(items)] if items else []
    ends = [len(items) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(ends, ends[1:])]
    workers, payloads = [], []  # (pid, read end) per forked chunk; its bytes
    try:
        for chunk in chunks[1:]:
            workers.append(_fork_worker(fn, chunk))
        _inside_map = True
        try:
            results = [fn(chunks[0])]
        finally:
            _inside_map = False
        for _, fd in workers:
            with open(fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        for _, fd in workers:
            os.close(fd)
        statuses = []
        for pid, _ in workers:
            if len(payloads) < len(workers):  # unwinding: stop work nobody reads
                os.kill(pid, _SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (pid, _), data, status in zip(workers, payloads, statuses):
        if status != 0 or not data:
            raise RuntimeError(
                f"map worker {pid} ended without a result (exit status {status})")
        try:
            ok, value = pickle.loads(data)
        except Exception as exc:
            raise RuntimeError(f"map worker {pid} sent a result that could not be "
                               f"unpickled: {exc!r}") from exc
        if not ok:
            raise value
        results.append(value)
    return results


def _fork_worker(fn, chunk) -> tuple[int, int]:
    """Fork a child that sends ``(True, fn(chunk))``, or ``(False,
    exception)``, pickled to a pipe and then ends with ``os._exit`` on
    every path; return (its pid, the pipe's read end)."""
    global _inside_map
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, r
    status = 1
    try:
        os.close(r)
        _inside_map = True
        try:
            message = (True, fn(chunk))
        except BaseException as exc:
            message = (False, exc)
        try:
            data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            data = pickle.dumps((False, RuntimeError(
                f"map worker result could not be pickled: {exc!r}")))
        with open(w, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


# -- Monte Carlo error bars ------------------------------------------------------


def _stderr(x) -> np.ndarray:
    """Standard error of the mean of ``x`` over axis 0: the sample standard
    deviation (``ddof=1``) over sqrt(n), and float zeros of one sample's
    shape for fewer than two samples."""
    x = np.asarray(x)
    if len(x) < 2:
        return np.zeros(x.shape[1:])
    return x.std(axis=0, ddof=1) / np.sqrt(len(x))


# -- potentials --------------------------------------------------------------


@dataclass(frozen=True)
class PotentialSpec:
    """Convex single-bond potential acting on gradient vectors z in R^d.

    ``quadratic``:  V(z) = c |z|^2 / 2
    ``dipole``:     V(z) = c |z|^2 / 2 + a_dip * sum_j cos z_j, |a_dip| < c

    V'' is diagonal in both cases with entries pinched between
    lam = c - |a_dip| and Lam = c + |a_dip|.
    """

    form: str
    c: float = 1.0
    a_dip: float = 0.0

    def __post_init__(self):
        if self.form not in ("quadratic", "dipole"):
            raise ConfigError(f"unknown potential form {self.form!r}")
        if self.c <= 0:
            raise ConfigError(f"quadratic weight must be > 0, got {self.c}")
        if self.form == "quadratic" and self.a_dip != 0.0:
            raise ConfigError("quadratic form takes no dipole activity")
        if self.form == "dipole" and abs(self.a_dip) >= self.c:
            raise ConfigError(
                f"need |a_dip| < c for convexity, got a_dip={self.a_dip}, c={self.c}"
            )

    @property
    def window(self) -> EllipticityPair:
        return EllipticityPair(self.c - abs(self.a_dip), self.c + abs(self.a_dip))

    def dv(self, z: np.ndarray, out=None) -> np.ndarray:
        """Componentwise V'(z); into ``out`` when given (``z`` itself may
        serve)."""
        z = np.asarray(z, dtype=float)
        if self.form == "quadratic":
            return np.multiply(self.c, z, out=out)
        dip = np.sin(z)
        dip *= self.a_dip
        out = np.multiply(self.c, z, out=out)
        out -= dip
        return out

    def d2v_diag(self, z: np.ndarray, out=None) -> np.ndarray:
        """Diagonal entries of V''(z) = c - a_dip cos z (a_dip = 0 for the
        quadratic), componentwise; into ``out`` when given (``z`` itself
        may serve)."""
        z = np.asarray(z, dtype=float)
        out = np.cos(z, out=out)
        out *= self.a_dip
        return np.subtract(self.c, out, out=out)


def hessian_coefficients(V: PotentialSpec, cube: PeriodicCube, phi: np.ndarray,
                         out=None) -> np.ndarray:
    """The coefficients diag V''(grad phi), shape phi.shape[:-1] + (d,
    n_sites), computed in ``out`` (or a new array) without temporaries.
    Where the window collapses (the quadratic, or a dipole with a_dip = 0)
    they are the constant c and no gradient is taken."""
    phi = np.asarray(phi, dtype=float)
    if out is None:
        out = np.empty(phi.shape[:-1] + (cube.d, cube.n_sites))
    window = V.window  # a new, checked pair on every read
    if window.lam == window.Lam:
        out[...] = V.c
        return out
    return V.d2v_diag(cube.grad(phi, out=out), out=out)


# -- trajectories -------------------------------------------------------------


@dataclass
class FieldTrajectory:
    """Uniformly sampled field path phi(x, t_i), i = 0..n_steps.

    ``values`` has shape (n_steps + 1, n_sites).
    """

    cube: PeriodicCube
    dt: float
    values: np.ndarray


# -- Langevin dynamics ---------------------------------------------------------


def check_langevin_window(V: PotentialSpec, m: float, cube: PeriodicCube,
                          dt: float) -> None:
    """ConfigError for a mass that is not positive (m <= 0 or NaN), for a
    step that is not finite and positive, and for one outside the
    stability window min(1/(2 d Lam), 1/m^2) of the explicit integrator."""
    if not m > 0:
        raise ConfigError(
            "m: massless dynamics are only reached as m -> 0 limits of statistics"
        )
    if not (np.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt={dt}: the step must be finite and positive")
    mass_dt = 1.0 / (m * m) if m * m else math.inf  # m^2 may underflow to 0
    max_dt = min(1.0 / (2.0 * cube.d * V.window.Lam), mass_dt)
    if dt > max_dt * (1 + 1e-12):
        raise ConfigError(
            f"dt={dt} exceeds the stability window min(1/(2 d Lam), 1/m^2)={max_dt}"
        )


def _step_count(span: float, *divisors: float) -> int:
    """ceil(span / divisors[0] / divisors[1] / ...), the steps of a stretch
    of the dynamics set by the mass m and the step dt: ConfigError naming
    them where the count is not finite (a divisor such as m^2 dt underflows
    to 0) or exceeds sys.maxsize, which no loop or array can reach."""
    steps = float(span)
    for divisor in divisors:
        steps = steps / float(divisor) if divisor else math.inf
    if not steps <= sys.maxsize:
        raise ConfigError(f"m, dt: the mass and step set a stretch of {steps:.3g} "
                          f"steps, more than a run can take ({sys.maxsize})")
    return math.ceil(steps)


def _burn_in(m: float, dt: float) -> int:
    """The default burn-in 10/(m^2 dt) of a path from 0, a spectral-gap
    heuristic."""
    return _step_count(10.0, m * m * dt)


def brownian_increments(rngs: list, dt: float, n_sites: int, n_steps: int):
    """Stream of n_steps Brownian increments of shape (len(rngs), n_sites):
    row r is sqrt(dt) times the normals of ``rngs[r]`` in step order, drawn
    a block of steps at a time into one buffer.  A block holds the steps
    that fit about 256 KB, but at least enough for each row's generator
    call to draw ``_NOISE_MIN_DRAW`` normals: many rows of few sites (the
    paths of a correlation check) would otherwise make one short call per
    row every few steps.  Each yielded array is a view of the buffer,
    overwritten by the next block."""
    scale = np.sqrt(dt)
    fit = _NOISE_FLOATS // (len(rngs) * n_sites)
    floor = -(-_NOISE_MIN_DRAW // n_sites)  # ceil(_NOISE_MIN_DRAW / n_sites)
    block = max(1, min(n_steps, max(fit, floor)))
    buf = np.empty((len(rngs), block, n_sites))
    for start in range(0, n_steps, block):
        k = min(block, n_steps - start)
        for rng, row in zip(rngs, buf):
            rng.standard_normal(out=row[:k])
        buf[:, :k] *= scale
        for i in range(k):
            yield buf[:, i]


def langevin_path(V: PotentialSpec, m: float, cube: PeriodicCube, dt: float,
                  phi: np.ndarray, increments):
    """The Euler--Maruyama stepper: yield phi after each step
    phi <- phi + dt drift(phi) + dB with the drift
    -(1/2) [div(V'(grad phi)) + m^2 phi], one step per entry dB of
    ``increments`` (already scaled by sqrt(dt), of phi's shape).  Batched
    over leading axes of ``phi``, which is never written: a copy of it is
    stepped in place, and every yielded phi is a new array."""
    phi = np.array(phi, dtype=float)
    flux = np.empty((cube.d,) + phi.shape)
    drift = np.empty(phi.shape)
    grad = cube._grad_step(phi, flux, None)
    div = cube._div_step(flux, drift, None)
    m2, mass = m * m, flux[0]  # the flux is spent once div has run
    for dB in increments:
        grad()
        V.dv(flux, out=flux)
        div()
        np.multiply(m2, phi, out=mass)
        drift += mass
        drift *= -0.5
        drift *= dt
        phi += drift
        phi += dB
        yield phi.copy()


def langevin_simulate(
    V: PotentialSpec,
    m: float,
    cube: PeriodicCube,
    dt: float,
    n_steps: int,
    burn_in: Optional[int] = None,
    seed: int = 0,
) -> FieldTrajectory:
    """Euler--Maruyama sample of the Langevin field dynamics.

    Starts from phi = 0, discards ``burn_in`` steps (default 10/(m^2 dt),
    a spectral-gap heuristic), then records n_steps + 1 levels.
    Deterministic in (config, seed).
    """
    check_langevin_window(V, m, cube, dt)
    if burn_in is None:
        burn_in = _burn_in(m, dt)
    if burn_in < 0:
        raise ConfigError(f"burn_in must be >= 0, got {burn_in}")
    rngs = [np.random.default_rng(seed)]
    noise = brownian_increments(rngs, dt, cube.n_sites, burn_in + n_steps)
    phi = np.zeros((1, cube.n_sites))  # the one row of the one stream
    path = langevin_path(V, m, cube, dt, phi, noise)
    for phi in itertools.islice(path, burn_in):
        pass
    values = np.empty((n_steps + 1, cube.n_sites))
    values[0] = phi
    for i, phi in enumerate(path, 1):
        values[i] = phi
    return FieldTrajectory(cube, dt, values)


# -- coefficient maps -----------------------------------------------------------


@dataclass
class CoefficientMap:
    """Map from field snapshots to diagonal coefficient matrices: the one
    variant, ``matrix-of-gradient``, evaluates diag V''(grad phi) of the
    ``potential``, inside the potential's window."""

    variant: str
    potential: PotentialSpec

    def __post_init__(self):
        if self.variant != "matrix-of-gradient":
            raise ConfigError(f"unknown coefficient map variant {self.variant!r}")


def coefficient_field(traj: FieldTrajectory, cmap: CoefficientMap) -> CoefficientField:
    """Evaluate the coefficient map on every snapshot of a trajectory.

    The output is diagonal by construction; the field checks the
    potential's window on every site and time, and a violation raises
    IntegrityError (clamping is never applied).
    """
    V = cmap.potential
    vals = hessian_coefficients(V, traj.cube, traj.values)
    return CoefficientField(traj.cube, traj.dt, vals, V.window)


def sample_environment(V: PotentialSpec, m: float, cube: PeriodicCube, dt: float,
                       n_steps: int, seed=0) -> CoefficientField:
    """One random environment: the Langevin path of ``langevin_simulate``
    through the matrix-of-gradient map a = V''(grad phi).

    The seed comes last, so ``functools.partial(sample_environment, V, m,
    cube, dt, n_steps)`` is a sampler for ``avg_greens_mc``.
    """
    traj = langevin_simulate(V, m, cube, dt, n_steps, seed=seed)
    return coefficient_field(traj, CoefficientMap("matrix-of-gradient", potential=V))
