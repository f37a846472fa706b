"""Samplers for random space-time environments on the periodic cube.

An Euler--Maruyama integrator for the gradient-interface Langevin
dynamics

    d phi(x) = -(1/2) [ div(V'(grad phi))(x) + m^2 phi(x) ] dt + dB(x)

produces `FieldTrajectory` objects.  The coefficient map turns a
trajectory into a `CoefficientField` for the parabolic solvers by
evaluating the Hessian V''(grad phi).  ``check_langevin_window`` is the
one guard of the integrator's stability window; every entry point that
steps the dynamics calls it before the first step.  ``_map_on_cores``
maps a function over independent environments (seeds) on every core.
"""

from __future__ import annotations

import itertools
import os
import pickle
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, UnsupportedVariantError
from .lattice import EllipticityPair, PeriodicCube
from .parabolic import CoefficientField


_SIGKILL = 9  # os.kill's signal number; the signal module is not loaded
_inside_map = False  # True while a _map_on_cores call runs its function


# -- process-parallel map --------------------------------------------------------


def _map_on_cores(fn, items) -> list:
    """``[fn(x) for x in items]`` in input order, computed on every core.

    The items are cut into contiguous chunks, one per core this process
    may run on (``os.sched_getaffinity``) and at most one per item.  The
    parent computes the first chunk itself; each other chunk runs in an
    ``os.fork`` child that pickles its results, or the exception it
    raised, back through a pipe.  ``fn`` and the items reach the children
    by fork, not by pickling, so closures work.  With one core or one
    item, without ``os.fork``, or inside the mapped function of another
    call (in the parent or a worker) it is the plain serial loop, so it
    never runs more processes than cores.
    """
    global _inside_map
    items = list(items)
    n_chunks = 1
    if not _inside_map and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n_chunks = min(len(os.sched_getaffinity(0)), len(items))
    if n_chunks <= 1:
        return [fn(x) for x in items]
    ends = [len(items) * k // n_chunks for k in range(n_chunks + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(ends, ends[1:])]
    workers, payloads = [], []  # (pid, read end) per forked chunk; its bytes
    try:
        for chunk in chunks[1:]:
            workers.append(_fork_worker(fn, chunk))
        _inside_map = True
        try:
            results = [fn(x) for x in chunks[0]]
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
        results += value
    return results


def _fork_worker(fn, chunk) -> tuple[int, int]:
    """Fork a child that sends ``(True, [fn(x) for x in chunk])``, or
    ``(False, exception)``, pickled to a pipe and then ends with
    ``os._exit`` on every path; return (its pid, the pipe's read end)."""
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
            message = (True, [fn(x) for x in chunk])
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
        """Diagonal entries of V''(z), componentwise; into ``out`` when
        given (``z`` itself may serve)."""
        z = np.asarray(z, dtype=float)
        if self.form == "quadratic":
            if out is None:
                return np.full_like(z, self.c)
            out[...] = self.c
            return out
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
    if V.window.lam == V.window.Lam:
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


def langevin_drift(
    V: PotentialSpec, m: float, cube: PeriodicCube, phi: np.ndarray,
    out=None, work=None,
) -> np.ndarray:
    """-(1/2) [ div(V'(grad phi)) + m^2 phi ].  Broadcasts over batch axes.

    Computed in place in ``out`` (phi's shape) with ``work`` (shape
    phi.shape[:-1] + (d, n_sites)) as the gradient and flux buffer, each
    made when not given.
    """
    flux = cube.grad(phi, out=work)
    V.dv(flux, out=flux)
    out = cube.div(flux, out=out)
    # the flux is spent: its first component takes m^2 phi
    mass = np.multiply(m * m, phi, out=flux[..., 0, :])
    out += mass
    out *= -0.5
    return out


def check_langevin_window(V: PotentialSpec, m: float, cube: PeriodicCube,
                          dt: float) -> None:
    """UnsupportedVariantError (a ConfigError) for a mass m <= 0, and
    ConfigError for a step outside the stability window
    min(1/(2 d Lam), 1/m^2) of the explicit integrator."""
    if m <= 0:
        raise UnsupportedVariantError(
            "m: massless dynamics are only reached as m -> 0 limits of statistics"
        )
    max_dt = min(1.0 / (2.0 * cube.d * V.window.Lam), 1.0 / (m * m))
    if dt > max_dt * (1 + 1e-12):
        raise ConfigError(
            f"dt={dt} exceeds the stability window min(1/(2 d Lam), 1/m^2)={max_dt}"
        )


def brownian_increments(rng: np.random.Generator, dt: float, shape, n_steps: int):
    """Stream of n_steps Brownian increments sqrt(dt) N(0, 1) of ``shape``,
    drawn one step at a time, each a new array."""
    scale = np.sqrt(dt)
    for _ in range(n_steps):
        dB = rng.standard_normal(shape)
        dB *= scale
        yield dB


def langevin_path(V: PotentialSpec, m: float, cube: PeriodicCube, dt: float,
                  phi: np.ndarray, increments):
    """The Euler--Maruyama stepper: yield phi after each step
    phi <- phi + dt drift(phi) + dB, one step per entry dB of
    ``increments`` (already scaled by sqrt(dt), of phi's shape).  Batched
    over leading axes of ``phi``; the drift is formed in buffers made once
    per path, and every yielded phi is a new array."""
    phi = np.asarray(phi, dtype=float)
    drift = np.empty(phi.shape)
    work = np.empty(phi.shape[:-1] + (cube.d, cube.n_sites))
    for dB in increments:
        step = langevin_drift(V, m, cube, phi, out=drift, work=work)
        step *= dt
        phi = phi + step
        phi += dB
        yield phi


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
        burn_in = int(np.ceil(10.0 / (m * m * dt)))
    if burn_in < 0:
        raise ConfigError(f"burn_in must be >= 0, got {burn_in}")
    rng = np.random.default_rng(seed)
    noise = brownian_increments(rng, dt, cube.n_sites, burn_in + n_steps)
    phi = np.zeros(cube.n_sites)
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
