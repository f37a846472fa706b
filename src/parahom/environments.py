"""Samplers for random space-time environments on the periodic cube.

An Euler--Maruyama integrator for the gradient-interface Langevin
dynamics

    d phi(x) = -(1/2) [ div(V'(grad phi))(x) + m^2 phi(x) ] dt + dB(x)

produces `FieldTrajectory` objects.  The coefficient map turns a
trajectory into a `CoefficientField` for the parabolic solvers by
evaluating the Hessian V''(grad phi).  ``check_langevin_window`` is the
one guard of the integrator's stability window; every entry point that
steps the dynamics calls it before the first step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, UnsupportedVariantError
from .lattice import EllipticityPair, PeriodicCube
from .parabolic import CoefficientField


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

    def value(self, z: np.ndarray) -> np.ndarray:
        """V(z) summed over the gradient components (axis -2 of a field)."""
        z = np.asarray(z, dtype=float)
        out = 0.5 * self.c * (z**2)
        if self.form == "dipole":
            out = out + self.a_dip * np.cos(z)
        return out.sum(axis=-2) if out.ndim >= 2 else out.sum()

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
    For the quadratic potential they are the constant c and no gradient
    is taken."""
    phi = np.asarray(phi, dtype=float)
    if out is None:
        out = np.empty(phi.shape[:-1] + (cube.d, cube.n_sites))
    if V.form == "quadratic":
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
