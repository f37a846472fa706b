"""Samplers for random space-time environments on the periodic cube.

Two samplers produce `FieldTrajectory` objects: an Euler--Maruyama
integrator for the gradient-interface Langevin dynamics

    d phi(x) = -(1/2) [ div(V'(grad phi))(x) + m^2 phi(x) ] dt + dB(x),

and an exact stationary Gaussian sampler for the quadratic potential,
realized per spatial Fourier mode as an independent Ornstein--Uhlenbeck
process with variance 1/A_k and time correlation exp(-A_k |tau| / 2),
where A_k = (Laplacian symbol at k) + m^2.

Coefficient maps turn a trajectory into a `CoefficientField` for the
parabolic solvers, either by evaluating a scalar function of the field
value or the Hessian V''(grad phi).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, IntegrityError, UnsupportedVariantError
from .lattice import EllipticityPair, PeriodicCube
from .parabolic import CoefficientField

_MAGIC = "parahom-trajectory-v1"


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

    def dv(self, z: np.ndarray) -> np.ndarray:
        """Componentwise V'(z)."""
        z = np.asarray(z, dtype=float)
        if self.form == "quadratic":
            return self.c * z
        return self.c * z - self.a_dip * np.sin(z)

    def d2v_diag(self, z: np.ndarray) -> np.ndarray:
        """Diagonal entries of V''(z), componentwise."""
        z = np.asarray(z, dtype=float)
        if self.form == "quadratic":
            return np.full_like(z, self.c)
        return self.c - self.a_dip * np.cos(z)


# -- trajectories -------------------------------------------------------------


@dataclass
class FieldTrajectory:
    """Uniformly sampled field path phi(x, t_i), i = 0..n_steps.

    ``values`` has shape (n_steps + 1, n_sites); ``provenance`` records
    everything needed to replay the sample bit-exactly.
    """

    cube: PeriodicCube
    dt: float
    values: np.ndarray
    m: float
    provenance: dict = field(default_factory=dict)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.values.shape[0])


def dump_trajectory(traj: FieldTrajectory, path: str) -> None:
    """Write a trajectory: one JSON header line, then the value block as
    little-endian float64 in C order (time index slowest).
    """
    header = {
        "magic": _MAGIC,
        "d": traj.cube.d,
        "L": traj.cube.L,
        "dt": traj.dt,
        "n_steps": traj.n_steps,
        "m": traj.m,
        "provenance": traj.provenance,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(np.ascontiguousarray(traj.values, dtype="<f8").tobytes())


def load_trajectory(path: str) -> FieldTrajectory:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("magic") != _MAGIC:
            raise IntegrityError(f"{path} is not a trajectory dump")
        cube = PeriodicCube(header["d"], header["L"])
        n = header["n_steps"] + 1
        raw = fh.read(8 * n * cube.n_sites)
        values = np.frombuffer(raw, dtype="<f8").reshape(n, cube.n_sites).copy()
    return FieldTrajectory(
        cube, header["dt"], values, header["m"], header["provenance"]
    )


# -- Langevin dynamics ---------------------------------------------------------


def langevin_drift(
    V: PotentialSpec, m: float, cube: PeriodicCube, phi: np.ndarray
) -> np.ndarray:
    """-(1/2) [ div(V'(grad phi)) + m^2 phi ].  Broadcasts over batch axes."""
    return -0.5 * (cube.div(V.dv(cube.grad(phi))) + m * m * phi)


def langevin_max_dt(V: PotentialSpec, m: float, d: int) -> float:
    """Stability window min(1/(2 d Lam), 1/m^2) for the explicit integrator."""
    Lam = V.window.Lam
    return min(1.0 / (2.0 * d * Lam), 1.0 / (m * m))


def brownian_increments(rng: np.random.Generator, dt: float, shape, n_steps: int):
    """Stream of n_steps Brownian increments sqrt(dt) N(0, 1) of ``shape``,
    drawn one step at a time."""
    for _ in range(n_steps):
        yield np.sqrt(dt) * rng.standard_normal(shape)


def langevin_path(V: PotentialSpec, m: float, cube: PeriodicCube, dt: float,
                  phi: np.ndarray, increments):
    """The Euler--Maruyama stepper: yield phi after each step
    phi <- phi + dt drift(phi) + dB, one step per entry dB of
    ``increments`` (already scaled by sqrt(dt)).  Batched over leading
    axes of ``phi``; every step makes a new array."""
    for dB in increments:
        phi = phi + dt * langevin_drift(V, m, cube, phi) + dB
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
    if m <= 0:
        raise UnsupportedVariantError(
            "massless dynamics are only reached as m -> 0 limits of statistics"
        )
    if dt > langevin_max_dt(V, m, cube.d) * (1 + 1e-12):
        raise ConfigError(
            f"dt={dt} exceeds the stability window "
            f"min(1/(2dLam), 1/m^2)={langevin_max_dt(V, m, cube.d)}"
        )
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
    prov = {
        "sampler": "langevin-euler-maruyama",
        "seed": int(seed) if np.isscalar(seed) or isinstance(seed, int) else repr(seed),
        "burn_in": int(burn_in),
        "potential": {"form": V.form, "c": V.c, "a_dip": V.a_dip},
    }
    return FieldTrajectory(cube, dt, values, m, prov)


# -- exact Gaussian sampler -----------------------------------------------------


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
        raise UnsupportedVariantError("stationary sampler requires m > 0")
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
    prov = {"sampler": "gaussian-ou-exact", "seed": int(seed), "m": float(m)}
    return FieldTrajectory(cube, dt, values, m, prov)


# -- coefficient maps -----------------------------------------------------------


@dataclass
class CoefficientMap:
    """Map from field snapshots to diagonal coefficient matrices.

    ``scalar-of-field`` applies ``scalar_map`` (vectorized R -> R within
    the declared window) to the field value and multiplies the identity;
    ``matrix-of-gradient`` evaluates diag V''(grad phi).
    """

    variant: str
    window: EllipticityPair = None
    scalar_map: Optional[Callable[[np.ndarray], np.ndarray]] = None
    potential: Optional[PotentialSpec] = None

    def __post_init__(self):
        if self.variant == "scalar-of-field":
            if self.scalar_map is None or self.window is None:
                raise ConfigError(
                    "scalar-of-field needs scalar_map and a declared window"
                )
        elif self.variant == "matrix-of-gradient":
            if self.potential is None:
                raise ConfigError("matrix-of-gradient needs a potential")
            if self.window is None:
                self.window = self.potential.window
        else:
            raise ConfigError(f"unknown coefficient map variant {self.variant!r}")


def coefficient_field(traj: FieldTrajectory, cmap: CoefficientMap) -> CoefficientField:
    """Evaluate the coefficient map on every snapshot of a trajectory.

    The output is diagonal by construction; the spectral window is
    verified on every site and time, and a violation raises
    IntegrityError (a map leaving its declared window is misconfigured,
    clamping is never applied).
    """
    cube = traj.cube
    if cmap.variant == "scalar-of-field":
        scal = np.asarray(cmap.scalar_map(traj.values), dtype=float)
        vals = np.broadcast_to(
            scal[:, None, :], (traj.values.shape[0], cube.d, cube.n_sites)
        ).copy()
    else:
        grads = cube.grad(traj.values)  # (nt, d, n)
        vals = cmap.potential.d2v_diag(grads)
    out = CoefficientField(cube, traj.dt, vals, cmap.window, diagonal=True)
    out.validate()
    return out


# -- Poincare criterion via the space-time Fourier transform ---------------------


def poincare_fourier_check(
    gamma: np.ndarray,
    dt: float,
    threshold: float = np.inf,
    summability_tol: float = 1e-3,
) -> dict:
    """Sup modulus of the space-time Fourier transform of a covariance table.

    ``gamma`` is tabulated on centered lags: axis 0 is the time lag
    (odd length 2K+1, spacing dt, lag 0 in the middle), the remaining d
    axes are centered odd-sided spatial boxes.  The transform is
    sum_x integral dtau Gamma(x, tau) e^{i(zeta.x + theta tau)}, the time
    integral realized as a dt-weighted sum, evaluated on the full FFT
    grid of the table.

    Returns {bounded, sup_value, warning}: ``warning`` is set when the
    boundary shell of the table still carries a ``summability_tol``
    fraction of the absolute mass, in which case the sup is not to be
    trusted (slow decay / non-summable covariance).
    """
    gamma = np.asarray(gamma, dtype=float)
    if any(s % 2 != 1 for s in gamma.shape):
        raise ConfigError("covariance table must have odd-sized centered axes")
    total = np.abs(gamma).sum()
    if total == 0:
        return {"bounded": True, "sup_value": 0.0, "warning": False}
    boundary = 0.0
    for ax in range(gamma.ndim):
        if gamma.shape[ax] == 1:
            continue
        sl = [slice(None)] * gamma.ndim
        sl[ax] = 0
        boundary += np.abs(gamma[tuple(sl)]).sum()
        sl[ax] = gamma.shape[ax] - 1
        boundary += np.abs(gamma[tuple(sl)]).sum()
    warning = bool(boundary / total > summability_tol)
    spectrum = np.fft.fftn(np.fft.ifftshift(gamma)) * dt
    sup = float(np.abs(spectrum).max())
    return {
        "bounded": bool(np.isfinite(sup) and sup <= threshold and not warning),
        "sup_value": sup,
        "warning": warning,
    }
