"""Lattice geometry and discrete vector calculus on the periodic cube.

Fields are stored as flat float arrays of length ``L**d`` in row-major
site order (coordinate 0 slowest).  All operators broadcast over leading
batch axes, so a ``(B, n_sites)`` stack of fields is processed in one call.

Sign conventions: the gradient is the forward difference
``(grad phi)_j(x) = phi(x + e_j) - phi(x)``, the divergence is its exact
adjoint under the periodic inner product, and ``div(grad phi)`` is the
nonnegative five-point (2d+1-point) Laplacian
``sum_j [2 phi(x) - phi(x+e_j) - phi(x-e_j)]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

from .errors import ConfigError


@dataclass(frozen=True)
class EllipticityPair:
    """Two-sided spectral window [lam, Lam] for coefficient matrices."""

    lam: float
    Lam: float

    def __post_init__(self):
        if not (0.0 < self.lam <= self.Lam):
            raise ConfigError(f"need 0 < lam <= Lam, got ({self.lam}, {self.Lam})")

    @property
    def contrast(self) -> float:
        """The contraction ratio 1 - lam/Lam."""
        return 1.0 - self.lam / self.Lam


class PeriodicCube:
    """The periodic lattice cube Q_L in d dimensions, L even.

    Provides site indexing with componentwise wraparound and the discrete
    differential operators.  All methods are pure; instances are safe to
    share between workers.
    """

    def __init__(self, d: int, L: int):
        if d < 1:
            raise ConfigError(f"dimension must be >= 1, got {d}")
        if L < 2 or L % 2 != 0:
            raise ConfigError(f"side length must be an even integer >= 2, got {L}")
        self.d = int(d)
        self.L = int(L)
        self.n_sites = self.L**self.d
        self.shape = (self.L,) * self.d

    def __repr__(self):
        return f"PeriodicCube(d={self.d}, L={self.L})"

    # -- site indexing ---------------------------------------------------

    def site_index(self, coords) -> int:
        """Flat index of a lattice point, wrapping each coordinate mod L."""
        coords = np.asarray(coords, dtype=int)
        if coords.shape != (self.d,):
            raise IndexError(f"expected {self.d} coordinates, got {coords.shape}")
        return int(np.ravel_multi_index(tuple(coords % self.L), self.shape))

    def site_coords(self, index: int) -> np.ndarray:
        if not 0 <= index < self.n_sites:
            raise IndexError(f"site index {index} out of range [0, {self.n_sites})")
        return np.array(np.unravel_index(index, self.shape))

    def all_coords(self) -> np.ndarray:
        """(n_sites, d) array of coordinates in site order."""
        return np.stack(
            np.unravel_index(np.arange(self.n_sites), self.shape), axis=-1
        )

    def min_image(self, coords) -> np.ndarray:
        """Coordinates folded into [-L/2, L/2) componentwise."""
        c = np.asarray(coords) % self.L
        return np.where(c >= self.L // 2, c - self.L, c)

    # -- shifts and differential operators -------------------------------

    def _grid(self, field: np.ndarray) -> np.ndarray:
        return np.asarray(field).reshape(field.shape[:-1] + self.shape)

    def shift(self, field: np.ndarray, j: int, step: int = 1) -> np.ndarray:
        """Field evaluated at x + step*e_j.  Broadcasts over leading axes."""
        out = np.roll(self._grid(field), -step, axis=-self.d + j)
        return out.reshape(field.shape)

    def grad(self, phi: np.ndarray) -> np.ndarray:
        """Forward-difference gradient, shape (..., d, n_sites)."""
        phi = np.asarray(phi)
        out = np.empty(phi.shape[:-1] + (self.d, self.n_sites), dtype=phi.dtype)
        for j in range(self.d):
            out[..., j, :] = self.shift(phi, j, +1) - phi
        return out

    def div(self, F: np.ndarray) -> np.ndarray:
        """Adjoint of grad: (div F)(x) = sum_j [F_j(x - e_j) - F_j(x)]."""
        F = np.asarray(F)
        out = np.zeros(F.shape[:-2] + (self.n_sites,), dtype=F.dtype)
        for j in range(self.d):
            Fj = F[..., j, :]
            out += self.shift(Fj, j, -1) - Fj
        return out

    def laplacian(self, phi: np.ndarray) -> np.ndarray:
        """div(grad phi) = sum_j [2 phi - phi(.+e_j) - phi(.-e_j)] (>= 0 operator)."""
        phi = np.asarray(phi)
        out = 2.0 * self.d * phi.astype(np.result_type(phi, float), copy=True)
        for j in range(self.d):
            out -= self.shift(phi, j, +1)
            out -= self.shift(phi, j, -1)
        return out

    def grad_at(self, phi: np.ndarray, site: int) -> np.ndarray:
        """Gradient vector at one site."""
        coords = self.site_coords(site)  # validates the index
        out = np.empty(self.d)
        for j in range(self.d):
            step = coords.copy()
            step[j] += 1
            out[j] = phi[self.site_index(step)] - phi[site]
        return out

    def div_at(self, F: np.ndarray, site: int) -> float:
        coords = self.site_coords(site)
        total = 0.0
        for j in range(self.d):
            back = coords.copy()
            back[j] -= 1
            total += F[j, self.site_index(back)] - F[j, site]
        return float(total)

    def laplacian_symbol(self) -> np.ndarray:
        """Eigenvalues of div grad on the Fourier grid, shape (L,)*d.

        Mode k has eigenvalue sum_j (2 - 2 cos(2 pi k_j / L)).
        """
        freqs = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(self.L))
        out = np.zeros(self.shape)
        for j in range(self.d):
            shape = [1] * self.d
            shape[j] = self.L
            out = out + freqs.reshape(shape)
        return out


# -- constant-coefficient heat kernel ------------------------------------


def heat_kernel_1d(x: np.ndarray, t: float) -> np.ndarray:
    """Transition weight e^{-2t} I_x(2t) of the 1-d lattice heat flow.

    ``scipy.special.ive`` evaluates the exponentially scaled Bessel
    function, which is exactly this product and is stable for large t.
    """
    if t < 0:
        raise ConfigError(f"time must be >= 0, got {t}")
    x = np.asarray(x)
    if t == 0.0:
        return (x == 0).astype(float)
    return special.ive(np.abs(x), 2.0 * t)


def heat_kernel(x, t: float) -> float | np.ndarray:
    """Exact heat kernel G(x, t) on Z^d solving dG/dt + div grad G = 0.

    Factorizes over coordinates: G(x, t) = prod_j e^{-2t} I_{x_j}(2t).
    ``x`` is an integer point (or an (..., d) array of points).
    """
    x = np.atleast_2d(np.asarray(x, dtype=int))
    vals = heat_kernel_1d(x, t)
    out = np.prod(vals, axis=-1)
    return out if out.size > 1 else float(out[0])

def heat_kernel_table(d: int, radius: int, t: float) -> np.ndarray:
    """G(x, t) tabulated on the box [-radius, radius]^d, shape (2r+1,)*d."""
    axis = np.arange(-radius, radius + 1)
    line = heat_kernel_1d(axis, t)
    out = line
    for _ in range(d - 1):
        out = np.multiply.outer(out, line)
    return out


def heat_kernel_solver(d: int, radius: int, t: float) -> np.ndarray:
    """Heat kernel by exact exponential propagation on a truncated box.

    Builds the lattice Laplacian on [-radius, radius]^d with zero state
    outside the box and applies the matrix exponential to a delta at the
    origin.  Independent of the Bessel closed form; the truncation radius
    must be large enough that the escaped mass is negligible (the caller
    can check ``out.sum()``).
    """
    if t < 0:
        raise ConfigError(f"time must be >= 0, got {t}")
    side = 2 * radius + 1
    n = side**d
    shape = (side,) * d
    rows, cols, vals = [], [], []
    idx = np.arange(n).reshape(shape)
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(np.full(n, 2.0 * d))
    for j in range(d):
        for step in (+1, -1):
            src = [slice(None)] * d
            dst = [slice(None)] * d
            if step == +1:
                src[j] = slice(0, side - 1)
                dst[j] = slice(1, side)
            else:
                src[j] = slice(1, side)
                dst[j] = slice(0, side - 1)
            rows.append(idx[tuple(src)].ravel())
            cols.append(idx[tuple(dst)].ravel())
            vals.append(np.full(idx[tuple(src)].size, -1.0))
    K = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    delta = np.zeros(n)
    delta[idx[(radius,) * d]] = 1.0
    if t == 0.0:
        return delta.reshape(shape)
    out = expm_multiply(-t * K, delta)
    return out.reshape(shape)


def hom_gaussian_kernel(x, t: float, a_hom: np.ndarray) -> float | np.ndarray:
    """Continuum Gaussian kernel of the constant-coefficient equation.

    (4 pi t)^{-d/2} det(a)^{-1/2} exp(-x . a^{-1} x / (4 t)); integrates
    to one over R^d and solves du/dt = div(a_hom grad u).
    """
    a_hom = np.asarray(a_hom, dtype=float)
    d = a_hom.shape[0]
    if t <= 0:
        raise ConfigError(f"time must be > 0, got {t}")
    det = np.linalg.det(a_hom)
    if det <= 0 or not np.allclose(a_hom, a_hom.T):
        raise np.linalg.LinAlgError("a_hom must be symmetric positive definite")
    a_inv = np.linalg.inv(a_hom)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    quad = np.einsum("...i,ij,...j->...", x, a_inv, x)
    out = (4.0 * np.pi * t) ** (-d / 2.0) / np.sqrt(det) * np.exp(-quad / (4.0 * t))
    return out if out.size > 1 else float(out[0])
