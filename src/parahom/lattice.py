"""Lattice geometry and discrete vector calculus on the periodic cube.

Fields are stored as flat float arrays of length ``L**d`` in row-major
site order (coordinate 0 slowest).  All operators broadcast over leading
batch axes, so a ``(B, n_sites)`` stack of fields is processed in one call.

Sign conventions: the gradient is the forward difference
``(grad phi)_j(x) = phi(x + e_j) - phi(x)``, the divergence is its exact
adjoint under the periodic inner product, and ``div(grad phi)`` is the
nonnegative five-point (2d+1-point) Laplacian
``sum_j [2 phi(x) - phi(x+e_j) - phi(x-e_j)]``.

Called with ``xi``, the same two operators are the xi-twisted difference
``e^{-i xi_j} phi(x + e_j) - phi(x)`` of the corrector problem and its
adjoint.  ``_phases`` is the one switch: its factors are the real 1.0 at
xi = 0, which keeps real fields real, and each output takes the result
type of its input and the phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _phases(xi) -> np.ndarray:
    """The phase factors e^{-i xi_j} of the twisted differences: the real
    1.0 at xi = 0, which keeps real fields real."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return np.exp(-1j * xi) if xi.any() else np.ones_like(xi)


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

    def _grid(self, field: np.ndarray, j: int) -> np.ndarray:
        """View of ``field`` as (..., L**j, L, L**(d-1-j)): axis -2 is the
        coordinate j.  Splitting the site axis never copies, so writes to
        the view land in ``field``."""
        L = self.L
        return field.reshape(field.shape[:-1] + (L**j, L, L ** (self.d - 1 - j)))

    def _out(self, out, shape, field: np.ndarray, ph) -> np.ndarray:
        """``out``, or when it is None a new array of ``shape`` in the
        result type of ``field`` and the phases ``ph`` (``field``'s own type
        without phases); ConfigError when ``out`` may overlap ``field``."""
        if out is None:
            return np.empty(shape, field.dtype if ph is None
                            else np.result_type(field, ph))
        if np.may_share_memory(out, field):
            raise ConfigError("out must not overlap the input")
        return out

    def _shift_into(self, field: np.ndarray, out: np.ndarray, j: int, step: int):
        """out <- field at x + step*e_j, by two slice copies along axis j."""
        src, dst = self._grid(field, j), self._grid(out, j)
        s = step % self.L
        dst[..., : self.L - s, :] = src[..., s:, :]
        dst[..., self.L - s :, :] = src[..., :s, :]

    def grad(self, phi: np.ndarray, out=None, xi=None) -> np.ndarray:
        """Forward-difference gradient, shape (..., d, n_sites); into
        ``out`` when given (an array of that shape that does not overlap
        ``phi``).  With ``xi``, the twisted difference
        e^{-i xi_j} phi(x + e_j) - phi(x)."""
        phi = np.asarray(phi)
        ph = None if xi is None else _phases(xi)
        out = self._out(out, phi.shape[:-1] + (self.d, self.n_sites), phi, ph)
        for j in range(self.d):
            out_j = out[..., j, :]
            self._shift_into(phi, out_j, j, +1)
            if ph is not None and ph[j] != 1.0:
                out_j *= ph[j]
            out_j -= phi
        return out

    def div(self, F: np.ndarray, out=None, xi=None) -> np.ndarray:
        """Adjoint of grad: (div F)(x) = sum_j [F_j(x - e_j) - F_j(x)],
        summed from zero in the order j = 0..d-1; into ``out`` when given,
        as for ``grad``.  With ``xi``, the adjoint of the twisted
        difference, sum_j [e^{i xi_j} F_j(x - e_j) - F_j(x)]."""
        F = np.asarray(F)
        ph = None if xi is None else np.conj(_phases(xi))
        out = self._out(out, F.shape[:-2] + (self.n_sites,), F, ph)
        out[...] = 0
        term = np.empty_like(out)
        for j in range(self.d):
            F_j = F[..., j, :]
            self._shift_into(F_j, term, j, -1)
            if ph is not None and ph[j] != 1.0:
                term *= ph[j]
            term -= F_j
            out += term
        return out

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
    from scipy import special

    if not 0 <= t < np.inf:
        raise ConfigError(f"time must be finite and >= 0, got {t}")
    x = np.asarray(x)
    if t == 0.0:
        return (x == 0).astype(float)
    return special.ive(np.abs(x), 2.0 * t)


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
    outside the box, as the Kronecker sum of d copies of the 1-d
    tridiagonal (-1, 2, -1), and applies the matrix exponential to a delta
    at the origin.  Independent of the Bessel closed form; the truncation
    radius must be large enough that the escaped mass is negligible (the
    caller can check ``out.sum()``).
    """
    from scipy.sparse import diags, kronsum
    from scipy.sparse.linalg import expm_multiply

    if not 0 <= t < np.inf:
        raise ConfigError(f"time must be finite and >= 0, got {t}")
    side = 2 * radius + 1
    shape = (side,) * d
    delta = np.zeros(side**d)
    delta[side**d // 2] = 1.0  # the origin, the middle of the box
    if t == 0.0:
        return delta.reshape(shape)
    line = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
    K = line
    for _ in range(d - 1):
        K = kronsum(K, line)
    return expm_multiply(-t * K, delta).reshape(shape)


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
