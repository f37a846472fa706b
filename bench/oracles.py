"""Reference values computed with numpy alone, apart from parahom.

Conventions are those of the lattice the program documents: fields are
flat arrays in row-major site order (coordinate 0 slowest), the forward
difference is (grad u)_j(x) = u(x + e_j) - u(x), and the lattice
Laplacian div grad has the nonnegative symbol
mu_k = sum_j (2 - 2 cos(2 pi k_j / L)).
"""

from __future__ import annotations

import numpy as np


def laplacian_symbol(d: int, L: int) -> np.ndarray:
    """mu_k on the Fourier grid, shape (L,) * d."""
    freqs = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(L) / L)
    return sum(freqs.reshape([L if i == j else 1 for i in range(d)])
               for j in range(d))


def laminate_a_hom(profiles: np.ndarray) -> np.ndarray:
    """Homogenized matrix of a laminate a_j(x) = profiles[j, x_1].

    Across the layers (direction 1) the harmonic mean, along them the
    arithmetic mean; the matrix is diagonal.
    """
    profiles = np.asarray(profiles, dtype=float)
    diag = profiles.mean(axis=1)
    diag[0] = 1.0 / np.mean(1.0 / profiles[0])
    return np.diag(diag)


def free_kernel(d: int, L: int, c: float, dt: float, n: int) -> np.ndarray:
    """Forward kernel after n explicit steps with constant coefficient c,
    source at site 0: ifftn((1 - dt c mu_k)^n), flat."""
    mult = (1.0 - dt * c * laplacian_symbol(d, L)) ** n
    return np.fft.ifftn(mult).real.ravel()


def em_covariance(d: int, L: int, m: float, dt: float) -> np.ndarray:
    """Stationary covariance <phi(x) phi(0)> of the Euler-Maruyama chain
    phi <- (1 - dt A / 2) phi + sqrt(dt) xi with A = div grad + m^2:
    ifftn(1 / (A_k (1 - dt A_k / 4))), flat."""
    A = laplacian_symbol(d, L) + m * m
    return np.fft.ifftn(1.0 / (A * (1.0 - dt * A / 4.0))).real.ravel()


def _mode_geometric_mean(r: np.ndarray, dt: float, n_steps: int) -> float:
    """dt * sum_{j < n_steps} mean_k r_k^(2 j)."""
    r2 = r.ravel() ** 2
    return float(dt * np.mean((1.0 - r2**n_steps) / (1.0 - r2)))


def poincare_bound(d: int, L: int, m: float, dt: float, n_steps: int) -> float:
    """Derivative bound <||D phi(0, T)||^2> of the quadratic potential:
    dt sum_j mean_k (rho (1 - dt mu_k / 2))^(2 j), rho = exp(-m^2 dt / 2)."""
    rho = np.exp(-m * m * dt / 2.0)
    return _mode_geometric_mean(
        rho * (1.0 - dt * laplacian_symbol(d, L) / 2.0), dt, n_steps)


def em_variance(d: int, L: int, m: float, dt: float, n_steps: int) -> float:
    """Var phi(0) after n_steps Euler-Maruyama steps from phi = 0:
    dt sum_j mean_k (1 - dt A_k / 2)^(2 j)."""
    A = laplacian_symbol(d, L) + m * m
    return _mode_geometric_mean(1.0 - dt * A / 2.0, dt, n_steps)


def corrector_energy(phi: np.ndarray, L: int, eta: float, lam: float) -> float:
    """eta <|Phi v|^2> + lam <|grad (Phi v)|^2> at xi = 0, v = (1, ..., 1) / sqrt(d),
    with |grad|^2 summed over the d directions.  Testing the cell problem
    with Phi v bounds it by Lam^2 / lam."""
    nt, d, n = phi.shape
    phiv = (phi.sum(axis=1) / np.sqrt(d)).reshape((nt,) + (L,) * d)
    grad2 = sum(np.abs(np.roll(phiv, -1, axis=1 + j) - phiv) ** 2 for j in range(d))
    return float(eta * np.mean(np.abs(phiv) ** 2) + lam * np.mean(grad2))


def _shift_matrix(d: int, L: int, j: int) -> np.ndarray:
    """(S u)(x) = u(x + e_j) as a dense matrix."""
    idx = np.arange(L**d).reshape((L,) * d)
    plus = np.roll(idx, -1, axis=j).ravel()
    S = np.zeros((L**d, L**d))
    S[np.arange(L**d), plus] = 1.0
    return S


def dense_corrector(a: np.ndarray, L: int, dt: float, xi, eta: float):
    """Dense solve of the space-time corrector equation

        (eta + D_t) Phi_k + sum_j D_j^H a_j D_j Phi_k = -P D_k^H a_k,

    D_j = e^{-i xi_j} S_j - I the twisted difference, D_t the periodic
    backward time difference and P the space-time mean-zero projection.
    ``a`` has shape (nt, d, n).  Returns Phi with shape (nt, d, n) and
    q_jk = delta_jk <a_j> + <a_j (D_j Phi_k)>.
    """
    nt, d, n = a.shape
    xi = np.asarray(xi, dtype=float)
    D = [np.exp(-1j * xi[j]) * _shift_matrix(d, L, j) - np.eye(n)
         for j in range(d)]
    size = nt * n
    op = eta * np.eye(size, dtype=complex)
    for i in range(nt):
        block = slice(i * n, (i + 1) * n)
        op[block, block] += sum(D[j].conj().T @ (a[i, j][:, None] * D[j])
                                for j in range(d))
        if nt > 1:
            op[block, block] += np.eye(n) / dt
            prev = slice(((i - 1) % nt) * n, ((i - 1) % nt) * n + n)
            op[block, prev] -= np.eye(n) / dt
    rhs = np.stack([
        np.concatenate([-(D[k].conj().T @ a[i, k]) for i in range(nt)])
        for k in range(d)
    ], axis=1)
    rhs -= rhs.mean(axis=0)
    phi = np.linalg.solve(op, rhs).T.reshape(d, nt, n).transpose(1, 0, 2)
    q = np.diag(a.mean(axis=(0, 2))).astype(complex)
    for j in range(d):
        grad_j = np.einsum("mn,ikn->ikm", D[j], phi)  # (nt, d_k, n)
        q[j] += (a[:, j, None, :] * grad_j).mean(axis=(0, 2))
    return phi, q
