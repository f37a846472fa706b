"""Identities of the fluctuating field dynamics.

Three checks on the massive lattice field: the space-time correlation
identity (stationary covariance = massive Green's function), the pathwise
noise-sensitivity identity, and the variance inequality for terminal
functionals.
"""

import numpy as np

from parahom import (
    PeriodicCube,
    PotentialSpec,
    TerminalFunctional,
    correlation_identity_check,
    malliavin_fd_check,
    massive_lattice_greens,
    poincare_variance_check,
)

cube = PeriodicCube(1, 12)
m = 1.0

# -- correlation identity -----------------------------------------------------

V = PotentialSpec("quadratic", c=1.0)
out = correlation_identity_check(
    V, m, cube, [[x] for x in range(0, 4)], n_samples=4000, dt=0.025,
    seed=5, anchors=[0, 6],
)
print("correlation identity, quadratic potential (exact oracle available):")
print("  x    lhs        rhs        oracle     |diff|/sigma")
for k, x in enumerate(range(0, 4)):
    oracle = massive_lattice_greens(cube, m, [x])
    z = abs(out["difference"][k]) / out["sigma"][k]
    print(f"  {x}  {out['lhs'][k]:.6f}  {out['rhs'][k]:.6f}  "
          f"{oracle:.6f}  {z:.2f}")

Vd = PotentialSpec("dipole", c=1.0, a_dip=0.3)
out = correlation_identity_check(
    Vd, m, cube, [[x] for x in range(0, 4)], n_samples=4000, dt=0.05,
    seed=6, anchors=[0, 6],
)
print(f"dipole potential (no closed form): max |diff|/sigma = {out['z_max']:.2f}\n")

# -- noise-sensitivity identity ----------------------------------------------

cube8 = PeriodicCube(1, 8)
for dt, s, t in [(2e-3, 50, 100), (1e-3, 100, 200)]:
    chk = malliavin_fd_check(Vd, m, cube8, dt, y_site=1, s_index=s,
                             x_site=0, t_index=t, delta=1e-5, seed=7)
    print(f"noise sensitivity at dt={dt:.0e}: finite diff "
          f"{chk['fd_value']:.6e} vs formula {chk['formula_value']:.6e} "
          f"(rel err {chk['rel_error']:.1e})")

# -- variance inequality ------------------------------------------------------

tanh_sum = TerminalFunctional(
    value=lambda phi: np.tanh(phi).sum(axis=-1),
    grad=lambda phi: 1.0 / np.cosh(phi) ** 2,
    name="sum tanh",
)
out = poincare_variance_check(Vd, m, cube8, 0.05, 120, tanh_sum, 4000, seed=8)
print(f"\nvariance bound for {tanh_sum.name}: variance "
      f"{out['variance']:.4f} <= bound {out['derivative_bound']:.4f} "
      f"(ratio {out['ratio']:.3f}, passes={out['passes']})")
