"""Environment-averaged Green's function vs. the homogenized Gaussian.

Averaging the random-coefficient kernel over dipole environments and
comparing with the constant-coefficient Gaussian profile at the
extrapolated effective diffusivity: the difference decays faster than the
kernel itself, and a log-log fit quantifies the extra decay.
"""

import numpy as np

from parahom import PeriodicCube, PotentialSpec
from parahom.homogenize import avg_kernel_excess

d, L, dt, m = 1, 16, 0.1, 1.0
V = PotentialSpec("dipole", c=1.0, a_dip=0.3)

# effective coefficient from a small cell ensemble (seeds 70-73), then the
# environment-averaged kernel at the origin for a ladder of times, against
# the homogenized Gaussian folded over the torus images
etas = np.array([0.13, 0.013, 0.0013])
t_idx = np.array([20, 30, 45, 68, 100])
out = avg_kernel_excess(V, m, PeriodicCube(d, L), dt, etas, range(70, 74), t_idx, 200,
                        seed=71)
print(f"effective coefficient c_hom = {out['c_hom']:.5f}")
print("\n  t      E G(0,t)      Gaussian      |diff|      stderr")
for j, ti in enumerate(t_idx):
    print(f"  {ti * dt:5.1f}  {out['mean'][j]:.6e}  {out['gaussian'][j]:.6e}  "
          f"{out['diffs'][j]:.2e}  {out['stderr'][j]:.2e}")

rep = out["report"]
print(f"\nkernel minus Gaussian decays with excess exponent "
      f"{rep.alpha_hat:.2f} (lower confidence {rep.alpha_lower:.2f})")
print("positive excess: the Gaussian profile captures the leading behavior")
