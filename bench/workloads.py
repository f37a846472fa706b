"""The three workloads: inputs made from a seed, a timed body of calls
into parahom, and checks of the outputs against ``oracles`` or against
properties the method must have.

Each workload is a scaled-down acceptance-criterion pipeline, chosen so
that one layer dominates it (see README.md):

* ``ahom-d3``: corrector solves of criterion 13(a) (``homogenize``);
* ``avg-kernel-d3``: the environment-averaged kernel of criterion 13(a)
  (``environments`` sampling, ``parabolic`` forward sweeps);
* ``small-lattice``: criteria 9 and 11 and small xi != 0 cells, where
  per-call overhead dominates (``field_theory``, ``homogenize``).
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from parahom.environments import (
    CoefficientMap,
    PotentialSpec,
    coefficient_field,
    langevin_simulate,
)
from parahom.field_theory import (
    TerminalFunctional,
    correlation_identity_check,
    poincare_variance_check,
)
from parahom.homogenize import (
    a_hom_extract,
    avg_greens_mc,
    corrector_solve,
    q_matrix,
    q_matrix_single,
)
from parahom.lattice import EllipticityPair, PeriodicCube
from parahom.parabolic import CoefficientField

# Monte Carlo checks allow Z_MAX standard errors, not criterion 9's 3: a
# benchmark evaluation makes some 10^4 such comparisons, and its failed
# count must not depend on the seed.  At 3 sigma about one comparison in
# 370 would fail by chance; at 6 sigma, for a normal variable, two in 10^9.
Z_MAX = 6.0
# Every Langevin environment starts after 10 / (m^2 dt) = 100 burn-in
# steps (the program's default, passed explicitly so that the site-step
# count is known from the inputs).
BURN_IN = 100


class Tally:
    """Operations attempted and failed in one run.

    An operation fails when it raises (a SolverError or any other
    exception) or when its check reads beyond its limit; ``wrong`` counts
    only the latter, so it says whether the outputs that were produced
    are correct.
    """

    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.worst: dict[str, list[float]] = {}  # label -> [value, limit]
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def _note(self, text):
        if len(self.notes) < 20:
            self.notes.append(text)

    def call(self, label, fn, *args, weight=1, **kwargs):
        """Run one operation (``weight`` Monte Carlo samples count as that
        many); on an exception count it failed and return None."""
        self.attempted += weight
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # counted as failed; the run goes on
            self.errors += weight
            self._note(f"{label}: {exc!r}")
            return None

    def check(self, label, value_fn, limit):
        """One comparison: passes when ``value_fn()`` is at most ``limit``."""
        self.attempted += 1
        try:
            value = float(value_fn())
        except Exception as exc:  # e.g. the output it checks was not produced
            self.errors += 1
            self._note(f"{label}: {exc!r}")
            return
        seen = self.worst.setdefault(label, [value, limit])
        seen[0] = max(seen[0], value)
        if not value <= limit:
            self.wrong += 1
            self._note(f"{label}: {value:.3e} exceeds {limit:.3e}")


def _seed(rng) -> int:
    return int(rng.integers(2**63))


def _langevin_coefficients(tr, V, m, cube, dt, n_steps, seed):
    """One Langevin environment and its coefficients a = V''(grad phi)."""
    site_steps = cube.n_sites * (BURN_IN + n_steps)
    with tr.span("environments.langevin_simulate", site_steps=site_steps):
        traj = langevin_simulate(V, m, cube, dt, n_steps, burn_in=BURN_IN, seed=seed)
    with tr.span("environments.coefficient_field"):
        return coefficient_field(traj, CoefficientMap("matrix-of-gradient", potential=V))


def _cell_q(tr, a, xi, eta, reduce):
    """Corrector solve and q on one cell; returns (corrector, q)."""
    with tr.span("homogenize.corrector_solve", unknowns=a.n_times * a.cube.n_sites):
        corr = corrector_solve(a, xi, eta)
    with tr.span("homogenize.reduce"):
        return corr, reduce(corr, a)


def _q_of_pair(corr, a):
    return q_matrix([(corr, a)]).value


class AhomD3:
    """Criterion 13(a)'s cell problem: the eta-ladder on d=3 cells.

    One laminate cell (a_j depends on x_1 only, constant in time) and
    ``n_cells`` dipole Langevin cells, all with n_steps + 1 time levels.
    """

    name = "ahom-d3"
    etas = (0.13, 0.013, 0.0013)
    dt, a_dip, m = 0.1, 0.3, 1.0
    n_cells = 1

    def __init__(self, L=8, n_steps=16):
        self.cube = PeriodicCube(3, L)
        self.n_steps = n_steps
        self.V = PotentialSpec("dipole", c=1.0, a_dip=self.a_dip)

    @classmethod
    def tiny(cls):
        return cls(L=2, n_steps=2)

    def inputs(self, rng):
        cube = self.cube
        profiles = rng.uniform(0.5, 1.5, size=(2, cube.L))[[0, 1, 1]]  # a_3 = a_2
        x1 = np.unravel_index(np.arange(cube.n_sites), cube.shape)[0]
        vals = np.broadcast_to(profiles[:, x1], (self.n_steps + 1, 3, cube.n_sites))
        laminate = CoefficientField(
            cube, self.dt, vals.copy(),
            EllipticityPair(float(profiles.min()), float(profiles.max())))
        return {"profiles": profiles, "laminate": laminate,
                "seeds": [_seed(rng) for _ in range(self.n_cells)]}

    def _ladder(self, a, reduce, tr, tally, label):
        """(corrector, q) at each eta, then the extrapolated a_hom."""
        xi = [0.0, 0.0, 0.0]
        cells = [tally.call(f"{label} solve eta={eta}", _cell_q, tr, a, xi, eta, reduce)
                 for eta in self.etas]
        with tr.span("homogenize.reduce"):
            ext = tally.call(f"{label} a_hom_extract", lambda: a_hom_extract(
                np.array(self.etas), [q for _, q in cells]))
        return {"cells": cells, "a_hom": ext}

    def body(self, inp, tr, tally):
        out = {"laminate": self._ladder(inp["laminate"], q_matrix_single, tr, tally,
                                        "laminate")}
        out["langevin"] = []
        for seed in inp["seeds"]:
            a = tally.call("langevin cell", _langevin_coefficients, tr, self.V, self.m,
                           self.cube, self.dt, self.n_steps, seed)
            out["langevin"].append((a, self._ladder(a, _q_of_pair, tr, tally, "langevin")))
        return out

    def check(self, inp, out, tally):
        profiles = inp["profiles"]
        laminate = out["laminate"]
        tally.check("laminate |a_hom - closed form|", lambda: np.abs(
            laminate["a_hom"]["a_hom"] - oracles.laminate_a_hom(profiles)).max(), 1e-5)
        a2 = profiles[1].mean()
        for cell in laminate["cells"]:
            tally.check("laminate |q_kk - <a_2>|, k = 2, 3",
                        lambda: np.abs(np.diag(cell[1])[1:] - a2).max(), 1e-10)
        for a, ladder in out["langevin"]:
            for eta, cell in zip(self.etas, ladder["cells"]):
                tally.check("langevin max |Im q| at xi = 0",
                            lambda: np.abs(cell[1].imag).max(), 1e-12)
                tally.check("langevin lam <= Re q_kk <= <a_k> (excess)", lambda: max(
                    (a.window.lam - np.diag(cell[1]).real).max(),
                    (np.diag(cell[1]).real - a.values.mean(axis=(0, 2))).max()), 1e-10)
                rhs = a.window.Lam**2 / a.window.lam
                tally.check("langevin energy / bound", lambda: oracles.corrector_energy(
                    cell[0].values, self.cube.L, eta, a.window.lam) / rhs, 1.0 + 1e-10)


class AvgKernelD3:
    """Criterion 13(a)'s averaged kernel: avg_greens_mc over dipole
    Langevin environments on d=3, plus a two-sample quadratic control
    whose coefficients are constant, so its kernel is known exactly."""

    name = "avg-kernel-d3"
    dt, a_dip, m = 0.1, 0.3, 1.0

    def __init__(self, L=16, t_indices=(20, 30, 45, 68, 100), n_dipole=8,
                 n_quadratic=2):
        self.cube = PeriodicCube(3, L)
        self.t_indices = np.array(t_indices)
        self.n_dipole = n_dipole
        self.n_quadratic = n_quadratic
        self.potentials = {"dipole": PotentialSpec("dipole", c=1.0, a_dip=self.a_dip),
                           "quadratic": PotentialSpec("quadratic", c=1.0)}

    @classmethod
    def tiny(cls):
        return cls(L=4, t_indices=(1, 2), n_dipole=2)

    def inputs(self, rng):
        return {"source": int(rng.integers(self.cube.n_sites)),
                "seeds": {"dipole": _seed(rng), "quadratic": _seed(rng)}}

    def body(self, inp, tr, tally):
        cube, n_steps = self.cube, int(self.t_indices.max())
        out = {}
        for kind, n in (("dipole", self.n_dipole), ("quadratic", self.n_quadratic)):
            V = self.potentials[kind]

            def sampler(seed_seq, V=V):
                return _langevin_coefficients(tr, V, self.m, cube, self.dt, n_steps,
                                              seed_seq)

            with tr.span("homogenize.avg_greens_mc", site_steps=n * cube.n_sites * n_steps):
                out[kind] = tally.call(
                    f"avg_greens_mc {kind}", avg_greens_mc, sampler, cube, inp["source"],
                    self.t_indices, n, seed=inp["seeds"][kind], weight=n)
        return out

    def check(self, inp, out, tally):
        cube = self.cube
        coords = np.unravel_index(inp["source"], cube.shape)

        def control_error():
            err = 0.0
            for j, t in enumerate(self.t_indices):
                kernel = oracles.free_kernel(3, cube.L, 1.0, self.dt, int(t))
                kernel = np.roll(kernel.reshape(cube.shape), coords, axis=(0, 1, 2))
                err = max(err, np.abs(out["quadratic"]["mean"][j] - kernel.ravel()).max())
            return err

        tally.check("quadratic control |mean - FFT kernel|", control_error, 1e-12)
        tally.check("dipole |mass - 1|",
                    lambda: np.abs(out["dipole"]["mean"].sum(axis=1) - 1.0).max(), 1e-12)
        tally.check("dipole -min(kernel)", lambda: -out["dipole"]["mean"].min(), 0.0)


def _phi0_gradient(phi):
    g = np.zeros_like(phi)
    g[..., 0] = 1.0
    return g


PHI0 = TerminalFunctional(value=lambda phi: phi[..., 0], grad=_phi0_gradient,
                          name="phi(0)")


class SmallLattice:
    """Per-call overhead on lattices of at most a few hundred sites:
    criterion 9's correlation identity (quadratic on L=16, dipole on
    L=12), criterion 11's variance bound for phi(0) (L=8), and a batch of
    d=2, L=8 cells solved at a random xi != 0."""

    name = "small-lattice"
    m = 1.0
    eta = 0.01
    cell_dt, cell_a_dip = 0.1, 0.3

    def __init__(self, n_paths=200, n_cells=8, cell_L=8, cell_steps=8,
                 poincare_steps=120):
        self.n_paths = n_paths
        self.n_cells = n_cells
        self.cell_cube = PeriodicCube(2, cell_L)
        self.cell_steps = cell_steps
        self.poincare_steps = poincare_steps
        self.Vq = PotentialSpec("quadratic", c=1.0)
        self.Vd = PotentialSpec("dipole", c=1.0, a_dip=0.2)
        self.Vcell = PotentialSpec("dipole", c=1.0, a_dip=self.cell_a_dip)
        # (potential, L, x offsets, dt, anchors) as in criterion 9
        self.correlations = {
            "quadratic": (self.Vq, 16, [0, 2], 0.02, [0, 8]),
            "dipole": (self.Vd, 12, list(range(-4, 5)), 0.025, [0, 4, 8]),
        }

    @classmethod
    def tiny(cls):
        return cls(n_paths=2, n_cells=1, cell_L=2, cell_steps=1, poincare_steps=2)

    def inputs(self, rng):
        return {"corr_seeds": {k: _seed(rng) for k in self.correlations},
                "poincare_seed": _seed(rng),
                "xis": rng.uniform(-np.pi, np.pi, size=(self.n_cells, 2)),
                "cell_seeds": [_seed(rng) for _ in range(self.n_cells)]}

    def body(self, inp, tr, tally):
        out = {}
        for kind, (V, L, xs, dt, anchors) in self.correlations.items():
            with tr.span("field_theory.correlation_identity_check", paths=self.n_paths):
                out[kind] = tally.call(
                    f"correlation {kind}", correlation_identity_check, V, self.m,
                    PeriodicCube(1, L), [[x] for x in xs], n_samples=self.n_paths,
                    dt=dt, seed=inp["corr_seeds"][kind], anchors=anchors, batch=200)
        with tr.span("field_theory.poincare_variance_check", paths=self.n_paths):
            out["poincare"] = tally.call(
                "poincare phi(0)", poincare_variance_check, self.Vq, self.m,
                PeriodicCube(1, 8), 0.05, self.poincare_steps, PHI0, self.n_paths,
                seed=inp["poincare_seed"], batch=200)
        out["cells"] = []
        for xi, seed in zip(inp["xis"], inp["cell_seeds"]):
            a = tally.call("small cell", _langevin_coefficients, tr, self.Vcell, self.m,
                           self.cell_cube, self.cell_dt, self.cell_steps, seed)
            out["cells"].append((a, tally.call("small cell solve", _cell_q, tr, a, xi,
                                               self.eta, q_matrix_single)))
        return out

    def check(self, inp, out, tally):
        _, L, xs, dt, _ = self.correlations["quadratic"]
        em = oracles.em_covariance(1, L, self.m, dt)
        quad = out["quadratic"]
        for p, x in enumerate(xs):
            tally.check("quadratic |rhs - EM covariance|",
                        lambda: abs(quad["rhs"][p] - em[x]), 1e-6)
            tally.check("quadratic |lhs - EM covariance| / sigma",
                        lambda: abs(quad["lhs"][p] - em[x]) / quad["sigma"][p], Z_MAX)
        dip = out["dipole"]
        tally.check("dipole max |lhs - rhs| / sigma",
                    lambda: np.max(np.abs(dip["difference"]) / dip["sigma"]), Z_MAX)
        args = (1, 8, self.m, 0.05, self.poincare_steps)
        poinc = out["poincare"]
        tally.check("poincare |bound - Fourier sum|",
                    lambda: abs(poinc["derivative_bound"] - oracles.poincare_bound(*args)),
                    1e-12)
        var = oracles.em_variance(*args)
        sigma_var = var * math.sqrt(2.0 / (self.n_paths - 1))  # phi(0) is Gaussian
        tally.check("poincare |variance - EM variance| / sigma",
                    lambda: abs(poinc["variance"] - var) / sigma_var, Z_MAX)
        for xi, (a, cell) in zip(inp["xis"], out["cells"]):
            tally.check("small cell |q - dense solve|", lambda: np.abs(
                cell[1] - oracles.dense_corrector(a.values, self.cell_cube.L, self.cell_dt,
                                                  xi, self.eta)[1]).max(), 1e-10)


WORKLOADS = {w.name: w for w in (AhomD3, AvgKernelD3, SmallLattice)}
