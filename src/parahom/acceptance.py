"""Acceptance checks: one function per verdict, shared by the test suite
and the command-line ``verify`` runner.

Each ``criterion_N`` returns a dict with keys ``id``, ``title``, ``passed``,
``detail`` and ``seconds``.  The checks are deterministic: every random
draw is seeded.

The experiment kinds of ``parahom.cli`` run the same pipelines through the
same functions; the kind table in README.md maps each kind to its criteria.
"""

import functools
import itertools
import time

import numpy as np

from .convex_diffusion import finite_dimensional_suite
from .environments import PotentialSpec, _map_on_cores, sample_environment
from .field_theory import (
    TERMINAL_FUNCTIONALS,
    correlation_identity_check,
    first_difference_excess,
    malliavin_fd_check,
    massive_lattice_greens,
    poincare_variance_check,
)
from .homogenize import (
    a_hom_ladder,
    avg_kernel_excess,
    corrector_solve,
    greens_hat_formula,
    greens_hat_quadrature,
    neumann_series_q,
    q_matrix_single,
    sample_norm,
    t_operator_apply,
)
from .lattice import EllipticityPair, PeriodicCube, heat_kernel_solver, heat_kernel_table
from .parabolic import (
    CoefficientField,
    aronson_fit,
    constant_coefficients,
    damped_perturbation_terms,
    damped_resolvent,
    greens_backward,
    greens_backward_matrix,
    greens_perturbation_terms,
    spacetime_norm,
)

FAST_CRITERIA = (1, 2, 4, 5, 6, 7, 8, 10)
ALL_CRITERIA = tuple(range(1, 14))


def _result(cid, title, passed, detail, t0):
    return {
        "id": cid,
        "title": title,
        "passed": bool(passed),
        "detail": detail,
        "seconds": round(time.time() - t0, 2),
    }


def criterion_1():
    """Heat-kernel solver vs. Bessel-product closed form."""
    t0 = time.time()
    sup_err = 0.0
    mass_dev = 0.0
    for d, radius in [(1, 60), (2, 30)]:
        for t in (0.3, 2.0, 10.0):
            oracle = heat_kernel_table(d, radius, t)
            solved = heat_kernel_solver(d, radius, t)
            sup_err = max(sup_err, float(np.abs(solved - oracle).max()))
    # the mass sum needs a larger truncation radius in d=2: the Bessel tail
    # beyond radius 30 at t=10 is itself of order 1e-10
    for d, radius in [(1, 60), (2, 40)]:
        for t in (0.3, 2.0, 10.0):
            mass_dev = max(
                mass_dev, abs(float(heat_kernel_table(d, radius, t).sum()) - 1.0)
            )
    passed = sup_err < 1e-10 and mass_dev < 1e-10
    detail = f"sup|solver-oracle|={sup_err:.2e} (tol 1e-10), |mass-1|={mass_dev:.2e}"
    return _result(1, "heat-kernel Bessel oracle", passed, detail, t0)


def criterion_2():
    """Green's-matrix row and source sums equal one on dipole environments."""
    t0 = time.time()
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    worst = 0.0
    for k in range(20):
        a = sample_environment(V, 1.0, PeriodicCube(2, 16), 0.1, 10, 200 + k)
        mats = greens_backward_matrix(a, t_index=10)
        worst = max(worst, float(np.abs(mats.sum(axis=1) - 1.0).max()))
        worst = max(worst, float(np.abs(mats.sum(axis=2) - 1.0).max()))
    passed = worst < 1e-8
    detail = f"max sum-rule deviation {worst:.2e} over 20 environments (tol 1e-8)"
    return _result(2, "Green's function sum rules", passed, detail, t0)


def criterion_3():
    """Gaussian-envelope constant stabilizes under sample doubling."""
    t0 = time.time()
    rng = np.random.default_rng(3)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    tables = []
    for k in range(100):
        a = sample_environment(V, 1.0, PeriodicCube(2, 12), 0.1, 40, 300 + k)
        tables.append(greens_backward(a, int(rng.integers(a.cube.n_sites)), 40))
    fit = aronson_fit(tables)
    detail = (
        f"C(50)={fit['C_half']:.4f}, C(100)={fit['C_hat']:.4f}, "
        f"growth={fit['growth']:+.2%} (tol +10%)"
    )
    return _result(3, "Gaussian envelope stability", fit["passes"], detail, t0)


def criterion_4():
    """Damped-resolvent norm bound on random (environment, forcing) pairs."""
    t0 = time.time()
    rng = np.random.default_rng(4)
    violations = 0
    worst_ratio = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 3))
        cube = PeriodicCube(d, 8)
        nt = int(rng.integers(3, 9))
        lam = float(rng.uniform(0.3, 1.0))
        Lam = float(rng.uniform(1.0, 2.0))
        dt = 0.9 * 2.0 / (4 * d * Lam)
        vals = rng.uniform(lam, Lam, size=(nt, d, cube.n_sites))
        a = CoefficientField(cube, dt, vals, EllipticityPair(lam, Lam))
        m = 10.0 ** rng.uniform(-1.0, 0.5)
        g = rng.standard_normal((nt + 1, cube.n_sites))
        v = damped_resolvent(a, m, g)
        ratio = spacetime_norm(v, dt) / (2.0 / m**2 * spacetime_norm(g, dt))
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0 + 1e-12:
            violations += 1
    passed = violations == 0
    detail = f"0 violations required; got {violations}, worst ratio {worst_ratio:.3f}"
    return _result(4, "damped resolvent bound", passed, detail, t0)


def criterion_5():
    """Perturbation-series term ratios and geometric partial-sum residuals."""
    t0 = time.time()
    rng = np.random.default_rng(5)
    window = EllipticityPair(0.5, 1.5)
    worst_term_ratio = 0.0
    worst_resid_ratio = 0.0
    for seed in range(4):
        cube = PeriodicCube(1, 8)
        vals = rng.uniform(window.lam, window.Lam, size=(20, 1, cube.n_sites))
        a = CoefficientField(cube, 0.1, vals, window)
        g = rng.standard_normal((21, cube.n_sites))
        dterms = damped_perturbation_terms(a, 1.0, g, 7)
        norms = [spacetime_norm(term, a.dt) for term in dterms]
        for n in range(min(6, len(norms) - 1)):
            worst_term_ratio = max(worst_term_ratio, norms[n + 1] / norms[n])
        table = greens_backward(a, 0, 20)
        terms = greens_perturbation_terms(a, 0, t_index=20, n_max=8)
        resids = [
            spacetime_norm(ps - table.values, a.dt) for ps in itertools.accumulate(terms)
        ]
        for n in range(len(resids) - 1):
            worst_resid_ratio = max(worst_resid_ratio, resids[n + 1] / resids[n])
    bound = window.contrast + 0.05
    passed = worst_term_ratio <= bound and worst_resid_ratio <= bound
    detail = (
        f"term ratio {worst_term_ratio:.3f}, residual ratio "
        f"{worst_resid_ratio:.3f} (bound {bound:.3f})"
    )
    return _result(5, "perturbation series decay", passed, detail, t0)


# criteria 6 and 7's 1D two-phase medium a in {1, 4}: a_hom = 1.6, the harmonic mean
_TWO_PHASE = CoefficientField(PeriodicCube(1, 32), 0.1,
                              np.tile([1.0, 4.0], 16)[None, None], EllipticityPair(1.0, 4.0))


def criterion_6():
    """Cell-problem oracle: harmonic mean for a 1D two-phase medium."""
    t0 = time.time()
    out = a_hom_ladder([_TWO_PHASE], [1e-1, 1e-2, 1e-3])
    err = abs(out["a_hom"][0, 0] - 1.6)
    cube2 = PeriodicCube(2, 6)
    ac = constant_coefficients(cube2, 0.05, 1.7, n_times=4)
    qc = q_matrix_single(corrector_solve(ac, [0.0, 0.0], eta=0.01), ac)
    const_err = float(np.abs(qc - 1.7 * np.eye(2)).max())
    passed = err <= 0.016 and const_err < 1e-12
    detail = (
        f"two-phase a_hom={out['a_hom'][0, 0]:.5f} vs 1.6 (err {err:.1e}, "
        f"tol 1.6e-2); constant-a error {const_err:.1e} (tol 1e-12)"
    )
    return _result(6, "cell-problem oracle", passed, detail, t0)


def criterion_7():
    """Series and corrector q agree; averaging operator is a contraction."""
    t0 = time.time()
    a = _TWO_PHASE
    eta = 0.01
    q_corr = q_matrix_single(corrector_solve(a, [0.0], eta=eta), a)
    q_series, _ = neumann_series_q(a, [0.0], eta, m_max=80)
    diff_two_phase = abs(q_series[0, 0] - q_corr[0, 0])
    rng = np.random.default_rng(7)
    cube_t = PeriodicCube(1, 8)
    vals_t = rng.uniform(1.0, 2.0, size=(6, 1, cube_t.n_sites))
    at = CoefficientField(cube_t, 0.05, vals_t, EllipticityPair(1.0, 2.0))
    q_corr_t = q_matrix_single(corrector_solve(at, [0.0], eta=0.05), at)
    q_series_t, _ = neumann_series_q(at, [0.0], 0.05, m_max=60)
    diff_time = abs(q_series_t[0, 0] - q_corr_t[0, 0])
    cube_c = PeriodicCube(2, 6)
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal((3, 2, cube_c.n_sites))
        xi = rng.uniform(-np.pi, np.pi, size=2)
        eta_c = 10.0 ** rng.uniform(-3, 0)
        out = t_operator_apply(cube_c, g, xi, eta_c, 0.1, 2.0)
        worst = max(worst, sample_norm(out) / sample_norm(g))
    passed = diff_two_phase < 1e-5 and diff_time < 1e-6 and worst <= 1.0 + 1e-6
    detail = (
        f"|q_series-q_corrector|: two-phase {diff_two_phase:.1e} (tol 1e-5), "
        f"time-dependent {diff_time:.1e} (tol 1e-6); worst contraction "
        f"ratio {worst:.6f}"
    )
    return _result(7, "method equivalence and contraction", passed, detail, t0)


def criterion_8():
    """Fourier-Laplace closed form vs. direct time quadrature."""
    t0 = time.time()
    worst = 0.0
    for d, a_diag in [(1, [1.0]), (1, [0.7]), (2, [1.3, 0.8]), (2, [1.0, 1.0])]:
        for xi in ([0.5] * d, [1.2] * d, [2.0] * d):
            for eta in (0.3, 1.0):
                lhs = greens_hat_quadrature(a_diag, xi, eta)
                rhs = greens_hat_formula(np.diag(a_diag), xi, eta)
                worst = max(worst, abs(lhs - rhs))
    passed = worst < 1e-8
    detail = f"max |quadrature - formula| = {worst:.2e} over grid (tol 1e-8)"
    return _result(8, "Fourier-Laplace consistency", passed, detail, t0)


def criterion_9():
    """Space-time correlation identity: quadratic oracle and dipole check."""
    t0 = time.time()
    exact = abs(massive_lattice_greens(PeriodicCube(1, 64), 1.0, [0]) - 5**-0.5)
    cube = PeriodicCube(1, 16)
    Vq = PotentialSpec("quadratic", c=1.0)
    Vd = PotentialSpec("dipole", c=1.0, a_dip=0.2)
    cube_d = PeriodicCube(1, 12)
    # one check after the other, each splitting its paths over the cores
    out_q = correlation_identity_check(Vq, 1.0, cube, [[0], [2]], n_samples=10000,
                                       dt=0.02, seed=9, anchors=[0, 8], batch=200)
    out_d = correlation_identity_check(Vd, 1.0, cube_d, [[x] for x in range(-4, 5)],
                                       n_samples=10000, dt=0.025, seed=19,
                                       anchors=[0, 4, 8], batch=200)
    worst_q = 0.0
    for p, x in enumerate([[0], [2]]):
        oracle = massive_lattice_greens(cube, 1.0, x)
        c00 = massive_lattice_greens(cube, 1.0, [0])
        # 4th-moment bound on a single side's Monte Carlo error
        sigma_side = np.sqrt((c00 * c00 + oracle * oracle) / out_q["n_samples"])
        for side in ("lhs", "rhs"):
            worst_q = max(worst_q, abs(out_q[side][p] - oracle) / (3 * sigma_side))
    z_max = out_d["z_max"]
    passed = exact < 1e-4 and worst_q <= 1.0 and z_max <= 3.0
    detail = (
        f"deterministic oracle err {exact:.1e} (tol 1e-4); quadratic sides "
        f"within {worst_q:.2f}x of 3 sigma; dipole max|z|={z_max:.2f} (tol 3)"
    )
    return _result(9, "correlation identity", passed, detail, t0)


def criterion_10():
    """Pathwise noise-sensitivity identity via finite differences."""
    t0 = time.time()
    cube = PeriodicCube(1, 8)
    V = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    errs = []
    for dt, s, t in [(1e-3, 50, 100), (5e-4, 100, 200)]:
        out = malliavin_fd_check(
            V, 1.0, cube, dt, y_site=1, s_index=s, x_site=0, t_index=t,
            delta=1e-5, seed=10,
        )
        errs.append(out["rel_error"])
    passed = errs[0] < 1e-3 and errs[1] < 0.65 * errs[0]
    detail = (
        f"rel err {errs[0]:.2e} at dt=1e-3 (tol 1e-3); {errs[1]:.2e} at "
        f"dt=5e-4 (ratio {errs[1] / errs[0]:.2f}, must halve within 0.65)"
    )
    return _result(10, "noise-sensitivity identity", passed, detail, t0)


def criterion_11():
    """Variance bounded by the expected squared pathwise derivative."""
    t0 = time.time()
    cube = PeriodicCube(1, 8)
    Vq = PotentialSpec("quadratic", c=1.0)
    Vd = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    cases = [(Vq, TERMINAL_FUNCTIONALS["site"]),
             (Vd, TERMINAL_FUNCTIONALS["tanh-sum"]),
             (Vd, TERMINAL_FUNCTIONALS["sin-sum"])]
    # one check after the other, each splitting its paths over the cores
    outs = [poincare_variance_check(V, 1.0, cube, 0.05, 120, F, 10000, seed=11 + k)
            for k, (V, F) in enumerate(cases)]
    ratios, ok = [], True
    for (V, F), out in zip(cases, outs):
        ratios.append(f"{F.name}: {out['ratio']:.3f}")
        ok = ok and out["passes"]
    detail = "variance/bound ratios (tol 1 + 3 sigma): " + ", ".join(ratios)
    return _result(11, "variance inequality", ok, detail, t0)


def criterion_12():
    """Finite-dimensional diffusion: moments, integrator, estimator, probe."""
    t0 = time.time()
    out, verdicts = finite_dimensional_suite(12)
    errs = out["integrator_errors"]
    detail = (
        f"moments {'ok' if verdicts['stationary_moments'] else 'FAIL'}; "
        f"integrator halving {errs[1] / errs[0]:.2f}, noisy gap "
        f"{out['integrator_gap']:.3f}; estimator gap {out['fk_gap']:.4f} vs "
        f"3 sigma {out['fk_tolerance']:.4f}; probe eigenvalues "
        f"{out['min_eigenvalue_quadratic']:.3f} / {out['min_eigenvalue']:.3f}"
    )
    return _result(12, "finite-dimensional diffusion suite", all(verdicts.values()),
                   detail, t0)


def criterion_13():
    """Decay-rate measurements beyond the leading homogenized kernel."""
    t0 = time.time()
    # -- part (a): d=3 environment-averaged kernel vs. Gaussian profile ----
    V3 = PotentialSpec("dipole", c=1.0, a_dip=0.3)
    rep_a = avg_kernel_excess(V3, 1.0, PeriodicCube(3, 16), 0.1, [0.13, 0.013, 0.0013],
                              range(1300, 1304), [20, 30, 45, 68, 100], 100,
                              seed=1301)["report"]
    part_a_ok = rep_a.alpha_hat > 0 and rep_a.alpha_lower > 0

    # -- part (b): d=2 gradient-level elliptic kernel decay ----------------
    V2 = PotentialSpec("dipole", c=1.0, a_dip=0.7)
    cells2 = _map_on_cores(functools.partial(
        sample_environment, V2, 0.25, PeriodicCube(2, 12), 0.1, 32), range(1400, 1464))
    c2 = a_hom_ladder(cells2, [0.15, 0.015, 0.0015])["c_hom"]
    out_b = first_difference_excess(V2, 0.25, PeriodicCube(2, 32), 0.1, c2, 600,
                                    seed=1500)
    part_b_ok = out_b["excess"] > 0 and out_b["excess_lower"] > 0
    passed = part_a_ok and part_b_ok
    detail = (
        f"d=3 parabolic: excess {rep_a.alpha_hat:.2f} "
        f"(lower {rep_a.alpha_lower:.2f}); d=2 elliptic first-difference: "
        f"excess {out_b['excess']:.2f} (lower {out_b['excess_lower']:.2f}, "
        f"{out_b['excluded']} of {out_b['first'].shape[1]} probes excluded)"
    )
    return _result(13, "decay-rate measurements", passed, detail, t0)


_CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12,
    13: criterion_13,
}


def run_criterion(cid):
    return _CRITERIA[cid]()


def run_criteria(tier="fast"):
    """Run the acceptance checks for a tier ('fast' or 'full')."""
    ids = FAST_CRITERIA if tier == "fast" else ALL_CRITERIA
    return [run_criterion(cid) for cid in ids]
