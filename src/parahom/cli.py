"""Command-line experiment runner.

Subcommands are named by experiment kind (``parahom heat-kernel --config c.txt
--out dir``) plus ``verify`` for the acceptance battery.  Every run writes
``manifest.json`` and one ``<kind>.csv`` or ``<kind>.json`` artifact into the
output directory.  Identical (config, seed) pairs produce byte-identical data
artifacts; the manifest additionally records the wall time of the run.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 configuration error,
3 internal error.  The master seed may be overridden by the ``PARAHOM_SEED``
environment variable or the ``--seed`` flag (flag wins).
"""

import argparse
import os
import sys
import time

import numpy as np

from . import __version__, acceptance
from .config import (
    KINDS,
    dump_json,
    fmt17,
    load_config,
    resolve_config,
)
from .convex_diffusion import (
    convex_diffusion_simulate,
    cosine_perturbed_potential,
    exact_gaussian_path,
    feynman_kac_estimate,
    path_action_hessian_probe,
    quadratic_potential,
    stationary_moments_check,
)
from .environments import (
    CoefficientMap,
    PotentialSpec,
    coefficient_field,
    langevin_simulate,
)
from .errors import ConfigError
from .field_theory import (
    TerminalFunctional,
    correlation_identity_check,
    malliavin_fd_check,
    poincare_variance_check,
)
from .homogenize import (
    a_hom_extract,
    avg_greens_mc,
    corrector_solve,
    q_matrix,
    q_matrix_single,
    rate_fit,
)
from .lattice import PeriodicCube, heat_kernel_solver, heat_kernel_table, hom_gaussian_kernel
from .parabolic import greens_backward, greens_backward_matrix


def _potential(p):
    if p["potential"] == "quadratic":
        return PotentialSpec("quadratic", c=p["c"])
    return PotentialSpec("dipole", c=p["c"], a_dip=p["a_dip"])


def _environment(p, n_steps, seed):
    cube = PeriodicCube(p["d"], p["L"])
    V = _potential(p)
    cmap = CoefficientMap("matrix-of-gradient", potential=V)
    traj = langevin_simulate(V, p["m"], cube, p["dt"], n_steps, seed=seed)
    return cube, V, coefficient_field(traj, cmap)


def _coords(cube, site):
    # invert site_index: row-major coordinates in [-L/2, L/2)
    L, d = cube.L, cube.d
    out = []
    for k in range(d - 1, -1, -1):
        c = site % L
        out.append(c - L if c >= L // 2 else c)
        site //= L
    return out[::-1]


def _write_csv(path, config, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in config.canonical_text().splitlines():
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                fmt17(v) if isinstance(v, float) else str(v) for v in row
            ) + "\n")


# -- per-kind runners; each returns (artifact name, verdicts dict) -------------


def _run_heat_kernel(config, out_dir):
    p = config.params
    oracle = heat_kernel_table(p["d"], p["radius"], p["t"])
    solved = heat_kernel_solver(p["d"], p["radius"], p["t"])
    axes = np.arange(-p["radius"], p["radius"] + 1)
    rows = []
    for idx in np.ndindex(oracle.shape):
        x = [int(axes[i]) for i in idx]
        rows.append(x + [p["t"], float(solved[idx]), float(oracle[idx]),
                         float(abs(solved[idx] - oracle[idx]))])
    cols = [f"x{j}" for j in range(p["d"])] + ["t", "value", "oracle", "abs_err"]
    _write_csv(os.path.join(out_dir, "heat-kernel.csv"), config, cols, rows)
    sup = float(np.abs(solved - oracle).max())
    # the mass missing from the truncated box is exactly computable from the
    # Bessel oracle and bounds the truncation error of the solver
    tail = abs(1.0 - float(oracle.sum()))
    return "heat-kernel.csv", {
        "oracle_sup_error": sup < 1e-10 + 10.0 * tail,
        "mass_conservation": abs(float(solved.sum() - oracle.sum()))
        < 1e-10 + 10.0 * tail,
    }


def _run_sample_env(config, out_dir):
    p = config.params
    _, V, a = _environment(p, p["n_steps"], p["seed"])
    rows, ok = [], True
    for i in range(a.n_times):
        for j in range(a.cube.d):
            lo = float(a.values[i, j].min())
            hi = float(a.values[i, j].max())
            ok = ok and V.window.lam <= lo and hi <= V.window.Lam
            rows.append([i, j, lo, hi])
    _write_csv(os.path.join(out_dir, "sample-env.csv"), config,
               ["t_index", "direction", "min", "max"], rows)
    return "sample-env.csv", {"ellipticity_window": ok}


def _run_greens(config, out_dir):
    p = config.params
    cube, _, a = _environment(p, p["t_index"], p["seed"])
    if p["source_site"] >= cube.n_sites:
        raise ConfigError("source_site: outside the lattice")
    table = greens_backward(a, p["source_site"], p["t_index"])
    xc = _coords(cube, p["source_site"])
    t = p["t_index"] * p["dt"]
    rows = []
    for k, level in enumerate(table.s_indices):
        for y in range(cube.n_sites):
            rows.append(_coords(cube, y) + [float(level * p["dt"])]
                        + xc + [t, float(table.values[k, y])])
    cols = ([f"y{j}" for j in range(cube.d)] + ["s"]
            + [f"x{j}" for j in range(cube.d)] + ["t", "value"])
    _write_csv(os.path.join(out_dir, "greens.csv"), config, cols, rows)
    _, mats = greens_backward_matrix(a, p["t_index"])
    dev = max(float(np.abs(mats.sum(axis=1) - 1.0).max()),
              float(np.abs(mats.sum(axis=2) - 1.0).max()))
    return "greens.csv", {"sum_rules": dev < 1e-8}


def _run_corrector(config, out_dir):
    p = config.params
    cube, _, a = _environment(p, p["n_steps"], p["seed"])
    if len(p["xi"]) != cube.d:
        raise ConfigError(f"xi: expected {cube.d} components, got {len(p['xi'])}")
    corr = corrector_solve(a, p["xi"], eta=p["eta"])
    chk = corr.energy_check(a.window)
    q = q_matrix_single(corr, a)
    out = {
        "config": config.as_jsonable(),
        "energy_lhs": chk["lhs"],
        "energy_rhs": chk["rhs"],
        "energy_passes": chk["passes"],
        "q_real": np.real(q).tolist(),
        "q_imag": np.imag(q).tolist(),
        "solver": {"iterations": corr.iterations, "residual": corr.residual},
    }
    dump_json(out, os.path.join(out_dir, "corrector.json"))
    return "corrector.json", {"energy_bound": chk["passes"]}


def _corrector_pairs(p, n_env, eta, xi):
    pairs = []
    for k in range(n_env):
        _, _, a = _environment(p, p["n_steps"], p["seed"] + k)
        pairs.append((corrector_solve(a, xi, eta=eta), a))
    return pairs


def _run_qmatrix(config, out_dir):
    p = config.params
    if len(p["xi"]) != p["d"]:
        raise ConfigError(f"xi: expected {p['d']} components, got {len(p['xi'])}")
    q = q_matrix(_corrector_pairs(p, p["n_env"], p["eta"], p["xi"]))
    row = ([float(x) for x in p["xi"]] + [p["eta"]]
           + [float(v) for v in np.real(q.value).ravel()]
           + [float(v) for v in q.stderr.ravel()])
    d = p["d"]
    cols = ([f"xi{j}" for j in range(d)] + ["eta"]
            + [f"q{i}{j}" for i in range(d) for j in range(d)]
            + [f"stderr{i}{j}" for i in range(d) for j in range(d)])
    _write_csv(os.path.join(out_dir, "qmatrix.csv"), config, cols, [row])
    V = _potential(p)
    diag = np.real(np.diag(q.value))
    in_window = bool(np.all(diag >= V.window.lam - 1e-9)
                     and np.all(diag <= V.window.Lam + 1e-9))
    return "qmatrix.csv", {"diagonal_in_window": in_window}


def _run_ahom(config, out_dir):
    p = config.params
    etas = sorted(p["etas"], reverse=True)
    qs = []
    for eta in etas:
        q = q_matrix(_corrector_pairs(p, p["n_env"], float(eta), [0.0] * p["d"]))
        qs.append(q.value)
    out = a_hom_extract(np.array(etas), qs)
    payload = {
        "config": config.as_jsonable(),
        "etas": [float(e) for e in etas],
        "q_values": [np.real(q).tolist() for q in qs],
        "a_hom": np.real(out["a_hom"]).tolist(),
        "uncertainty": out["uncertainty"],
        "flagged": bool(out["flagged"]),
    }
    dump_json(payload, os.path.join(out_dir, "ahom.json"))
    return "ahom.json", {"extrapolation_stable": not out["flagged"]}


def _run_avg_greens(config, out_dir):
    p = config.params
    cube = PeriodicCube(p["d"], p["L"])
    V = _potential(p)
    cmap = CoefficientMap("matrix-of-gradient", potential=V)
    n_steps = max(p["t_indices"])

    def sampler(seed_seq):
        traj = langevin_simulate(V, p["m"], cube, p["dt"], n_steps, seed=seed_seq)
        return coefficient_field(traj, cmap)

    out = avg_greens_mc(sampler, cube, cube.site_index([0] * p["d"]),
                        p["t_indices"], p["n_samples"], seed=p["seed"])
    rows = []
    rng = range(-p["x_max"], p["x_max"] + 1)
    coords = [[x] * p["d"] for x in rng] if p["d"] > 1 else [[x] for x in rng]
    for j, ti in enumerate(p["t_indices"]):
        for x in coords:
            site = cube.site_index(x)
            rows.append(list(x) + [ti, float(out["mean"][j, site]),
                                   float(out["stderr"][j, site])])
    cols = [f"x{j}" for j in range(p["d"])] + ["t_index", "mean", "stderr"]
    _write_csv(os.path.join(out_dir, "avg-greens.csv"), config, cols, rows)
    mass_dev = float(np.abs(out["mean"].sum(axis=-1) - 1.0).max())
    return "avg-greens.csv", {"mass_conservation": mass_dev < 1e-8}


def _run_rate_fit(config, out_dir):
    p = config.params
    rep = rate_fit(np.array(p["scales"]), np.array(p["values"]),
                   mode=p["mode"], d=p["d"])
    payload = {
        "config": config.as_jsonable(),
        "scales": [float(s) for s in rep.scales],
        "values": [float(v) for v in rep.values],
        "slope": rep.slope,
        "slope_stderr": rep.slope_stderr,
        "alpha_hat": rep.alpha_hat,
        "alpha_lower": rep.alpha_lower,
        "warning": rep.warning,
    }
    dump_json(payload, os.path.join(out_dir, "rate-fit.json"))
    return "rate-fit.json", {"clean_fit": rep.warning == ""}


def _run_correlate(config, out_dir):
    p = config.params
    cube = PeriodicCube(p["d"], p["L"])
    V = _potential(p)
    rng = range(-p["x_max"], p["x_max"] + 1)
    x_list = [[x] + [0] * (p["d"] - 1) for x in rng]
    out = correlation_identity_check(
        V, p["m"], cube, x_list, p["n_samples"], p["dt"], seed=p["seed"],
        anchors=p["anchors"], method=p["method"],
    )
    rows = []
    for k, x in enumerate(x_list):
        rows.append(list(x) + [float(out["lhs"][k]), float(out["rhs"][k]),
                               float(out["difference"][k]), float(out["sigma"][k])])
    cols = [f"x{j}" for j in range(p["d"])] + ["lhs", "rhs", "diff", "sigma"]
    _write_csv(os.path.join(out_dir, "correlate.csv"), config, cols, rows)
    z = float(np.max(np.abs(out["difference"]) / np.maximum(out["sigma"], 1e-300)))
    return "correlate.csv", {"identity_3sigma": z <= 3.0 and not out["flagged"]}


def _run_thm13(config, out_dir):
    # environment-averaged kernel vs. homogenized Gaussian profile: the
    # decay of the difference beyond the leading term, d=3 by default
    p = config.params
    cube = PeriodicCube(p["d"], p["L"])
    V = _potential(p)
    cmap = CoefficientMap("matrix-of-gradient", potential=V)
    etas = sorted(p["etas"], reverse=True)
    qs = []
    for eta in etas:
        pairs = []
        for k in range(p["n_env_cell"]):
            cell = PeriodicCube(p["d"], 8)
            traj = langevin_simulate(V, p["m"], cell, p["dt"], 16,
                                     seed=p["seed"] + 7000 + k)
            a = coefficient_field(traj, cmap)
            pairs.append((corrector_solve(a, [0.0] * p["d"], eta=float(eta)), a))
        qs.append(q_matrix(pairs).value)
    c_hom = float(np.real(np.trace(a_hom_extract(np.array(etas), qs)["a_hom"]))
                  / p["d"])
    n_steps = max(p["t_indices"])

    def sampler(seed_seq):
        traj = langevin_simulate(V, p["m"], cube, p["dt"], n_steps, seed=seed_seq)
        return coefficient_field(traj, cmap)

    mc = avg_greens_mc(sampler, cube, cube.site_index([0] * p["d"]),
                       np.array(p["t_indices"]), p["n_samples"], seed=p["seed"])
    shifts = np.arange(-3, 4) * p["L"]
    grids = np.meshgrid(*([shifts] * p["d"]), indexing="ij")
    images = np.stack(grids, axis=-1).reshape(-1, p["d"])
    origin = cube.site_index([0] * p["d"])
    diffs = []
    for j, ti in enumerate(p["t_indices"]):
        ref = sum(hom_gaussian_kernel(im, ti * p["dt"], c_hom * np.eye(p["d"]))
                  for im in images)
        diffs.append(abs(float(mc["mean"][j, origin]) - ref))
    scales = V.window.Lam * np.array(p["t_indices"]) * p["dt"] + 1.0
    rep = rate_fit(scales, np.array(diffs), mode="greens-decay", d=p["d"])
    payload = {
        "config": config.as_jsonable(),
        "c_hom": c_hom,
        "t_indices": [int(t) for t in p["t_indices"]],
        "diffs": diffs,
        "stderr": [float(mc["stderr"][j, origin])
                   for j in range(len(p["t_indices"]))],
        "excess": rep.alpha_hat,
        "excess_lower": rep.alpha_lower,
        "warning": rep.warning,
    }
    dump_json(payload, os.path.join(out_dir, "thm13.json"))
    return "thm13.json", {"positive_excess": rep.alpha_hat > 0
                          and rep.alpha_lower > 0}


def _run_malliavin(config, out_dir):
    p = config.params
    cube = PeriodicCube(p["d"], p["L"])
    out = malliavin_fd_check(
        _potential(p), p["m"], cube, p["dt"], p["y_site"], p["s_index"],
        p["x_site"], p["t_index"], delta=p["delta"], seed=p["seed"],
    )
    payload = {"config": config.as_jsonable(), **out}
    dump_json(payload, os.path.join(out_dir, "malliavin.json"))
    return "malliavin.json", {"identity_1e_3": out["rel_error"] < 1e-3}


def _run_poincare(config, out_dir):
    p = config.params
    cube = PeriodicCube(p["d"], p["L"])

    def site_grad(phi):
        g = np.zeros_like(phi)
        g[..., 0] = 1.0
        return g

    functionals = {
        "site": TerminalFunctional(
            value=lambda phi: phi[..., 0], grad=site_grad, name="phi(0)"),
        "tanh-sum": TerminalFunctional(
            value=lambda phi: np.tanh(phi).sum(axis=-1),
            grad=lambda phi: 1.0 / np.cosh(phi) ** 2, name="sum tanh"),
        "sin-sum": TerminalFunctional(
            value=lambda phi: np.sin(phi).sum(axis=-1),
            grad=np.cos, name="sum sin"),
    }
    out = poincare_variance_check(
        _potential(p), p["m"], cube, p["dt"], p["n_steps"],
        functionals[p["functional"]], p["n_samples"], seed=p["seed"],
    )
    payload = {"config": config.as_jsonable(),
               **{k: v for k, v in out.items() if k != "passes"},
               "passes": bool(out["passes"])}
    dump_json(payload, os.path.join(out_dir, "poincare.json"))
    return "poincare.json", {"variance_bound": out["passes"]}


def _run_sde_appendix(config, out_dir):
    p = config.params
    seed = p["seed"]
    mom = stationary_moments_check(
        np.diag([1.0, 4.0]), [1.0, 1.0], lags=[0.0], dt=0.1,
        n_keep=p["n_keep"], seed=seed,
    )
    A = np.array([[1.5, 0.4], [0.4, 0.8]])
    b = np.array([0.2, -0.1])
    W = quadratic_potential(A, b)
    path, incr = convex_diffusion_simulate(W, 0.05, 200, seed=seed + 1,
                                           return_increments=True)
    gap = float(np.abs(path.values - exact_gaussian_path(A, b, 0.05, incr)).max())
    Wc = cosine_perturbed_potential(0.3)
    fk = feynman_kac_estimate(Wc, lambda q: q[:, 0] ** 2, T=5.0,
                              n_paths=p["n_paths"], dt=0.01, seed=seed + 2)
    probe = path_action_hessian_probe(Wc, np.full(41, 1.5 * np.pi), h=0.25)
    verdicts = {
        "stationary_moments": bool(mom["mean_passes"]
                                   and all(l["passes"] for l in mom["lags"])),
        "integrator_pathwise": gap < 0.15,
        "estimator_nondegenerate": not fk["degenerate"],
        "log_concavity_probe": probe["min_eigenvalue"] < -1e-3,
    }
    payload = {
        "config": config.as_jsonable(),
        "mean_hat": [float(v) for v in mom["mean_hat"]],
        "integrator_gap": gap,
        "fk_estimate": fk["estimate"],
        "fk_sigma": fk["sigma"],
        "min_eigenvalue": probe["min_eigenvalue"],
        **verdicts,
    }
    dump_json(payload, os.path.join(out_dir, "sde-appendix.json"))
    return "sde-appendix.json", verdicts


_RUNNERS = {
    "heat-kernel": _run_heat_kernel,
    "sample-env": _run_sample_env,
    "greens": _run_greens,
    "corrector": _run_corrector,
    "qmatrix": _run_qmatrix,
    "ahom": _run_ahom,
    "avg-greens": _run_avg_greens,
    "rate-fit": _run_rate_fit,
    "correlate": _run_correlate,
    "thm13": _run_thm13,
    "malliavin": _run_malliavin,
    "poincare": _run_poincare,
    "sde-appendix": _run_sde_appendix,
}


def run(config, out_dir):
    """Execute an experiment, write artifacts + manifest, return the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.time()
    artifact, verdicts = _RUNNERS[config.kind](config, out_dir)
    manifest = {
        "kind": config.kind,
        "config": config.as_jsonable(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "tool_version": __version__,
        "wall_seconds": round(time.time() - t0, 3),
        "artifact": artifact,
        "verdicts": verdicts,
        "passed": bool(all(verdicts.values())),
    }
    dump_json(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def verify_suite(tier="fast", stream=None):
    """Run the acceptance battery and print a pass/fail table."""
    if tier not in ("fast", "full"):
        raise ConfigError(f"tier: expected 'fast' or 'full', got {tier!r}")
    stream = sys.stdout if stream is None else stream
    results = acceptance.run_criteria(tier)
    ok = True
    for res in results:
        verdict = "PASS" if res["passed"] else "FAIL"
        stream.write(f"criterion {res['id']:2d} [{verdict}] {res['title']} "
                     f"({res['seconds']}s): {res['detail']}\n")
        ok = ok and res["passed"]
    stream.write(f"{'all criteria pass' if ok else 'FAILURES present'} "
                 f"(tier={tier})\n")
    return ok


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="parahom",
        description="experiment runner for the lattice homogenization laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", help="flat key-value config file")
        sp.add_argument("--seed", type=int, help="master seed override")
        sp.add_argument("--out", default=".", help="output directory")
    vp = sub.add_parser("verify", help="run the acceptance battery")
    vp.add_argument("--tier", default="fast", choices=["fast", "full"])
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return 0 if verify_suite(args.tier) else 1
        seed = args.seed
        if seed is None and "PARAHOM_SEED" in os.environ:
            try:
                seed = int(os.environ["PARAHOM_SEED"])
            except ValueError:
                raise ConfigError("PARAHOM_SEED: not an integer") from None
        if args.config is not None:
            config = load_config(args.config, kind=args.command,
                                 seed_override=seed)
        else:
            config = resolve_config(args.command, {}, seed_override=seed)
        manifest = run(config, args.out)
        for name, verdict in manifest["verdicts"].items():
            print(f"{config.kind}: {name}: {'pass' if verdict else 'FAIL'}")
        return 0 if manifest["passed"] else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
