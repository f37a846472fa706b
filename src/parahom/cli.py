"""Command-line experiment runner.

Subcommands are named by experiment kind (``parahom heat-kernel --config c.txt
--out dir``) plus ``verify`` for the acceptance battery.  Every run writes
``manifest.json`` and one ``<kind>.csv`` or ``<kind>.json`` artifact into the
output directory.  Identical (config, seed) pairs produce byte-identical data
artifacts; the manifest additionally records the wall time of the run.

Each kind runs the pipeline of an acceptance criterion through the same
functions; the kind table in README.md maps each kind to its criteria.  A
runner maps params to (payload, verdicts) and only ``run`` writes files: a
dict payload becomes ``<kind>.json`` with the config added, a (columns,
rows) pair ``<kind>.csv`` under the config header.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 configuration error,
3 internal error.  The master seed may be overridden by the ``PARAHOM_SEED``
environment variable or the ``--seed`` flag (flag wins).
"""

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import __version__, acceptance
from .config import (
    KINDS,
    ExperimentConfig,
    dump_json,
    fmt17,
    load_config,
    resolve_config,
)
from .convex_diffusion import finite_dimensional_suite
from .environments import PotentialSpec, sample_environment
from .errors import ConfigError
from .field_theory import (
    TERMINAL_FUNCTIONALS,
    correlation_identity_check,
    malliavin_fd_check,
    poincare_variance_check,
)
from .homogenize import (
    a_hom_ladder,
    avg_greens_mc,
    avg_kernel_excess,
    corrector_solve,
    q_matrix,
    q_matrix_single,
    rate_fit,
)
from .lattice import PeriodicCube, heat_kernel_solver, heat_kernel_table
from .parabolic import greens_backward, greens_backward_matrix


def _potential(p):
    if p["potential"] == "quadratic":
        return PotentialSpec("quadratic", c=p["c"])
    return PotentialSpec("dipole", c=p["c"], a_dip=p["a_dip"])


def _samples(p, n_steps, n_env=1):
    """Environments seed, seed + 1, ..., seed + n_env - 1 of the config."""
    V, cube = _potential(p), PeriodicCube(p["d"], p["L"])
    return [sample_environment(V, p["m"], cube, p["dt"], n_steps, p["seed"] + k)
            for k in range(n_env)]


def _write_csv(path, config, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in config.canonical_text().splitlines():
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                fmt17(v) if isinstance(v, float) else str(v) for v in row
            ) + "\n")


# -- per-kind runners; each maps params to (payload, verdicts dict) -------------


def _run_heat_kernel(p):
    oracle = heat_kernel_table(p["d"], p["radius"], p["t"])
    solved = heat_kernel_solver(p["d"], p["radius"], p["t"])
    axes = np.arange(-p["radius"], p["radius"] + 1)
    rows = []
    for idx in np.ndindex(oracle.shape):
        x = [int(axes[i]) for i in idx]
        rows.append(x + [p["t"], float(solved[idx]), float(oracle[idx]),
                         float(abs(solved[idx] - oracle[idx]))])
    cols = [f"x{j}" for j in range(p["d"])] + ["t", "value", "oracle", "abs_err"]
    sup = float(np.abs(solved - oracle).max())
    # the mass missing from the truncated box is exactly computable from the
    # Bessel oracle and bounds the truncation error of the solver
    tail = abs(1.0 - float(oracle.sum()))
    return (cols, rows), {
        "oracle_sup_error": sup < 1e-10 + 10.0 * tail,
        "mass_conservation": abs(float(solved.sum() - oracle.sum()))
        < 1e-10 + 10.0 * tail,
    }


def _run_sample_env(p):
    [a] = _samples(p, p["n_steps"])
    rows, ok = [], True
    for i in range(a.n_times):
        for j in range(a.cube.d):
            lo = float(a.values[i, j].min())
            hi = float(a.values[i, j].max())
            ok = ok and a.window.lam <= lo and hi <= a.window.Lam
            rows.append([i, j, lo, hi])
    return (["t_index", "direction", "min", "max"], rows), {"ellipticity_window": ok}


def _run_greens(p):
    [a] = _samples(p, p["t_index"])
    cube = a.cube
    table = greens_backward(a, p["source_site"], p["t_index"])
    ys = cube.min_image(cube.all_coords()).tolist()
    xc = cube.min_image(cube.site_coords(p["source_site"])).tolist()
    t = p["t_index"] * p["dt"]
    rows = []
    for k, level in enumerate(table.s_indices):
        for y in range(cube.n_sites):
            rows.append(ys[y] + [float(level * p["dt"])]
                        + xc + [t, float(table.values[k, y])])
    cols = ([f"y{j}" for j in range(cube.d)] + ["s"]
            + [f"x{j}" for j in range(cube.d)] + ["t", "value"])
    mats = greens_backward_matrix(a, p["t_index"])
    dev = max(float(np.abs(mats.sum(axis=1) - 1.0).max()),
              float(np.abs(mats.sum(axis=2) - 1.0).max()))
    return (cols, rows), {"sum_rules": dev < 1e-8}


def _run_corrector(p):
    [a] = _samples(p, p["n_steps"])
    corr = corrector_solve(a, p["xi"], eta=p["eta"])
    chk = corr.energy_check(a.window)
    q = q_matrix_single(corr, a)
    out = {
        "energy_lhs": chk["lhs"],
        "energy_rhs": chk["rhs"],
        "energy_passes": chk["passes"],
        "q_real": np.real(q).tolist(),
        "q_imag": np.imag(q).tolist(),
        "solver": {"iterations": corr.iterations, "residual": corr.residual},
    }
    return out, {"energy_bound": chk["passes"]}


def _run_qmatrix(p):
    fields = _samples(p, p["n_steps"], p["n_env"])
    q = q_matrix([(corrector_solve(a, p["xi"], eta=p["eta"]), a) for a in fields])
    row = ([float(x) for x in p["xi"]] + [p["eta"]]
           + [float(v) for v in np.real(q.value).ravel()]
           + [float(v) for v in q.stderr.ravel()])
    d = p["d"]
    cols = ([f"xi{j}" for j in range(d)] + ["eta"]
            + [f"q{i}{j}" for i in range(d) for j in range(d)]
            + [f"stderr{i}{j}" for i in range(d) for j in range(d)])
    window = fields[0].window
    diag = np.real(np.diag(q.value))
    in_window = bool(np.all(diag >= window.lam - 1e-9)
                     and np.all(diag <= window.Lam + 1e-9))
    return (cols, [row]), {"diagonal_in_window": in_window}


def _run_ahom(p):
    etas = sorted(p["etas"], reverse=True)
    fields = _samples(p, p["n_steps"], p["n_env"])
    out = a_hom_ladder(fields, etas)
    payload = {
        "etas": [float(e) for e in etas],
        "q_values": [np.real(q.value).tolist() for q in out["q"]],
        "a_hom": out["a_hom"].tolist(),
        "uncertainty": out["uncertainty"],
        "flagged": bool(out["flagged"]),
    }
    return payload, {"extrapolation_stable": not out["flagged"]}


def _run_avg_greens(p):
    d = p["d"]
    cube = PeriodicCube(d, p["L"])
    sampler = functools.partial(sample_environment, _potential(p), p["m"], cube,
                                p["dt"], max(p["t_indices"]))
    out = avg_greens_mc(sampler, cube, cube.site_index([0] * d),
                        p["t_indices"], p["n_samples"], seed=p["seed"])
    rows = []
    coords = [[x] * d for x in range(-p["x_max"], p["x_max"] + 1)]
    for j, ti in enumerate(p["t_indices"]):
        for x in coords:
            site = cube.site_index(x)
            rows.append(x + [ti, float(out["mean"][j, site]),
                             float(out["stderr"][j, site])])
    cols = [f"x{j}" for j in range(d)] + ["t_index", "mean", "stderr"]
    mass_dev = float(np.abs(out["mean"].sum(axis=-1) - 1.0).max())
    return (cols, rows), {"mass_conservation": mass_dev < 1e-8}


def _run_rate_fit(p):
    rep = rate_fit(np.array(p["scales"]), np.array(p["values"]),
                   mode=p["mode"], d=p["d"])
    payload = {
        "scales": [float(s) for s in rep.scales],
        "values": [float(v) for v in rep.values],
        "slope": rep.slope,
        "slope_stderr": rep.slope_stderr,
        "alpha_hat": rep.alpha_hat,
        "alpha_lower": rep.alpha_lower,
        "warning": rep.warning,
    }
    return payload, {"clean_fit": rep.warning == ""}


def _run_correlate(p):
    cube = PeriodicCube(p["d"], p["L"])
    x_list = [[x] + [0] * (p["d"] - 1) for x in range(-p["x_max"], p["x_max"] + 1)]
    out = correlation_identity_check(
        _potential(p), p["m"], cube, x_list, p["n_samples"], p["dt"],
        seed=p["seed"], anchors=p["anchors"],
    )
    rows = []
    for k, x in enumerate(x_list):
        rows.append(x + [float(out["lhs"][k]), float(out["rhs"][k]),
                         float(out["difference"][k]), float(out["sigma"][k])])
    cols = [f"x{j}" for j in range(p["d"])] + ["lhs", "rhs", "diff", "sigma"]
    return (cols, rows), {"identity_3sigma": out["z_max"] <= 3.0}


def _run_thm13(p):
    # environment-averaged kernel vs. homogenized Gaussian profile: the
    # decay of the difference beyond the leading term (criterion 13(a))
    cell_seeds = range(p["seed"] + 7000, p["seed"] + 7000 + p["n_env_cell"])
    out = avg_kernel_excess(_potential(p), p["m"], PeriodicCube(p["d"], p["L"]), p["dt"],
                            sorted(p["etas"], reverse=True), cell_seeds,
                            p["t_indices"], p["n_samples"], seed=p["seed"])
    rep = out["report"]
    payload = {
        "c_hom": out["c_hom"],
        "t_indices": [int(t) for t in p["t_indices"]],
        "diffs": out["diffs"].tolist(),
        "stderr": out["stderr"].tolist(),
        "excess": rep.alpha_hat,
        "excess_lower": rep.alpha_lower,
        "warning": rep.warning,
    }
    return payload, {"positive_excess": rep.alpha_hat > 0 and rep.alpha_lower > 0}


def _run_malliavin(p):
    out = malliavin_fd_check(
        _potential(p), p["m"], PeriodicCube(p["d"], p["L"]), p["dt"], p["y_site"],
        p["s_index"], p["x_site"], p["t_index"], delta=p["delta"], seed=p["seed"],
    )
    return out, {"identity_1e_3": out["rel_error"] < 1e-3}


def _run_poincare(p):
    out = poincare_variance_check(
        _potential(p), p["m"], PeriodicCube(p["d"], p["L"]), p["dt"], p["n_steps"],
        TERMINAL_FUNCTIONALS[p["functional"]], p["n_samples"], seed=p["seed"],
    )
    return out, {"variance_bound": out["passes"]}


def _run_sde_appendix(p):
    out, verdicts = finite_dimensional_suite(p["seed"], p["n_keep"], p["n_paths"])
    return {**out, **verdicts}, verdicts


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


def run(config: ExperimentConfig, out_dir):
    """Execute an experiment, write artifacts + manifest, return the manifest.
    ``out_dir`` is made only once the runner has returned, so a config the
    runner refuses leaves no directory behind."""
    t0 = time.time()
    payload, verdicts = _RUNNERS[config.kind](config.params)
    os.makedirs(out_dir, exist_ok=True)
    if isinstance(payload, dict):
        artifact = f"{config.kind}.json"
        dump_json({"config": config.as_jsonable(), **payload},
                  os.path.join(out_dir, artifact))
    else:
        artifact = f"{config.kind}.csv"
        _write_csv(os.path.join(out_dir, artifact), config, *payload)
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
        stream.write(acceptance.verdict_line(res) + "\n")
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
