"""Command-line runner: schema validation, determinism, artifacts, exit codes."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahom import ConfigError, heat_kernel_1d
from parahom import homogenize
from parahom.cli import main, run, verify_suite
from parahom import config
from parahom.config import (
    KINDS,
    SCHEMAS,
    ExperimentConfig,
    fmt17,
    load_config,
    parse_config_text,
    resolve_config,
)


# -- config parsing ------------------------------------------------------------


def test_parse_flat_key_value_with_comments():
    kind, raw = parse_config_text("# demo\nd = 1  # inline\n\nL = 8\n")
    assert kind is None and raw == {"d": "1", "L": "8"}


def test_parse_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("d = 1\nd = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_kind_mismatch_between_file_and_subcommand():
    with pytest.raises(ConfigError, match="kind"):
        parse_config_text("kind = greens\n", kind="corrector")


def test_resolve_fills_defaults_and_validates():
    cfg = resolve_config("sample-env", {"d": "2", "L": "6"})
    assert cfg.params["d"] == 2 and cfg.params["dt"] == 0.05
    with pytest.raises(ConfigError, match="L"):
        resolve_config("sample-env", {"L": "7"})  # odd side length
    with pytest.raises(ConfigError, match="bogus"):
        resolve_config("sample-env", {"bogus": "1"})
    with pytest.raises(ConfigError, match="method"):
        resolve_config("correlate", {"method": "pathwise"})  # one estimator
    with pytest.raises(ConfigError, match="scales"):
        resolve_config("rate-fit", {"values": "1,2,3,4"})  # required key


@pytest.mark.parametrize("kind, raw, key", [
    ("greens", {"L": "8", "source_site": "8"}, "source_site"),
    ("greens", {"d": "2", "L": "4", "source_site": "16"}, "source_site"),
    ("corrector", {"d": "2", "L": "4", "xi": "0.5"}, "xi"),
    ("qmatrix", {"xi": "0.5,0.5"}, "xi"),
])
def test_resolve_refuses_a_site_or_xi_that_does_not_fit_the_lattice(kind, raw, key):
    # each key is valid alone; against L and d it names no site of the
    # lattice, or not one twist per direction
    with pytest.raises(ConfigError, match=key):
        resolve_config(kind, raw)


def test_resolve_accepts_the_last_site_and_one_twist_per_direction():
    greens = resolve_config("greens", {"d": "2", "L": "4", "source_site": "15"})
    assert greens.params["source_site"] == 15
    cell = resolve_config("corrector", {"d": "2", "L": "4", "xi": "0.5,-0.5"})
    assert cell.params["xi"] == [0.5, -0.5]


def test_config_hash_stable_and_seed_sensitive():
    a = resolve_config("sample-env", {"d": "1"})
    b = resolve_config("sample-env", {"d": "1"})
    c = resolve_config("sample-env", {"d": "1"}, seed_override=5)
    assert a.config_hash() == b.config_hash() != c.config_hash()


def test_fmt17_roundtrips():
    for x in (1 / 3, np.pi, 1e-300, 0.1):
        assert float(fmt17(x)) == x
        assert "," not in fmt17(x)


# -- artifacts -----------------------------------------------------------------


def _write(tmp_path, text):
    p = tmp_path / "config.txt"
    p.write_text(text)
    return str(p)


def test_heat_kernel_csv_contains_oracle_row(tmp_path):
    cfg = _write(tmp_path, "d = 1\nradius = 10\nt = 1.0\n")
    out = tmp_path / "out"
    assert main(["heat-kernel", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "heat-kernel.csv").read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("kind = heat-kernel" in l for l in header)  # config echoed
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == "x0,t,value,oracle,abs_err"
    row0 = dict(zip(body[0].split(","), body[1 + 10].split(",")))
    assert row0["x0"] == "0"
    assert float(row0["oracle"]) == pytest.approx(heat_kernel_1d(np.array([0]), 1.0)[0], abs=1e-15)
    assert abs(float(row0["value"]) - float(row0["oracle"])) < 1e-10


def test_rerun_is_byte_identical_except_wall_time(tmp_path):
    cfg = _write(tmp_path, "d = 1\nL = 8\nt_indices = 5,10\nn_samples = 4\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["avg-greens", "--config", cfg, "--out", str(a)]) == 0
    assert main(["avg-greens", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "avg-greens.csv").read_bytes() == (b / "avg-greens.csv").read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("wall_seconds"), mb.pop("wall_seconds")
    assert ma == mb
    assert ma["passed"] and ma["tool_version"]


def test_corrector_json_records_solver_statistics(tmp_path):
    cfg = _write(tmp_path, "d = 2\nL = 6\nn_steps = 4\nxi = 0.5,-1.0\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["corrector", "--config", cfg, "--out", str(a)]) == 0
    assert main(["corrector", "--config", cfg, "--out", str(b)]) == 0
    data = (a / "corrector.json").read_bytes()
    assert data == (b / "corrector.json").read_bytes()
    solver = json.loads(data)["solver"]
    assert solver["iterations"] > 0 and 0 <= solver["residual"] <= 1e-12


def test_seed_flag_and_env_var_override(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "d = 1\nL = 8\nt_indices = 5\nn_samples = 4\n")
    base, enved, flagged = (tmp_path / n for n in ("base", "env", "flag"))
    main(["avg-greens", "--config", cfg, "--out", str(base)])
    monkeypatch.setenv("PARAHOM_SEED", "9")
    main(["avg-greens", "--config", cfg, "--out", str(enved)])
    main(["avg-greens", "--config", cfg, "--seed", "9", "--out", str(flagged)])
    b = (base / "avg-greens.csv").read_bytes()
    e = (enved / "avg-greens.csv").read_bytes()
    f = (flagged / "avg-greens.csv").read_bytes()
    assert b != e and e == f  # env var changes the seed; flag agrees with it


def test_csv_uses_newlines_and_17_digits(tmp_path):
    cfg = _write(tmp_path, "d = 1\nL = 8\nn_steps = 3\n")
    out = tmp_path / "out"
    main(["sample-env", "--config", cfg, "--out", str(out)])
    data = (out / "sample-env.csv").read_bytes()
    assert b"\r" not in data
    body = [l for l in data.decode().splitlines() if not l.startswith("#")]
    val = body[1].split(",")[2]
    assert float(val) == float(fmt17(float(val)))  # 17-digit round trip


def test_run_writes_manifest_with_verdicts(tmp_path):
    cfg = ExperimentConfig("heat-kernel", {"d": 1, "radius": 8, "t": 0.5, "seed": 0})
    manifest = run(cfg, str(tmp_path / "m"))
    assert manifest["verdicts"]["oracle_sup_error"]
    assert manifest["config"]["radius"] == 8
    assert os.path.exists(tmp_path / "m" / "manifest.json")


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_passes_at_its_default_config(kind, tmp_path):
    # rate-fit has no defaults for its data: a clean power law eps^2
    raw = ({"scales": "1,0.5,0.25,0.125", "values": "1,0.26,0.0624,0.0158"}
           if kind == "rate-fit" else {})
    manifest = run(resolve_config(kind, raw), str(tmp_path))
    assert manifest["passed"], manifest["verdicts"]
    assert os.path.exists(tmp_path / manifest["artifact"])


# -- exit codes ----------------------------------------------------------------


def test_exit_code_2_on_schema_error(tmp_path, capsys):
    cfg = _write(tmp_path, "L = 7\n")
    assert main(["sample-env", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "L" in capsys.readouterr().err  # diagnostic names the field


@pytest.mark.parametrize("kind, text", [
    ("malliavin", "L = 8\nx_site = 9999\n"),
    ("malliavin", "L = 8\ny_site = 9999\n"),
    ("correlate", "L = 8\nanchors = 9999\n"),
    ("correlate", "anchors = \n"),
    ("correlate", "anchors = ,\n"),
    ("greens", "L = 8\nsource_site = 9999\n"),
    ("corrector", "d = 2\nL = 4\nxi = 0.5\n"),
    # 1/m^2 = 1/9 < dt: outside the Langevin stability window
    ("malliavin", "m = 3.0\ns_index = 2\nt_index = 5\ndt = 0.2\n"),
    ("ahom", "etas = 0.1,0.01\n"),
    ("ahom", "etas = 0.1,0.1,0.01\n"),
    # three distinct values, but a_hom_extract needs strictly decreasing ones
    ("ahom", "etas = 0.1,0.1,0.01,0.001\n"),
    ("thm13", "etas = 0.13,0.13,0.013,0.0013\n"),
    ("ahom", "etas = 0.1,0.01,-0.001\n"),
    ("thm13", "etas = 0.13,0.013\n"),
    ("thm13", "t_indices = 20,30,45\n"),
    ("thm13", "t_indices = 20,20,30,45\n"),
    ("thm13", "t_indices = 0,20,30,45\n"),
    ("avg-greens", "t_indices = -1,10\n"),
    # the corrector's keys must be finite: the solver ends inf or nan at residual nan
    ("corrector", "eta = inf\n"),
    ("corrector", "xi = nan\n"),
    ("corrector", "xi = inf\n"),
    ("qmatrix", "d = 2\nL = 4\nxi = 0.5,-inf\n"),
    ("ahom", "etas = 0.1,0.01,inf\n"),
    ("thm13", "etas = 0.13,0.013,nan\n"),
    # a scale of zero or below has no logarithm; one scale leaves no slope
    ("rate-fit", "values = 1,0.26,0.0624,0.0158\nscales = 0,1,2,3\n"),
    ("rate-fit", "values = 1,0.26,0.0624,0.0158\nscales = -1,-2,-3,-4\n"),
    ("rate-fit", "values = 1,0.26,0.0624,0.0158\nscales = 1,1,1,1\n"),
    # offsets beyond L // 2 = 8 repeat sites of the torus
    ("correlate", "x_max = 9\n"),
    ("avg-greens", "x_max = 9\n"),
], ids=["x_site", "y_site", "anchors", "anchors_empty", "anchors_comma", "source_site",
        "xi", "malliavin_window", "etas_too_few", "etas_duplicate",
        "etas_repeated", "thm13_etas_repeated", "etas_negative",
        "thm13_etas_too_few", "thm13_t_indices_too_few", "thm13_t_indices_duplicate",
        "thm13_t_indices_zero", "avg_greens_negative_t_index", "eta_inf", "xi_nan",
        "xi_inf", "qmatrix_xi_minus_inf", "etas_inf", "thm13_etas_nan",
        "rate_fit_zero_scale", "rate_fit_negative_scales", "rate_fit_one_scale",
        "correlate_x_max", "avg_greens_x_max"])
def test_exit_code_2_on_bad_site_or_xi_before_compute(kind, text, tmp_path,
                                                      monkeypatch, capsys):
    def no_compute(*args, **kwargs):
        raise AssertionError("simulated before the config was checked")

    monkeypatch.setattr("parahom.environments.langevin_simulate", no_compute)
    monkeypatch.setattr("parahom.field_theory.langevin_path", no_compute)
    cfg = _write(tmp_path, text)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    key = text.splitlines()[-1].split(" = ")[0]
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_directory_is_made_only_after_the_runner_returns(tmp_path, capsys):
    # rate-fit refuses a zero scale inside its runner, after resolve_config
    bad = _write(tmp_path, "values = 1,0.26,0.0624,0.0158\nscales = 0,1,2,3\n")
    assert main(["rate-fit", "--config", bad, "--out", str(tmp_path / "bad")]) == 2
    assert "scales" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    good = _write(tmp_path, "values = 1,0.26,0.0624,0.0158\nscales = 1,0.5,0.25,0.125\n")
    assert main(["rate-fit", "--config", good, "--out", str(tmp_path / "good")]) == 0
    assert (tmp_path / "good" / "manifest.json").exists()
    assert (tmp_path / "good" / "rate-fit.json").exists()


def test_exit_code_2_on_every_float_key_that_is_not_finite_before_compute(
        tmp_path, monkeypatch, capsys):
    # every float key of every kind, and one entry of every float list;
    # run() is stubbed, so no runner is reached whatever the outcome
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the config was checked")

    monkeypatch.setattr("parahom.cli.run", no_run)
    required = {"scales": "1,0.5,0.25,0.125", "values": "1,0.3,0.1,0.03"}
    checked = set()
    for kind, schema in SCHEMAS.items():
        for name, key in schema.items():
            if key.parse not in (config._float, config._float_list):
                continue
            for bad in ("nan", "inf", "-inf"):
                raw = {k: v for k, v in required.items() if k in schema}
                raw[name] = f"0.5,{bad}" if key.parse is config._float_list else bad
                cfg = _write(tmp_path, "".join(f"{k} = {v}\n" for k, v in raw.items()))
                assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2, \
                    (kind, name, bad)
                assert capsys.readouterr().err.startswith(f"config error: {name}: "), \
                    (kind, name, bad)
            checked.add((kind, name))
    assert {("heat-kernel", "t"), ("sample-env", "c"), ("corrector", "xi"),
            ("malliavin", "delta"), ("thm13", "etas"), ("rate-fit", "values")} <= checked


@pytest.mark.parametrize("kind, text", [
    ("greens", "m = 1e-200\n"),
    ("correlate", "m = 1e-200\n"),
    ("thm13", "m = 1e-200\n"),
    ("greens", "dt = 1e-300\n"),
    ("correlate", "dt = 1e-300\n"),
], ids=["greens_m", "correlate_m", "thm13_m", "greens_dt", "correlate_dt"])
def test_exit_code_2_on_a_derived_step_count_beyond_reach_before_a_step(
        kind, text, tmp_path, monkeypatch, capsys):
    # m^2 underflows to 0 at m = 1e-200, and dt = 1e-300 asks for 1e301
    # burn-in steps: the count is refused, naming m and dt, before a step
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before the step count was checked")

    monkeypatch.setattr("parahom.environments.langevin_path", no_step)
    monkeypatch.setattr("parahom.field_theory.langevin_path", no_step)
    cfg = _write(tmp_path, text)
    assert main([kind, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "m, dt" in capsys.readouterr().err


@pytest.mark.parametrize("kind, flag, env", [
    ("sample-env", ["--seed", "-1"], None),
    ("correlate", [], "-3"),
    ("poincare", ["--seed", "-1"], "4"),  # the flag wins over a valid variable
], ids=["flag", "env", "flag-over-env"])
def test_exit_code_2_on_a_negative_seed_override_before_compute(kind, flag, env, tmp_path,
                                                                monkeypatch, capsys):
    # an override passes the seed key's check, as a seed in a config file does
    def no_compute(*args, **kwargs):
        raise AssertionError("simulated before the seed was checked")

    monkeypatch.setattr("parahom.environments.langevin_simulate", no_compute)
    monkeypatch.setattr("parahom.field_theory.langevin_path", no_compute)
    if env is None:
        monkeypatch.delenv("PARAHOM_SEED", raising=False)
    else:
        monkeypatch.setenv("PARAHOM_SEED", env)
    assert main([kind, *flag, "--out", str(tmp_path / "o")]) == 2
    assert "seed: invalid value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "kind, n_samples",
    [("correlate", 1), ("poincare", 1), ("avg-greens", 1), ("thm13", 1), ("poincare", 39)],
    ids=["correlate", "poincare", "avg-greens", "thm13", "poincare-39"])
def test_exit_code_2_on_one_sample_before_compute(kind, n_samples, tmp_path, monkeypatch,
                                                  capsys):
    # one sample has no standard error or variance, and poincare's sigma needs
    # two in each of its 20 groups: the schema refuses fewer, so nothing runs,
    # no artifact is written and no NaN warning is raised
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the config was checked")

    monkeypatch.setattr("parahom.cli.run", no_run)
    cfg = _write(tmp_path, f"n_samples = {n_samples}\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "n_samples" in capsys.readouterr().err


def test_exit_code_2_on_too_few_batch_steps_before_compute(tmp_path, capsys):
    # 5 steps split into 20 batch means leave empty batches: "Mean of empty
    # slice" warnings and a NaN sigma, so the schema refuses n_keep < 20
    cfg = _write(tmp_path, "n_keep = 5\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sde-appendix", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "n_keep" in capsys.readouterr().err


class Arrived(BaseException):
    """Raised by a stubbed sampler or solver; not an Exception, so that
    ``main`` does not turn it into exit 3."""


def _arrive(*args, **kwargs):
    raise Arrived


def _fit_then_arrive(*args, **kwargs):
    # the fit is cheap and holds rate-fit's own checks: run them, then stop
    homogenize.rate_fit(*args, **kwargs)
    raise Arrived


# values no key takes in every kind: zero, negative, tiny, huge, and lists
# of the wrong length (empty, two entries, five)
BAD_VALUES = ["0", "-1", "1e-300", "1e300", "", "0.5,0.5", "1,2,3,4,5"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bad_values_exit_2_or_reach_a_stub_and_leave_no_out(kind, data):
    # every sampler and solver raises Arrived: a config reaches one only
    # when every check before compute passed it; nothing forks on one core
    schema = SCHEMAS[kind]
    raw = {k: v for k, v in {"scales": "1,0.5,0.25,0.125",
                             "values": "1,0.3,0.1,0.03"}.items() if k in schema}
    for name in data.draw(st.lists(st.sampled_from(sorted(schema)), min_size=1,
                                   max_size=2, unique=True), label="keys"):
        raw[name] = data.draw(st.sampled_from(BAD_VALUES), label=name)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        for target in ("parahom.environments.langevin_path",
                       "parahom.field_theory.langevin_path",
                       "parahom.cli.heat_kernel_table", "parahom.cli.heat_kernel_solver",
                       "parahom.cli.finite_dimensional_suite",
                       "parahom.cli.corrector_solve", "parahom.homogenize.corrector_solve"):
            mp.setattr(target, _arrive)
        mp.setattr("parahom.cli.rate_fit", _fit_then_arrive)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg, out = os.path.join(tmp, "config.txt"), os.path.join(tmp, "o")
        with open(cfg, "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in raw.items()))
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = main([kind, "--config", cfg, "--out", out])
        except Arrived:
            code = None
        assert code is None or (code == 2 and err.getvalue().startswith("config error: ")), \
            (code, err.getvalue())
        assert not os.path.exists(out)


def test_exit_code_1_on_verdict_failure(tmp_path):
    # noise-dominated rate fit: the report carries a warning, verdict fails
    rng = np.random.default_rng(0)
    vals = ",".join(str(abs(v)) for v in rng.normal(0, 1e-12, 6))
    cfg = _write(tmp_path, f"scales = 1,2,4,8,16,32\nvalues = {vals}\n")
    assert main(["rate-fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_exit_code_3_on_unwritable_output(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = _write(tmp_path, "d = 1\nradius = 4\nt = 1.0\n")
    code = main(["heat-kernel", "--config", cfg, "--out", str(blocker / "sub")])
    assert code == 3


def test_missing_kind_in_file_without_subcommand(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        load_config(_write(tmp_path, "d = 1\n"))


# -- verify battery ------------------------------------------------------------


def test_verify_suite_rejects_bad_tier():
    with pytest.raises(ConfigError, match="tier"):
        verify_suite("medium")


def test_verify_fast_tier_passes(capsys):
    assert verify_suite("fast")
    out = capsys.readouterr().out
    assert "criterion  1 [PASS]" in out and "all criteria pass" in out
