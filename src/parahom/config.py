"""Flat key-value experiment configuration with per-kind schemas.

Config files are diff-friendly text: one ``key = value`` pair per line,
``#`` comments, no nesting.  List-valued keys use comma separation.
Every key is schema-checked before any compute, and then the keys that
bound each other (``source_site`` by the lattice size ``L**d``, ``x_max``
by ``L // 2``, the length of ``xi`` by ``d``); unknown keys and invalid
values raise :class:`ConfigError` naming the field.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import ConfigError


def _positive(x):
    return x > 0


def _even_positive(x):
    return x > 0 and x % 2 == 0


def _dim(x):
    return x in (1, 2, 3)


def _eta_ladder(xs):
    """Check: at least 3 positive values, none repeated (a decreasing ladder)."""
    return len(set(xs)) == len(xs) >= 3 and min(xs) > 0


@dataclass
class Key:
    """One schema entry: parser, default (None = required), validator."""

    parse: callable
    default: object = None
    check: callable = None
    why: str = ""


def _int_list(s):
    return [int(p) for p in str(s).split(",") if p.strip() != ""]


def _float(s):
    """A finite float: NaN and +-inf are refused for every float key, and
    elementwise for every list of floats."""
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(s)
    return x


def _float_list(s):
    return [_float(p) for p in str(s).split(",") if p.strip() != ""]


_D = Key(int, 1, _dim, "spatial dimension in {1,2,3}")
_SEED = Key(int, 0, lambda x: x >= 0, "non-negative master seed")
_ETAS_WHY = "at least 3 positive values, none repeated"

_ENV_KEYS = {
    "d": _D,
    "L": Key(int, 16, _even_positive, "even positive side length"),
    "dt": Key(_float, 0.05, _positive, "positive time step"),
    "m": Key(_float, 1.0, _positive, "positive mass"),
    "potential": Key(str, "dipole", lambda s: s in ("quadratic", "dipole"),
                     "'quadratic' or 'dipole'"),
    "c": Key(_float, 1.0, _positive, "positive quadratic curvature"),
    "a_dip": Key(_float, 0.3, lambda x: 0 <= x < 1, "dipole amplitude in [0,1)"),
    "seed": _SEED,
}
# the cell problems: environments of n_steps steps, solved at (xi, eta)
_CELL_KEYS = {**_ENV_KEYS, "n_steps": Key(int, 8, _positive)}
_XI_ETA = {
    "xi": Key(_float_list, [0.0]),
    "eta": Key(_float, 0.01, _positive, "positive regularization"),
}
_N_ENV = Key(int, 4, _positive)


def _n_samples(default):
    """Monte Carlo samples: a standard error or variance needs two."""
    return Key(int, default, lambda n: n >= 2, "at least 2 samples")


SCHEMAS = {
    "heat-kernel": {
        "d": _D,
        "radius": Key(int, 40, _positive, "positive truncation radius"),
        "t": Key(_float, 1.0, lambda x: x >= 0, "non-negative time"),
        "seed": _SEED,
    },
    "sample-env": {**_ENV_KEYS, "n_steps": Key(int, 20, _positive)},
    "greens": {
        **_ENV_KEYS,
        "t_index": Key(int, 20, _positive),
        "source_site": Key(int, 0, lambda x: x >= 0),
    },
    "corrector": {**_CELL_KEYS, **_XI_ETA},
    "qmatrix": {**_CELL_KEYS, "n_env": _N_ENV, **_XI_ETA},
    "ahom": {
        **_CELL_KEYS,
        "n_env": _N_ENV,
        "etas": Key(_float_list, [1e-1, 1e-2, 1e-3], _eta_ladder, _ETAS_WHY),
    },
    "avg-greens": {
        **_ENV_KEYS,
        "t_indices": Key(_int_list, [10, 20], lambda xs: bool(xs) and min(xs) >= 0,
                         "non-empty list of non-negative time indices"),
        "n_samples": _n_samples(8),
        "x_max": Key(int, 4, lambda x: x >= 0, "non-negative coordinate range"),
    },
    "rate-fit": {
        "scales": Key(_float_list, None),
        "values": Key(_float_list, None),
        "mode": Key(str, "epsilon", lambda s: s in ("epsilon", "greens-decay")),
        "d": _D,
        "seed": _SEED,
    },
    "correlate": {
        **_ENV_KEYS,
        "n_samples": _n_samples(2000),
        "x_max": Key(int, 2, lambda x: x >= 0),
        "anchors": Key(_int_list, [0], bool, "non-empty list of anchor sites"),
    },
    "thm13": {
        **_ENV_KEYS,
        "t_indices": Key(_int_list, [20, 30, 45, 68, 100],
                         lambda xs: len(set(xs)) >= 4 and min(xs) > 0,
                         "at least 4 distinct positive time indices"),
        "n_samples": _n_samples(100),
        "n_env_cell": Key(int, 4, _positive),
        "etas": Key(_float_list, [0.13, 0.013, 0.0013], _eta_ladder, _ETAS_WHY),
    },
    "malliavin": {
        **_ENV_KEYS,
        # the identity holds to O(dt): 1e-3 meets the 1e-3 verdict
        "dt": Key(_float, 1e-3, _positive, "positive time step"),
        "y_site": Key(int, 1, lambda x: x >= 0),
        "s_index": Key(int, 50, lambda x: x >= 0),
        "x_site": Key(int, 0, lambda x: x >= 0),
        "t_index": Key(int, 100, _positive),
        "delta": Key(_float, 1e-5, lambda x: 1e-7 <= x <= 1e-3,
                     "perturbation in [1e-7, 1e-3]"),
    },
    "poincare": {
        **_ENV_KEYS,
        "n_steps": Key(int, 120, _positive),
        "n_samples": Key(int, 2000, lambda n: n >= 40,
                         "at least 40 samples, two in each of the 20 groups behind sigma"),
        "functional": Key(str, "site", lambda s: s in ("site", "tanh-sum", "sin-sum")),
    },
    "sde-appendix": {
        "seed": _SEED,
        "n_paths": Key(int, 30000, _positive),
        "n_keep": Key(int, 20000, lambda n: n >= 20, "at least 20 steps for 20 batch means"),
    },
}
KINDS = tuple(SCHEMAS)


@dataclass
class ExperimentConfig:
    """A schema-validated experiment: kind plus resolved parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    @property
    def seed(self):
        return self.params.get("seed", 0)

    def canonical_text(self):
        lines = [f"kind = {self.kind}"]
        for k in sorted(self.params):
            v = self.params[k]
            if isinstance(v, list):
                v = ",".join(repr(p) for p in v)
            lines.append(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def as_jsonable(self):
        return {"kind": self.kind, **{k: self.params[k] for k in sorted(self.params)}}


def parse_config_text(text, kind=None):
    """Parse flat ``key = value`` text into raw string pairs."""
    raw = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        k, v = (p.strip() for p in line.split("=", 1))
        if k in raw:
            raise ConfigError(f"line {ln}: duplicate key {k!r}")
        raw[k] = v
    if "kind" in raw:
        file_kind = raw.pop("kind")
        if kind is not None and file_kind != kind:
            raise ConfigError(
                f"kind: config file says {file_kind!r}, subcommand is {kind!r}"
            )
        kind = file_kind
    return kind, raw


def resolve_config(kind, raw, seed_override=None) -> ExperimentConfig:
    """Validate raw string pairs against the schema for ``kind``."""
    if kind not in SCHEMAS:
        raise ConfigError(f"kind: unknown experiment kind {kind!r}; "
                          f"choose one of {', '.join(KINDS)}")
    schema = SCHEMAS[kind]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"{unknown[0]}: unknown key for kind {kind!r}")
    if seed_override is not None and "seed" in schema:
        # the override passes the seed key's own check like a file's seed
        raw = {**raw, "seed": seed_override}
    params = {}
    for name, key in schema.items():
        if name in raw:
            try:
                val = key.parse(raw[name])
            except (TypeError, ValueError):
                why = " (floats must be finite)" if key.parse in (_float, _float_list) else ""
                raise ConfigError(f"{name}: cannot parse {raw[name]!r}{why}") from None
        elif key.default is not None:
            val = key.default
        else:
            raise ConfigError(f"{name}: required key missing for kind {kind!r}")
        if key.check is not None and not key.check(val):
            hint = f" ({key.why})" if key.why else ""
            raise ConfigError(f"{name}: invalid value {val!r}{hint}")
        params[name] = val
    # keys checked against each other once each is valid on its own
    if "source_site" in params and params["source_site"] >= params["L"] ** params["d"]:
        raise ConfigError("source_site: outside the lattice")
    if "x_max" in params and params["x_max"] > params["L"] // 2:
        # an offset beyond half the side repeats a site of the torus
        raise ConfigError(f"x_max: beyond half the side, L // 2 = {params['L'] // 2}")
    if "xi" in params and len(params["xi"]) != params["d"]:
        raise ConfigError(f"xi: expected {params['d']} components, got {len(params['xi'])}")
    return ExperimentConfig(kind, params)


def load_config(path, kind=None, seed_override=None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        kind, raw = parse_config_text(fh.read(), kind=kind)
    if kind is None:
        raise ConfigError("kind: missing (set it in the file or use a subcommand)")
    return resolve_config(kind, raw, seed_override=seed_override)


def fmt17(x):
    """Locale-independent float with 17 significant digits."""
    return format(float(x), ".17g")


def dump_json(obj, path):
    """Deterministic JSON artifact (sorted keys, '\\n' endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
