"""Experiment configuration: a plain-text INI file with JSON-typed values.

Sections: [experiment] run-wide settings, [domain] the box and sphere
diameter, [density] the initial measure (same schema as the serialized
density block), and one [check.<id>] section per requested check, in
execution order.  A second instance of the same check can be configured
as [check.<id>.<label>].  The schema is versioned via schema_version.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from hardsphere.geometry import Domain, Vec3
from hardsphere.hierarchy import PhaseBox
from hardsphere.measures import (
    NORM_PROPOSALS,
    DensitySpec,
    GrandCanonicalEq,
    spec_from_block,
    spec_to_block,
)

SCHEMA_VERSION = 1

# The parameters of each check with their defaults; checks.run_check
# fills in the defaults and validate rejects any other key.  A type in
# place of a default marks a value the check derives when it is not given:
# the liouville times (t/3, 2t/3, t), beta0 (the density's beta) and the
# series m_max (every stratum up to the particle number).
CHECK_PARAMS = {
    "conservation": {"samples": 600_000},
    "reversibility": {"trajectories": 1000, "n_list": (2, 3, 5), "events_target": 20.0},
    "liouville": {"n": 1, "t": 12.0, "times": list, "samples": 30_000, "delta": "bulk"},
    "special_flow": {"resolution": 1024, "t": 3.7, "flows": ()},
    "lemma2_rate": {"t": 12.0, "trajectories": 100_000, "rate_samples": 2_000_000,
                    "n_list": (2, 3)},
    "prop1_decomposition": {"n": 1, "t": 12.0, "samples": 100_000, "inner_samples": 128,
                            "deltas": ("bulk", "near_wall", "high_momentum")},
    "prop5_onestep": {"n": 1, "t": 12.0, "samples": 60_000, "inner_samples": 128,
                      "beta0": float, "deltas": ("bulk",)},
    "series_identity": {"n": 1, "t": 12.0, "samples": 100_000, "m_max": int,
                        "allocation": (0.5, 0.3, 0.2), "beta0": float, "inner_samples": 128,
                        "antithetic": True, "direction_draws": 1,
                        "deltas": ("bulk", "near_wall")},
    "grand_canonical_identity": {"micro_box": (2.5, 1.2, 1.2), "z": 50.0, "n": 1, "t": 2.0,
                                 "samples": 40_000, "inner_samples": 128,
                                 "allocation": (0.35, 0.45, 0.2), "direction_draws": 24},
    "map_roundtrip": {"micro_box": (2.5, 1.2, 1.2), "z": 50.0, "inner_samples": 192,
                      "outer_samples": 384, "points": 5},
}

CHECK_IDS = tuple(CHECK_PARAMS)

# counts, sizes, times, beta0 and the fugacity z: positive wherever they appear
_POSITIVE = ("samples", "trajectories", "inner_samples", "rate_samples", "outer_samples",
             "points", "resolution", "events_target", "t", "direction_draws", "beta0", "z")
# the JSON types of the elements of each list parameter, and the lists
# that must not be empty (a check with no case tests nothing)
_ELEMENTS = {"deltas": ("object", "string"), "n_list": ("integer",), "times": ("number",),
             "allocation": ("number",), "micro_box": ("number",)}
_NONEMPTY = ("deltas", "n_list", "times")
# the least value of a count, or of each entry of a list, below which a
# check passes vacuously or crashes: the inverse map's error bar needs two
# outer samples, the rate's two rate samples, one sphere never collides,
# and no sphere has no events
_AT_LEAST = {("map_roundtrip", "outer_samples"): 2, ("lemma2_rate", "n_list"): 2,
             ("lemma2_rate", "rate_samples"): 2, ("reversibility", "n_list"): 1}
# the checks that need a fixed particle number N, and whether N must
# exceed the check's n: the decomposition and the one-step identity
# follow particle n + 1
_FIXED_N = {"liouville": False, "prop1_decomposition": True, "prop5_onestep": True,
            "series_identity": False}
# the key holding the phase boxes of each check whose boxes must hold the
# check's n particles; grand_canonical_identity builds its own box
_BOXES = {"liouville": "delta", "prop1_decomposition": "deltas", "prop5_onestep": "deltas",
          "series_identity": "deltas", "grand_canonical_identity": None}


# the one-particle phase boxes a check may name: (q_lo, q_hi, p_lo, p_hi)
# over the domain's inset [lo, hi] and the thermal momentum sig
_DELTA_PRESETS = {
    "bulk": lambda lo, hi, sig: (lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo),
                                 [-1.2 * sig] * 3, [1.2 * sig] * 3),
    "near_wall": lambda lo, hi, sig: (lo, np.r_[lo[0] + 0.15 * (hi - lo)[0], hi[1:]],
                                      [-1.2 * sig] * 3, [1.2 * sig] * 3),
    "high_momentum": lambda lo, hi, sig: (lo, hi, [1.0 * sig, -2.0 * sig, -2.0 * sig],
                                          [3.0 * sig, 2.0 * sig, 2.0 * sig]),
}


def delta_preset(name: str, domain: Domain, beta: float) -> PhaseBox:
    """The one-particle phase box named ``name`` in a domain at inverse
    temperature beta."""
    if name not in _DELTA_PRESETS:
        raise ValueError(f"unknown delta preset {name!r}")
    bounds = _DELTA_PRESETS[name](np.array(domain.inset_lower), np.array(domain.inset_upper),
                                  1.0 / math.sqrt(beta))
    return PhaseBox.of(*([b] for b in bounds))


def _json_kind(cls: type) -> str:
    """The JSON type of values of a Python type."""
    for types, kind in ((bool, "boolean"), ((int, float), "number"), (str, "string"),
                        ((list, tuple), "array"), (dict, "object")):
        if issubclass(cls, types):
            return kind
    return "null"


def _element_ok(value, kinds) -> bool:
    kind = _json_kind(type(value))
    return kind in kinds or (kind == "number" and isinstance(value, int) and "integer" in kinds)


def _integer(default) -> bool:
    """Whether a setting with this default (or derived type) takes only
    JSON integers."""
    return default is int or (isinstance(default, int) and not isinstance(default, bool))


def _allowed_kinds(default) -> set[str]:
    if isinstance(default, type):
        return {_json_kind(default), "null"}
    # a delta preset name may also be an explicit box dict
    return {_json_kind(type(default))} | ({"object"} if isinstance(default, str) else set())


def _box_problems(cid: str, own: dict) -> list[str]:
    """A check's box entries that are not phase boxes or whose particle
    count is not the check's n.  A preset name is a 1-particle box, and so
    is the micro-box of grand_canonical_identity."""
    key, n = _BOXES[cid], own["n"]
    entries = ["micro"] if key is None else own[key] if key == "deltas" else [own[key]]
    problems = []
    for entry in entries:
        if key is not None and isinstance(entry, str) and entry not in _DELTA_PRESETS:
            problems.append(f"{cid}: unknown delta preset {entry!r}")
            continue
        try:
            size = 1 if isinstance(entry, str) else PhaseBox.from_dict(entry).n
        except (KeyError, TypeError, ValueError) as exc:
            why = f": {exc}" if isinstance(exc, ValueError) else ""
            problems.append(f"{cid}: {key} entry {entry!r} is not a phase box{why}")
            continue
        if isinstance(n, int) and size != n:
            problems.append(f"{cid}: the box is {size}-particle, the check's n is {n}")
    return problems


def check_params(check_id: str, params: dict) -> dict:
    """The parameters of one check: ``params`` over the table's defaults."""
    defaults = {k: None if isinstance(d, type) else d for k, d in CHECK_PARAMS[check_id].items()}
    return {**defaults, **params}


def check_problems(density: DensitySpec, cid: str, params: dict) -> list[str]:
    """The problems of one check entry, its id and its parameters, in a
    config of this density; empty means the entry is usable."""
    table = CHECK_PARAMS.get(cid)
    if table is None:
        return [f"unknown check id {cid!r}"]
    problems = []
    for key, value in sorted(params.items()):
        if key not in table:
            problems.append(f"{cid}: unknown parameter {key!r}")
        elif _json_kind(type(value)) not in _allowed_kinds(table[key]):
            kinds = " or ".join(sorted(_allowed_kinds(table[key])))
            problems.append(f"{cid}: {key} must be {kinds}")
        elif _integer(table[key]) and value is not None and not _element_ok(
                value, ("integer",)):
            problems.append(f"{cid}: {key} must be integer")
        elif key in _POSITIVE and value is not None and not value > 0:
            problems.append(f"{cid}: {key} must be positive")
        elif key in _NONEMPTY and value is not None and not value:
            problems.append(f"{cid}: {key} must not be empty")
        elif key in _ELEMENTS and value is not None and not all(
                _element_ok(x, _ELEMENTS[key]) for x in value):
            problems.append(f"{cid}: {key} entries must be {' or '.join(_ELEMENTS[key])}")
        elif key == "m_max" and value is not None and value < 0:
            problems.append(f"{cid}: m_max must not be negative")
        elif key == "allocation" and not (len(value) == 3 and all(x > 0 for x in value)):
            # the sample split over m = 0, 1 and >= 2
            problems.append(f"{cid}: allocation must be three positive numbers")
        elif key == "micro_box" and not (len(value) == 3 and all(x > 1 for x in value)):
            # the sides in diameters; a side must leave a center its wall margin
            problems.append(f"{cid}: micro_box must be three sides above 1 diameter")
        elif (cid, key) in _AT_LEAST and min(np.ravel(value)) < _AT_LEAST[cid, key]:
            what = f"{key} entries" if key == "n_list" else key
            problems.append(f"{cid}: {what} must be at least {_AT_LEAST[cid, key]}")
    if cid in _BOXES and not problems:
        problems += _box_problems(cid, check_params(cid, params))
    if cid in _FIXED_N:
        problems += _particle_problems(density, cid, check_params(cid, params)["n"])
    return problems


def _particle_problems(density: DensitySpec, cid: str, n) -> list[str]:
    """The problems of a fixed-N check's n against the density's N."""
    if isinstance(density, GrandCanonicalEq):
        return [f"{cid}: needs a fixed particle number, the density variant is grand_canonical"]
    big_n = density.n_particles
    if not isinstance(n, int):
        return []
    if _FIXED_N[cid] and big_n < n + 1:
        return [f"{cid}: needs at least n + 1 = {n + 1} particles, the density's n is {big_n}"]
    if big_n < n:
        return [f"{cid}: n = {n} exceeds the density's n = {big_n}"]
    if cid == "prop5_onestep" and big_n > n + 1:
        # its collision term S_{n+1}(s) rho_{n+1}(0) is the identity's
        # rho_{n+1}(s) only when the n + 1 particles are the whole system
        return [f"{cid}: the collision term is exact only at N = n + 1, "
                f"at N = {big_n} > n + 1 = {n + 1} it is the series truncated after m = 1"]
    return []


@dataclass(slots=True)
class ExperimentConfig:
    domain: Domain
    density: DensitySpec
    checks: list = field(default_factory=list)   # (check_id, label, params dict)
    seed: int = 20250810
    workers: int = 1
    out: str = "report.jsonl"
    sigma: float = 3.0
    degenerate_ceiling: float = 1e-3
    chunk_size: int = 25_000
    norm_proposals: int = NORM_PROPOSALS
    schema_version: int = SCHEMA_VERSION

    def canonical_dict(self) -> dict:
        # the worker count and the report path change no report byte
        return {
            **{k: getattr(self, k) for k in _EXPERIMENT_DEFAULTS if k not in ("workers", "out")},
            "density": spec_to_block(self.density, self.domain),
            "checks": [
                {"id": cid, "label": label, "params": params}
                for cid, label, params in self.checks
            ],
        }

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def validate(self, checks: list | None = None) -> list[str]:
        """The problems of the check entries (``checks``, else the config's
        own), the run-wide settings and the density; empty means usable."""
        problems = [p for cid, _, params in (self.checks if checks is None else checks)
                    for p in check_problems(self.density, cid, params)]
        density = self.density
        if not density.beta > 0:
            problems.append("density: beta must be positive")
        if isinstance(density, GrandCanonicalEq):
            if not density.z > 0:
                problems.append("density: z must be positive")
        elif density.n_particles < 1:
            problems.append("density: n must be at least 1")
        if self.workers < 1:
            problems.append("workers must be >= 1")
        if self.sigma <= 0:
            problems.append("sigma must be positive")
        if self.chunk_size < 1:
            problems.append("chunk_size must be positive")
        if self.norm_proposals < 1:
            problems.append("norm_proposals must be positive")
        return problems


# the [experiment] keys, every run-wide setting of ExperimentConfig, with
# their defaults
_EXPERIMENT_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)
                        if f.name not in ("domain", "density", "checks")}


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw.strip()


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return loads_config(fh.read())


def _unknown_keys(section: str, given, known) -> list[str]:
    return [f"unknown key {k!r} in [{section}]" for k in given if k not in known]


def loads_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    exp = {k: _parse_value(v) for k, v in parser.items("experiment")} \
        if parser.has_section("experiment") else {}
    version = int(exp.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version}")
    problems = [f"unknown section [{section}]" for section in parser.sections()
                if section not in ("experiment", "domain", "density")
                and not section.startswith("check.")]
    problems += _unknown_keys("experiment", exp, _EXPERIMENT_DEFAULTS)
    kinds = {k: "integer" if _integer(d) else _json_kind(type(d))
             for k, d in _EXPERIMENT_DEFAULTS.items()}
    problems += [f"key {k!r} in [experiment] must be {kinds[k]}" for k, v in exp.items()
                 if k in kinds and not _element_ok(v, (kinds[k],))]

    dom_sec = {k: _parse_value(v) for k, v in parser.items("domain")}
    problems += _unknown_keys("domain", dom_sec, ("box", "a"))
    box = [float(x) for x in dom_sec["box"]]
    domain = Domain(Vec3(*box[:3]), Vec3(*box[3:]), float(dom_sec["a"]))

    dens = {k: _parse_value(v) for k, v in parser.items("density")}
    dens.setdefault("box", box)
    dens.setdefault("a", dom_sec["a"])
    spec, spec_domain = spec_from_block(dens)
    if spec_domain != domain:
        raise ValueError("density block box/a disagree with [domain]")
    # the keys a block of this variant is written with
    problems += _unknown_keys("density", dens, spec_to_block(spec, domain))
    if problems:
        raise ValueError("; ".join(problems))

    checks = []
    for section in parser.sections():
        if not section.startswith("check."):
            continue
        rest = section[len("check."):]
        cid, _, label = rest.partition(".")
        params = {k: _parse_value(v) for k, v in parser.items(section)}
        checks.append((cid, label or "", params))

    # each run-wide setting has the type of its default
    settings = {k: type(_EXPERIMENT_DEFAULTS[k])(v) for k, v in exp.items()}
    return ExperimentConfig(domain=domain, density=spec, checks=checks, **settings)


def dump_config(exp: ExperimentConfig) -> str:
    """Render a config back to INI text (values as JSON)."""
    lines = ["[experiment]"]
    lines.extend(f"{key} = {json.dumps(getattr(exp, key))}" for key in _EXPERIMENT_DEFAULTS)
    lines.append("")
    lines.append("[domain]")
    lo, hi = exp.domain.lower, exp.domain.upper
    lines.append(f"box = [{lo.x}, {lo.y}, {lo.z}, {hi.x}, {hi.y}, {hi.z}]")
    lines.append(f"a = {exp.domain.a}")
    lines.append("")
    lines.append("[density]")
    for key, value in spec_to_block(exp.density, exp.domain).items():
        if key not in ("box", "a"):
            lines.append(f"{key} = {json.dumps(value)}")
    for cid, label, params in exp.checks:
        lines.append("")
        lines.append(f"[check.{cid}{'.' + label if label else ''}]")
        for k, v in params.items():
            lines.append(f"{k} = {json.dumps(v)}")
    return "\n".join(lines) + "\n"
