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
from dataclasses import dataclass, field

from hardsphere.geometry import Domain, Vec3
from hardsphere.measures import (
    NORM_PROPOSALS,
    DensitySpec,
    spec_from_block,
    spec_to_block,
)

SCHEMA_VERSION = 1

# The parameters each check's runner reads (checks._RUNNERS); any other
# key in a [check.<id>] section is reported as a config error.
CHECK_PARAMS = {
    "conservation": {"samples"},
    "reversibility": {"trajectories", "n_list", "events_target"},
    "liouville": {"n", "t", "times", "samples", "delta"},
    "special_flow": {"resolution", "t", "flows"},
    "lemma2_rate": {"t", "trajectories", "rate_samples", "n_list"},
    "prop1_decomposition": {"n", "t", "samples", "inner_samples", "deltas"},
    "prop5_onestep": {"n", "t", "samples", "inner_samples", "beta0", "deltas"},
    "series_identity": {"n", "t", "samples", "m_max", "allocation", "beta0",
                        "inner_samples", "antithetic", "direction_draws", "deltas"},
    "grand_canonical_identity": {"micro_box", "z", "n", "t", "samples", "inner_samples",
                                 "allocation", "direction_draws"},
    "map_roundtrip": {"micro_box", "z", "inner_samples", "outer_samples", "points"},
}

CHECK_IDS = tuple(CHECK_PARAMS)

# sample counts and sizes that must be positive wherever they appear
_POSITIVE = ("samples", "trajectories", "inner_samples", "rate_samples", "outer_samples",
             "points", "resolution", "events_target")


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
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "sigma": self.sigma,
            "degenerate_ceiling": self.degenerate_ceiling,
            "chunk_size": self.chunk_size,
            "norm_proposals": self.norm_proposals,
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

    def validate(self) -> list[str]:
        """Returns a list of problems; empty means the config is usable."""
        problems = []
        for cid, label, params in self.checks:
            if cid not in CHECK_IDS:
                problems.append(f"unknown check id {cid!r}")
            else:
                for key in sorted(set(params) - CHECK_PARAMS[cid]):
                    problems.append(f"{cid}: unknown parameter {key!r}")
            for key in _POSITIVE:
                if key in params and not params[key] > 0:
                    problems.append(f"{cid}: {key} must be positive")
            if "t" in params and not params["t"] > 0:
                problems.append(f"{cid}: t must be positive")
        if self.workers < 1:
            problems.append("workers must be >= 1")
        if self.sigma <= 0:
            problems.append("sigma must be positive")
        return problems


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw.strip()


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        parser.read_file(fh)
    return _from_parser(parser)


def loads_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return _from_parser(parser)


def _from_parser(parser: configparser.ConfigParser) -> ExperimentConfig:
    exp = {k: _parse_value(v) for k, v in parser.items("experiment")} \
        if parser.has_section("experiment") else {}
    version = int(exp.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version}")

    dom_sec = {k: _parse_value(v) for k, v in parser.items("domain")}
    box = [float(x) for x in dom_sec["box"]]
    domain = Domain(Vec3(*box[:3]), Vec3(*box[3:]), float(dom_sec["a"]))

    dens = {k: _parse_value(v) for k, v in parser.items("density")}
    dens.setdefault("box", box)
    dens.setdefault("a", dom_sec["a"])
    spec, spec_domain = spec_from_block(dens)
    if spec_domain != domain:
        raise ValueError("density block box/a disagree with [domain]")

    checks = []
    for section in parser.sections():
        if not section.startswith("check."):
            continue
        rest = section[len("check."):]
        cid, _, label = rest.partition(".")
        params = {k: _parse_value(v) for k, v in parser.items(section)}
        checks.append((cid, label or "", params))

    return ExperimentConfig(
        domain=domain,
        density=spec,
        checks=checks,
        seed=int(exp.get("seed", 20250810)),
        workers=int(exp.get("workers", 1)),
        out=str(exp.get("out", "report.jsonl")),
        sigma=float(exp.get("sigma", 3.0)),
        degenerate_ceiling=float(exp.get("degenerate_ceiling", 1e-3)),
        chunk_size=int(exp.get("chunk_size", 25_000)),
        norm_proposals=int(exp.get("norm_proposals", NORM_PROPOSALS)),
        schema_version=version,
    )


def dump_config(exp: ExperimentConfig) -> str:
    """Render a config back to INI text (values as JSON)."""
    lines = ["[experiment]"]
    lines.append(f"schema_version = {exp.schema_version}")
    lines.append(f"seed = {exp.seed}")
    lines.append(f"workers = {exp.workers}")
    lines.append(f'out = "{exp.out}"')
    lines.append(f"sigma = {exp.sigma}")
    lines.append(f"degenerate_ceiling = {exp.degenerate_ceiling}")
    lines.append(f"chunk_size = {exp.chunk_size}")
    lines.append(f"norm_proposals = {exp.norm_proposals}")
    lines.append("")
    lines.append("[domain]")
    lo, hi = exp.domain.lower, exp.domain.upper
    lines.append(f"box = [{lo.x}, {lo.y}, {lo.z}, {hi.x}, {hi.y}, {hi.z}]")
    lines.append(f"a = {exp.domain.a}")
    lines.append("")
    lines.append("[density]")
    block = spec_to_block(exp.density, exp.domain)
    for key in ("variant", "n", "z", "beta", "g_choice", "g_amplitude"):
        if key in block:
            lines.append(f"{key} = {json.dumps(block[key])}")
    for cid, label, params in exp.checks:
        lines.append("")
        lines.append(f"[check.{cid}{'.' + label if label else ''}]")
        for k, v in params.items():
            lines.append(f"{k} = {json.dumps(v)}")
    return "\n".join(lines) + "\n"
