"""Command-line driver: run configured checks, validate configs, and
summarize reports.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 for
configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from hardsphere import checks as checks_mod
from hardsphere.config import CHECK_IDS, ExperimentConfig, load_config
from hardsphere.geometry import Domain, Vec3
from hardsphere.measures import ModulatedProduct


def default_experiment() -> ExperimentConfig:
    """Desk-scale default: a 5a box at beta = 1 with two spheres and a
    cosine-modulated initial measure, running the full check suite."""
    a = 1.0
    domain = Domain(Vec3(0.0, 0.0, 0.0), Vec3(5.0, 5.0, 5.0), a)
    density = ModulatedProduct(2, 1.0)
    checks = [
        ("conservation", "", {}),
        ("reversibility", "", {"trajectories": 400, "n_list": [2, 3, 5]}),
        ("special_flow", "", {}),
        ("lemma2_rate", "", {"trajectories": 30_000, "t": 12.0}),
        ("liouville", "", {"samples": 20_000, "t": 12.0}),
        ("prop1_decomposition", "", {"samples": 30_000, "t": 12.0}),
        ("prop5_onestep", "", {"samples": 30_000, "t": 12.0}),
        ("series_identity", "", {"samples": 40_000, "t": 12.0}),
        ("grand_canonical_identity", "", {"samples": 20_000, "t": 2.0}),
        ("map_roundtrip", "", {}),
    ]
    return ExperimentConfig(domain=domain, density=density, checks=checks)


def _load(args) -> ExperimentConfig:
    exp = load_config(args.config) if args.config else default_experiment()
    if args.seed is not None:
        exp.seed = args.seed
    if args.workers is not None:
        exp.workers = args.workers
    if args.out is not None:
        exp.out = args.out
    return exp


def _checked(args) -> ExperimentConfig | None:
    """The config, or None after printing its problems."""
    exp = _load(args)
    problems = exp.validate()
    for p in problems:
        print(f"config error: {p}", file=sys.stderr)
    return None if problems else exp


def cmd_run(args) -> int:
    try:
        exp = _checked(args)
        if exp is None:
            return 2
        reports = checks_mod.run_all(exp, only=args.check or None)
    except Exception as exc:   # a failed check is a report; anything raised is an error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not reports:            # a run that tested nothing did not pass
        print("error: the selected checks produced no report", file=sys.stderr)
        return 2
    checks_mod.write_report(reports, exp.out)
    print(checks_mod.summary_table(reports))
    print(f"report written to {exp.out}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_validate(args) -> int:
    try:
        exp = _checked(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if exp is None:
        return 2
    print(f"config ok: {len(exp.checks)} checks, seed {exp.seed}, "
          f"hash {exp.config_hash}")
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.path) as fh:
            reports = [checks_mod.CheckReport(**json.loads(line)) for line in fh if line.strip()]
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(checks_mod.summary_table(reports))
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardsphere",
        description="hard-sphere dynamics and correlation-identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured checks")
    p_run.add_argument("--config", help="INI config path (default: built-in suite)")
    p_run.add_argument("--seed", type=int, help="override the experiment seed")
    p_run.add_argument("--workers", type=int, help="worker process count")
    p_run.add_argument("--out", help="JSON-lines report path")
    p_run.add_argument("--check", action="append", choices=CHECK_IDS,
                       help="run only this check id (repeatable)")
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="parse and sanity-check a config")
    p_val.add_argument("--config", help="INI config path")
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--workers", type=int)
    p_val.add_argument("--out")
    p_val.set_defaults(fn=cmd_validate)

    p_rep = sub.add_parser("report", help="summarize a JSON-lines report")
    p_rep.add_argument("path", help="report file")
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
