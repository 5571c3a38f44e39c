"""Benchmark of the simulation-vs-series verdict.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --all [--seed S] [--seconds T]

The first form runs one workload (forward, series, grand_micro, suite)
from the root of a source checkout and prints, as its last line, one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics
from spans recorded around calls into each module with --trace 1.
Details (every estimate, its reference and verdict) go to
.perfbench/<workload>.trace<0|1>.json, spans to .perfbench/<workload>.spans.npz.

The second form runs every workload untraced and traced, prints every
metric by name with its unit and the tracing overhead of each workload,
and writes .perfbench/summary.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("forward", "series", "grand_micro", "suite")
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "wall_s": "s",
    "s_at_1pct": "s",
    "peak_rss_mb": "MB",
}

STRATA = (0, 1, 2)
LAYERS = ("dynamics", "hierarchy", "measures", "geometry", "checks")
MEASURE_METHODS = ("sample_batch", "sample", "eval_arrays", "exclusion_integral", "admissible")


def _check_ids() -> tuple:
    from hardsphere.config import CHECK_IDS

    return CHECK_IDS


def _degeneracy_kinds() -> list:
    from hardsphere.dynamics import DegeneracyKind

    return [k.value for k in DegeneracyKind]


def layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    u = {}
    u.update({"dynamics.evolve.calls": "count", "dynamics.evolve.self_s": "s",
              "dynamics.evolve.us_per_call": "us", "dynamics.events": "count",
              "dynamics.pair_events": "count", "dynamics.wall_events": "count",
              "dynamics.events_per_s": "1/s"})
    u.update({f"dynamics.degenerate.{k}": "count" for k in _degeneracy_kinds()})
    u.update({"hierarchy.build_history.calls": "count", "hierarchy.build_history.self_s": "s",
              "hierarchy.build_history.us_per_call": "us",
              "hierarchy.build_history.m1.us_per_call": "us"})
    u.update({f"hierarchy.build_history.m{m}.calls": "count" for m in STRATA})
    u.update({"hierarchy.blocked_frac": "ratio", "hierarchy.degenerate_frac": "ratio",
              "hierarchy.empirical_rho.self_s": "s", "hierarchy.series_eval.self_s": "s"})
    for m in STRATA:
        u.update({f"hierarchy.stratum_m{m}.var": "1", f"hierarchy.stratum_m{m}.cancel": "ratio",
                  f"hierarchy.stratum_m{m}.pos": "1", f"hierarchy.stratum_m{m}.neg": "1"})
    u["hierarchy.norm_err_share"] = "ratio"
    u["measures.get_measure.s"] = "s"
    for meth in MEASURE_METHODS:
        u[f"measures.{meth}.calls"] = "count"
        u[f"measures.{meth}.self_s"] = "s"
        u[f"measures.{meth}.us_per_call"] = "us"
    u.update({"geometry.omega_admissible.calls": "count",
              "geometry.omega_admissible.self_s": "s",
              "geometry.omega_admissible.us_per_call": "us"})
    u.update({f"checks.run_check.{cid}.s": "s" for cid in _check_ids()})
    u["checks.cpu_util"] = "ratio"
    u.update({f"{layer}.self_s": "s" for layer in LAYERS})
    u.update({"bench.residue_s": "s", "bench.traced_wall_s": "s", "bench.round_wall_s": "s",
              "bench.unaccounted_s": "s", "bench.fail_frac": "ratio"})
    return u


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _time_setup(workload: str) -> tuple[float, float]:
    """Median host-normalized and raw wall time of fresh interpreters that
    import the program and build the workload's measures."""
    from metrics import host_normalized, kernel_s, median

    raw, norm = [], []
    kernel = kernel_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup", workload],
                              cwd=ROOT, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup of {workload} exited with {proc.returncode}")
        kernel_before, kernel = kernel, kernel_s()
        norm.append(host_normalized(raw[-1], kernel_before, kernel))
    return median(norm), median(raw)


def _per_call(total_s: float, calls: int) -> float:
    return 1e6 * total_s / calls if calls else 0.0


# ---------------------------------------------------------------------------
# metrics from one run
# ---------------------------------------------------------------------------

def e2e_metrics(workload: str, result: dict, setup_s: float, refs: dict) -> dict:
    """wall_s is one round (suite: one pass), summed over its estimates
    (checks) of their median host-normalized time; samples_per_s is that
    round's samples over wall_s."""
    from metrics import s_at_1pct
    from workloads import suite_timings

    if workload == "suite":
        values = suite_timings(result["passes"], refs)
    else:
        done = [t for t in result["tallies"] if t.round_norm]
        wall = sum(t.round_s for t in done)
        values = {
            "samples_per_s": sum(t.round_samples for t in done) / wall,
            "wall_s": wall,
            "s_at_1pct": s_at_1pct([t.s_at_1pct_part() for t in done if t.op.in_s_at_1pct]),
        }
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = _peak_rss_mb()
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def layer_metrics(result: dict, tracer, root: int, fail_frac: float, round_wall: float) -> dict:
    from metrics import median
    from spans import summarize

    s = summarize(tracer, root)
    c = tracer.counts

    def span(name, key):
        return s.get(name, {}).get(key, 0.0)

    v = {}
    calls = c["dynamics.evolve.calls"]
    events = c["dynamics.pair_events"] + c["dynamics.wall_events"]
    v.update({"dynamics.evolve.calls": calls,
              "dynamics.evolve.self_s": span("dynamics.evolve", "self_s"),
              "dynamics.evolve.us_per_call": _per_call(span("dynamics.evolve", "incl_s"), calls),
              "dynamics.events": events,
              "dynamics.pair_events": c["dynamics.pair_events"],
              "dynamics.wall_events": c["dynamics.wall_events"],
              "dynamics.events_per_s": (events / span("dynamics.evolve", "incl_s")
                                        if events else 0.0)})
    v.update({f"dynamics.degenerate.{k}": c[f"dynamics.degenerate.{k}"]
              for k in _degeneracy_kinds()})

    histories = {m: s.get(f"hierarchy.build_history.m{m}", {}) for m in STRATA}
    built = sum(h.get("spans", 0) for h in histories.values())
    v.update({"hierarchy.build_history.calls": built,
              "hierarchy.build_history.self_s": sum(h.get("self_s", 0.0) for h in histories.values()),
              "hierarchy.build_history.us_per_call":
                  _per_call(sum(h.get("incl_s", 0.0) for h in histories.values()), built),
              "hierarchy.build_history.m1.us_per_call":
                  _per_call(histories[1].get("incl_s", 0.0), histories[1].get("spans", 0)),
              "hierarchy.blocked_frac": c["hierarchy.build_history.blocked"] / built if built else 0.0,
              "hierarchy.degenerate_frac":
                  c["hierarchy.build_history.degenerate"] / built if built else 0.0})
    v.update({f"hierarchy.build_history.m{m}.calls": histories[m].get("spans", 0)
              for m in STRATA})
    v.update({f"hierarchy.{fn}.self_s": span(f"hierarchy.{fn}", "self_s")
              for fn in ("empirical_rho", "series_eval")})
    v.update(strata_metrics(result.get("tallies", [])))

    v["measures.get_measure.s"] = setup_span_seconds(tracer, "measures.get_measure")
    for meth in MEASURE_METHODS:
        n = s.get(f"measures.{meth}", {}).get("spans", 0)
        v[f"measures.{meth}.calls"] = n
        v[f"measures.{meth}.self_s"] = span(f"measures.{meth}", "self_s")
        v[f"measures.{meth}.us_per_call"] = _per_call(span(f"measures.{meth}", "incl_s"), n)
    n = s.get("geometry.omega_admissible", {}).get("spans", 0)
    v.update({"geometry.omega_admissible.calls": n,
              "geometry.omega_admissible.self_s": span("geometry.omega_admissible", "self_s"),
              "geometry.omega_admissible.us_per_call":
                  _per_call(span("geometry.omega_admissible", "incl_s"), n)})

    v.update({f"checks.run_check.{cid}.s": span(f"checks.run_check.{cid}", "incl_s")
              for cid in _check_ids()})
    passes = result.get("passes")
    v["checks.cpu_util"] = median(p["cpu_util"] for p in passes) if passes else 0.0

    layer_self = {layer: sum(rec["self_s"] for name, rec in s.items()
                             if name.startswith(layer + "."))
                  for layer in (*LAYERS, "bench")}
    v.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
    v.update({"bench.residue_s": layer_self["bench"],
              "bench.traced_wall_s": s["_root_s"],
              "bench.round_wall_s": round_wall,
              "bench.unaccounted_s": s["_root_s"] - sum(layer_self.values()),
              "bench.fail_frac": fail_frac})
    return v


def setup_span_seconds(tracer, name: str) -> float:
    """Summed duration of every span of ``name``, set-up included."""
    if name not in tracer.names:
        return 0.0
    arr = tracer.arrays()
    mask = arr["name_id"] == tracer.names.index(name)
    return float((arr["end"][mask] - arr["start"][mask]).sum())


def strata_metrics(tallies) -> dict:
    """Per stratum, summed over the workload's series estimates: per-sample
    variance, positive and negative mass and the cancellation ratio; and
    the share of the total error variance that comes from the cached
    normalization."""
    v = {}
    series = [t for t in tallies if t.op.route == "series" and t.estimate() is not None]
    for m in STRATA:
        ests = [t.strata_estimates()[m] for t in series if m in t.strata]
        pos = sum(e.positive_mass for e in ests)
        neg = sum(e.negative_mass for e in ests)
        net = abs(pos + neg)
        v[f"hierarchy.stratum_m{m}.var"] = sum(e.stderr ** 2 * e.count for e in ests)
        v[f"hierarchy.stratum_m{m}.pos"] = pos
        v[f"hierarchy.stratum_m{m}.neg"] = neg
        v[f"hierarchy.stratum_m{m}.cancel"] = (pos - neg) / net if net else 0.0
    mc = norm = 0.0
    for t in series:
        est = t.estimate()
        mc += est.stderr ** 2
        norm += (abs(est.value) * t.norm_rel_err) ** 2
    v["hierarchy.norm_err_share"] = norm / (mc + norm) if mc + norm else 0.0
    return v


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as W
    from cases import load_references
    from metrics import fail_frac

    refs = load_references()
    tracer = patches = None
    if trace:
        from spans import Patches, Tracer, install_checks, install_layers

        tracer, patches = Tracer(), Patches()
        if workload == "suite":
            install_checks(tracer, patches)
        else:
            install_layers(tracer, patches)
            W.setup_measures(workload)
    setup_s = raw_setup_s = 0.0
    if not trace:
        setup_s, raw_setup_s = _time_setup(workload)
        if workload != "suite":
            W.setup_measures(workload)
    try:
        root = tracer.open(tracer.name_of("bench.run")) if trace else 0
        if workload == "suite":
            result = W.run_suite(seed, seconds, refs)
            cases = [c for p in result["passes"] for c in p["cases"]]
        else:
            result = W.run_rounds(workload, seed, seconds, refs, tracer)
            cases = [t.result() for t in result["tallies"]]
        if trace:
            tracer.close(root)
    finally:
        if patches is not None:
            patches.restore()
    attempted, failed, frac = fail_frac(c["verdict"] for c in cases)
    if trace:
        # traced counterpart of wall_s, for the tracing overhead
        round_wall = e2e_metrics(workload, result, 0.0, refs)["wall_s"]["value"]
        metrics = layer_metrics(result, tracer, root, frac, round_wall)
        units = layer_units()
        # self times of all spans under the root must add up to its duration
        consistent = abs(metrics["bench.unaccounted_s"]) <= 1e-6 * max(1.0, metrics["bench.traced_wall_s"])
        metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    else:
        metrics = e2e_metrics(workload, result, setup_s, refs)
        consistent = True
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "raw_setup_s": raw_setup_s, "cases": cases, "metrics": metrics}
    if workload == "suite":
        detail["passes"] = [{k: p[k] for k in ("seed", "wall", "cpu_s", "cpu_util", "check_times",
                                               "check_norm")}
                            for p in result["passes"]]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}.trace{int(trace)}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if trace:
        tracer.save(OUT / f"{workload}.spans.npz")
    for c in cases:
        if c["verdict"]:
            print(f"FAILED {c.get('op', c.get('check'))} {c.get('case')}: {c['verdict']}",
                  file=sys.stderr)
    return {"correct": failed == 0 and consistent, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# every workload, untraced and traced
# ---------------------------------------------------------------------------

def _run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float) -> int:
    summary = {}
    ok = True
    for workload in WORKLOADS:
        plain = _run_child(workload, seed, seconds, 0)
        traced = _run_child(workload, seed, seconds, 1)
        wall = plain["metrics"]["wall_s"]["value"]
        traced_wall = traced["metrics"]["bench.round_wall_s"]["value"]
        overhead = {"value": traced_wall - wall, "unit": "s", "share": (traced_wall - wall) / wall}
        summary[workload] = {"untraced": plain, "traced": traced, "tracing_overhead": overhead}
        ok &= plain["correct"] and traced["correct"]
        print(f"== {workload}: correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']} "
              f"fail_frac={plain['failed'] / plain['attempted']:.3g} ratio")
        for name, m in plain["metrics"].items():
            print(f"   {name:14s} {m['value']:14.6g} {m['unit']}")
        print(f"   tracing overhead per {'pass' if workload == 'suite' else 'round'}: "
              f"{overhead['value']:+.4f} s ({100 * overhead['share']:+.1f}%)")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"     {name:44s} {m['value']:14.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--setup", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hardsphere").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'hardsphere'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup:
        import workloads

        workloads.setup_measures(args.setup)
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload or --all is required")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
