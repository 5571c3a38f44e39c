"""The four workloads, run against the public API of hardsphere.

forward, series and grand_micro repeat rounds of fixed-size estimates
until the time is up and pool each estimate over the rounds; suite
repeats ``checks.run_check`` over every check of a compact config.  Round
r of operation i draws from the stream (seed, workload, r, i), so a seed
fixes the inputs.
"""

from __future__ import annotations

import math
import resource
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from hardsphere import checks, hierarchy, measures
from hardsphere.config import ExperimentConfig, load_config
from hardsphere.dynamics import Limit
from hardsphere.hierarchy import SeriesParams
from hardsphere.measures import CanonicalEq
from hardsphere.stats import RejectionCounter, RunningStats, SignedEstimate

from cases import ALL_CASES, BOX, GRAND, MICRO, modulated
from metrics import host_normalized, judge, kernel_s, median, s_at_1pct, z_to_reference

SUITE_CONFIG = Path(__file__).with_name("suite.ini")

_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
DEGENERATE_CEILING = _DEFAULTS["degenerate_ceiling"]

# the series settings of the harness's series_identity and
# grand_canonical_identity checks
SERIES = {"allocation": (0.5, 0.3, 0.2), "antithetic": True, "inner_samples": 128}
GRAND_SERIES = {"allocation": (0.35, 0.45, 0.2), "direction_draws": 24, "inner_samples": 128}


@dataclass(frozen=True)
class Op:
    """One estimate of a workload: a route ('forward' = empirical_rho,
    'series' = series_eval) applied to a reference case, with the sample
    count of one round.  ``in_s_at_1pct`` is False for an estimate whose
    error bar is too unsteady at run length to time (see grand_micro)."""

    label: str
    case: str
    route: str
    per_round: int
    series: dict | None = None
    in_s_at_1pct: bool = True


WORKLOADS = {
    # dynamics.evolve is ~99% of the time: engine work shows here, variance
    # work on the series must not
    "forward": (
        Op("N2", "N2_t12_bulk", "forward", 1500),
        Op("N3", "N3_t12_bulk", "forward", 750),
        Op("N5", "N5_t12_bulk", "forward", 300),
    ),
    # the collision-history side of criterion 7: build_history, its backward
    # legs and eval_arrays share the time; the m >= 1 strata set s_at_1pct.
    # N = 3 gets more samples because its m = 2 stratum dominates s_at_1pct
    # and its variance estimate is the noisiest.
    "series": (
        Op("N2_bulk", "N2_t12_bulk", "series", 600, SERIES),
        Op("N2_near_wall", "N2_t12_near_wall", "series", 600, SERIES),
        Op("N3_bulk", "N3_t8_bulk", "series", 1400, SERIES),
        Op("N3_near_wall", "N3_t8_near_wall", "series", 1400, SERIES),
    ),
    # the same layers used the other way round: almost every insertion is
    # blocked after its backward leg has been paid for.  The series
    # estimate stays out of s_at_1pct: its signed samples are so
    # heavy-tailed that its error bar at run length scatters by +-25% from
    # seed to seed (interquartile range over ten runs), beyond any usable
    # bound; its per-stratum variance is reported per layer instead.
    "grand_micro": (
        Op("series", "grand_micro_t2", "series", 400, GRAND_SERIES, in_s_at_1pct=False),
        Op("forward", "grand_micro_t2", "forward", 1500),
    ),
}
WORKLOAD_IDS = {"forward": 1, "series": 2, "grand_micro": 3, "suite": 4}


def setup_measures(workload: str) -> list:
    """Build (and cache) every measure the workload uses; returns them."""
    if workload == "suite":
        pairs = [(modulated(2), BOX)] + [(CanonicalEq(n, 1.0), BOX) for n in (2, 3, 5)]
        pairs.append((GRAND, MICRO))
    else:
        pairs = []
        for op in WORKLOADS[workload]:
            case = ALL_CASES[op.case]
            if (case.spec, case.domain) not in pairs:
                pairs.append((case.spec, case.domain))
    return [measures.get_measure(spec, dom) for spec, dom in pairs]


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def stats_from_estimate(est: SignedEstimate) -> RunningStats:
    """Invert SignedEstimate.from_stats, so estimates from independent
    rounds pool into one."""
    n = est.count
    return RunningStats(count=n, total=est.value * n,
                        total_sq=(n - 1) * n * est.stderr ** 2 + n * est.value ** 2,
                        positive=est.positive_mass * n, negative=est.negative_mass * n)


@dataclass
class Tally:
    """One operation pooled over rounds."""

    op: Op
    ref: dict
    seconds: float = 0.0
    round_times: list = field(default_factory=list)   # raw s, rounds that completed
    round_norm: list = field(default_factory=list)    # the same, host-normalized
    round_samples: int = 0
    strata: dict = field(default_factory=dict)    # m -> RunningStats
    counter: RejectionCounter = field(default_factory=RejectionCounter)
    norm_rel_err: float = 0.0
    errors: list = field(default_factory=list)

    def add(self, strata: dict, counter: RejectionCounter, norm_rel_err: float) -> None:
        for m, est in strata.items():
            self.strata.setdefault(m, RunningStats()).merge(stats_from_estimate(est))
        self.counter.merge(counter)
        self.norm_rel_err = norm_rel_err

    @property
    def samples(self) -> int:
        return sum(s.count for s in self.strata.values())

    @property
    def round_s(self) -> float:
        """Median host-normalized seconds of one round (metrics.KERNEL_REF_S)."""
        return median(self.round_norm)

    def s_at_1pct_part(self) -> tuple[float, float, float]:
        """(seconds, stderr, reference) for s_at_1pct; the seconds are those
        of every completed round, host-normalized."""
        return (self.round_s * len(self.round_norm), self.estimate().stderr, self.ref["value"])

    def strata_estimates(self) -> dict:
        return {m: SignedEstimate.from_stats(s) for m, s in sorted(self.strata.items())}

    def estimate(self) -> SignedEstimate | None:
        """Outer Monte Carlo estimate (strata summed), without the
        normalization error."""
        total = None
        for est in self.strata_estimates().values():
            total = est if total is None else total.plus(est)
        return total

    def result(self) -> dict:
        est = self.estimate()
        z = None
        gated = None
        if est is not None:
            gated = est.with_extra_stderr(abs(est.value) * self.norm_rel_err)
            z = z_to_reference(gated.value, gated.stderr, self.ref["value"], self.ref["stderr"])
        verdict = judge(self.errors, z, self.counter.degenerate_rate, DEGENERATE_CEILING)
        out = {"op": self.op.label, "case": self.op.case, "route": self.op.route, "verdict": verdict,
               "samples": self.samples, "seconds": self.seconds,
               "rounds": len(self.round_times), "round_samples": self.round_samples,
               "round_s": self.round_s if self.round_norm else None,
               "raw_round_s": median(self.round_times) if self.round_times else None,
               "samples_per_s": self.samples / self.seconds if self.seconds else 0.0,
               "reference": self.ref["value"], "reference_stderr": self.ref["stderr"],
               "degenerate_rate": self.counter.degenerate_rate,
               "blocked": self.counter.blocked, "errors": self.errors[:5]}
        if est is not None:
            out.update(value=est.value, stderr=est.stderr, z=z,
                       stderr_with_norm=gated.stderr,
                       s_at_1pct=s_at_1pct([self.s_at_1pct_part()]))
            out["strata"] = {
                m: {"value": e.value, "stderr": e.stderr, "count": e.count,
                    "positive_mass": e.positive_mass, "negative_mass": e.negative_mass,
                    "var": e.stderr ** 2 * e.count}
                for m, e in self.strata_estimates().items()}
        return out


def _run_op(op: Op, ms, rng) -> tuple[dict, RejectionCounter, float]:
    # module attribute lookups, so that installed spans see these calls
    case = ALL_CASES[op.case]
    if op.route == "forward":
        res = hierarchy.empirical_rho(ms, 1, case.t, case.box, Limit.FROM_FUTURE, op.per_round, rng)
        return {0: res.estimate}, res.counter, 0.0
    params = SeriesParams(n_samples=op.per_round, **op.series)
    res = hierarchy.series_eval(measures.correlation_map(ms), 1, case.t, case.box, params, rng)
    return res.strata, res.counter, res.norm_rel_err


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_rounds(workload: str, seed: int, seconds: float, refs: dict, tracer=None) -> dict:
    """Rounds of every operation until ``seconds`` have passed (at least
    one).  Returns the tallies and the wall time of the whole loop."""
    ops = WORKLOADS[workload]
    ms = {op.case: measures.get_measure(ALL_CASES[op.case].spec, ALL_CASES[op.case].domain)
          for op in ops}
    tallies = [Tally(op, refs[op.case]) for op in ops]
    start = time.perf_counter()
    rnd = 0
    kernel = kernel_s()
    while True:
        r_idx = tracer.open(tracer.name_of("bench.round")) if tracer else None
        for i, tally in enumerate(tallies):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, WORKLOAD_IDS[workload], rnd, i)))
            t0 = time.perf_counter()
            try:
                strata, counter, norm_rel_err = _run_op(tally.op, ms[tally.op.case], rng)
            except Exception as exc:  # a failed operation is recorded, the run goes on
                if not tally.errors:
                    traceback.print_exc()
                tally.errors.append(_error_text(exc))
            else:
                raw = time.perf_counter() - t0
                kernel_before, kernel = kernel, kernel_s()
                tally.round_times.append(raw)
                tally.round_norm.append(host_normalized(raw, kernel_before, kernel))
                tally.round_samples = sum(e.count for e in strata.values())
                tally.add(strata, counter, norm_rel_err)
            tally.seconds += time.perf_counter() - t0
        if tracer:
            tracer.close(r_idx)
        rnd += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"tallies": tallies, "wall": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

# check cases whose two sides estimate a reference box mass
SUITE_VERDICT_CASES = {
    ("series_identity", "bulk"): "N2_t12_bulk",
    ("series_identity", "near_wall"): "N2_t12_near_wall",
    ("grand_canonical_identity", "micro"): "grand_micro_t2",
}
# The suite's s_at_1pct covers the series_identity cases only: at the
# compact config's 375 samples, the grand-canonical variance estimate
# scatters by ~50% from pass to pass; grand_micro measures that case with
# twenty times the samples.
SUITE_S_AT_1PCT_CHECK = "series_identity"


def _cpu_seconds(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_suite(seed: int, seconds: float, refs: dict) -> dict:
    """Passes of every check of the compact config until ``seconds`` have
    passed (at least one).  The measure cache is emptied before each pass,
    so every pass pays the normalizations a fresh ``hardsphere run``
    pays."""
    exp = load_config(str(SUITE_CONFIG))
    passes = []
    start = time.perf_counter()
    while True:
        exp.seed = int(np.random.SeedSequence((seed, WORKLOAD_IDS["suite"], len(passes)))
                       .generate_state(1)[0])
        measures.get_measure.cache_clear()
        cpu0 = _cpu_seconds(resource.RUSAGE_SELF) + _cpu_seconds(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        cases = []
        check_times = {}
        check_norm = {}
        kernel = kernel_s()
        for cid, label, params in exp.checks:
            c0 = time.perf_counter()
            try:
                reports = checks.run_check(exp, cid, label, params)
            except Exception as exc:  # a failed check is recorded, the pass goes on
                traceback.print_exc()
                cases.append({"check": cid, "case": label, "verdict": f"raised: {_error_text(exc)}"})
                continue
            finally:
                raw = time.perf_counter() - c0
                kernel_before, kernel = kernel, kernel_s()
                check_times[cid] = check_times.get(cid, 0.0) + raw
                check_norm[cid] = (check_norm.get(cid, 0.0)
                                   + host_normalized(raw, kernel_before, kernel))
            for rep in reports:
                cases.append(_suite_case(rep, refs, exp.degenerate_ceiling))
        wall = time.perf_counter() - t0
        # pools have joined by now, so their workers are in RUSAGE_CHILDREN
        cpu = _cpu_seconds(resource.RUSAGE_SELF) + _cpu_seconds(resource.RUSAGE_CHILDREN) - cpu0
        passes.append({"seed": exp.seed, "wall": wall, "cpu_s": cpu,
                       "cpu_util": cpu / (exp.workers * wall), "check_times": check_times,
                       "check_norm": check_norm, "cases": cases})
        if time.perf_counter() - start >= seconds:
            break
    return {"passes": passes, "workers": exp.workers, "wall": time.perf_counter() - start}


def _suite_case(rep, refs: dict, ceiling: float) -> dict:
    case = {"check": rep.check, "case": rep.case, "passed": rep.passed,
            "samples": rep.samples, "runtime_s": rep.runtime_s, "z": rep.z,
            "lhs": rep.lhs, "lhs_err": rep.lhs_err, "rhs": rep.rhs, "rhs_err": rep.rhs_err,
            "degenerate_rate": rep.degenerate_rate}
    verdict = "" if rep.passed else f"check failed: z={rep.z}"
    ref_name = SUITE_VERDICT_CASES.get((rep.check, rep.case))
    if ref_name is not None:
        ref = refs[ref_name]
        case["reference"] = ref["value"]
        for side, value, err in (("lhs", rep.lhs, rep.lhs_err), ("rhs", rep.rhs, rep.rhs_err)):
            z = z_to_reference(value, err, ref["value"], ref["stderr"])
            case[f"{side}_z_ref"] = z
            verdict = verdict or judge([], z, rep.degenerate_rate, ceiling)
    case["verdict"] = verdict
    return case


def suite_timings(passes: list, refs: dict) -> dict:
    """wall_s, samples_per_s and s_at_1pct of the suite.  Each check is
    timed by its median host-normalized time over the passes, which run the
    same config with different seeds and so do the same work.  s_at_1pct is
    the time the whole suite, scaled up, would need to bring each verdict
    case to 1% error (error squared falls as 1 / samples), summed over the
    cases: wall_s * sum (stderr / (0.01 ref))^2, stderr combining both
    sides and averaged over passes."""
    times = {}
    for p in passes:
        for cid, t in p["check_norm"].items():
            times.setdefault(cid, []).append(t)
    wall = sum(median(ts) for ts in times.values())
    samples = median(sum(c.get("samples", 0) for c in p["cases"]) for p in passes)
    parts = []
    for (cid, label), ref_name in SUITE_VERDICT_CASES.items():
        if cid != SUITE_S_AT_1PCT_CHECK:
            continue
        errs = [c["lhs_err"] ** 2 + c["rhs_err"] ** 2 for p in passes for c in p["cases"]
                if (c["check"], c["case"]) == (cid, label) and "lhs_err" in c]
        if errs:
            parts.append((wall, math.sqrt(sum(errs) / len(errs)), refs[ref_name]["value"]))
    return {"wall_s": wall, "samples_per_s": samples / wall, "s_at_1pct": s_at_1pct(parts)}
