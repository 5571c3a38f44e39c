"""Check harness: wires configured measures to the identity checks and
emits machine-readable reports.

Every statistical check estimates its two sides from independent sample
streams and passes when the z-score stays within the configured sigma
threshold and the degenerate-trajectory rejection rate stays below its
ceiling.  Deterministic checks compare against an absolute tolerance.
Work is split into fixed-size chunks with per-chunk seed derivation, so
reports are byte-identical across runs and worker counts; workers only
change how chunks are scheduled.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from hardsphere.config import ExperimentConfig, check_params, delta_preset
from hardsphere.dynamics import EPS_EVENT_REL, Limit, evolve_batch, pair_exchange
from hardsphere.geometry import Domain, Vec3
from hardsphere.hierarchy import (
    EmpiricalResult,
    PhaseBox,
    SeriesParams,
    SeriesResult,
    _series_stratum_stats,
    empirical_chunk,
    evolve_sampled,
    pair_collision_rate,
)
from hardsphere.measures import (
    CanonicalEq,
    DensitySpec,
    GrandCanonicalEq,
    InitialMeasure,
    correlation_map,
    get_measure,
    inverse_correlation_map,
)
from hardsphere.stats import (
    RejectionCounter,
    RunningStats,
    SignedEstimate,
    falling_factorial,
    z_score,
)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """Coerce numpy scalars and containers to plain JSON types so reports
    serialize byte-identically."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


@dataclass(slots=True)
class CheckReport:
    check: str
    case: str
    mode: str                      # "statistical" or "deterministic"
    lhs: float
    lhs_err: float
    rhs: float
    rhs_err: float
    z: float | None
    tolerance: float | None
    sigma: float
    passed: bool
    samples: int
    degenerate_rate: float
    n: int | None = None
    t: float | None = None
    delta: dict | None = None
    seed: int = 0
    config_hash: str = ""
    runtime_s: float = 0.0         # kept out of the canonical record
    detail: dict = field(default_factory=dict)

    def to_canonical(self) -> dict:
        return _jsonable({f.name: getattr(self, f.name) for f in fields(self)
                          if f.name != "runtime_s"})

    def to_json_line(self) -> str:
        return json.dumps(self.to_canonical(), sort_keys=True)

    def table_row(self) -> str:
        gauge = (f"z={self.z:7.2f}" if self.mode == "statistical"
                 else f"tol={self.tolerance:.2e}")
        status = "pass" if self.passed else "FAIL"
        return (f"{self.check + ('/' + self.case if self.case else ''):42s} "
                f"{self.lhs: .6g} +-{self.lhs_err:.2g} | "
                f"{self.rhs: .6g} +-{self.rhs_err:.2g} | {gauge} | "
                f"{status} | degen {self.degenerate_rate:.1e} | {self.runtime_s:.1f}s")


def _stat_report(check, case, lhs: SignedEstimate, rhs: SignedEstimate, exp: ExperimentConfig,
                 counters, n=None, t=None, box: PhaseBox | None = None, **extra) -> CheckReport:
    """A statistical case of an (n, t, box) identity; it passes when the
    z-score stays within exp.sigma and the degenerate rate of the merged
    counters within exp.degenerate_ceiling."""
    counter = RejectionCounter()
    for c in counters:
        counter.merge(c)
    z = z_score(lhs, rhs)
    rate = counter.degenerate_rate
    return CheckReport(
        check=check, case=case, mode="statistical",
        lhs=lhs.value, lhs_err=lhs.stderr, rhs=rhs.value, rhs_err=rhs.stderr,
        z=z, tolerance=None, sigma=exp.sigma,
        passed=bool(z <= exp.sigma and rate <= exp.degenerate_ceiling),
        samples=lhs.count + rhs.count, degenerate_rate=rate,
        n=n, t=t, delta=box.to_dict() if box is not None else None, **extra,
    )


def _det_report(check, case, value, target, tolerance, samples=0, degenerate_rate=0.0,
                **extra) -> CheckReport:
    return CheckReport(
        check=check, case=case, mode="deterministic",
        lhs=float(value), lhs_err=0.0, rhs=float(target), rhs_err=0.0,
        z=None, tolerance=float(tolerance), sigma=0.0,
        passed=bool(abs(value - target) <= tolerance),
        samples=samples, degenerate_rate=degenerate_rate, **extra,
    )


# ---------------------------------------------------------------------------
# seeding, chunking, parallel map
# ---------------------------------------------------------------------------

def _check_key(check_id: str, label: str) -> int:
    digest = hashlib.sha256(f"{check_id}.{label}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def _chunk_counts(total: int, size: int) -> list[int]:
    # a total of zero is one empty chunk, so every estimator has a result
    full, rem = divmod(total, size)
    return [size] * full + ([rem] if rem or not full else [])


@contextmanager
def _map_ordered(fn, payloads, workers: int):
    """fn over the payloads, in order; with two or more of each, over a pool
    that takes every payload on entry and shuts down at the last result, or
    on exit with the pending payloads cancelled."""
    if workers <= 1 or len(payloads) <= 1:
        yield map(fn, payloads)
        return
    ex = ProcessPoolExecutor(max_workers=workers)

    def ordered(results):
        for i, result in enumerate(results, 1):
            if i == len(payloads):
                ex.shutdown()      # live forked workers make this process's writes copy pages
            yield result

    try:
        yield ordered(ex.map(fn, payloads, chunksize=1))
    finally:
        ex.shutdown(cancel_futures=True)


def _call(job):
    worker, chunk = job
    return worker(chunk)


@dataclass(frozen=True, slots=True)
class Chunk:
    """One chunk of an estimator, as sent to a worker: the measure, the
    number of samples, the seed tuple of the chunk's random stream, and
    the fields the workers read (each reads the ones it needs)."""

    spec: DensitySpec
    domain: Domain
    norm_proposals: int
    count: int
    seed: tuple
    n: int = 0
    t: float = 0.0
    boxes: tuple = ()
    m: int = 0
    beta0: float | None = None
    inner: int = 0
    antithetic: bool = True
    draws: int = 1

    @property
    def measure(self) -> InitialMeasure:
        return get_measure(self.spec, self.domain, norm_proposals=self.norm_proposals)

    @property
    def rng(self) -> np.random.Generator:
        """A new generator on the chunk's stream."""
        return _rng(*self.seed)

    @property
    def max_degenerate(self) -> int:
        """The degenerate (or skipped) rows past which a chunk gives up, as
        ``empirical_chunk`` does."""
        return 200 + self.count


def _chunks(exp: ExperimentConfig, spec, samples: int, seed: tuple, domain: Domain | None = None,
            **own) -> list[Chunk]:
    """The chunks of an estimator of ``samples`` samples, with the workers'
    own fields; chunk idx draws from the stream (exp.seed, *seed, idx).
    Their measure is built here, so forked workers inherit it.  A fixed-N
    measure is normalized on first read: ``_series``, whose workers read
    it, reads it at setup, before the pool forks, so forked workers
    inherit that too and never normalize."""
    domain = domain or exp.domain
    get_measure(spec, domain, norm_proposals=exp.norm_proposals)
    return [Chunk(spec, domain, exp.norm_proposals, count, (exp.seed, *seed, idx), **own)
            for idx, count in enumerate(_chunk_counts(samples, exp.chunk_size))]


def _merge(a, b):
    if isinstance(a, (RunningStats, RejectionCounter)):
        a.merge(b)
        return a
    return max(a, b) if isinstance(a, float) else a + b


class Estimator(NamedTuple):
    """A worker, its chunk groups, and a combiner of the groups' merged
    results, in group order, into the estimator's result."""

    worker: Callable
    groups: list[list[Chunk]]
    combine: Callable = lambda merged: merged


# ---------------------------------------------------------------------------
# phase boxes, by preset name (``config.delta_preset``) or as a box dict
# ---------------------------------------------------------------------------

def _resolve_delta(entry, domain: Domain, beta: float) -> tuple[str, PhaseBox]:
    if isinstance(entry, str):
        return entry, delta_preset(entry, domain, beta)
    return entry.get("name", "custom"), PhaseBox.from_dict(entry)


# ---------------------------------------------------------------------------
# chunk workers (top level, picklable)
# ---------------------------------------------------------------------------

def _w_empirical(c: Chunk):
    """Forward trajectories tallied in every box: the boxes' parts, then the counter."""
    return empirical_chunk(c.measure, c.n, c.t, c.boxes, Limit.FROM_FUTURE, c.count, c.rng)


def _w_series(c: Chunk):
    """Stratum c.m of the series; at m = 0 the integral over the box of the
    time-0 correlation function pulled back along the n-particle backward
    flow (the collision-free term), and at m = 1 with N = n + 1 the
    time-integrated collision-operator term of the one-step identity."""
    return _series_stratum_stats(correlation_map(c.measure), c.n, c.t, c.boxes[0], c.m, c.count,
                                 c.beta0, c.inner, c.antithetic, c.rng, c.draws)


def _w_lemma2(c: Chunk):
    """Pair-collision counts over [0, t] for equilibrium trajectories."""
    counter = RejectionCounter()
    _, _, n_pair, _ = evolve_sampled(c.measure, c.count, c.t, Limit.FROM_FUTURE, c.rng, counter,
                                     c.max_degenerate)
    return (RunningStats().add_many(n_pair), counter)


def _w_prop1_forward(c: Chunk):
    """Cross-collision tallies: for every collision between the leading
    group and the rest, test whether the group state just after (and just
    before) the collision, flowed alone to the final time, lands in each
    box.  Returns per box the statistics of the (after - before)
    difference, of after and of before, then the chunk's counter.  The
    trajectories run on ``evolve_sampled`` with their pair events kept.
    The group legs draw nothing, so those of the whole chunk run together
    once every trajectory is drawn, and every box is tallied on them."""
    n, t, domain = c.n, c.t, c.domain
    counter = RejectionCounter()
    *_, ev = evolve_sampled(c.measure, c.count, t, Limit.FROM_FUTURE, c.rng, counter,
                            c.max_degenerate, pair_events=True)
    # the cross collisions, and per group leg (just after, then just
    # before the collision) its start and duration
    cross = (ev.i < n) & (n <= ev.j)
    q_leg = np.repeat(ev.q[cross, :n], 2, axis=0)
    p_leg = np.stack([ev.p_after[cross, :n], ev.p_before[cross, :n]], axis=1).reshape(-1, n, 3)
    qf, pf, _, _, degenerate, *_ = evolve_batch(q_leg, p_leg, domain,
                                                np.repeat(t - ev.time[cross], 2))
    counter.degenerate += int(degenerate.sum())
    parts = []
    for box in c.boxes:
        hit = (box.contains_batch(qf, pf) & ~degenerate).reshape(-1, 2)
        c_plus, c_minus = (np.bincount(ev.row[cross], w, c.count) for w in hit.T)
        parts += [RunningStats().add_many(v) for v in (c_plus - c_minus, c_plus, c_minus)]
    return (*parts, counter)


def _w_reversibility(c: Chunk):
    """Worst relative round-trip error of forward-then-reversed flows over
    time c.t, with the events run and the trajectories skipped.  Each
    round draws the shortfall in stream order, flows it forward in one
    recorded ``evolve_batch`` call and back in one call on the rows that
    are not degenerate.  A row degenerate either way is counted, one with
    an event gap below the threshold skipped, and every other accepted,
    so the chunk takes the draws a one-at-a-time loop takes; past
    ``max_degenerate`` rows counted or skipped it gives up."""
    ms, rng, t, domain = c.measure, c.rng, c.t, c.domain
    diag = math.sqrt(sum(s * s for s in domain.sides))
    worst = 0.0
    events = 0
    counter = RejectionCounter()
    skipped_gap = 0
    while counter.accepted < c.count:
        q0, p0 = map(np.array, zip(*(ms.sample_arrays(rng)
                                     for _ in range(c.count - counter.accepted))))
        fwd = evolve_batch(q0, p0, domain, t, pair_events=True)
        rows = np.flatnonzero(~fwd.degenerate)
        q2, p2, _, _, back_degenerate, *_ = evolve_batch(fwd.q[rows], -fwd.p[rows], domain, t)
        pscale = np.maximum(1.0, np.abs(p0[rows]).max(axis=(1, 2)))
        small = fwd.gap[rows] < 10.0 * EPS_EVENT_REL * domain.a / pscale
        ok = ~back_degenerate & ~small
        counter.degenerate += len(q0) - len(rows) + int(back_degenerate.sum())
        skipped_gap += int((~back_degenerate & small).sum())
        # the round trip ends at (q2, -p2); norms in the Vec3 operation order
        dq, dp = (q0[rows] - q2)[ok], (p0[rows] - (-p2))[ok]
        worst = max(worst, _worst(_norm(dq.transpose(2, 0, 1)) / diag),
                    _worst(_norm(dp.transpose(2, 0, 1)) / pscale[ok, None]))
        events += int((fwd.n_pair + fwd.n_wall)[rows[ok]].sum())
        counter.accepted += int(ok.sum())
        if counter.degenerate + skipped_gap > c.max_degenerate:
            raise RuntimeError("excessive degenerate-trajectory rate")
    return (worst, events, skipped_gap, counter)


# ---------------------------------------------------------------------------
# the two routes, chunk by chunk
# ---------------------------------------------------------------------------

def _empirical(exp, spec, domain, n, t, boxes, samples, key, role) -> Estimator:
    """Forward simulation (``empirical_rho``) chunk by chunk, every box
    tallied on the same trajectories: one ``EmpiricalResult`` per box."""
    return Estimator(_w_empirical, [_chunks(exp, spec, samples, (key, role), domain,
                                            n=n, t=t, boxes=boxes)],
                     lambda merged: [EmpiricalResult.of(spec, n, samples, part, merged[-1])
                                     for part in merged[:-1]])


def _series(exp, spec, domain, n, t, box, strata, beta0, inner, antithetic=True,
            draws=1) -> Estimator:
    """The series (``series_eval``) chunk by chunk, as a ``SeriesResult``:
    stratum m takes ``strata[m]``, its sample count and the seed tuple of
    its streams (exp.seed, *seed, idx).  Its workers read the measure's Z,
    so it is read here, before the pool forks."""
    norm_err = get_measure(spec, domain, norm_proposals=exp.norm_proposals).z_rel_err
    return Estimator(_w_series, [
        _chunks(exp, spec, count, seed, domain, n=n, t=t, boxes=(box,), m=m, beta0=beta0,
                inner=inner, antithetic=antithetic, draws=draws)
        for m, (count, seed) in enumerate(strata)], lambda *s: SeriesResult.of(s, norm_err))


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _norm(u):
    return np.sqrt(_dot(u, u))


def _worst(values: np.ndarray) -> float:
    return float(values.max(initial=0.0))


def _run_conservation(exp, label, params, key):
    yield []
    samples = int(params["samples"])
    rng = _rng(exp.seed, key, 1)
    sig = 1.0 / math.sqrt(exp.density.beta)
    pi_arr = rng.normal(0, sig, (samples, 3))
    pj_arr = rng.normal(0, sig, (samples, 3))
    om_arr = rng.normal(size=(samples, 3))
    om_arr /= np.linalg.norm(om_arr, axis=1)[:, None]

    # on (3, samples) component rows: the pair law the engines apply, the
    # rest in the operation order of wall_reflect and Vec3.dot/norm, so the
    # worst cases match the per-sample Vec3 evaluation bit for bit
    o, pi, pj = om_arr.T, pi_arr.T, pj_arr.T
    pi2, pj2 = map(np.array, pair_exchange(o, pi, pj))
    pscale = np.maximum(1.0, _norm(pi + pj))
    worst_mom = _worst(_norm((pi2 + pj2) - (pi + pj)) / pscale)
    e0 = _dot(pi, pi) + _dot(pj, pj)
    worst_en = _worst(np.abs(_dot(pi2, pi2) + _dot(pj2, pj2) - e0) / e0)
    pi3, pj3 = map(np.array, pair_exchange(o, pi2, pj2))
    worst_inv = _worst(_norm(pi3 - pi) + _norm(pj3 - pj))
    normal_in = _dot(o, pi - pj)
    worst_flip = _worst(np.abs(_dot(o, pi2 - pj2) + normal_in)
                        / np.maximum(1.0, np.abs(normal_in)))

    p = rng.normal(0, sig, (samples // 4, 3)).T
    n_arr = rng.normal(size=(samples // 4, 3))
    n_arr /= np.linalg.norm(n_arr, axis=1)[:, None]
    reflect = lambda v: v - 2.0 * _dot(n_arr.T, v) * n_arr.T
    p2 = reflect(p)
    speed = _norm(p)
    worst_wall = _worst(np.abs(_norm(p2) - speed) / np.maximum(1.0, speed))
    worst_wall_inv = _worst(_norm(reflect(p2) - p))

    return [
        _det_report("conservation", case, worst, 0.0, tol, samples=samples)
        for case, worst, tol in (("pair_momentum", worst_mom, 1e-14),
                                 ("pair_energy", worst_en, 1e-12),
                                 ("pair_involution", worst_inv, 1e-12),
                                 ("normal_velocity_flip", worst_flip, 1e-12),
                                 ("wall_speed", worst_wall, 1e-12),
                                 ("wall_involution", worst_wall_inv, 1e-12))
    ]


def _run_reversibility(exp, label, params, key):
    trajectories = int(params["trajectories"])
    beta = exp.density.beta
    pilot_t = 4.0 * exp.domain.a * math.sqrt(beta)
    cases = []
    for n in map(int, params["n_list"]):
        spec = CanonicalEq(n, beta)
        ms = get_measure(spec, exp.domain, norm_proposals=exp.norm_proposals)
        pilot_rng = _rng(exp.seed, key, 2, n)
        qs, ps = map(np.array, zip(*(ms.sample_arrays(pilot_rng) for _ in range(32))))
        _, _, n_pair, n_wall, degenerate, *_ = evolve_batch(qs, ps, exp.domain, pilot_t)
        ev = (n_pair + n_wall)[~degenerate]
        if not len(ev):
            raise RuntimeError(f"reversibility: every pilot trajectory for n={n} "
                               "was degenerate")
        rate = max(int(ev.sum()) / len(ev), 1e-9) / pilot_t
        t = float(params["events_target"]) / rate
        cases.append((n, t, _chunks(exp, spec, trajectories, (key, 10 + n), t=t)))
    results = yield [Estimator(_w_reversibility, [chunks]) for *_, chunks in cases]
    return [_det_report("reversibility", f"n{n}", worst, 0.0, 1e-8, samples=trajectories,
                        degenerate_rate=ctr.degenerate_rate, n=n, t=t,
                        detail={"mean_events": events / trajectories,
                                "skipped_small_gap": skipped})
            for (n, t, _), (worst, events, skipped, ctr) in zip(cases, results)]


def _run_liouville(exp, label, params, key):
    # stationarity holds for the equilibrium measure only, so a modulated
    # experiment density is swapped for its equilibrium counterpart here
    spec = CanonicalEq(exp.density.n_particles, exp.density.beta)
    n, t, samples = int(params["n"]), float(params["t"]), int(params["samples"])
    times = params["times"] if params["times"] is not None else [t / 3.0, 2.0 * t / 3.0, t]
    _, box = _resolve_delta(params["delta"], exp.domain, spec.beta)
    (base,), *ests = yield [
        _empirical(exp, spec, exp.domain, n, float(tv), (box,), samples, key, i)
        for i, tv in enumerate([0.0, *times])]
    return [_stat_report("liouville", f"t{tv:g}", est.estimate, base.estimate, exp,
                         (est.counter, base.counter), n=n, t=float(tv), box=box)
            for tv, (est,) in zip(times, ests)]


def _run_special_flow(exp, label, params, key):
    yield []
    from hardsphere.specialflow import (
        AtomBase,
        Ceiling,
        ExchangeBase,
        RotationBase,
        SpecialFlow,
        collision_count_sum,
        flow_from_block,
        partition_masses,
        verify_identity,
    )

    resolution = int(params["resolution"])
    t = float(params["t"])

    def report(case, chk, **extra):
        return _det_report("special_flow", case, chk.value, chk.target, chk.error_bound, **extra)

    reports = [report("atom", verify_identity(SpecialFlow(AtomBase((1.0,), (0,), (1.0,))), 2.5),
                      detail={"analytic": 2.5})]

    perm = SpecialFlow(AtomBase((1.0,) * 5, (2, 0, 3, 4, 1),
                                (0.7, 1.3, 0.4, 2.1, 0.9)))
    chk = verify_identity(perm, t)
    masses = partition_masses(perm, t)
    reports.append(report("permutation", chk,
                          detail={"partition_mass_gap": abs(sum(masses) - perm.base.total_mass)}))

    rot = SpecialFlow(RotationBase(alpha=0.5 * (math.sqrt(5.0) - 1.0)),
                      Ceiling(1.0, 0.3, 1))
    chk = verify_identity(rot, t, resolution)
    # the ladder ends at the check's own coarse quadrature
    ladder = (max(resolution // 16, 16), max(resolution // 4, 64), resolution)
    errs = [abs(collision_count_sum(rot, t, r) - t) for r in ladder[:-1]] + [abs(chk.coarse - t)]
    # midpoint quadrature converges at order ~2 on the kinked integrand but
    # oscillates locally, so measure the order across the whole ladder
    order = (math.log(errs[0] / errs[-1]) / math.log(ladder[-1] / ladder[0])
             if errs[-1] > 0 else math.inf)
    rep = report("rotation", chk,
                 detail={"refinement_errors": errs, "order": order,
                         "shrinking": bool(order >= 1.0 or errs[-1] < 1e-12)})
    rep.passed = bool(rep.passed and rep.detail["shrinking"])
    reports.append(rep)

    exch = SpecialFlow(ExchangeBase((0.3, 0.75), (2, 0, 1)), Ceiling(0.8, 0.2, 2))
    reports.append(report("exchange", verify_identity(exch, t, resolution)))
    for idx, block in enumerate(params["flows"]):
        reports.append(report(f"custom{idx}",
                              verify_identity(flow_from_block(block), t, resolution)))
    return reports


def _run_lemma2(exp, label, params, key):
    beta = exp.density.beta
    t = float(params["t"])
    trajectories = int(params["trajectories"])
    rate_samples = int(params["rate_samples"])
    n_list = [int(n) for n in params["n_list"]]
    results = yield [Estimator(_w_lemma2, [_chunks(
        exp, CanonicalEq(n, beta), trajectories, (key, 20 + n), t=t)]) for n in n_list]
    reports = []
    for n, (stats, counter) in zip(n_list, results):
        emp = SignedEstimate.from_stats(stats)
        ms = get_measure(CanonicalEq(n, beta), exp.domain, norm_proposals=exp.norm_proposals)
        rate, rate_err = pair_collision_rate(ms, rate_samples, _rng(exp.seed, key, 40 + n))
        oracle = SignedEstimate(t * rate, t * rate_err, rate_samples)
        reports.append(_stat_report("lemma2_rate", f"n{n}", emp, oracle, exp, (counter,),
                                    n=n, t=t,
                                    detail={"rate": rate, "mean_collisions": emp.value}))
    return reports


def _run_prop1(exp, label, params, key):
    spec = exp.density
    n, t, samples = int(params["n"]), float(params["t"]), int(params["samples"])
    ff = falling_factorial(spec.n_particles, n)
    names, boxes = zip(*(_resolve_delta(d, exp.domain, spec.beta) for d in params["deltas"]))
    # the pull-back term is the series' m = 0 stratum
    forward, crossing, *backs = yield [
        _empirical(exp, spec, exp.domain, n, t, boxes, samples, key, 1),
        Estimator(_w_prop1_forward, [_chunks(exp, spec, samples, (key, 3), n=n, t=t, boxes=boxes)],
                  lambda merged: [(*merged[k:k + 3], merged[-1])
                                  for k in range(0, len(merged) - 1, 3)]),
        *(_series(exp, spec, exp.domain, n, t, box, [(samples, (key, 2))], spec.beta,
                  int(params["inner_samples"])) for box in boxes)]
    reports = []
    for name, box, lhs, (fstats, plus, minus, ctr_f), back in zip(
            names, boxes, forward, crossing, backs):
        term1 = back.total
        rhs = term1.plus(SignedEstimate.from_stats(fstats, scale=ff))
        rhs = rhs.with_extra_stderr(abs(term1.value) * back.norm_rel_err)
        reports.append(_stat_report(
            "prop1_decomposition", name, lhs.estimate, rhs, exp, (lhs.counter, back.counter, ctr_f),
            n=n, t=t, box=box,
            detail={"pullback_term": term1.value, "collision_gain": ff * plus.mean,
                    "collision_loss": ff * minus.mean}))
    return reports


def _run_prop5(exp, label, params, key):
    spec = exp.density
    n, t, samples = int(params["n"]), float(params["t"]), int(params["samples"])
    inner = int(params["inner_samples"])
    beta0 = float(params["beta0"] if params["beta0"] is not None else spec.beta)
    names, boxes = zip(*(_resolve_delta(d, exp.domain, spec.beta) for d in params["deltas"]))
    # per box the series strata m = 0 (the pull-back term, which draws no
    # momenta and so reads no beta0) and m = 1 (the collision term)
    strata = [(samples // 2, (key, 2)), (samples, (key, 3))]
    forward, *per_box = yield [
        _empirical(exp, spec, exp.domain, n, t, boxes, samples, key, 1),
        *(_series(exp, spec, exp.domain, n, t, box, strata, beta0, inner) for box in boxes)]
    return [_stat_report("prop5_onestep", name, lhs.estimate, res.total_with_norm_err, exp,
                         (lhs.counter, res.counter), n=n, t=t, box=box,
                         detail={"pullback_term": res.strata[0].value,
                                 "collision_term": res.strata[1].value})
            for name, box, lhs, res in zip(names, boxes, forward, per_box)]


def _run_series_identity(exp, label, params, key):
    spec = exp.density
    n, t, samples = int(params["n"]), float(params["t"]), int(params["samples"])
    sp = SeriesParams(
        n_samples=samples,
        m_max=params["m_max"],
        allocation=tuple(params["allocation"]),
        beta0=params["beta0"],
        inner_samples=int(params["inner_samples"]),
        antithetic=bool(params["antithetic"]),
        direction_draws=int(params["direction_draws"]),
    )
    beta0, counts = sp.plan(n, get_measure(spec, exp.domain, norm_proposals=exp.norm_proposals))
    strata = [(count, (key, 2, m)) for m, count in enumerate(counts)]
    names, boxes = zip(*(_resolve_delta(d, exp.domain, spec.beta) for d in params["deltas"]))
    forward, *series = yield [
        _empirical(exp, spec, exp.domain, n, t, boxes, samples, key, 1),
        *(_series(exp, spec, exp.domain, n, t, box, strata, beta0, sp.inner_samples,
                  sp.antithetic, sp.direction_draws) for box in boxes)]
    reports = []
    for name, box, lhs, res in zip(names, boxes, forward, series):
        detail = {f"stratum_m{m}": {"value": e.value, "stderr": e.stderr, "count": e.count}
                  for m, e in res.strata.items()}
        reports.append(_stat_report(
            "series_identity", name, lhs.estimate, res.total_with_norm_err, exp,
            (lhs.counter, res.counter), n=n, t=t, box=box,
            detail={**detail, "blocked": res.counter.blocked}))
    return reports


def _micro_setup(exp, params):
    a = exp.domain.a
    dims = params["micro_box"]
    domain = Domain(Vec3(0.0, 0.0, 0.0),
                    Vec3(dims[0] * a, dims[1] * a, dims[2] * a), a)
    spec = GrandCanonicalEq(float(params["z"]), exp.density.beta)
    return spec, domain


def _run_grand_canonical(exp, label, params, key):
    spec, domain = _micro_setup(exp, params)
    n, t, samples = int(params["n"]), float(params["t"]), int(params["samples"])
    ms = get_measure(spec, domain, norm_proposals=exp.norm_proposals)
    lo = np.array(domain.inset_lower)
    hi = np.array(domain.inset_upper)
    sig = 1.0 / math.sqrt(spec.beta)
    q_hi = hi.copy()
    q_hi[0] = lo[0] + 0.4 * (hi[0] - lo[0])
    box = PhaseBox.of([lo], [q_hi], [[-1.2 * sig] * 3], [[1.2 * sig] * 3])
    sp = SeriesParams(
        n_samples=samples,
        inner_samples=int(params["inner_samples"]),
        allocation=tuple(params["allocation"]),
        direction_draws=int(params["direction_draws"]),
    )
    beta0, counts = sp.plan(n, ms)
    strata = [(count, (key, 2, m)) for m, count in enumerate(counts)]
    (lhs,), res = yield [_empirical(exp, spec, domain, n, t, (box,), samples, key, 1),
                         _series(exp, spec, domain, n, t, box, strata, beta0, sp.inner_samples,
                                 sp.antithetic, sp.direction_draws)]
    return [_stat_report(
        "grand_canonical_identity", label or "micro", lhs.estimate, res.total_with_norm_err, exp,
        (lhs.counter, res.counter), n=n, t=t, box=box,
        detail={"n_max": ms.n_max, "occupancy": [float(x) for x in ms.occupancy],
                **{f"stratum_m{m}": {"value": e.value, "stderr": e.stderr}
                   for m, e in res.strata.items()}})]


# relative rounding tolerance of an identity that holds exactly in real
# arithmetic (the top level of the correlation-map round trip)
_ROUNDING = 1e-12


def _run_map_roundtrip(exp, label, params, key):
    yield []
    spec, domain = _micro_setup(exp, params)
    ms = get_measure(spec, domain, norm_proposals=exp.norm_proposals)
    rho = correlation_map(ms, inner_samples=int(params["inner_samples"]))
    inv = inverse_correlation_map(rho, outer_samples=int(params["outer_samples"]))
    points = int(params["points"])
    rng = _rng(exp.seed, key, 1)
    reports = []
    for level in range(ms.n_max + 1):
        # the top level has no outer integral: the inverse map returns the
        # density up to rounding, a deterministic identity
        top = level == ms.n_max
        worst = None
        for _ in range(points if level else 1):
            if level:
                q, p = ms.place(rng, level)
            else:
                q = np.zeros((0, 3))
                p = np.zeros((0, 3))
            approx, se = inv.eval_arrays(q, p, rng)
            exact = ms.density_arrays(q, p)
            se = math.hypot(se, abs(exact) * ms.z_rel_err)
            gap = abs(approx - exact)
            # the worst point: by its excess over the tolerance at the top
            # level, by its z-score below
            score = gap - _ROUNDING * abs(exact) if top else gap / se if se > 0 else 0.0
            if worst is None or score > worst[0]:
                worst = (score, approx, se, exact)
        z, approx, se, exact = worst
        if top:
            reports.append(_det_report("map_roundtrip", f"level{level}", approx, exact,
                                       _ROUNDING * abs(exact), samples=points, n=level))
        else:
            reports.append(CheckReport(
                check="map_roundtrip", case=f"level{level}", mode="statistical",
                lhs=approx, lhs_err=se, rhs=exact, rhs_err=0.0,
                z=z, tolerance=None, sigma=exp.sigma,
                passed=bool(z <= exp.sigma), samples=points,
                degenerate_rate=0.0, n=level,
            ))
    return reports


_RUNNERS = {
    "conservation": _run_conservation,
    "reversibility": _run_reversibility,
    "liouville": _run_liouville,
    "special_flow": _run_special_flow,
    "lemma2_rate": _run_lemma2,
    "prop1_decomposition": _run_prop1,
    "prop5_onestep": _run_prop5,
    "series_identity": _run_series_identity,
    "grand_canonical_identity": _run_grand_canonical,
    "map_roundtrip": _run_map_roundtrip,
}


def _run(exp: ExperimentConfig, entries: list[tuple[str, str, dict]]) -> list[CheckReport]:
    """Run check entries (id, label, params) as one plan: refuse them with
    ``validate``'s words before any runner starts, advance each runner to
    the estimators it yields, map every chunk of the run in order over one
    pool, merge each group in chunk order, and send each runner its results
    in entry order.  A check's runtime is its setup plus the time spent
    waiting for and finishing it, so a run's runtimes add up to its wall time."""
    problems = exp.validate(entries)
    if problems:
        raise ValueError("; ".join(problems))
    plans, jobs = [], []
    start = time.perf_counter()
    for cid, label, params in entries:
        runner = _RUNNERS[cid](exp, label, check_params(cid, params), _check_key(cid, label))
        estimators = next(runner)
        jobs += [(e.worker, c) for e in estimators for group in e.groups for c in group]
        now = time.perf_counter()
        plans.append((label, runner, estimators, now - start))
        start = now
    config_hash = exp.config_hash
    reports = []
    with _map_ordered(_call, jobs, exp.workers) as results:
        def merged(group):
            acc = next(results)
            for _ in group[1:]:
                acc = tuple(map(_merge, acc, next(results)))
            return acc

        for label, runner, estimators, setup in plans:
            try:
                runner.send([e.combine(*map(merged, e.groups)) for e in estimators])
            except StopIteration as done:
                own = done.value
            now = time.perf_counter()
            elapsed, start = setup + now - start, now
            for rep in own:
                rep.seed = exp.seed
                rep.config_hash = config_hash
                rep.runtime_s = elapsed / len(own)
                if label and not rep.case.startswith(label):
                    rep.case = f"{label}.{rep.case}" if rep.case else label
            reports += own
    return reports


def run_check(exp: ExperimentConfig, check_id: str, label: str = "",
              params: dict | None = None) -> list[CheckReport]:
    """Run one check with ``params`` over its defaults (config.CHECK_PARAMS)
    and stamp every report with the run's seed and config hash; raises
    ValueError with the problems of an entry or of the run-wide settings
    that ``validate`` refuses."""
    return _run(exp, [(check_id, label, params or {})])


def run_all(exp: ExperimentConfig, only: list[str] | None = None) -> list[CheckReport]:
    return _run(exp, [e for e in exp.checks if not only or e[0] in only])


def write_report(reports: list[CheckReport], path: str) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(rep.to_json_line() + "\n")


def summary_table(reports: list[CheckReport]) -> str:
    lines = [
        f"{'check':42s} {'lhs':>12s} | {'rhs':>12s} | gauge | status | degen | time",
        "-" * 118,
    ]
    lines.extend(rep.table_row() for rep in reports)
    n_fail = sum(not r.passed for r in reports)
    lines.append("-" * 118)
    lines.append(f"{len(reports)} checks, {n_fail} failed")
    return "\n".join(lines)
