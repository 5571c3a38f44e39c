"""Collision-history construction and signed Monte Carlo series evaluation.

The time-evolved n-particle correlation function integrated over a phase
box equals an integral over collision histories: alternating backward
flows and at-contact particle insertions, each insertion carrying the
signed flux weight a^2 omega . (p_hat - p_j).  This module builds
histories, evaluates the series by stratified importance sampling, and
estimates the same quantity empirically by forward simulation so the two
routes can be compared.

Sampling measure for a history with m insertions: ordered times are
sorted uniforms on [0,t]^m (simplex weight t^m/m!), the first insertion's
receiver is summed over the n box particles, the k-th label (k >= 2) is
uniform over its n+k-1 choices, insertion momenta come from a proposal
Maxwellian at beta0 (reweighted), directions are uniform on the sphere
(weight 4 pi each).  Directions falling outside the admissible set
contribute zero.  A backward leg that hits a degenerate trajectory and a
direction drawn as a normal triple at or below the norm floor both
sample a null set: the sample is counted as degenerate and contributes
zero, and no outer draw depends on either.  The forward-simulation
estimator instead re-samples degenerate trajectories, keeping its
denominator at the requested sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import permutations, product

import numpy as np

from hardsphere.dynamics import Limit, PairEvents, evolve_batch
from hardsphere.geometry import (
    EPS_CONTACT_REL,
    Configuration,
    Vec3,
    require_unit,
)
from hardsphere.measures import (
    INNER_SAMPLES,
    CorrelationVector,
    GrandCanonicalEq,
    InitialMeasure,
    Maxwellian,
    _clear,
    config_from_arrays,
    config_to_arrays,
)
from hardsphere.stats import (
    RejectionCounter,
    RunningStats,
    SignedEstimate,
    binomial_estimate,
    falling_factorial,
)

# Each physical contact appears twice in the ordered-pair flux
# parametrization (i hits j and j hits i), while a collision is one event.
UNORDERED_PAIR_FACTOR = 0.5


# ---------------------------------------------------------------------------
# phase-space boxes (the Borel sets the identities are integrated over)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseBox:
    """Product of per-particle position and momentum intervals in the
    n-particle phase space.  Membership additionally requires hard-core
    admissibility, applied by the estimators, not here."""

    q_lo: tuple
    q_hi: tuple
    p_lo: tuple
    p_hi: tuple

    @staticmethod
    def of(q_lo, q_hi, p_lo, p_hi) -> "PhaseBox":
        as_t = lambda x: tuple(tuple(float(c) for c in row) for row in np.atleast_2d(x))
        box = PhaseBox(as_t(q_lo), as_t(q_hi), as_t(p_lo), as_t(p_hi))
        if not (len(box.q_lo) == len(box.q_hi) == len(box.p_lo) == len(box.p_hi)):
            raise ValueError("per-particle interval lists must have equal length")
        # an empty, flat or inverted interval holds no mass: a check on it
        # would pass at 0 against 0
        for name, lo, hi in (("q", box.q_lo, box.q_hi), ("p", box.p_lo, box.p_hi)):
            for i, (row_lo, row_hi) in enumerate(zip(lo, hi)):
                for axis, a, b in zip("xyz", row_lo, row_hi):
                    if not (math.isfinite(a) and math.isfinite(b) and a < b):
                        raise ValueError(f"particle {i}: {name}_lo.{axis} = {a} must be "
                                         f"finite and below {name}_hi.{axis} = {b}")
        return box

    @property
    def n(self) -> int:
        return len(self.q_lo)

    @property
    def volume(self) -> float:
        v = 1.0
        for lo, hi in ((self.q_lo, self.q_hi), (self.p_lo, self.p_hi)):
            for row_lo, row_hi in zip(lo, hi):
                for a, b in zip(row_lo, row_hi):
                    v *= b - a
        return v

    def contains_batch(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Vectorized membership for arrays of shape (B, n, 3).  The bounds
        are compared on contiguous coordinate-major copies (3, n, B) and
        reduced over their leading axes, several times faster than over the
        two short trailing axes of (B, n, 3)."""
        ok = np.ones(len(q), dtype=bool)
        for x, lo, hi in ((q, self.q_lo, self.q_hi), (p, self.p_lo, self.p_hi)):
            c = np.ascontiguousarray(x.transpose(2, 1, 0))
            ok &= ((c >= np.transpose(lo)[..., None])
                   & (c <= np.transpose(hi)[..., None])).all(axis=(0, 1))
        return ok

    def sample(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        ql, qh = np.asarray(self.q_lo), np.asarray(self.q_hi)
        pl, ph = np.asarray(self.p_lo), np.asarray(self.p_hi)
        q = ql + rng.random((count, *ql.shape)) * (qh - ql)
        p = pl + rng.random((count, *pl.shape)) * (ph - pl)
        return q, p

    def maxwell_prob(self, beta: float) -> float:
        """Product Maxwellian mass of the momentum part (exact)."""
        mw = Maxwellian(beta)
        out = 1.0
        for lo, hi in zip(self.p_lo, self.p_hi):
            out *= mw.box_prob(lo, hi)
        return out

    def to_dict(self) -> dict:
        return {"q_lo": self.q_lo, "q_hi": self.q_hi, "p_lo": self.p_lo, "p_hi": self.p_hi}

    @staticmethod
    def from_dict(d: dict) -> "PhaseBox":
        return PhaseBox.of(d["q_lo"], d["q_hi"], d["p_lo"], d["p_hi"])


# ---------------------------------------------------------------------------
# collision histories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollisionHistory:
    """One history: insertion times (descending, within [0, t]), 0-based
    receiver labels (the k-th insertion may attach to any of the n+k-1
    particles present), insertion momenta, and contact directions."""

    times: tuple[float, ...]
    labels: tuple[int, ...]
    momenta: tuple[Vec3, ...]
    directions: tuple[Vec3, ...]

    @property
    def m(self) -> int:
        return len(self.times)

    def validate(self, n: int, t: float) -> None:
        m = self.m
        if not (len(self.labels) == len(self.momenta) == len(self.directions) == m):
            raise ValueError("history component lengths differ")
        prev = t
        for k in range(m):
            if not 0.0 <= self.times[k] <= prev:
                raise ValueError(f"times must satisfy 0 <= t_m <= ... <= t_1 <= t, got {self.times}")
            prev = self.times[k]
            if not 0 <= self.labels[k] < n + k:
                raise ValueError(f"label {self.labels[k]} out of range at step {k + 1}")


class HistoryStatus(Enum):
    VALID = "valid"
    BLOCKED = "blocked"          # an insertion direction was inadmissible
    DEGENERATE = "degenerate"    # a backward leg hit a degenerate trajectory


@dataclass(slots=True)
class HistoryOutcome:
    terminal: Configuration | None
    weight: float
    status: HistoryStatus

    @property
    def valid(self) -> bool:
        return self.status is HistoryStatus.VALID


# status codes of the array builder, indexing _STATUS
_VALID, _BLOCKED, _DEGENERATE = 0, 1, 2
_STATUS = (HistoryStatus.VALID, HistoryStatus.BLOCKED, HistoryStatus.DEGENERATE)

# rows of one level of a block's history tree; the block's terminals are
# evaluated before the next block is drawn.  The value bounds memory and
# is not part of the stream: legs draw nothing, and the draws are made in
# sample and history order whatever the block.  A lockstep call runs as
# many event steps as its longest row, each at a dispatch cost that
# hardly depends on the row count, so blocks are large: at 16384 a
# grand-canonical m = 1 stratum of 180 samples with 48 histories each is
# one tree, not three.
_LEVEL_ROWS = 16384


def _dot3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _insert(q, p, weight, j, p_hat, omega, domain):
    """At-contact insertion on each row, in the arithmetic of
    ``omega_admissible`` and the flux factor: a sphere with momentum p_hat
    attached to particle j at q_j + a*omega.  Returns the enlarged arrays,
    the new weights and the rows whose insertion is blocked."""
    a = domain.a
    eps = EPS_CONTACT_REL * a
    rows = np.arange(len(q))
    q_new = q[rows, j] + a * omega
    blocked = ((q_new - np.array(domain.inset_lower) < -eps)
               | (np.array(domain.inset_upper) - q_new < -eps)).any(axis=1)
    d = q_new[:, None] - q
    close = np.sqrt(_dot3(d, d)) < a - eps
    close[rows, j] = False
    blocked |= close.any(axis=1)
    weight = weight * (a * a * _dot3(omega, p_hat - p[rows, j]))
    return (np.concatenate([q, q_new[:, None]], axis=1),
            np.concatenate([p, p_hat[:, None]], axis=1), weight, blocked)


def _history_tree(q0, p0, domain, t, times, momenta, root, labels, dirs):
    """Build collision histories backward from time t down to 0.

    Row r of q0, p0 (R, n, 3) is a start, with insertion times
    ``times[r]`` (descending) and momenta ``momenta[r]`` (m, 3).  History h
    runs from start ``root[h]`` and inserts at ``labels[h]`` (m,) along
    ``dirs[h]`` (m, 3).  Histories listed next to each other that share
    their start and their first k labels and directions share their first
    k + 1 backward legs, which are integrated once; each level's legs run
    together and its insertions are array operations.  Returns per history
    (status code, weight, q, p) with terminal arrays (H, n + m, 3), equal
    bit for bit to ``build_history`` one history at a time; the weight is
    0 and the terminal arrays meaningless unless the status is _VALID.
    """
    hist, m = labels.shape
    # new[h, k]: history h opens a node of level k, as it differs from
    # history h - 1 in its start or in one of its first k insertions
    new = np.ones((hist, m + 1), dtype=bool)
    new[1:, 0] = root[1:] != root[:-1]
    new[1:, 1:] = ((labels[1:] != labels[:-1])
                   | (dirs[1:].view(np.int64) != dirs[:-1].view(np.int64)).any(axis=2))
    new = np.logical_or.accumulate(new, axis=1)
    node = np.cumsum(new, axis=0) - 1     # node of each history at each level
    start = root[new[:, 0]]               # start row of each node
    q, p = q0[start], p0[start]
    weight = np.ones(len(start))
    status = np.zeros(len(start), dtype=np.int8)
    prev = np.full(len(start), float(t))
    for k in range(m + 1):
        t_next = times[start, k] if k < m else 0.0
        # the backward legs of the live nodes, with the future-sided limit;
        # a level where no leg moves is skipped
        live = np.flatnonzero(status == _VALID)
        leg = -(prev - t_next)[live]
        if leg.any():
            q[live], p[live], _, _, degenerate, *_ = evolve_batch(q[live], p[live], domain, leg)
            status[live[degenerate]] = _DEGENERATE
        if k == m:
            break
        first = np.flatnonzero(new[:, k + 1])
        parent = node[first, k]
        start, status, prev = start[parent], status[parent], t_next[parent]
        q, p, weight, blocked = _insert(q[parent], p[parent], weight[parent], labels[first, k],
                                        momenta[start, k], dirs[first, k], domain)
        status[(status == _VALID) & blocked] = _BLOCKED
    weight[status != _VALID] = 0.0
    last = node[:, m]
    return status[last], weight[last], q[last], p[last]


def build_history(config: Configuration, t: float, delta: CollisionHistory) -> HistoryOutcome:
    """Run one collision history backward from time t down to 0.

    Alternates backward evolution (future-sided limits throughout) with
    at-contact insertion at q_j + a*omega carrying the prescribed
    momentum; an inserted pair that approaches in backward time collides
    immediately, which the dynamics handles as an at-contact start.  The
    weight is the product of signed flux factors, taken against the
    receiver momentum at the moment of insertion.  The outcome is marked
    BLOCKED for an inadmissible insertion and DEGENERATE when any leg
    refuses a near-degenerate trajectory; both carry zero weight.  This is
    ``_history_tree`` on one history.
    """
    delta.validate(config.n, t)
    for omega in delta.directions:
        require_unit(omega)
    m = delta.m
    q, p = config_to_arrays(config)
    vecs = lambda vs: np.array([v.as_tuple() for v in vs], dtype=float).reshape(1, m, 3)
    status, weight, q_t, p_t = _history_tree(
        q[None], p[None], config.domain, t, np.array(delta.times, dtype=float).reshape(1, m),
        vecs(delta.momenta), np.zeros(1, dtype=int),
        np.array(delta.labels, dtype=int).reshape(1, m), vecs(delta.directions))
    if status[0] != _VALID:
        return HistoryOutcome(None, 0.0, _STATUS[status[0]])
    return HistoryOutcome(config_from_arrays(q_t[0], p_t[0], config.domain),
                          float(weight[0]), HistoryStatus.VALID)


# ---------------------------------------------------------------------------
# series evaluation (stratified over the number of insertions)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesParams:
    n_samples: int = 100_000
    m_max: int | None = None
    allocation: tuple = (0.5, 0.3, 0.2)   # sample split over m = 0, 1, >= 2
    beta0: float | None = None
    inner_samples: int = INNER_SAMPLES
    # average every history over all direction sign flips: pairs each
    # hemisphere against its mirror and cuts the sign-cancellation noise
    antithetic: bool = True
    # independent direction tuples averaged per sample; raise this in
    # micro-domains where most contact directions are geometrically
    # blocked and admissible draws are rare
    direction_draws: int = 1

    def __post_init__(self):
        if self.direction_draws < 1:
            raise ValueError(f"direction_draws must be at least 1, got {self.direction_draws}")
        if len(self.allocation) != 3 or not all(x > 0 for x in self.allocation):
            raise ValueError("allocation must be three positive numbers, "
                             f"got {list(self.allocation)}")

    def plan(self, n: int, measure: InitialMeasure) -> tuple[float, list[int]]:
        """The series plan for an n-particle box: the proposal beta0 and
        the sample count of each stratum m = 0 .. m_max, where m_max is
        capped by the measure's largest particle number."""
        m_cap = measure.n_max - n
        m_max = m_cap if self.m_max is None else min(self.m_max, m_cap)
        beta0 = self.beta0 if self.beta0 is not None else measure.beta
        return beta0, self.stratum_counts(m_max)

    def stratum_counts(self, m_max: int) -> list[int]:
        if m_max == 0:
            return [self.n_samples]
        raw = []
        for m in range(m_max + 1):
            if m <= 1:
                raw.append(self.allocation[m])
            else:
                raw.append(self.allocation[2] / (m_max - 1))
        total = sum(raw)
        counts = [max(1, int(round(self.n_samples * r / total))) for r in raw]
        return counts


@dataclass(slots=True)
class SeriesResult:
    total: SignedEstimate
    strata: dict
    counter: RejectionCounter
    norm_rel_err: float = 0.0

    @property
    def total_with_norm_err(self) -> SignedEstimate:
        return self.total.with_extra_stderr(abs(self.total.value) * self.norm_rel_err)

    @staticmethod
    def of(strata: list, norm_rel_err: float) -> "SeriesResult":
        """Sum the strata m = 0, 1, ..., each given as its (RunningStats,
        RejectionCounter), into the series estimate."""
        ests = {m: SignedEstimate.from_stats(stats) for m, (stats, _) in enumerate(strata)}
        counter = RejectionCounter()
        for _, ctr in strata:
            counter.merge(ctr)
        return SeriesResult(reduce(SignedEstimate.plus, ests.values()), ests, counter, norm_rel_err)


# a sample with a direction's normal triple at most this long counts as
# degenerate: the triple is not scaled to unit length
_NORM_FLOOR = 1e-12


def _series_stratum_stats(rho0: CorrelationVector, n: int, t: float, box: PhaseBox,
                          m: int, count: int, beta0: float, inner_samples: int,
                          antithetic: bool, rng,
                          direction_draws: int = 1) -> tuple[RunningStats, RejectionCounter]:
    """Signed samples of stratum m of the series over one chunk.

    Each admissible box point draws its insertion times, the labels of
    its later insertions and the momenta, then per direction draw m
    directions.  The first insertion's receiver is summed over the n box
    particles, not drawn (a Rao-Blackwell average over that label), and
    the histories are averaged over the direction draws and every sign
    combination.  Every admissible sample makes all of its stream calls,
    whatever its histories do: ``rng.random`` for its m times,
    ``rng.integers`` for each later label, and one normal call for its
    momenta and all draws x m direction triples (a momentum is 0.0 +
    sigma * z of the normal draw z).  A sample with a degenerate history
    or with a triple at or below the norm floor contributes 0 and counts
    as degenerate (both are null sets); its histories from the first
    degenerate one on, and all of a sample with a floor triple, are
    neither evaluated nor counted as blocked.  The terminals draw their
    inner samples from a generator spawned from ``rng``, in the order the
    histories are listed, so the outer draws depend on no outcome.  A
    block of samples is drawn, built as one tree, its valid terminals
    evaluated in one ``eval_batch`` call and its samples' values written
    before the next block is drawn.
    """
    ms = rho0.measure
    dom = ms.domain
    prop = Maxwellian(beta0)
    inner = rng.spawn(1)[0]
    vol = box.volume
    label_factor = falling_factorial(n + m - 1, m - 1) if m else 1.0
    time_factor = t ** m / math.factorial(m)
    sphere_factor = (4.0 * math.pi) ** m
    combo_list = list(product((1.0, -1.0), repeat=m)) if antithetic else [(1.0,) * m]
    combos = len(combo_list)
    signs = np.array(combo_list, dtype=float).reshape(combos, m, 1)
    draws = direction_draws if m else 1
    receivers = n if m else 1
    width = draws * receivers * combos     # histories of a sample
    counter = RejectionCounter()
    qs, ps = box.sample(rng, count)
    # box minus the admissible set carries no mass
    rows = np.flatnonzero(ms.admissible_batch(qs))
    values = np.zeros(count)

    def draw(nb):
        times = np.empty((nb, m))
        labels = np.zeros((nb, m), dtype=int)
        z = np.empty((nb, m + draws * m, 3))
        for i in range(nb if m else 0):
            rng.random(out=times[i])
            for k in range(1, m):
                labels[i, k] = rng.integers(0, n + k)
            rng.standard_normal(out=z[i])
        r = np.sqrt(np.vecdot(z[:, m:], z[:, m:]))[..., None]
        # a triple at or below the floor is built along a fixed axis, not
        # as drawn, which would put its sphere on the receiver
        low = r <= _NORM_FLOOR
        dirs = np.where(low, (0.0, 0.0, 1.0), 0.0 + z[:, m:]) / np.where(low, 1.0, r)
        momenta = 0.0 + prop.sigma * z[:, :m]
        scale = vol * time_factor * label_factor * sphere_factor / prop.pdf(momenta).prod(axis=1)
        return (np.sort(times, axis=1)[:, ::-1] * t, labels, momenta, scale,
                dirs.reshape(nb, draws, 1, 1, m, 3), low.any(axis=(1, 2)))

    # a sample's histories are listed draw-major, then by first receiver,
    # then by sign combination
    per = max(1, _LEVEL_ROWS // width)
    for b in range(0, len(rows), per):
        times, labels, momenta, scale, dirs, low = draw(min(per, len(rows) - b))
        nb = len(times)
        labels = np.repeat(labels, width, axis=0)
        labels[:, :1] = np.tile(np.repeat(np.arange(receivers), combos), nb * draws)[:, None]
        status, weight, q, p = _history_tree(
            qs[rows[b:b + nb]], ps[rows[b:b + nb]], dom, t, times, momenta,
            np.repeat(np.arange(nb), width), labels,
            np.broadcast_to(signs * dirs, (nb, draws, receivers, combos, m, 3))
            .reshape(nb * width, m, 3))
        status, weight = status.reshape(nb, width), weight.reshape(nb, width)
        seen = (np.cumsum(status == _DEGENERATE, axis=1) == 0) & ~low[:, None]
        counter.blocked += int((seen & (status == _BLOCKED)).sum())
        ev = np.flatnonzero(seen & (status == _VALID))
        rho = np.zeros(nb * width)
        rho[ev] = rho0.eval_batch(q[ev], p[ev], inner, inner_samples)[0]
        # each sample's histories summed left to right
        total = np.add.accumulate(scale[:, None] * weight * rho.reshape(nb, width), axis=1)[:, -1]
        values[rows[b:b + nb]] = np.where(seen[:, -1], total / (draws * combos), 0.0)
        counter.degenerate += nb - int(seen[:, -1].sum())
    # the samples outside the admissible set count as accepted, with value 0
    counter.accepted = count - counter.degenerate
    return RunningStats().add_many(values), counter


def series_eval(rho0: CorrelationVector, n: int, t: float, box: PhaseBox,
                params: SeriesParams, rng: np.random.Generator) -> SeriesResult:
    """Estimate the integral of the time-t correlation function over the
    box from time-0 correlations alone, by summing the stratified
    collision-history series.

    The result does not depend on the version of the correlation
    functions chosen on null sets: the samplers draw terminal points with
    an absolutely continuous law, so a redefinition of rho0 on a
    measure-zero set (a shell, say) is hit with probability zero.  This
    holds by construction and is documented rather than tested.
    """
    if t <= 0.0:
        raise ValueError("series evaluation needs t > 0")
    if box.n != n:
        raise ValueError(f"box is {box.n}-particle, expected {n}")
    beta0, counts = params.plan(n, rho0.measure)
    return SeriesResult.of(
        [_series_stratum_stats(rho0, n, t, box, m, count, beta0, params.inner_samples,
                               params.antithetic, rng, params.direction_draws)
         for m, count in enumerate(counts)], rho0.z_rel_err)


# ---------------------------------------------------------------------------
# empirical estimate by forward simulation
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class EmpiricalResult:
    estimate: SignedEstimate
    counter: RejectionCounter

    @staticmethod
    def of(spec, n: int, samples: int, part, counter: RejectionCounter) -> "EmpiricalResult":
        """The estimate of ``empirical_rho`` from the merged results of
        ``empirical_chunk`` over ``samples`` samples."""
        if isinstance(spec, GrandCanonicalEq):
            return EmpiricalResult(SignedEstimate.from_stats(part), counter)
        return EmpiricalResult(
            binomial_estimate(part, samples, falling_factorial(spec.n_particles, n)), counter)


def evolve_sampled(measure: InitialMeasure, count: int, t: float, limit: Limit,
                   rng: np.random.Generator, counter: RejectionCounter,
                   max_degenerate: float = math.inf, pair_events: bool = False):
    """``count`` configurations of a fixed-N measure flowed to time t on
    ``evolve_batch``: each degenerate row, in index order, is counted and
    redrawn, and the new draw flowed on ``evolve_batch`` alone, until one
    is not degenerate, as a row-by-row loop draws it (RuntimeError past
    ``max_degenerate``).  Returns the final positions and momenta, the
    pair-collision counts and, with ``pair_events``, the rows'
    ``PairEvents`` (else None)."""
    qs, ps = measure.sample_batch(rng, count)
    out = evolve_batch(qs, ps, measure.domain, t, limit, pair_events)
    parts = [out.events]
    for i in np.flatnonzero(out.degenerate):
        while True:
            counter.degenerate += 1
            if counter.degenerate > max_degenerate:
                raise RuntimeError("excessive degenerate-trajectory rate")
            qs[i], ps[i] = measure.sample_arrays(rng)
            one = evolve_batch(qs[i:i + 1], ps[i:i + 1], measure.domain, t, limit, pair_events)
            if not one.degenerate[0]:
                break
        out.q[i], out.p[i], out.n_pair[i] = one.q[0], one.p[0], one.n_pair[0]
        if pair_events:
            parts.append(one.events._replace(row=np.full_like(one.events.row, i)))
    counter.accepted += count
    return out.q, out.p, out.n_pair, PairEvents.of(parts, qs.shape[1]) if pair_events else None


def empirical_chunk_fixed(measure: InitialMeasure, n: int, t: float, boxes: tuple,
                          limit: Limit, count: int, rng: np.random.Generator,
                          max_resample: int = 200) -> tuple:
    """The hit count of each box, then the chunk's counter, for a chunk of
    forward trajectories of a fixed-N measure, drawn and run in batches of
    4096 by ``evolve_sampled``; every box is tallied on them."""
    counter = RejectionCounter()
    hits = [0] * len(boxes)
    for done in range(0, count, 4096):
        qf, pf, *_ = evolve_sampled(measure, min(4096, count - done), t, limit, rng, counter,
                                    max_resample + count)
        for k, box in enumerate(boxes):
            hits[k] += int(box.contains_batch(qf[:, :n], pf[:, :n]).sum())
    return (*hits, counter)


def empirical_chunk_grand(measure: InitialMeasure, n: int, t: float, boxes: tuple,
                          limit: Limit, count: int, rng: np.random.Generator,
                          max_resample: int = 200) -> tuple:
    """The ordered-tuple count statistics of each box, then the chunk's
    counter, for a chunk of grand-canonical trajectories.

    The chunk's shortfall of configurations is drawn in stream order and
    each particle number runs as one ``evolve_batch``; a configuration of
    fewer than n particles counts 0 and does not move.  Walked in draw
    order, a degenerate trajectory is counted and skipped, and the new
    shortfall is drawn until ``count`` are accepted: the chunk takes the
    first ``count`` non-degenerate draws, as a one-at-a-time loop does."""
    counter = RejectionCounter()
    stats = [RunningStats() for _ in boxes]
    while counter.accepted < count:
        drawn = [measure.sample_arrays(rng) for _ in range(count - counter.accepted)]
        sizes = np.array([len(q) for q, _ in drawn])
        values = np.zeros((len(boxes), len(drawn)))
        degenerate = np.zeros(len(drawn), dtype=bool)
        for k in np.unique(sizes[sizes >= n]):
            rows = np.flatnonzero(sizes == k)
            qf, pf, _, _, degenerate[rows], *_ = evolve_batch(
                np.array([drawn[r][0] for r in rows]), np.array([drawn[r][1] for r in rows]),
                measure.domain, t, limit)
            tuples = np.array(list(permutations(range(k), n)), dtype=int).reshape(-1, n)
            q_tup, p_tup = qf[:, tuples].reshape(-1, n, 3), pf[:, tuples].reshape(-1, n, 3)
            for b, box in enumerate(boxes):
                values[b, rows] = box.contains_batch(q_tup, p_tup).reshape(len(rows), -1).sum(1)
        counter.degenerate += int(degenerate.sum())
        if counter.degenerate > max_resample + count:
            raise RuntimeError("excessive degenerate-trajectory rate")
        for box_stats, row in zip(stats, values[:, ~degenerate]):
            box_stats.add_many(row)
        counter.accepted += int((~degenerate).sum())
    return (*stats, counter)


def empirical_chunk(measure: InitialMeasure, n: int, t: float, boxes: tuple, limit: Limit,
                    count: int, rng: np.random.Generator, max_resample: int = 200) -> tuple:
    """One chunk of forward trajectories, tallied in every box: per box the
    hit count for a fixed-N measure, the tuple-count statistics for a
    grand-canonical one, then the chunk's counter."""
    chunk = (empirical_chunk_grand if isinstance(measure.spec, GrandCanonicalEq)
             else empirical_chunk_fixed)
    return chunk(measure, n, t, boxes, limit, count, rng, max_resample)


def empirical_rho(measure: InitialMeasure, n: int, t: float, box: PhaseBox,
                  limit: Limit, samples: int, rng: np.random.Generator,
                  max_resample: int = 200) -> EmpiricalResult:
    """Forward-simulation estimate of the box mass of the time-t
    correlation function.

    Fixed-N measures use the falling-factorial times the fraction of
    trajectories whose first n particles land in the box (binomial
    error).  Grand-canonical measures count ordered n-tuples of distinct
    particles instead.  Degenerate trajectories are re-sampled and
    counted.
    """
    if box.n != n:
        raise ValueError(f"box is {box.n}-particle, expected {n}")
    if not isinstance(measure.spec, GrandCanonicalEq) and n > measure.n_max:
        raise ValueError(f"n={n} exceeds particle number {measure.n_max}")
    return EmpiricalResult.of(measure.spec, n, samples, *empirical_chunk(
        measure, n, t, (box,), limit, samples, rng, max_resample))


# ---------------------------------------------------------------------------
# equilibrium pair-collision rate (flux integral oracle)
# ---------------------------------------------------------------------------

def pair_collision_rate(measure: InitialMeasure, samples: int,
                        rng: np.random.Generator) -> tuple[float, float]:
    """Expected pair collisions per unit time in equilibrium, as the flux
    integral of the two-particle correlation function over the contact
    manifold.

    The momentum integral of the positive normal flux against two
    Maxwellians is exactly 1/sqrt(pi beta); the remaining position and
    direction integral is estimated by MC.  Each physical contact is one
    event, hence the ordered-pair parametrization carries a factor 1/2.
    Returns (rate, stderr); the cached-normalization uncertainty is folded
    in.
    """
    spec = measure.spec
    if isinstance(spec, GrandCanonicalEq):
        raise TypeError("pair collision rate is implemented for fixed-N measures")
    big_n = spec.n_particles
    if big_n < 2:
        return (0.0, 0.0)
    dom = measure.domain
    a = dom.a
    momentum_flux = 1.0 / math.sqrt(math.pi * measure.beta)

    lo = np.array(dom.inset_lower)[:, None, None]
    hi = np.array(dom.inset_upper)[:, None, None]
    vol = measure.domain.inset_volume

    vals = np.empty(samples)
    done = 0
    batch = 200_000
    while done < samples:
        b = min(batch, samples - done)
        u = rng.normal(size=(b, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        # the centers of each sample, coordinate-major (3, N, b): the
        # contact pair q1 and q2 = q1 + a u, then the rest, each mapped as
        # lo + uniform * (hi - lo)
        c = np.empty((3, big_n, b))
        np.multiply(rng.random((b, 1, 3)).T, hi - lo, out=c[:, :1])
        c[:, :1] += lo
        np.multiply(u.T, a, out=c[:, 1])
        c[:, 1] += c[:, 0]
        np.multiply(rng.random((b, big_n - 2, 3)).T, hi - lo, out=c[:, 2:])
        c[:, 2:] += lo
        ok = ((c >= lo - 1e-12) & (c <= hi + 1e-12)).all(axis=(0, 1))
        # every pair but the contact pair, which sits exactly at a
        ok &= _clear(c[:, 2:], a * a * (1.0 - 1e-12), c[:, :2])
        vals[done:done + b] = np.prod(measure.g(c.transpose(1, 2, 0)), axis=0) * ok
        done += b
    geom_mean = float(vals.mean())
    geom_se = float(vals.std(ddof=1) / math.sqrt(samples))
    z_n, z_err = measure.position_partition(big_n)
    prefac = (UNORDERED_PAIR_FACTOR * a * a * momentum_flux
              * falling_factorial(big_n, 2) / z_n
              * 4.0 * math.pi * vol ** (big_n - 1))
    rate = prefac * geom_mean
    rel = math.sqrt((geom_se / geom_mean) ** 2 + (z_err / z_n) ** 2) if geom_mean > 0 else 0.0
    return (rate, abs(rate) * rel)
