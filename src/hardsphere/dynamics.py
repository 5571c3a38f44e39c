"""Exact event-driven flow for hard spheres in a box.

Between events every sphere moves ballistically.  A pair event exchanges
the normal momentum component along the line of centers; a wall event
flips the normal component.  Trajectories that come within tolerance of a
grazing contact or of two coinciding events are refused with
DegeneracyError: such orbits form a null set and callers reject and
re-sample them, counting the rejections.

Backward evolution and one-sided limits: evolving by a negative time is
realized as momentum reversal, forward evolution, reversal again.  When
the requested end time lands on an event within tolerance, the FROM_PAST
limit keeps the pre-event momenta and FROM_FUTURE applies the event law.
A configuration that starts with a touching pair is legitimate input; the
pair collides immediately when it is approaching in the direction of
integration and simply separates otherwise.

Two engines share these rules.  ``evolve_batch``, the program's one
entry to the flow, runs independent configurations of one particle
number, each with its own duration, on the lockstep kernel alone, on any
row count, recorded or not: bit for bit as the scalar engine would,
degenerate rows included.  The kernel keeps rows on the last axis: the
state is (component, particle, row) and the candidate times (column,
row), pairs first, then walls, an order that parts from the scalar
engine's only on exact ties, which are degenerate in both.  A degenerate
row is reported and comes back as it went in, as does a row without
spheres.  The scalar engine, on plain floats, is the public edge
(``evolve_arrays`` on (n, 3) arrays, ``evolve`` on a ``Configuration``,
``next_event``) and the reference of the differential tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from hardsphere.geometry import (
    EPS_CONTACT_REL,
    EPS_GRAZE_REL,
    Configuration,
    PhasePoint,
    Vec3,
)

# Two candidate events closer than EPS_EVENT_REL * a / speed-scale in time
# are treated as simultaneous (degenerate).
EPS_EVENT_REL = 1e-9

_MAX_EVENTS_DEFAULT = 1_000_000


class Limit(Enum):
    FROM_FUTURE = "from_future"
    FROM_PAST = "from_past"


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


class EventKind(Enum):
    PAIR = "pair"
    WALL = "wall"


class DegeneracyKind(Enum):
    GRAZING_CONTACT = "grazing_contact"
    SIMULTANEOUS_EVENTS = "simultaneous_events"
    CORNER_CONTACT = "corner_contact"


class DegeneracyError(Exception):
    """A trajectory hit a grazing or coinciding event within tolerance."""

    def __init__(self, kind: DegeneracyKind, detail: str = ""):
        self.kind = kind
        super().__init__(f"{kind.value}: {detail}" if detail else kind.value)


@dataclass(frozen=True, slots=True)
class Event:
    """Next contact along the current ballistic segment.

    For PAIR events ``i < j`` and ``omega`` is the contact unit vector
    from center i to center j.  For WALL events ``axis``/``side`` name the
    face and ``normal`` is the outward unit normal.
    """

    kind: EventKind
    time_to_event: float
    i: int
    j: int = -1
    axis: int = -1
    side: int = 0
    omega: Vec3 | None = None
    normal: Vec3 | None = None


@dataclass(slots=True)
class LogEntry:
    time: float
    event: Event
    positions: tuple
    momenta_before: tuple
    momenta_after: tuple


@dataclass(slots=True)
class TrajectoryLog:
    """Per-event record of one evolve() call.

    ``entries`` is populated only when requested; the event counters are
    always maintained.  Times are elapsed durations from the start of the
    integration (also for backward runs, where momenta are reported as
    they appear on the actual trajectory).
    """

    direction: Direction = Direction.FORWARD
    n_pair: int = 0
    n_wall: int = 0
    entries: list[LogEntry] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return self.n_pair + self.n_wall

    def to_csv_lines(self) -> list[str]:
        """Trajectory dump, one CSV row per event (debugging aid)."""
        rows = ["time,kind,i,j,axis,side,p_before,p_after"]
        for e in self.entries:
            ev = e.event
            pb = ";".join(f"{c:.17g}" for pp in e.momenta_before for c in pp)
            pa = ";".join(f"{c:.17g}" for pp in e.momenta_after for c in pp)
            rows.append(
                f"{e.time:.17g},{ev.kind.value},{ev.i},{ev.j},{ev.axis},{ev.side},{pb},{pa}"
            )
        return rows


class PairEvents(NamedTuple):
    """The pair events of a batch as arrays, grouped by row in row order
    and in the order they happen within a row: the row, the elapsed time
    as in ``LogEntry``, the pair i < j, and all positions at the event
    and all momenta before and after it, each (E, N, 3)."""

    row: np.ndarray
    time: np.ndarray
    i: np.ndarray
    j: np.ndarray
    q: np.ndarray
    p_before: np.ndarray
    p_after: np.ndarray

    @staticmethod
    def of(parts: list, n: int) -> "PairEvents":
        """Join parts, each a ``PairEvents`` or a tuple of its fields,
        keeping the order of the events of a row."""
        if not parts:
            empty = np.zeros((0, n, 3))
            return PairEvents(np.zeros(0, dtype=np.int64), np.zeros(0),
                              np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                              empty, empty, empty)
        fields = [np.concatenate(f) for f in zip(*parts)]
        order = np.argsort(fields[0], kind="stable")
        return PairEvents(*(f[order] for f in fields))


class BatchFlow(NamedTuple):
    """The result of ``evolve_batch``, per row; ``events`` and ``gap`` are
    None unless the call is recorded."""

    q: np.ndarray
    p: np.ndarray
    n_pair: np.ndarray
    n_wall: np.ndarray
    degenerate: np.ndarray
    events: PairEvents | None = None
    gap: np.ndarray | None = None


def pair_collide(p_i: Vec3, p_j: Vec3, omega: Vec3) -> tuple[Vec3, Vec3]:
    """Elastic hard-sphere momentum exchange along the contact normal.

    ``omega`` must be the unit vector from center i to center j.  The
    normal component of the relative momentum is exchanged; total momentum
    and kinetic energy are conserved up to roundoff, and applying the map
    twice restores the inputs.
    """
    new_i, new_j = pair_exchange(omega.as_tuple(), p_i.as_tuple(), p_j.as_tuple())
    return Vec3(*new_i), Vec3(*new_j)


def pair_exchange(o, p_i, p_j):
    """``pair_collide`` on (x, y, z) component triples of floats or of
    arrays, in its operation order: the unit vector ``o`` from center i
    to center j and the two momenta.  Returns the new (p_i, p_j) triples.
    The scalar engine, the lockstep kernel and the conservation check
    apply this law."""
    c = o[0] * (p_i[0] - p_j[0]) + o[1] * (p_i[1] - p_j[1]) + o[2] * (p_i[2] - p_j[2])
    return ((p_i[0] - c * o[0], p_i[1] - c * o[1], p_i[2] - c * o[2]),
            (p_j[0] + c * o[0], p_j[1] + c * o[1], p_j[2] + c * o[2]))


def wall_reflect(p: Vec3, normal: Vec3) -> Vec3:
    """Specular reflection: flip the momentum component along ``normal``."""
    return p - normal.scale(2.0 * normal.dot(p))


_AXIS_NORMALS = {
    (0, 1): Vec3(1.0, 0.0, 0.0),
    (0, -1): Vec3(-1.0, 0.0, 0.0),
    (1, 1): Vec3(0.0, 1.0, 0.0),
    (1, -1): Vec3(0.0, -1.0, 0.0),
    (2, 1): Vec3(0.0, 0.0, 1.0),
    (2, -1): Vec3(0.0, 0.0, -1.0),
}


class _Engine:
    """Mutable integration state on plain float lists (hot path)."""

    __slots__ = ("q", "p", "n", "a", "a2", "lo", "hi", "eps_len", "eps_t",
                 "graze_rel", "log", "collect", "elapsed", "max_events")

    def __init__(self, q: list, p: list, dom, collect_log: bool, max_events: int):
        self.q = q
        self.p = p
        self.n = len(self.q)
        self.a = dom.a
        self.a2 = dom.a * dom.a
        self.lo = list(dom.inset_lower)
        self.hi = list(dom.inset_upper)
        self.eps_len = EPS_CONTACT_REL * dom.a
        v2 = sum(c * c for row in self.p for c in row)
        vscale = math.sqrt(v2)
        self.eps_t = EPS_EVENT_REL * dom.a / vscale if vscale > 0.0 else math.inf
        self.graze_rel = EPS_GRAZE_REL
        self.log = TrajectoryLog()
        self.collect = collect_log
        self.elapsed = 0.0
        self.max_events = max_events

    # -- state snapshots -------------------------------------------------

    def snapshot_q(self):
        return tuple(tuple(row) for row in self.q)

    def snapshot_p(self):
        return tuple(tuple(row) for row in self.p)

    # -- elementary updates ----------------------------------------------

    def advance(self, dt: float) -> None:
        for i in range(self.n):
            qi, pi = self.q[i], self.p[i]
            qi[0] += dt * pi[0]
            qi[1] += dt * pi[1]
            qi[2] += dt * pi[2]

    def _record(self, p_before, event) -> None:
        """Log the event just applied, built by ``event()`` only when the
        log keeps entries, and enforce the event cap."""
        if self.collect:
            self.log.entries.append(
                LogEntry(self.elapsed, event(), self.snapshot_q(), p_before, self.snapshot_p())
            )
        if self.log.n_events > self.max_events:
            raise RuntimeError(f"event count exceeded {self.max_events}")

    def apply_pair(self, i: int, j: int) -> None:
        qi, qj, pi, pj = self.q[i], self.q[j], self.p[i], self.p[j]
        rx, ry, rz = qj[0] - qi[0], qj[1] - qi[1], qj[2] - qi[2]
        dist = math.sqrt(rx * rx + ry * ry + rz * rz)
        o = (rx / dist, ry / dist, rz / dist)
        p_before = self.snapshot_p() if self.collect else ()
        pi[:], pj[:] = pair_exchange(o, pi, pj)
        self.log.n_pair += 1
        self._record(p_before, lambda: Event(EventKind.PAIR, 0.0, i, j=j, omega=Vec3(*o)))

    def apply_wall(self, i: int, axis: int, side: int) -> None:
        p_before = self.snapshot_p() if self.collect else ()
        self.p[i][axis] = -self.p[i][axis]
        self.log.n_wall += 1
        self._record(p_before, lambda: Event(EventKind.WALL, 0.0, i, axis=axis, side=side,
                                             normal=_AXIS_NORMALS[(axis, side)]))

    # -- contact handling at the start of a segment -----------------------

    def settle_contacts(self) -> None:
        """Collide any touching, approaching pair and reflect any particle
        sitting on a wall margin while moving outward.

        Needed for configurations built by at-contact particle insertion:
        this is where the one-sided limit convention at insertion points
        is realized.
        """
        eps = self.eps_len
        for i in range(self.n):
            for j in range(i + 1, self.n):
                qi, qj = self.q[i], self.q[j]
                rx, ry, rz = qj[0] - qi[0], qj[1] - qi[1], qj[2] - qi[2]
                d2 = rx * rx + ry * ry + rz * rz
                dist = math.sqrt(d2)
                if dist < self.a - eps:
                    raise ValueError(f"overlapping spheres {i},{j}: dist={dist}")
                if dist > self.a + eps:
                    continue
                pi, pj = self.p[i], self.p[j]
                wx, wy, wz = pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]
                radial = rx * wx + ry * wy + rz * wz
                wnorm = math.sqrt(wx * wx + wy * wy + wz * wz)
                # approaching through the grazing band collides; tangential
                # or separating contact just flies on
                if radial < -self.graze_rel * wnorm * dist:
                    self.apply_pair(i, j)
        for i in range(self.n):
            qi, pi = self.q[i], self.p[i]
            for ax in range(3):
                if qi[ax] <= self.lo[ax] + eps and pi[ax] < 0.0:
                    self.apply_wall(i, ax, -1)
                elif qi[ax] >= self.hi[ax] - eps and pi[ax] > 0.0:
                    self.apply_wall(i, ax, 1)

    # -- event search ------------------------------------------------------

    def find_next(self):
        """Minimal positive event time with a runner-up for the degeneracy
        test.  Returns None when nothing can happen (all momenta zero or
        no approaching roots, impossible in a box with motion)."""
        best_t = math.inf
        best = None        # ('pair', i, j, nspeed_sq) or ('wall', i, ax, side)
        second_t = math.inf
        second = None
        n = self.n
        q, p = self.q, self.p
        for i in range(n):
            qi, pi = q[i], p[i]
            for j in range(i + 1, n):
                qj, pj = q[j], p[j]
                rx, ry, rz = qi[0] - qj[0], qi[1] - qj[1], qi[2] - qj[2]
                wx, wy, wz = pi[0] - pj[0], pi[1] - pj[1], pi[2] - pj[2]
                b = rx * wx + ry * wy + rz * wz
                if b >= 0.0:
                    continue  # separating
                c = rx * rx + ry * ry + rz * rz - self.a2
                w2 = wx * wx + wy * wy + wz * wz
                disc = b * b - w2 * c
                if disc <= 0.0:
                    continue  # misses
                if c <= 0.0:
                    # touching within roundoff and still approaching: only
                    # possible straight after settle_contacts for grazing
                    # bands, treat as immediate
                    tau = 0.0
                else:
                    tau = c / (-b + math.sqrt(disc))
                if tau < second_t:
                    if tau < best_t:
                        second_t, second = best_t, best
                        best_t, best = tau, ("pair", i, j, disc)
                    else:
                        second_t, second = tau, ("pair", i, j, disc)
            for ax in range(3):
                v = pi[ax]
                if v > 0.0:
                    tau = (self.hi[ax] - qi[ax]) / v
                    side = 1
                elif v < 0.0:
                    tau = (self.lo[ax] - qi[ax]) / v
                    side = -1
                else:
                    continue
                if tau < second_t:
                    if tau < best_t:
                        second_t, second = best_t, best
                        best_t, best = tau, ("wall", i, ax, side)
                    else:
                        second_t, second = tau, ("wall", i, ax, side)
        if best is None:
            return None
        if second_t - best_t <= self.eps_t:
            if (best[0] == "wall" and second is not None and second[0] == "wall"
                    and best[1] == second[1]):
                raise DegeneracyError(
                    DegeneracyKind.CORNER_CONTACT,
                    f"particle {best[1]} meets two walls within eps_event",
                )
            raise DegeneracyError(
                DegeneracyKind.SIMULTANEOUS_EVENTS,
                f"events at t={best_t!r} and t={second_t!r}",
            )
        if best[0] == "pair":
            # normal relative speed at contact is sqrt(disc)/a; grazing
            # when it falls below graze_rel of the relative speed
            kind, i, j, disc = best
            pi, pj = self.p[i], self.p[j]
            wx, wy, wz = pi[0] - pj[0], pi[1] - pj[1], pi[2] - pj[2]
            w2 = wx * wx + wy * wy + wz * wz
            if disc <= (self.graze_rel * self.a) ** 2 * w2:
                raise DegeneracyError(
                    DegeneracyKind.GRAZING_CONTACT,
                    f"pair ({i},{j}) grazes at t={best_t!r}",
                )
        return best_t, best

    def apply(self, found) -> None:
        if found[0] == "pair":
            self.apply_pair(found[1], found[2])
        else:
            self.apply_wall(found[1], found[2], found[3])

    # -- main loop ---------------------------------------------------------

    def run(self, duration: float, limit: Limit) -> None:
        self.settle_contacts()
        remaining = duration
        while True:
            nxt = self.find_next()
            if nxt is None:
                self.advance(remaining)
                self.elapsed += remaining
                return
            tau, found = nxt
            if tau > remaining + self.eps_t:
                self.advance(remaining)
                self.elapsed += remaining
                return
            if tau >= remaining - self.eps_t:
                # lands on the event within tolerance: one-sided limit
                self.advance(tau)
                self.elapsed += tau
                if limit is Limit.FROM_FUTURE:
                    self.apply(found)
                return
            self.advance(tau)
            self.elapsed += tau
            remaining -= tau
            self.apply(found)


def _rows(config: Configuration) -> tuple[list, list]:
    return ([list(pt.q.as_tuple()) for pt in config.particles],
            [list(pt.p.as_tuple()) for pt in config.particles])


def reverse_momenta(config: Configuration) -> Configuration:
    """The velocity-reversal involution V."""
    return config.replace_particles(
        PhasePoint(pt.q, -pt.p) for pt in config.particles
    )


def next_event(config: Configuration, direction: Direction = Direction.FORWARD) -> Event | None:
    """First event reached from ``config`` in the given time direction.

    Contacts at the start are settled as ``evolve`` settles them, and the
    first event that settling applies is reported with time_to_event 0.
    Raises ValueError for overlapping spheres and DegeneracyError when the
    soonest event grazes or coincides with the next within tolerance, as
    ``evolve`` does.
    """
    work = config if direction is Direction.FORWARD else reverse_momenta(config)
    eng = _Engine(*_rows(work), work.domain, collect_log=True, max_events=_MAX_EVENTS_DEFAULT)
    eng.settle_contacts()
    if eng.log.entries:
        return eng.log.entries[0].event
    nxt = eng.find_next()
    if nxt is None:
        return None
    tau, found = nxt
    if found[0] == "pair":
        _, i, j, _ = found
        qi, qj, pi, pj = eng.q[i], eng.q[j], eng.p[i], eng.p[j]
        ox = (qi[0] + tau * pi[0]) - (qj[0] + tau * pj[0])
        oy = (qi[1] + tau * pi[1]) - (qj[1] + tau * pj[1])
        oz = (qi[2] + tau * pi[2]) - (qj[2] + tau * pj[2])
        # omega points from i to j
        nrm = math.sqrt(ox * ox + oy * oy + oz * oz)
        return Event(EventKind.PAIR, tau, i, j=j, omega=Vec3(-ox / nrm, -oy / nrm, -oz / nrm))
    _, i, ax, side = found
    return Event(EventKind.WALL, tau, i, axis=ax, side=side, normal=_AXIS_NORMALS[(ax, side)])


def _flow(q: list, p: list, domain, t: float, limit: Limit, collect_log: bool,
          max_events: int) -> TrajectoryLog:
    """The flow by a signed time t != 0 on rows [x, y, z] of positions and
    momenta, updated in place; returns the log.  Negative t reverses the
    momenta, flows forward with the limit mapped, and reverses again."""
    backward = t < 0.0
    if backward:
        for row in p:
            row[0], row[1], row[2] = -row[0], -row[1], -row[2]
        limit = Limit.FROM_PAST if limit is Limit.FROM_FUTURE else Limit.FROM_FUTURE
    eng = _Engine(q, p, domain, collect_log=collect_log, max_events=max_events)
    eng.run(-t if backward else t, limit)
    log = eng.log
    if backward:
        for row in p:
            row[0], row[1], row[2] = -row[0], -row[1], -row[2]
        log.direction = Direction.BACKWARD
        for e in log.entries:
            e.momenta_before, e.momenta_after = (
                tuple(tuple(-c for c in row) for row in e.momenta_before),
                tuple(tuple(-c for c in row) for row in e.momenta_after),
            )
    return log


def evolve(config: Configuration, t: float, limit: Limit = Limit.FROM_FUTURE,
           collect_log: bool = False,
           max_events: int = _MAX_EVENTS_DEFAULT) -> tuple[Configuration, TrajectoryLog]:
    """Flow the configuration by a signed time t: ``evolve_arrays`` on a
    ``Configuration``.

    Negative t runs the time-reversed dynamics (reverse momenta, evolve
    forward, reverse again); the one-sided limit is mapped accordingly, so
    limit always refers to the trajectory's own time axis.  Raises
    DegeneracyError for near-degenerate trajectories, which callers count
    and re-sample.
    """
    if t == 0.0:
        return config, TrajectoryLog()
    q, p, log = evolve_arrays(*_rows(config), config.domain, t, limit, collect_log, max_events)
    pts = tuple(PhasePoint(Vec3(*qi), Vec3(*pi)) for qi, pi in zip(q.tolist(), p.tolist()))
    return Configuration(pts, config.domain), log


def evolve_arrays(q: np.ndarray, p: np.ndarray, domain, t: float,
                  limit: Limit = Limit.FROM_FUTURE, collect_log: bool = False,
                  max_events: int = _MAX_EVENTS_DEFAULT):
    """The scalar engine on one (n, 3) position and momentum array pair:
    returns new arrays and the trajectory log."""
    q, p = np.asarray(q, dtype=float).tolist(), np.asarray(p, dtype=float).tolist()
    log = _flow(q, p, domain, t, limit, collect_log, max_events) if t != 0.0 else TrajectoryLog()
    return np.array(q, dtype=float).reshape(-1, 3), np.array(p, dtype=float).reshape(-1, 3), log


def evolve_batch(q: np.ndarray, p: np.ndarray, domain, t,
                 limit: Limit = Limit.FROM_FUTURE, pair_events: bool = False) -> BatchFlow:
    """Flow B independent N-sphere configurations by a signed time t on
    the lockstep kernel.

    ``q`` and ``p`` have shape (B, N, 3); ``t`` is one time for all rows
    or one per row, of shape (B,) (all of one sign; a row with t = 0 or
    without spheres is returned as it came).  Each row ends as the scalar
    engine ends it, bit for bit.  Returns a ``BatchFlow``: a row that
    meets a degenerate trajectory is marked, has no events and comes back
    as it went in.  With ``pair_events`` the call is recorded: ``events``
    holds the pair entries of each row's scalar log and ``gap`` the
    smallest difference of consecutive entry times, pair or wall (inf
    below two entries), bit for bit.  A ``t`` of another shape or of
    mixed signs raises ValueError, as does an overlapping start; a row
    past the event cap raises RuntimeError, as in ``evolve``.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    t = np.asarray(t, dtype=float)
    if t.ndim and t.shape != (len(q),):
        raise ValueError(f"per-row times must have shape ({len(q)},), not {t.shape}")
    if t.min(initial=0.0) < 0.0 < t.max(initial=0.0):
        raise ValueError("per-row times must share one sign")
    # a row without spheres has nothing to flow
    dur = np.broadcast_to(t if q.shape[1] else 0.0, len(q))
    return _lockstep(q, p, domain, dur, limit, pair_events)


# ---------------------------------------------------------------------------
# lockstep kernel over independent replicas
# ---------------------------------------------------------------------------

def _lockstep(q: np.ndarray, p: np.ndarray, domain, dur: np.ndarray, limit: Limit,
              record: bool = False) -> BatchFlow:
    """The lockstep kernel of ``evolve_batch`` on (B, N, 3) rows with
    durations ``dur`` (B,) of one sign, zero on every row when N = 0.

    Every row follows the scalar engine's arithmetic exactly, so each row
    of the result equals the scalar engine on that row bit for bit.  The
    state, copied from the caller's arrays, is (component, particle, row)
    and the candidate times (column, row): pairs (i, j) in the scalar
    order, then walls (axis, particle).  The event is the first column at
    a row's minimum; another column order picks another only on an exact
    tie, whose zero gap makes the row degenerate either way, as the
    scalar engine raises on it.  Contacts at the start are settled as
    ``settle_contacts`` does: pairs in (i, j) order, then walls.  A row
    on which the scalar engine raises DegeneracyError stops there: it is
    marked degenerate, has no events and comes back as it went in.  An
    overlapping start raises ValueError for the first such row and a row
    past the event cap RuntimeError, with the scalar engine's messages.
    With ``record`` the elapsed times are kept, and the result holds the
    pair events and event gaps of every row that is not degenerate.
    """
    bsz, n, _ = q.shape
    n_pair = np.zeros(bsz, dtype=np.int64)
    n_wall = np.zeros(bsz, dtype=np.int64)
    degenerate = np.zeros(bsz, dtype=bool)
    out_q, out_p = q.copy(), p.copy()
    parts, gap_out = [], np.full(bsz, np.inf)
    moving = dur != 0.0
    backward = bool((dur < 0.0).any())
    if backward:
        # momentum reversal, forward flow, reversal, with the limit mapped
        p = -p
        limit = Limit.FROM_PAST if limit is Limit.FROM_FUTURE else Limit.FROM_FUTURE
    from_future = limit is Limit.FROM_FUTURE
    # recorded momenta as they appear on the trajectory's own time axis
    p_sign = -1.0 if backward else 1.0

    a = domain.a
    a2 = a * a
    eps_len = EPS_CONTACT_REL * a
    graze = (EPS_GRAZE_REL * a) ** 2
    lo = np.array(domain.inset_lower).reshape(3, 1, 1)
    hi = np.array(domain.inset_upper).reshape(3, 1, 1)
    lo_eps = np.array([x + eps_len for x in domain.inset_lower]).reshape(3, 1, 1)
    hi_eps = np.array([x - eps_len for x in domain.inset_upper]).reshape(3, 1, 1)

    # candidate columns: the pairs (i, j > i) in the scalar order, then the
    # walls, column npair + axis * n + i; weights count down from the first
    # column, so the largest weight at a row's minimum names its first column
    pi_idx, pj_idx = np.triu_indices(n, 1)
    npair = len(pi_idx)
    ncol = npair + 3 * n
    weight = np.arange(ncol, 0, -1, dtype=np.min_scalar_type(ncol))[:, None]

    # the working state (q or p, component, particle, row) of the moving
    # rows; compress copies, so it never aliases the caller's arrays
    idx = np.flatnonzero(moving)
    state = np.stack((q, p)).transpose(0, 3, 2, 1).compress(moving, axis=-1)
    qw, pw = state
    cnt_pair = np.zeros(len(idx), dtype=np.int64)
    cnt_wall = np.zeros(len(idx), dtype=np.int64)

    def collide(r, i, j, at):
        # _Engine.apply_pair on rows r (pair i, j per row) at elapsed times at
        o = qw[:, j, r] - qw[:, i, r]
        o2 = o * o
        o /= np.sqrt(o2[0] + o2[1] + o2[2])
        if record:
            p_before = p_sign * pw[:, :, r].T
        pw[:, i, r], pw[:, j, r] = pair_exchange(o, pw[:, i, r], pw[:, j, r])
        cnt_pair[r] += 1
        if record:
            k = len(r)
            parts.append((idx[r], at, np.broadcast_to(i, k), np.broadcast_to(j, k),
                          qw[:, :, r].T, p_before, p_sign * pw[:, :, r].T))

    with np.errstate(divide="ignore", invalid="ignore"):
        # eps_t from the left-to-right sum of all squared components
        v2 = np.zeros(len(idx))
        for i in range(n):
            for ax in range(3):
                v2 = v2 + pw[ax, i] * pw[ax, i]
        eps_t = (EPS_EVENT_REL * a) / np.sqrt(v2)

        # settle_contacts: an overlap is the caller's error; touching pairs
        # approaching through the grazing band collide, in (i, j) order
        rx = qw[:, pj_idx] - qw[:, pi_idx]
        dist = np.sqrt(rx[0] * rx[0] + rx[1] * rx[1] + rx[2] * rx[2])
        overlap = dist < a - eps_len
        if overlap.any():
            r, k = np.argwhere(overlap.T)[0]
            raise ValueError(f"overlapping spheres {pi_idx[k]},{pj_idx[k]}: "
                             f"dist={float(dist[k, r])}")
        touch = ~(dist > a + eps_len)
        for k in np.flatnonzero(touch.any(axis=1)):
            r, i, j = np.flatnonzero(touch[k]), pi_idx[k], pj_idx[k]
            wx = pw[:, j, r] - pw[:, i, r]
            radial = rx[0, k, r] * wx[0] + rx[1, k, r] * wx[1] + rx[2, k, r] * wx[2]
            wnorm = np.sqrt(wx[0] * wx[0] + wx[1] * wx[1] + wx[2] * wx[2])
            r = r[radial < -EPS_GRAZE_REL * wnorm * dist[k, r]]
            collide(r, i, j, np.zeros(len(r)))
        # then centers on a wall margin moving outward reflect
        out = ((qw <= lo_eps) & (pw < 0.0)) | ((qw >= hi_eps) & (pw > 0.0))
        if out.any():
            np.negative(pw, out=pw, where=out)
            cnt_wall += out.sum(axis=(0, 1))
        remaining = np.abs(dur[idx])
        if record:
            # the elapsed time, the time of the last event and the smallest
            # gap so far; settling happens at elapsed 0
            elapsed = np.zeros(len(idx))
            last = np.where(cnt_pair + cnt_wall > 0, 0.0, -np.inf)
            gap = np.where(cnt_pair + cnt_wall > 1, 0.0, np.inf)

        while len(idx):
            m = len(idx)
            cand = np.empty((ncol, m))
            # pair roots as find_next takes them, component sums left to right
            rx, wx = state.take(pi_idx, axis=2) - state.take(pj_idx, axis=2)
            b, c, w2 = rx * wx, rx * rx, wx * wx
            b = b[0] + b[1] + b[2]
            c = c[0] + c[1] + c[2] - a2
            w2 = w2[0] + w2[1] + w2[2]
            disc = b * b - w2 * c
            tau = np.divide(c, np.sqrt(disc) - b, out=cand[:npair])
            np.copyto(tau, 0.0, where=c <= 0.0)
            np.copyto(tau, np.inf, where=(b >= 0.0) | (disc <= 0.0))
            # the scalar (hi - q) / v or (lo - q) / v, written in place
            walls = np.subtract(np.where(pw > 0.0, hi, lo), qw, out=cand[npair:].reshape(3, n, m))
            walls /= pw
            np.copyto(walls, np.inf, where=pw == 0.0)

            best_t = cand.min(axis=0)
            best = ncol - ((cand == best_t) * weight).max(axis=0).astype(np.intp)
            cand[best, np.arange(m)] = np.inf
            second_t = cand.min(axis=0)

            # without events best_t = second_t = inf, a nan gap, never flagged
            none = best_t == np.inf
            flag = second_t - best_t <= eps_t
            is_pair = best < npair
            pr = np.flatnonzero(is_pair & ~none)
            k = best[pr]
            flag[pr] |= disc[k, pr] <= graze * w2[k, pr]
            # the soonest event lies past the end, or before it by more than
            # eps_t; in between it lands on the end
            beyond = none | (best_t > remaining + eps_t)
            cont = ~(flag | (best_t >= remaining - eps_t))
            apply = ~(flag | beyond) if from_future else cont
            if (apply & (cnt_pair + cnt_wall >= _MAX_EVENTS_DEFAULT)).any():
                raise RuntimeError(f"event count exceeded {_MAX_EVENTS_DEFAULT}")

            dt = np.where(beyond, remaining, np.where(flag, 0.0, best_t))
            qw += dt * pw
            if record:
                elapsed = elapsed + dt
                gap = np.where(apply, np.minimum(gap, elapsed - last), gap)
                last = np.where(apply, elapsed, last)

            r = np.flatnonzero(apply & is_pair)
            if len(r):
                at = elapsed[r] if record else None
                collide(r, pi_idx[best[r]], pj_idx[best[r]], at)
            r = np.flatnonzero(apply & ~is_pair)
            if len(r):
                # wall column npair + axis * n + i flips pw[axis, i]
                pw.reshape(3 * n, m)[best[r] - npair, r] *= -1.0
                cnt_wall[r] += 1

            remaining = remaining - best_t
            done = ~cont
            if done.any():
                ok = done & ~flag
                dest = idx[ok]
                fin_q, fin_p = state[..., ok]
                out_q[dest], out_p[dest] = fin_q.T, p_sign * fin_p.T
                n_pair[dest] = cnt_pair[ok]
                n_wall[dest] = cnt_wall[ok]
                degenerate[idx[flag]] = True
                idx = idx[cont]
                state = state.compress(cont, axis=-1)
                qw, pw = state
                eps_t, remaining = eps_t[cont], remaining[cont]
                if record:
                    gap_out[dest] = gap[ok]
                    elapsed, last, gap = elapsed[cont], last[cont], gap[cont]
                cnt_pair, cnt_wall = cnt_pair[cont], cnt_wall[cont]

    kept = [tuple(f[~degenerate[part[0]]] for f in part) for part in parts]
    return BatchFlow(out_q, out_p, n_pair, n_wall, degenerate,
                     *((PairEvents.of(kept, n), gap_out) if record else ()))
