"""Differential tests: the lockstep kernel and the batch entry against the
scalar engine.

Every row of the kernel must equal scalar ``evolve`` on the same input bit
for bit (final positions, momenta and event counts); a row on which the
scalar engine raises DegeneracyError must be marked degenerate and come
back as it went in, and an overlap or the event cap must raise as the
scalar engine does.
"""

import math

import numpy as np
import pytest

import hardsphere.dynamics as dyn
from hardsphere import hierarchy
from hardsphere.checks import delta_preset
from hardsphere.dynamics import (
    DegeneracyError,
    DegeneracyKind,
    EventKind,
    Limit,
    evolve,
    evolve_arrays,
    evolve_batch,
)
from hardsphere.geometry import Domain, Vec3
from hardsphere.measures import (
    InitialMeasure,
    ModulatedProduct,
    config_from_arrays,
    config_to_arrays,
)
from hardsphere.stats import RejectionCounter
from marking_kernel import marking_kernel

A = 1.0
BOX = Domain(Vec3(0, 0, 0), Vec3(5, 5, 5), A)
HUGE = Domain(Vec3(-500, -500, -500), Vec3(500, 500, 500), A)
MICRO = Domain(Vec3(0, 0, 0), Vec3(2.5, 1.2, 1.2), A)


def sample_starts(rng, rows, n, domain=BOX):
    """Non-overlapping uniform centers in the domain (the 5a box by
    default), normal momenta."""
    qs = np.empty((rows, n, 3))
    for r in range(rows):
        while True:
            q = rng.uniform(domain.inset_lower, domain.inset_upper, size=(n, 3))
            if all(np.linalg.norm(q[i] - q[j]) > A
                   for i in range(n) for j in range(i + 1, n)):
                break
        qs[r] = q
    return qs, rng.normal(size=(rows, n, 3))


def scalar_rows(q, p, domain, t, limit):
    """Scalar evolve per row, with one duration or one per row: (q, p,
    n_pair, n_wall) or the raised kind."""
    out = []
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(q),))
    for r in range(len(q)):
        try:
            fin, log = evolve(config_from_arrays(q[r], p[r], domain), float(t[r]), limit)
        except DegeneracyError as exc:
            out.append(exc.kind)
            continue
        qf, pf = config_to_arrays(fin)
        out.append((qf, pf, log.n_pair, log.n_wall))
    return out


def lockstep(q, p, domain, t, limit=Limit.FROM_FUTURE):
    """The lockstep kernel with one duration or one per row."""
    q = np.asarray(q, dtype=float)
    dur = np.broadcast_to(np.asarray(t, dtype=float), (len(q),))
    return dyn._lockstep(q, np.asarray(p, dtype=float), domain, dur, limit)


def assert_rows_match(q, p, domain, t, limit):
    """Compare the kernel with the scalar engine row by row: a row the
    scalar engine refuses is degenerate and comes back as it went in, any
    other row is its scalar run.  Returns the degenerate mask."""
    qf, pf, n_pair, n_wall, degenerate, *_ = lockstep(q, p, domain, t, limit)
    for r, ref in enumerate(scalar_rows(q, p, domain, t, limit)):
        if isinstance(ref, DegeneracyKind):
            assert degenerate[r], f"row {r} raises {ref} but is not degenerate"
            ref = (q[r], p[r], 0, 0)
        else:
            assert not degenerate[r], f"row {r} runs but is degenerate"
        q_ref, p_ref, pair_ref, wall_ref = ref
        assert np.array_equal(qf[r], q_ref), f"row {r}: positions differ"
        assert np.array_equal(pf[r], p_ref), f"row {r}: momenta differ"
        assert (n_pair[r], n_wall[r]) == (pair_ref, wall_ref), f"row {r}: counts differ"
    return degenerate


@pytest.mark.parametrize("n, rows", [(1, 200), (2, 120), (3, 80), (5, 40)])
@pytest.mark.parametrize("t", [12.0, -7.5])
@pytest.mark.parametrize("limit", list(Limit))
def test_sampled_rows_match_scalar(n, rows, t, limit):
    rng = np.random.default_rng(1000 * n + int(abs(t)))
    q, p = sample_starts(rng, rows, n)
    degenerate = assert_rows_match(q, p, BOX, t, limit)
    assert degenerate.sum() <= rows // 20   # degeneracy is the rare exception


def test_zero_time_is_identity():
    q, p = sample_starts(np.random.default_rng(2), 5, 3)
    qf, pf, n_pair, n_wall, degenerate, *_ = evolve_batch(q, p, BOX, 0.0)
    assert np.array_equal(qf, q) and np.array_equal(pf, p)
    assert not degenerate.any() and not n_pair.any() and not n_wall.any()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_rows_ending_on_an_event(sign):
    # end times taken from the scalar log land on an event within eps_t,
    # where the two one-sided limits part
    rng = np.random.default_rng(7)
    q, p = sample_starts(rng, 4, 3)
    limits_differ = 0
    for r in range(len(q)):
        try:
            _, log = evolve(config_from_arrays(q[r], p[r], BOX), sign * 6.0,
                            collect_log=True)
        except DegeneracyError:
            continue
        for entry in log.entries[:4]:
            t = sign * entry.time
            ends = []
            for limit in Limit:
                assert not assert_rows_match(q[r:r + 1], p[r:r + 1], BOX, t, limit).any()
                ends.append(lockstep(q[r:r + 1], p[r:r + 1], BOX, t, limit)[1])
            limits_differ += not np.array_equal(*ends)
    assert limits_differ > 0


def with_benign_row(q_forced, p_forced, q_benign, p_benign):
    return (np.array([q_forced, q_benign], dtype=float),
            np.array([p_forced, p_benign], dtype=float))


FORCED = {
    # center on the corner diagonal: two walls at the same time
    "corner": (BOX, [[1.0, 1.0, 2.5]], [[-1.0, -1.0, 0.0]],
               [[2.5, 2.5, 2.5]], [[0.3, 0.2, 0.1]], DegeneracyKind.CORNER_CONTACT),
    # both spheres reach opposite walls at t = 0.5
    "simultaneous": (BOX, [[1.0, 2.5, 2.5], [4.0, 2.5, 2.5]], [[-1.0, 0, 0], [1.0, 0, 0]],
                     [[1.5, 1.5, 1.5], [3.5, 3.5, 3.5]], [[0.4, -0.2, 0.7], [-0.3, 0.5, 0.1]],
                     DegeneracyKind.SIMULTANEOUS_EVENTS),
    # an exact tie between a pair and a wall column: spheres 0 and 1 meet
    # and sphere 2 reaches the upper x wall, both at t = 0.5 exactly, so
    # the row is degenerate whichever column the kernel takes first
    "tie": (BOX, [[1.0, 2.5, 2.5], [3.0, 2.5, 2.5], [4.0, 1.0, 1.0]],
            [[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]],
            [[1.5, 1.5, 1.5], [3.5, 3.5, 3.5], [1.2, 3.8, 1.1]],
            [[0.4, -0.2, 0.7], [-0.3, 0.5, 0.1], [0.2, 0.6, -0.5]],
            DegeneracyKind.SIMULTANEOUS_EVENTS),
}


@pytest.mark.parametrize("case", sorted(FORCED))
def test_degenerate_rows_are_flagged(case):
    domain, qf_, pf_, qb, pb, kind = FORCED[case]
    q, p = with_benign_row(qf_, pf_, qb, pb)
    degenerate = assert_rows_match(q, p, domain, 2.0, Limit.FROM_FUTURE)
    assert degenerate.tolist() == [True, False]
    with pytest.raises(DegeneracyError) as err:
        evolve(config_from_arrays(q[0], p[0], domain), 2.0)
    assert err.value.kind is kind


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("limit", list(Limit))
def test_micro_box_rows_match_scalar(limit, sign):
    # the grand-canonical micro box, where walls and corners are met most:
    # per-row durations, with every particle number that fits (centers
    # span 1.5 in x, and three spheres need more than 1.9); recorded, each
    # row's events and gap are its scalar log's and the rows are unchanged
    rng = np.random.default_rng(23 + (sign > 0) + 2 * (limit is Limit.FROM_PAST))
    for n in (1, 2):
        q, p = sample_starts(rng, 150, n, MICRO)
        t = sign * rng.uniform(0.0, 6.0, size=150)
        t[::13] = 0.0
        degenerate = assert_rows_match(q, p, MICRO, t, limit)
        assert degenerate.sum() <= 150 // 20
        plain = lockstep(q, p, MICRO, t, limit)
        assert plain.n_wall.sum() > 150 * 6 * n
        out = evolve_batch(q, p, MICRO, t, limit, pair_events=True)
        assert all(bits(a) == bits(b) for a, b in zip(out[:5], plain[:5]))
        events = assert_recorded_rows(q, p, t, out, MICRO, limit)[0]
        assert (events > 0) == (n == 2)


def test_grazing_row_is_flagged(monkeypatch):
    # widen the grazing band as the scalar grazing test does
    monkeypatch.setattr(dyn, "EPS_GRAZE_REL", 1e-3)
    off = A * math.sqrt(1.0 - 1e-8)
    q, p = with_benign_row([[0, 0, 0], [5, off, 0]], [[1, 0, 0], [-1, 0, 0]],
                           [[0, 0, 0], [5, 0.3, 0]], [[1, 0, 0], [-1, 0, 0]])
    degenerate = assert_rows_match(q, p, HUGE, 4.0, Limit.FROM_FUTURE)
    assert degenerate.tolist() == [True, False]
    with pytest.raises(DegeneracyError) as err:
        evolve(config_from_arrays(q[0], p[0], HUGE), 4.0)
    assert err.value.kind is DegeneracyKind.GRAZING_CONTACT


def test_at_contact_starts_are_settled():
    # the starts an at-contact insertion leaves: the batch settles them as
    # settle_contacts does, pairs in (i, j) order and then walls, and each
    # row equals its scalar run bit for bit
    band = A * (1.0 + 0.5 * dyn.EPS_CONTACT_REL)
    rows = [
        # touching and approaching: collides at once
        ([[2.0, 2.5, 2.5], [3.0, 2.5, 2.5]], [[1, 0.2, 0], [-0.5, 0, 0.1]]),
        # touching and separating: flies apart
        ([[2.0, 2.5, 2.5], [3.0, 2.5, 2.5]], [[-1, 0.2, 0], [0.5, 0, 0.1]]),
        # inside the contact band, approaching at a grazing angle: no
        # collision at the start
        ([[2.0, 2.5, 2.5], [2.0 + band, 2.5, 2.5]], [[1e-12, 0.3, 0], [0, -0.2, 0.1]]),
        # a third sphere touching the second one after the first pair
        ([[1.5, 2.5, 2.5], [2.5, 2.5, 2.5], [2.5, 3.5, 2.5]],
         [[0.8, 0.1, 0], [-0.4, 0.3, 0], [0.1, -0.9, 0.2]]),
        # a center on the wall margin moving outward reflects
        ([[0.5, 2.5, 2.5], [3.0, 1.0, 4.5]], [[-0.6, 0.2, 0.1], [0.3, 0.4, 0.7]]),
    ]
    for q_row, p_row in rows:
        q, p = np.array([q_row], dtype=float), np.array([p_row], dtype=float)
        for t in (0.7, -0.7):
            assert not assert_rows_match(q, p, BOX, t, Limit.FROM_FUTURE).any()
    _, log = evolve(config_from_arrays(*map(np.array, rows[0]), BOX), 0.5)
    assert log.n_pair == 1
    _, log = evolve(config_from_arrays(*map(np.array, rows[4]), BOX), 0.01)
    assert log.n_wall == 2


def test_overlapping_start_is_flagged():
    # the kernel refuses the first overlapping row with the scalar
    # engine's message, whatever rows come before and after it
    q, p = with_benign_row([[2.0, 2.5, 2.5], [2.9, 2.5, 2.5]], [[1, 0, 0], [-1, 0, 0]],
                           [[1.2, 2.1, 2.6], [3.6, 2.4, 2.3]], [[0.7, 0.1, -0.2], [-0.9, 0.3, 0.2]])
    with pytest.raises(ValueError, match="overlapping") as ref:
        evolve(config_from_arrays(q[0], p[0], BOX), 0.5)
    later = q[0] + [[0.0, 0.0, 0.0], [-0.1, 0.0, 0.0]]
    for rows in ([0, 1], [1, 0]):
        with pytest.raises(ValueError) as err:
            lockstep(np.concatenate([q[rows], later[None]]), np.concatenate([p[rows], p[:1]]),
                     BOX, 0.5)
        assert str(err.value) == str(ref.value)
    assert not assert_rows_match(q[1:], p[1:], BOX, 0.5, Limit.FROM_FUTURE).any()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_per_row_durations_match_scalar(sign):
    rng = np.random.default_rng(31)
    for n in (2, 3):
        q, p = sample_starts(rng, 60, n)
        t = sign * rng.uniform(0.0, 9.0, size=60)
        t[::7] = 0.0
        qf, pf, n_pair, n_wall, degenerate, *_ = lockstep(q, p, BOX, t)
        for r in range(60):
            ref = scalar_rows(q[r:r + 1], p[r:r + 1], BOX, t[r], Limit.FROM_FUTURE)[0]
            if isinstance(ref, DegeneracyKind):
                assert degenerate[r]
                ref = (q[r], p[r], 0, 0)
            else:
                assert not degenerate[r]
            assert np.array_equal(qf[r], ref[0]) and np.array_equal(pf[r], ref[1])
            assert (n_pair[r], n_wall[r]) == ref[2:]
        assert np.array_equal(qf[::7], q[::7]) and np.array_equal(pf[::7], p[::7])
    with pytest.raises(ValueError, match="one sign"):
        evolve_batch(q[:2], p[:2], BOX, np.array([1.0, -1.0]))


@pytest.mark.parametrize("pair_events", [False, True])
@pytest.mark.parametrize("rows", [3, 60])
def test_per_row_times_must_fit_the_batch(rows, pair_events):
    # one time for all rows or one per row; a t of any other shape is
    # refused, not truncated or broadcast
    q, p = sample_starts(np.random.default_rng(rows), rows, 2)
    for shape in ((rows - 1,), (rows + 1,), (rows, 1)):
        with pytest.raises(ValueError, match="per-row times must have shape"):
            evolve_batch(q, p, BOX, np.full(shape, 2.0), pair_events=pair_events)
    assert not evolve_batch(q, p, BOX, np.full(rows, 2.0), pair_events=pair_events).degenerate.all()


@pytest.mark.parametrize("pair_events", [False, True])
def test_rows_without_spheres_come_back_as_they_came(pair_events):
    q = np.zeros((3, 0, 3))
    for t in (3.0, np.array([-1.0, 0.0, -2.5])):
        out = evolve_batch(q, q, BOX, t, pair_events=pair_events)
        assert out.q.shape == out.p.shape == q.shape
        assert not out.n_pair.any() and not out.n_wall.any() and not out.degenerate.any()
        if pair_events:
            assert len(out.events.row) == 0 and out.events.q.shape == (0, 0, 3)
            assert (out.gap == math.inf).all()
        else:
            assert out.events is None and out.gap is None


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("rows, n", [(1, 1), (48, 3)])
def test_kernel_never_writes_its_inputs(rows, n, sign, record):
    # the working arrays are copies, also where a transpose of the input
    # is already contiguous, as it is for one row of one sphere; starts
    # that settle a wall and a pair at once write momenta in place
    rng = np.random.default_rng(rows)
    q, p = with_settling(*sample_starts(rng, rows, n), sign)
    if n == 1:
        q[0, 0], p[0, 0] = [0.5, 2.5, 2.5], [-sign * 0.7, 0.2, 0.1]
    t = sign * rng.uniform(0.5, 9.0, size=rows)
    q0, p0 = q.copy(), p.copy()
    out = dyn._lockstep(q, p, BOX, t, Limit.FROM_FUTURE, record)
    assert out.n_wall.sum() > 0
    evolve_batch(q, p, BOX, t, pair_events=record)
    assert bits(q) == bits(q0) and bits(p) == bits(p0)


def test_event_cap_row_is_flagged(monkeypatch):
    # the kernel refuses a row past the event cap as the scalar engine does
    monkeypatch.setattr(dyn, "_MAX_EVENTS_DEFAULT", 3)
    q, p = with_benign_row([[2.5, 2.5, 2.5]], [[1.0, 0.7, 0.3]],
                           [[2.5, 2.5, 2.5]], [[0.1, 0.05, 0.02]])
    with pytest.raises(RuntimeError, match="^event count exceeded 3$"):
        lockstep(q, p, BOX, 10.0)
    assert lockstep(q[1:], p[1:], BOX, 10.0)[3].tolist() == [0]
    with pytest.raises(RuntimeError, match="^event count exceeded 3$"):
        evolve(config_from_arrays(q[0], p[0], BOX), 10.0, max_events=3)


# -- the batch entry runs the lockstep kernel alone ------------------------------

def _forced_degenerate(x: float) -> bool:
    return int(x * 1e4) % 5 == 0


def force_degeneracies(monkeypatch, forced=_forced_degenerate):
    """The scalar engine, which the oracles call, raises, and the lockstep
    kernel marks degenerate, the same starts, those whose first
    coordinate ``forced`` selects."""
    real_flow = dyn._flow

    def flow(q, p, *args):
        if forced(q[0][0]):
            raise DegeneracyError(DegeneracyKind.SIMULTANEOUS_EVENTS)
        return real_flow(q, p, *args)

    monkeypatch.setattr(dyn, "_flow", flow)
    monkeypatch.setattr(dyn, "_lockstep", marking_kernel(dyn._lockstep, forced))


def flow_calls(monkeypatch) -> list:
    """The calls into the scalar engine from now on, which still run."""
    calls = []
    flow = dyn._flow
    monkeypatch.setattr(dyn, "_flow", lambda *args: calls.append(args) or flow(*args))
    return calls


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("rows", [1, 12, 47, 144])
def test_batch_entry_matches_row_by_row(rows, force, monkeypatch):
    # an unrecorded call runs the kernel on one row as on many, backward
    # and forward, never the scalar engine: each row is evolve_arrays on
    # it, and a degenerate row comes back as it went in; with ``force``
    # the last row is among the degenerate ones
    rng = np.random.default_rng(rows)
    q, p = sample_starts(rng, rows, 3)
    if force:
        force_degeneracies(monkeypatch, lambda x: x == q[-1, 0, 0] or _forced_degenerate(x))
    calls = flow_calls(monkeypatch)
    for sign in (-1.0, 1.0):
        t = sign * rng.uniform(0.0, 9.0, size=rows)
        t[:-1:9] = 0.0
        calls.clear()
        out = evolve_batch(q, p, BOX, t)
        assert calls == []
        degenerate = assert_entry_rows(q, p, t, *out[:5])
        assert degenerate.any() == force


def assert_entry_rows(q, p, t, qf, pf, n_pair, n_wall, degenerate):
    """Each row of a batch entry's result is evolve_arrays on the row, or,
    where that raises DegeneracyError, the row as it went in with no
    events; returns the degenerate mask."""
    for r in range(len(q)):
        try:
            q_ref, p_ref, log = evolve_arrays(q[r], p[r], BOX, t[r])
        except DegeneracyError:
            assert degenerate[r]
            assert np.array_equal(qf[r], q[r]) and np.array_equal(pf[r], p[r])
            assert n_pair[r] == n_wall[r] == 0
            continue
        assert not degenerate[r]
        assert np.array_equal(qf[r], q_ref) and np.array_equal(pf[r], p_ref)
        assert (n_pair[r], n_wall[r]) == (log.n_pair, log.n_wall)
    return degenerate


@pytest.mark.parametrize("rows", [1, 48])
def test_batch_entry_raises_as_the_scalar_engine(rows, monkeypatch):
    rng = np.random.default_rng(5)
    q, p = sample_starts(rng, rows, 2)
    bad_q = q.copy()
    bad_q[-1] = [[2.0, 2.5, 2.5], [2.9, 2.5, 2.5]]
    with pytest.raises(ValueError, match="overlapping"):
        evolve_batch(bad_q, p, BOX, 0.5)
    monkeypatch.setattr(dyn, "_MAX_EVENTS_DEFAULT", 3)
    fast = p.copy()
    fast[-1] = [[9.0, 7.0, 5.0], [-8.0, 6.0, -7.0]]
    with pytest.raises(RuntimeError, match="event count exceeded 3"):
        evolve_batch(q, fast, BOX, 10.0)


def with_contacts(rng, q, p):
    """Every third row with sphere 1 moved into contact with sphere 0
    where it fits: at-contact starts, approaching or separating."""
    q = q.copy()
    for r in range(0, len(q), 3):
        u = rng.normal(size=3)
        spot = q[r, 0] + A * u / np.linalg.norm(u)
        if (((spot >= 0.5) & (spot <= 4.5)).all()
                and all(np.linalg.norm(spot - q[r, k]) > A for k in range(2, q.shape[1]))):
            q[r, 1] = spot
    return q, p


def with_settling(q, p, sign):
    """Every seventh row from the fourth on made a start that settles two
    events at elapsed 0 when flowed in the direction of ``sign``: sphere 1
    touching sphere 0 and approaching it along x, and sphere 0 on the
    lower y margin moving outward; the other spheres sit clear of both."""
    q, p = q.copy(), p.copy()
    start = [[2.2137, 0.5, 2.5], [3.2137, 0.5, 2.5],
             [4.0, 3.5, 1.0], [4.2, 3.0, 4.0], [1.0, 4.0, 4.0]]
    for r in range(3, len(q), 7):
        q[r] = start[:q.shape[1]]
        p[r, :2, :2] = sign * np.array([[0.3, -0.6], [-0.5, 0.4]])
    return q, p


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("rows", [47, 144])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_pair_events_match_scalar_log(n, sign, rows, force, monkeypatch):
    # the pair entries of each row's scalar log and the smallest gap
    # between its consecutive entries, bit for bit; a degenerate row has
    # no events and no gap
    if force:
        force_degeneracies(monkeypatch)
    rng = np.random.default_rng(100 * n + rows)
    q, p = with_settling(*with_contacts(rng, *sample_starts(rng, rows, n)), sign)
    t = sign * rng.uniform(0.0, 12.0, size=rows)
    t[::11] = 0.0
    out = evolve_batch(q, p, BOX, t, pair_events=True)
    events, at_start, no_gap = assert_recorded_rows(q, p, t, out)
    assert events > rows // 4 and at_start > 0 and no_gap > 0
    assert out.degenerate.any() == force


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("rows", [1, 12, 47])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_recording_runs_on_the_kernel_alone(sign, rows, force, monkeypatch):
    # recording has one home: a recorded call on few rows runs the kernel,
    # never the scalar engine, and each row still equals its scalar log,
    # gaps included; with ``force`` row 0 is degenerate
    rng = np.random.default_rng(rows)
    q, p = with_settling(*with_contacts(rng, *sample_starts(rng, rows, 3)), sign)
    t = sign * rng.uniform(0.5, 12.0, size=rows)
    if force:
        force_degeneracies(monkeypatch, forced=lambda x: x == q[0, 0, 0])
    calls = flow_calls(monkeypatch)
    out = evolve_batch(q, p, BOX, t, pair_events=True)
    assert calls == []
    assert_recorded_rows(q, p, t, out)
    assert out.degenerate.tolist() == [force] + [False] * (rows - 1)


def assert_recorded_rows(q, p, t, out, domain=BOX, limit=Limit.FROM_FUTURE):
    """Each row's pair events and event gap in a recorded call's result
    are those of its scalar log, bit for bit; a row on which that raises
    DegeneracyError is marked and has neither.  Returns the number of
    events, of those at elapsed 0 and of rows with a zero gap."""
    degenerate, ev = out.degenerate, out.events
    assert ev.q.shape[1:] == ev.p_before.shape[1:] == ev.p_after.shape[1:] == q.shape[1:]
    assert (np.diff(ev.row) >= 0).all()
    at_start = no_gap = 0
    for r in range(len(q)):
        got = np.flatnonzero(ev.row == r)
        try:
            log = evolve_arrays(q[r], p[r], domain, t[r], limit, collect_log=True)[2]
        except DegeneracyError:
            assert degenerate[r] and not len(got) and out.gap[r] == math.inf
            continue
        times = [e.time for e in log.entries]
        assert bits(out.gap[r]) == bits(min((b - a for a, b in zip(times, times[1:])),
                                            default=math.inf)), f"row {r}"
        no_gap += out.gap[r] == 0.0
        want = [e for e in log.entries if e.event.kind is EventKind.PAIR]
        assert len(got) == len(want), f"row {r}"
        for k, e in zip(got, want):
            assert bits(ev.time[k]) == bits(e.time)
            assert (ev.i[k], ev.j[k]) == (e.event.i, e.event.j)
            assert bits(ev.q[k]) == bits(e.positions)
            assert bits(ev.p_before[k]) == bits(e.momenta_before)
            assert bits(ev.p_after[k]) == bits(e.momenta_after)
            at_start += e.time == 0.0
    return len(ev.row), at_start, no_gap


def test_kernel_rows_never_reach_the_scalar_engine(monkeypatch):
    # the kernel settles every row it runs, the degenerate ones and the
    # at-contact starts included: the scalar engine is never called, and
    # each row is still evolve_arrays on it
    force_degeneracies(monkeypatch)
    calls = flow_calls(monkeypatch)
    rows = 144
    rng = np.random.default_rng(17)
    q, p = with_contacts(rng, *sample_starts(rng, rows, 3))
    t = -rng.uniform(0.0, 9.0, size=rows)
    for pair_events in (False, True):
        calls.clear()
        out = evolve_batch(q, p, BOX, t, pair_events=pair_events)
        assert len(calls) == 0
        assert np.array_equal(out[4], assert_entry_rows(q, p, t, *out[:5]))
        assert 0 < out[4].sum() < rows


# -- the forward-simulation chunk keeps its degeneracy bookkeeping -------------

def reference_chunk_fixed(measure, n, t, box, limit, count, rng, max_resample=200):
    """Row-by-row forward chunk through scalar evolve (the loop the batch
    engine replaced)."""
    counter = RejectionCounter()
    hits = 0
    done = 0
    while done < count:
        want = min(4096, count - done)
        qs, ps = measure.sample_batch(rng, want)
        for i in range(want):
            while True:
                config = config_from_arrays(qs[i], ps[i], measure.domain)
                try:
                    final, _ = evolve(config, t, limit)
                    break
                except DegeneracyError:
                    counter.degenerate += 1
                    if counter.degenerate > max_resample + count:
                        raise RuntimeError("excessive degenerate-trajectory rate")
                    q1, p1 = measure.sample_batch(rng, 1)
                    qs[i], ps[i] = q1[0], p1[0]
            qf, pf = config_to_arrays(final)
            hits += bool(box.contains_batch(qf[None, :n], pf[None, :n])[0])
            counter.accepted += 1
        done += want
    return hits, counter


@pytest.fixture(scope="module")
def mod2():
    return InitialMeasure(ModulatedProduct(2, 1.0), BOX, norm_proposals=20_000)


def test_chunk_fixed_matches_row_by_row_under_degeneracies(monkeypatch, mod2):
    # 4200 rows cross the 4096-row batch boundary; every box is tallied on
    # the same trajectories and equals its own row-by-row run, counter and
    # stream position included
    force_degeneracies(monkeypatch)
    boxes = (delta_preset("bulk", BOX, 1.0), delta_preset("near_wall", BOX, 1.0))
    rng = np.random.default_rng(9)
    got = hierarchy.empirical_chunk_fixed(mod2, 1, 2.0, boxes, Limit.FROM_FUTURE, 4200, rng)
    after = rng.random()
    *hits, counter = got
    assert len(hits) == 2 and hits[0] != hits[1]
    assert counter.degenerate > 500
    for box, box_hits in zip(boxes, hits):
        ref_rng = np.random.default_rng(9)
        want = reference_chunk_fixed(mod2, 1, 2.0, box, Limit.FROM_FUTURE, 4200, ref_rng)
        assert (box_hits, counter) == want
        assert ref_rng.random() == after


def test_chunk_fixed_raises_past_resample_budget(monkeypatch, mod2):
    force_degeneracies(monkeypatch, forced=lambda x: True)
    box = delta_preset("bulk", BOX, 1.0)
    with pytest.raises(RuntimeError, match="excessive degenerate"):
        hierarchy.empirical_chunk_fixed(mod2, 1, 2.0, (box,), Limit.FROM_FUTURE, 10,
                                        np.random.default_rng(3), max_resample=5)
