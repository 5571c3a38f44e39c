import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardsphere.dynamics as dyn
from hardsphere.dynamics import (
    DegeneracyError,
    DegeneracyKind,
    Direction,
    EventKind,
    Limit,
    evolve,
    next_event,
    pair_collide,
    reverse_momenta,
    wall_reflect,
)
from hardsphere.geometry import Configuration, Domain, PhasePoint, Vec3

A = 1.0
HUGE = Domain(Vec3(-500, -500, -500), Vec3(500, 500, 500), A)
BOX = Domain(Vec3(0, 0, 0), Vec3(5, 5, 5), A)


def make(positions, momenta, domain=HUGE):
    pts = tuple(PhasePoint(Vec3.of(q), Vec3.of(p)) for q, p in zip(positions, momenta))
    return Configuration(pts, domain)


finite = st.floats(-10, 10, allow_nan=False)
vec = st.tuples(finite, finite, finite)


def unit(v):
    n = math.sqrt(sum(c * c for c in v))
    return Vec3(v[0] / n, v[1] / n, v[2] / n)


# -- collision laws ----------------------------------------------------------

def test_pair_collide_head_on_exchange():
    pi, pj = pair_collide(Vec3(1, 0, 0), Vec3(-1, 0, 0), Vec3(1, 0, 0))
    assert pi.as_tuple() == (-1.0, 0.0, 0.0)
    assert pj.as_tuple() == (1.0, 0.0, 0.0)


def test_pair_collide_tangential_noop():
    pi, pj = pair_collide(Vec3(1, 0, 0), Vec3(-1, 0, 0), Vec3(0, 1, 0))
    assert pi.as_tuple() == (1.0, 0.0, 0.0)
    assert pj.as_tuple() == (-1.0, 0.0, 0.0)


@settings(max_examples=200, deadline=None)
@given(vec, vec, vec)
def test_pair_collide_involution_and_conservation(pi, pj, om):
    if sum(c * c for c in om) < 1e-4:
        om = (1.0, 0.0, 0.0)
    omega = unit(om)
    p_i, p_j = Vec3.of(pi), Vec3.of(pj)
    a_i, a_j = pair_collide(p_i, p_j, omega)
    b_i, b_j = pair_collide(a_i, a_j, omega)
    assert (b_i - p_i).norm() < 1e-12 and (b_j - p_j).norm() < 1e-12
    assert ((a_i + a_j) - (p_i + p_j)).norm() < 1e-13
    e0 = p_i.norm2() + p_j.norm2()
    assert abs(a_i.norm2() + a_j.norm2() - e0) <= 1e-12 * max(e0, 1.0)
    # normal relative velocity flips sign
    assert abs(omega.dot(a_i - a_j) + omega.dot(p_i - p_j)) < 1e-12 * max(
        1.0, abs(omega.dot(p_i - p_j)))


def test_wall_reflect_examples():
    assert wall_reflect(Vec3(-2, 3, 0), Vec3(1, 0, 0)).as_tuple() == (2.0, 3.0, 0.0)
    p = Vec3(0, 3, -1)
    assert wall_reflect(p, Vec3(1, 0, 0)).as_tuple() == p.as_tuple()


@settings(max_examples=200, deadline=None)
@given(vec, vec)
def test_wall_reflect_involution_and_speed(p, nv):
    if sum(c * c for c in nv) < 1e-4:
        nv = (0.0, 0.0, 1.0)
    normal = unit(nv)
    pv = Vec3.of(p)
    r = wall_reflect(pv, normal)
    assert abs(r.norm() - pv.norm()) < 1e-12 * max(1.0, pv.norm())
    assert (wall_reflect(r, normal) - pv).norm() < 1e-12


# -- event detection ---------------------------------------------------------

def test_next_event_two_particle_approach():
    cfg = make([(0, 0, 0), (3 * A, 0, 0)], [(1, 0, 0), (-1, 0, 0)])
    ev = next_event(cfg)
    assert ev.kind is EventKind.PAIR
    assert ev.time_to_event == pytest.approx(A, rel=1e-12)
    assert ev.omega.as_tuple()[0] == pytest.approx(1.0)


def test_next_event_wall():
    # single particle at distance d from the wall face, speed v toward it
    cfg = make([(1.75, 2.5, 2.5)], [(-0.5, 0, 0)], domain=BOX)
    ev = next_event(cfg)
    assert ev.kind is EventKind.WALL and ev.axis == 0 and ev.side == -1
    # time is (d - a/2)/v with d the distance to the face
    assert ev.time_to_event == pytest.approx((1.75 - 0.5) / 0.5)


def test_next_event_separating_pair_gives_wall_only():
    cfg = make([(2, 2.5, 2.5), (3.2, 2.5, 2.5)], [(-0.3, 0, 0), (0.3, 0, 0)],
               domain=BOX)
    ev = next_event(cfg)
    assert ev.kind is EventKind.WALL


def test_next_event_backward_direction():
    cfg = make([(0, 0, 0), (3 * A, 0, 0)], [(-1, 0, 0), (1, 0, 0)])
    assert next_event(cfg).kind is EventKind.WALL
    ev = next_event(cfg, Direction.BACKWARD)
    assert ev.kind is EventKind.PAIR
    assert ev.time_to_event == pytest.approx(A, rel=1e-12)


def test_next_event_touching_approaching_pair_is_immediate():
    cfg = make([(0, 0, 0), (A, 0, 0)], [(1, 0, 0), (-1, 0, 0)])
    ev = next_event(cfg)
    assert ev.kind is EventKind.PAIR and ev.time_to_event == 0.0


def test_next_event_refuses_starts_as_evolve_does():
    # a contact approached inside the grazing band (radial speed 1e-10)
    # is no collision at the start but a grazing event at time 0, and an
    # overlap is an error: next_event settles the start as evolve does
    grazing = make([(0, 0, 0), (A, 0, 0)], [(1e-10, 1, 0), (0, 0, 0)])
    overlap = make([(0, 0, 0), (0.9 * A, 0, 0)], [(1, 0, 0), (-1, 0, 0)])
    for cfg, direction, t, error in ((grazing, Direction.FORWARD, 1.0, DegeneracyError),
                                     (overlap, Direction.FORWARD, 1.0, ValueError),
                                     (overlap, Direction.BACKWARD, -1.0, ValueError)):
        with pytest.raises(error) as ref:
            evolve(cfg, t)
        with pytest.raises(error) as err:
            next_event(cfg, direction)
        assert str(err.value) == str(ref.value)
    with pytest.raises(DegeneracyError) as err:
        next_event(grazing)
    assert err.value.kind is DegeneracyKind.GRAZING_CONTACT
    # backward, the grazing pair separates: no event at the start
    assert next_event(grazing, Direction.BACKWARD).time_to_event > 0.0


# -- evolve ------------------------------------------------------------------

def test_evolve_zero_time_is_identity():
    cfg = make([(1, 2, 3)], [(0.5, -0.25, 0)], domain=BOX)
    out, log = evolve(cfg, 0.0)
    assert out is cfg and log.n_events == 0


def test_evolve_zero_momenta_is_static():
    cfg = make([(1, 2, 3), (3, 2, 1)], [(0, 0, 0), (0, 0, 0)], domain=BOX)
    out, log = evolve(cfg, 17.0)
    assert log.n_events == 0
    for a, b in zip(cfg.particles, out.particles):
        assert a.q.as_tuple() == b.q.as_tuple()


def test_evolve_head_on_hand_integrated():
    cfg = make([(0, 0, 0), (3 * A, 0, 0)], [(1, 0, 0), (-1, 0, 0)])
    out, log = evolve(cfg, 2 * A)
    assert log.n_pair == 1
    q1, q2 = out.particles[0].q, out.particles[1].q
    p1, p2 = out.particles[0].p, out.particles[1].p
    # collision at tau = a at centers (a, 0, 0), (2a, 0, 0); momenta swap;
    # one more unit of backtracking flight
    assert q1.as_tuple() == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    assert q2.as_tuple() == pytest.approx((3.0, 0.0, 0.0), abs=1e-12)
    assert p1.x == pytest.approx(-1.0) and p2.x == pytest.approx(1.0)


def test_evolve_reversibility_by_composition():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        while True:
            q = rng.uniform(0.5, 4.5, size=(3, 3))
            d01 = np.linalg.norm(q[0] - q[1])
            d02 = np.linalg.norm(q[0] - q[2])
            d12 = np.linalg.norm(q[1] - q[2])
            if min(d01, d02, d12) >= A:
                break
        p = rng.normal(size=(3, 3))
        cfg = make([tuple(x) for x in q], [tuple(x) for x in p], domain=BOX)
        try:
            fwd, _ = evolve(cfg, 6.0)
            back, _ = evolve(reverse_momenta(fwd), 6.0)
        except DegeneracyError:
            continue
        final = reverse_momenta(back)
        for p0, p1 in zip(cfg.particles, final.particles):
            worst = max(worst, (p0.q - p1.q).norm(), (p0.p - p1.p).norm())
    assert worst < 1e-8


def test_evolve_negative_time_inverts_forward():
    rng = np.random.default_rng(3)
    q = [(1.2, 2.0, 3.1), (3.4, 2.2, 1.9)]
    p = [tuple(rng.normal(size=3)), tuple(rng.normal(size=3))]
    cfg = make(q, p, domain=BOX)
    fwd, _ = evolve(cfg, 5.0)
    back, _ = evolve(fwd, -5.0)
    for a, b in zip(cfg.particles, back.particles):
        assert (a.q - b.q).norm() < 1e-9
        assert (a.p - b.p).norm() < 1e-9


def test_evolve_conserves_energy_and_pair_momentum_per_event():
    rng = np.random.default_rng(19)
    for _ in range(20):
        while True:
            q = rng.uniform(0.5, 4.5, size=(2, 3))
            if np.linalg.norm(q[0] - q[1]) >= A:
                break
        p = rng.normal(size=(2, 3))
        cfg = make([tuple(x) for x in q], [tuple(x) for x in p], domain=BOX)
        try:
            _, log = evolve(cfg, 10.0, collect_log=True)
        except DegeneracyError:
            continue
        for entry in log.entries:
            pb = np.array(entry.momenta_before)
            pa = np.array(entry.momenta_after)
            e0 = (pb ** 2).sum()
            assert abs((pa ** 2).sum() - e0) <= 1e-12 * max(e0, 1.0)
            if entry.event.kind is EventKind.PAIR:
                assert np.abs(pb.sum(axis=0) - pa.sum(axis=0)).max() < 1e-12


def test_at_contact_start_approaching_collides_first():
    cfg = make([(0, 0, 0), (A, 0, 0)], [(1, 0, 0), (-1, 0, 0)])
    out, log = evolve(cfg, 0.5)
    assert log.n_pair == 1
    assert out.particles[0].q.x == pytest.approx(-0.5)
    assert out.particles[1].q.x == pytest.approx(1.5)


def test_at_contact_start_separating_flies_free():
    cfg = make([(0, 0, 0), (A, 0, 0)], [(-1, 0, 0), (1, 0, 0)])
    out, log = evolve(cfg, 0.5)
    assert log.n_pair == 0
    assert out.particles[0].q.x == pytest.approx(-0.5)


def test_endpoint_limit_convention():
    # the collision happens exactly at t = 1: the past-sided limit keeps
    # the incoming momenta, the future-sided limit applies the exchange
    cfg = make([(0, 0, 0), (3 * A, 0, 0)], [(1, 0, 0), (-1, 0, 0)])
    past, _ = evolve(cfg, 1.0, Limit.FROM_PAST)
    future, _ = evolve(cfg, 1.0, Limit.FROM_FUTURE)
    assert past.particles[0].p.x == pytest.approx(1.0)
    assert future.particles[0].p.x == pytest.approx(-1.0)
    assert past.particles[0].q.x == pytest.approx(1.0, abs=1e-9)
    assert future.particles[0].q.x == pytest.approx(1.0, abs=1e-9)


def test_single_particle_matches_reflection_fold():
    """Free flight plus specular walls equals the triangle-wave fold of
    the unconstrained flight (independent closed-form oracle)."""
    rng = np.random.default_rng(23)
    lo, hi = 0.5, 4.5
    span = hi - lo

    def fold(x):
        y = (x - lo) % (2 * span)
        return lo + (y if y <= span else 2 * span - y)

    for _ in range(40):
        q = rng.uniform(lo, hi, size=3)
        p = rng.normal(size=3)
        t = float(rng.uniform(0, 30))
        cfg = make([tuple(q)], [tuple(p)], domain=BOX)
        out, _ = evolve(cfg, t)
        for ax in range(3):
            assert out.particles[0].q.as_tuple()[ax] == pytest.approx(
                fold(q[ax] + t * p[ax]), abs=1e-7)


def test_simultaneous_events_degenerate():
    cfg = make([(1.0, 2.5, 2.5), (4.0, 2.5, 2.5)], [(-1, 0, 0), (1, 0, 0)],
               domain=BOX)
    with pytest.raises(DegeneracyError) as err:
        evolve(cfg, 2.0)
    assert err.value.kind is DegeneracyKind.SIMULTANEOUS_EVENTS


def test_corner_contact_degenerate():
    cfg = make([(1.0, 1.0, 2.5)], [(-1, -1, 0)], domain=BOX)
    with pytest.raises(DegeneracyError) as err:
        evolve(cfg, 2.0)
    assert err.value.kind is DegeneracyKind.CORNER_CONTACT


def test_grazing_contact_degenerate(monkeypatch):
    # the default band of 1e-9 sits below double resolution for impact
    # parameters, so widen it to exercise the detection path
    monkeypatch.setattr(dyn, "EPS_GRAZE_REL", 1e-3)
    off = A * math.sqrt(1.0 - 1e-8)
    cfg = make([(0, 0, 0), (5, off, 0)], [(1, 0, 0), (-1, 0, 0)])
    with pytest.raises(DegeneracyError) as err:
        evolve(cfg, 4.0)
    assert err.value.kind is DegeneracyKind.GRAZING_CONTACT
