import numpy as np
import pytest

from hardsphere.geometry import Configuration, Domain, PhasePoint, Vec3, omega_admissible

A = 1.0
BIG = Domain(Vec3(-50, -50, -50), Vec3(50, 50, 50), A)


def make(positions, momenta=None, domain=BIG):
    momenta = momenta or [(0.0, 0.0, 0.0)] * len(positions)
    pts = tuple(PhasePoint(Vec3.of(q), Vec3.of(p)) for q, p in zip(positions, momenta))
    return Configuration(pts, domain)


def test_vec3_rejects_non_finite():
    with pytest.raises(ValueError):
        Vec3(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        Vec3(0.0, float("inf"), 0.0)


def test_vec3_algebra():
    v = Vec3(1.0, 2.0, 3.0)
    w = Vec3(-1.0, 0.5, 2.0)
    assert (v + w).as_tuple() == (0.0, 2.5, 5.0)
    assert (v - w).as_tuple() == (2.0, 1.5, 1.0)
    assert v.dot(w) == 6.0
    assert v.scale(2.0).as_tuple() == (2.0, 4.0, 6.0)
    assert (-v).norm() == v.norm()


def test_domain_needs_room_for_one_center():
    with pytest.raises(ValueError):
        Domain(Vec3(0, 0, 0), Vec3(1.0, 5.0, 5.0), 1.0)
    # sides, or their product, past the largest float
    with pytest.raises(ValueError, match="overflows"):
        Domain(Vec3(-1e308, 0, 0), Vec3(1e308, 1.2, 1.2), 1.0)
    with pytest.raises(ValueError, match="overflows"):
        Domain(Vec3(0, 0, 0), Vec3(1e200, 1e200, 1e200), 1.0)
    # micro-domains between a and 2a per side are legitimate
    d = Domain(Vec3(0, 0, 0), Vec3(1.5, 1.5, 1.5), 1.0)
    assert d.inset_volume == pytest.approx(0.125)


def test_omega_admissible_free_center():
    cfg = make([(0, 0, 0)])
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert omega_admissible(cfg, 0, Vec3(1, 0, 0), Vec3.of(v))


def test_omega_admissible_blocked_by_neighbor():
    # contact point would sit 0.5a from the second center: overlap
    cfg = make([(0, 0, 0), (1.5 * A, 0, 0)])
    assert not omega_admissible(cfg, 0, Vec3(0, 0, 0), Vec3(1, 0, 0))
    assert omega_admissible(cfg, 0, Vec3(0, 0, 0), Vec3(-1, 0, 0))


def test_omega_admissible_wall_margin():
    # center at 2a from the wall: contact point along -x sits exactly at
    # the margin (admissible); anything closer violates it
    d = Domain(Vec3(0, 0, 0), Vec3(10, 10, 10), A)
    cfg = make([(1.5 * A, 5, 5)], domain=d)
    assert omega_admissible(cfg, 0, Vec3(0, 0, 0), Vec3(-1, 0, 0))
    cfg = make([(1.25 * A, 5, 5)], domain=d)
    assert not omega_admissible(cfg, 0, Vec3(0, 0, 0), Vec3(-1, 0, 0))


def test_omega_admissible_input_checks():
    cfg = make([(0, 0, 0)])
    with pytest.raises(IndexError):
        omega_admissible(cfg, 3, Vec3(0, 0, 0), Vec3(1, 0, 0))
    with pytest.raises(ValueError):
        omega_admissible(cfg, 0, Vec3(0, 0, 0), Vec3(1.0, 1.0, 0.0))


def test_omega_admissible_builds_contact_configuration():
    rng = np.random.default_rng(42)
    cfg = make([(0, 0, 0), (3 * A, 0, 0)])
    hits = 0
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        omega = Vec3.of(v)
        if not omega_admissible(cfg, 0, Vec3(0, 0, 0), omega):
            continue
        hits += 1
        q_new = cfg.particles[0].q + omega.scale(A)
        # the new sphere touches its receiver at distance a (to rounding),
        # overlaps no other sphere and keeps its wall margin
        assert (q_new - cfg.particles[0].q).norm() == pytest.approx(A, abs=1e-12)
        assert (q_new - cfg.particles[1].q).norm() >= A
        assert cfg.domain.wall_clearance(q_new) > 0
    assert hits > 50
