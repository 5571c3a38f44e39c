import math

import numpy as np
import pytest

from hardsphere.dynamics import Limit, evolve
from hardsphere.geometry import Configuration, Domain, PhasePoint, Vec3
from hardsphere.hierarchy import (
    UNORDERED_PAIR_FACTOR,
    CollisionHistory,
    HistoryStatus,
    PhaseBox,
    SeriesParams,
    _series_stratum_stats,
    _insert,
    build_history,
    empirical_rho,
    pair_collision_rate,
    series_eval,
)
from hardsphere.measures import (
    CanonicalEq,
    InitialMeasure,
    Maxwellian,
    ModulatedProduct,
    config_to_arrays,
    correlation_map,
    inverse_correlation_map,
)
from hardsphere.stats import RunningStats, SignedEstimate, z_score

A = 1.0
BOX = Domain(Vec3(0, 0, 0), Vec3(5, 5, 5), A)
HUGE = Domain(Vec3(-500, -500, -500), Vec3(500, 500, 500), A)
PROPOSALS = 300_000


@pytest.fixture(scope="module")
def eq2():
    return InitialMeasure(CanonicalEq(2, 1.0), BOX, norm_proposals=PROPOSALS)


@pytest.fixture(scope="module")
def mod2():
    return InitialMeasure(ModulatedProduct(2, 1.0), BOX, norm_proposals=PROPOSALS)


def single(q, p, domain=HUGE):
    return Configuration((PhasePoint(Vec3.of(q), Vec3.of(p)),), domain)


def bulk_box():
    return PhaseBox.of([[1.0, 1.0, 1.0]], [[3.0, 3.0, 3.0]],
                       [[-1.2, -1.2, -1.2]], [[1.2, 1.2, 1.2]])


# -- phase boxes --------------------------------------------------------------

def test_phase_box_volume_and_membership():
    box = bulk_box()
    assert box.n == 1
    assert box.volume == pytest.approx(8.0 * 2.4 ** 3)
    assert box.contains_batch(np.array([[[2.0, 2.0, 2.0]]]), np.zeros((1, 1, 3)))[0]
    assert not box.contains_batch(np.array([[[0.5, 2.0, 2.0]]]), np.zeros((1, 1, 3)))[0]
    rng = np.random.default_rng(0)
    q, p = box.sample(rng, 100)
    assert box.contains_batch(q, p).all()
    assert PhaseBox.from_dict(box.to_dict()) == box


@pytest.mark.parametrize("n", [1, 2])
def test_contains_batch_matches_per_row_loop(n):
    # random points in and around the box, and points with one coordinate
    # exactly on a face, which count as inside
    box = bulk_box() if n == 1 else PhaseBox.of(
        [[1.0, 1.5, 1.5], [2.5, 1.0, 0.5]], [[2.5, 3.5, 3.5], [4.0, 3.0, 2.5]],
        [[-1.2] * 3, [-0.5, -1.0, 0.0]], [[1.2] * 3, [0.5, 1.0, 1.5]])
    rng = np.random.default_rng(17)
    k = 4000
    # each coordinate uniform over its interval widened by a fifth each way
    q, p = (np.asarray(lo) - 0.2 * (np.asarray(hi) - lo)
            + 1.4 * (np.asarray(hi) - lo) * rng.random((k, n, 3))
            for lo, hi in ((box.q_lo, box.q_hi), (box.p_lo, box.p_hi)))
    # the second half: box points with one coordinate moved onto a face
    q[k // 2:], p[k // 2:] = box.sample(rng, k - k // 2)
    rows = np.arange(k // 2, k)
    i, ax, top, on_p = (rng.integers(0, b, len(rows)) for b in (n, 3, 2, 2))
    for x, lo_t, hi_t, sel in ((q, box.q_lo, box.q_hi, on_p == 0),
                               (p, box.p_lo, box.p_hi, on_p == 1)):
        face = np.where(top == 1, np.asarray(hi_t)[i, ax], np.asarray(lo_t)[i, ax])
        x[rows[sel], i[sel], ax[sel]] = face[sel]

    def inside(x, lo, hi):
        return all(lo[j][a] <= x[j, a] <= hi[j][a] for j in range(n) for a in range(3))

    want = [inside(q[r], box.q_lo, box.q_hi) and inside(p[r], box.p_lo, box.p_hi)
            for r in range(k)]
    got = box.contains_batch(q, p)
    assert got.dtype == bool and got.tolist() == want
    assert all(want[k // 2:]) and 0 < sum(want[:k // 2]) < k // 2


# -- history construction ------------------------------------------------------

def test_empty_history_is_pure_backward_flow():
    cfg = single((0.0, 0.0, 0.0), (1.0, 0.5, -0.25))
    out = build_history(cfg, 2.0, CollisionHistory((), (), (), ()))
    assert out.valid and out.weight == 1.0
    direct, _ = evolve(cfg, -2.0, Limit.FROM_FUTURE)
    assert out.terminal.particles[0].q.as_tuple() == direct.particles[0].q.as_tuple()


def test_history_validation():
    with pytest.raises(ValueError):
        CollisionHistory((0.5, 1.5), (0, 0), (Vec3(0, 0, 0),) * 2,
                         (Vec3(1, 0, 0),) * 2).validate(1, 2.0)
    with pytest.raises(ValueError):
        CollisionHistory((1.0,), (3,), (Vec3(0, 0, 0),),
                         (Vec3(1, 0, 0),)).validate(1, 2.0)


def test_one_insertion_minus_class_free_flight():
    # receiver drifts with p = (1,0,0); at t1 = 1 a partner is attached on
    # the +x side with omega . (p_hat - p) = -2 < 0 (minus class): under
    # backward flow the pair separates and both legs are free flight
    t, t1 = 2.0, 1.0
    cfg = single((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    omega = Vec3(1.0, 0.0, 0.0)
    p_hat = Vec3(-1.0, 0.0, 0.0)
    delta = CollisionHistory((t1,), (0,), (p_hat,), (omega,))
    out = build_history(cfg, t, delta)
    assert out.valid
    assert out.weight == pytest.approx(-A * A * 2.0)
    # receiver at time t1 sits at (-1,0,0), partner at (0,0,0); backward
    # flight for t1 carries them to (-2,0,0) and (1,0,0)
    assert out.terminal.particles[0].q.as_tuple() == pytest.approx((-2.0, 0.0, 0.0))
    assert out.terminal.particles[0].p.as_tuple() == pytest.approx((1.0, 0.0, 0.0))
    assert out.terminal.particles[1].q.as_tuple() == pytest.approx((1.0, 0.0, 0.0))
    assert out.terminal.particles[1].p.as_tuple() == pytest.approx((-1.0, 0.0, 0.0))


def test_one_insertion_plus_class_collides_immediately():
    # omega . (p_hat - p) = 2 > 0 (plus class): the inserted pair is
    # approaching in backward time, so the exchange law applies at the
    # insertion instant and the backward legs carry the swapped momenta
    t, t1 = 2.0, 1.0
    cfg = single((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    omega = Vec3(1.0, 0.0, 0.0)
    p_hat = Vec3(3.0, 0.0, 0.0)
    delta = CollisionHistory((t1,), (0,), (p_hat,), (omega,))
    out = build_history(cfg, t, delta)
    assert out.valid
    assert out.weight == pytest.approx(A * A * 2.0)
    # head-on exchange at insertion gives the receiver momentum 3 and the
    # partner momentum 1 (reading along the trajectory); backward flight
    # then lands them at (-4,0,0) and (-1,0,0)
    assert out.terminal.particles[0].q.as_tuple() == pytest.approx((-4.0, 0.0, 0.0))
    assert out.terminal.particles[0].p.as_tuple() == pytest.approx((3.0, 0.0, 0.0))
    assert out.terminal.particles[1].q.as_tuple() == pytest.approx((-1.0, 0.0, 0.0))
    assert out.terminal.particles[1].p.as_tuple() == pytest.approx((1.0, 0.0, 0.0))


def test_weight_sign_flips_with_direction():
    cfg = single((2.5, 2.5, 2.5), (0.4, 0.0, 0.0), domain=BOX)
    p_hat = Vec3(1.0, 0.3, 0.0)
    for omega in (Vec3(0, 1, 0), Vec3(0, 0, 1)):
        plus = build_history(cfg, 1.0, CollisionHistory((0.5,), (0,), (p_hat,), (omega,)))
        minus = build_history(cfg, 1.0, CollisionHistory((0.5,), (0,), (p_hat,), (-omega,)))
        assert plus.valid and minus.valid
        assert plus.weight == pytest.approx(-minus.weight)


def test_blocked_insertion_flagged():
    near_wall = single((0.8, 2.5, 2.5), (0.0, 0.0, 0.0), domain=BOX)
    out = build_history(near_wall, 1.0, CollisionHistory(
        (0.5,), (0,), (Vec3(0, 0, 0),), (Vec3(-1, 0, 0),)))
    assert out.status is HistoryStatus.BLOCKED and out.weight == 0.0


# -- collision operator ---------------------------------------------------------

def mc_collision_operator(rho, config: Configuration, j: int, samples: int,
                          rng: np.random.Generator, beta0: float | None = None,
                          inner_samples: int | None = None) -> SignedEstimate:
    """Signed MC estimate of the boundary flux coupling level n to n+1 at
    one configuration and one receiver j, in the insertion arithmetic of
    the series (``hierarchy._series_stratum_stats``, whose m = 1 stratum
    is prop5's collision term): each sample draws the added momentum from
    a proposal Maxwellian at beta0 (default: the measure's own beta) and a
    uniform contact direction; ``_insert`` then places every sample's
    sphere and gives its flux weight, and the unblocked ones are evaluated
    in one ``eval_batch`` call.  Blocked directions contribute zero and
    count as samples."""
    prop = Maxwellian(beta0 if beta0 is not None else rho.measure.beta)
    q, p = config_to_arrays(config)
    p_hat, omega = np.empty((samples, 3)), np.empty((samples, 3))
    for k in range(samples):
        p_hat[k] = prop.sample(rng, 3)
        v = rng.normal(size=3)
        omega[k] = v / np.sqrt(np.vecdot(v, v))
    q_aug, p_aug, weight, blocked = _insert(
        np.broadcast_to(q, (samples, *q.shape)), np.broadcast_to(p, (samples, *p.shape)),
        np.ones(samples), np.full(samples, j), p_hat, omega, config.domain)
    ev = np.flatnonzero(~blocked)
    vals = np.zeros(samples)
    vals[ev] = rho.eval_batch(q_aug[ev], p_aug[ev], rng, inner_samples)[0]
    stats = RunningStats()
    stats.add_many(4.0 * math.pi * weight * vals / prop.pdf(p_hat))
    return SignedEstimate.from_stats(stats)


def collision_operator_quadrature(rho_fn, config: Configuration, j: int,
                                  beta0: float, n_radial: int = 16,
                                  n_theta: int = 24, n_phi: int = 48) -> float:
    """Deterministic oracle for the collision operator on an evaluatable
    rho_fn(q_aug, p_aug) -> values, called once per direction node with
    the augmented positions (n + 1, 3) and the augmented momenta of all
    its momentum nodes (K, n + 1, 3).

    Tensor Gauss-Hermite quadrature in the added momentum (rho_fn must
    decay at least like the beta0 Maxwellian for the node compensation to
    stay bounded) and a product cos(theta)/phi grid on the sphere with the
    admissible-set indicator applied at each direction node.  A test
    oracle at modest grid sizes, not a production estimator.
    """
    dom = config.domain
    a = dom.a
    p_j = np.array(config.particles[j].p.as_tuple())
    q_j = np.array(config.particles[j].q.as_tuple())
    base_q = np.array([pt.q.as_tuple() for pt in config.particles])
    base_p = np.array([pt.p.as_tuple() for pt in config.particles])

    nodes, weights = np.polynomial.hermite.hermgauss(n_radial)
    comp = weights * np.exp(nodes * nodes)  # compensated weights for int F dp
    scale = math.sqrt(2.0 / beta0)          # p = scale * x maps exp(-x^2) to h envelope
    # the momentum nodes and their weights, x slowest and z fastest
    p_new = scale * np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), -1).reshape(-1, 3)
    w_new = (comp[:, None, None] * comp[:, None] * comp).ravel() * scale ** 3
    p_aug = np.concatenate([np.broadcast_to(base_p, (len(p_new), *base_p.shape)),
                            p_new[:, None]], axis=1)

    x_theta, w_theta = np.polynomial.legendre.leggauss(n_theta)
    phis = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    w_phi = 2.0 * math.pi / n_phi

    lo, hi = dom.inset_lower, dom.inset_upper
    total = 0.0
    for ct, wt in zip(x_theta, w_theta):
        st = math.sqrt(max(0.0, 1.0 - ct * ct))
        for phi in phis:
            omega = np.array([st * math.cos(phi), st * math.sin(phi), ct])
            q_new = q_j + a * omega
            ok_geom = all(lo[ax] - 1e-12 <= q_new[ax] <= hi[ax] + 1e-12 for ax in range(3))
            if ok_geom:
                for i, pt in enumerate(config.particles):
                    if i != j and np.linalg.norm(q_new - np.array(pt.q.as_tuple())) < a - 1e-12:
                        ok_geom = False
                        break
            if not ok_geom:
                continue
            flux = (p_new - p_j) @ omega
            vals = np.asarray(rho_fn(np.vstack([base_q, q_new]), p_aug), dtype=float)
            total += wt * w_phi * float(np.sum(w_new * flux * vals))
    return a * a * total


class _ZeroRho:
    def __init__(self, measure):
        self.measure = measure
        self.n_max = measure.n_max
        self.z_rel_err = 0.0

    def eval_batch(self, q, p, rng, inner_samples=None):
        return np.zeros(len(q)), np.zeros(len(q))


def test_collision_operator_zero_density(eq2):
    cfg = single((2.5, 2.5, 2.5), (0.3, 0.1, 0.0), domain=BOX)
    est = mc_collision_operator(_ZeroRho(eq2), cfg, 0, 500, np.random.default_rng(1))
    assert est.value == 0.0 and est.stderr == 0.0


def test_collision_operator_symmetry_cancellation(eq2):
    # a density depending on momentum only through |p| makes the flux
    # integrand odd under the hemisphere swap: the operator vanishes
    class IsotropicRho(_ZeroRho):
        def eval_batch(self, q, p, rng, inner_samples=None):
            return np.exp(-0.5 * np.sum(p * p, axis=(1, 2))), np.zeros(len(q))

    cfg = single((2.5, 2.5, 2.5), (0.0, 0.0, 0.0), domain=BOX)
    rho = IsotropicRho(eq2)
    est = mc_collision_operator(rho, cfg, 0, 4000, np.random.default_rng(2))
    assert abs(est.value) <= 3 * est.stderr
    oracle = collision_operator_quadrature(
        lambda q, p: np.exp(-0.5 * np.sum(p * p, axis=(1, 2))), cfg, 0, beta0=1.0,
        n_radial=10, n_theta=12, n_phi=16)
    assert oracle == pytest.approx(0.0, abs=1e-8)


def test_collision_operator_matches_quadrature_oracle(eq2):
    rho = correlation_map(eq2, inner_samples=256)
    # the wall at x = 0 cuts the contact sphere of the receiver, so the
    # operator does not vanish by symmetry there
    cfg = single((1.0, 2.5, 2.5), (0.6, -0.2, 0.3), domain=BOX)
    est = mc_collision_operator(rho, cfg, 0, 20_000, np.random.default_rng(3))

    def rho_fn(q_aug, p_aug):
        # eval_arrays at every momentum node with a fresh default_rng(4):
        # the inner draws depend on the positions only and the value on
        # the momenta only through the Maxwellian factor, so one row
        # evaluated at rest, scaled by the Maxwellian ratio, serves all nodes
        rest = np.zeros_like(q_aug)
        val = rho.eval_batch(q_aug[None], rest[None], np.random.default_rng(4), 256)[0]
        pdf = rho.measure.maxwellian.pdf
        return val * np.prod(pdf(p_aug), axis=1) / np.prod(pdf(rest))

    oracle = collision_operator_quadrature(rho_fn, cfg, 0, beta0=1.0,
                                           n_radial=8, n_theta=20, n_phi=40)
    assert abs(oracle) > 5 * est.stderr
    assert abs(est.value - oracle) <= 3 * math.hypot(est.stderr, abs(oracle) * 0.01)


# -- series and empirical estimates ---------------------------------------------

def test_series_small_t_reduces_to_box_mass(mod2):
    rho0 = correlation_map(mod2)
    box = bulk_box()
    rng = np.random.default_rng(5)
    res = series_eval(rho0, 1, 1e-7, box, SeriesParams(n_samples=4000, m_max=0), rng)
    # deterministic oracle: product quadrature of rho_1 over the box
    nodes, weights = np.polynomial.legendre.leggauss(16)
    val = 0.0
    q_lo, q_hi = np.array(box.q_lo[0]), np.array(box.q_hi[0])
    mw_mass = box.maxwell_prob(1.0)
    inner_rng = np.random.default_rng(6)
    for ix, wx in zip(nodes, weights):
        for iy, wy in zip(nodes, weights):
            for iz, wz in zip(nodes, weights):
                q = q_lo + (np.array([ix, iy, iz]) + 1) / 2 * (q_hi - q_lo)
                g = mod2.g(q[None, :])[0]
                exc, _ = mod2.exclusion_integral(q[None, :], 1, inner_rng, 400)
                val += wx * wy * wz * 2.0 * g * exc
    val *= float(np.prod((q_hi - q_lo) / 2)) / mod2.position_partition(2)[0]
    val *= mw_mass
    assert abs(res.total.value - val) <= 3 * math.hypot(res.total.stderr, val * 0.01)


def test_series_equilibrium_is_stationary(eq2):
    rho0 = correlation_map(eq2)
    box = bulk_box()
    rng = np.random.default_rng(7)
    res = series_eval(rho0, 1, 6.0, box, SeriesParams(n_samples=30_000), rng)
    static = empirical_rho(eq2, 1, 0.0, box, Limit.FROM_FUTURE, 40_000,
                           np.random.default_rng(8))
    total = res.total_with_norm_err
    assert z_score(total, static.estimate) <= 3.0


def test_series_strata_beyond_particle_number_vanish(eq2):
    rho0 = correlation_map(eq2)
    # evaluate the m = 1 stratum with an n = 2 start directly: level-3
    # correlations of a 2-particle measure are identically zero, so every
    # sampled history contributes exactly nothing
    two_box = PhaseBox.of([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
                          [[4.0, 4.0, 4.0], [4.0, 4.0, 4.0]],
                          [[-1.0] * 3, [-1.0] * 3], [[1.0] * 3, [1.0] * 3])
    rng = np.random.default_rng(9)
    stats, _ = _series_stratum_stats(rho0, 2, 2.0, two_box, 1, 500, 1.0, 64,
                                     True, rng)
    assert stats.total == 0.0 and stats.positive == 0.0 and stats.negative == 0.0
    # and the public evaluator truncates the stratum list at that level
    res = series_eval(rho0, 2, 2.0, two_box,
                      SeriesParams(n_samples=500, m_max=1), rng)
    assert list(res.strata) == [0]


def test_series_rejects_bad_inputs(mod2):
    rho0 = correlation_map(mod2)
    with pytest.raises(ValueError):
        series_eval(rho0, 1, -1.0, bulk_box(), SeriesParams(n_samples=10),
                    np.random.default_rng(0))


def test_empirical_rho_total_mass_is_exact(eq2):
    whole = PhaseBox.of([[0.5, 0.5, 0.5]], [[4.5, 4.5, 4.5]],
                        [[-60.0] * 3], [[60.0] * 3])
    res = empirical_rho(eq2, 1, 3.0, whole, Limit.FROM_FUTURE, 400,
                        np.random.default_rng(10))
    assert res.estimate.value == pytest.approx(2.0)
    assert res.estimate.stderr == 0.0


def test_empirical_rho_t0_matches_quadrature(mod2):
    box = bulk_box()
    res = empirical_rho(mod2, 1, 0.0, box, Limit.FROM_FUTURE, 60_000,
                        np.random.default_rng(11))
    rng = np.random.default_rng(12)
    k = 200_000
    q_lo, q_hi = np.array(box.q_lo[0]), np.array(box.q_hi[0])
    qs = q_lo + rng.random((k, 3)) * (q_hi - q_lo)
    g = mod2.g(qs)
    exc = np.empty(k)
    qs2 = 0.5 + rng.random((k, 3)) * 4.0
    w2 = mod2.g(qs2)
    ind = np.linalg.norm(qs - qs2, axis=1) >= A
    vals = g * w2 * ind
    volume = float(np.prod(q_hi - q_lo)) * 4.0 ** 3
    want = 2.0 * volume * vals.mean() / mod2.position_partition(2)[0]
    want *= box.maxwell_prob(1.0)
    se = 2.0 * volume * vals.std(ddof=1) / math.sqrt(k) / mod2.position_partition(2)[0]
    assert abs(res.estimate.value - want) <= 3 * math.hypot(res.estimate.stderr, se)


def test_empirical_rho_limit_choice_immaterial(eq2):
    box = bulk_box()
    a = empirical_rho(eq2, 1, 4.0, box, Limit.FROM_FUTURE, 3000,
                      np.random.default_rng(13))
    b = empirical_rho(eq2, 1, 4.0, box, Limit.FROM_PAST, 3000,
                      np.random.default_rng(13))
    assert a.estimate.value == b.estimate.value


def test_series_deterministic_given_seed(mod2):
    rho0 = correlation_map(mod2)
    box = bulk_box()
    r1 = series_eval(rho0, 1, 4.0, box, SeriesParams(n_samples=2000),
                     np.random.default_rng(14))
    r2 = series_eval(rho0, 1, 4.0, box, SeriesParams(n_samples=2000),
                     np.random.default_rng(14))
    assert r1.total.value == r2.total.value
    assert r1.total.stderr == r2.total.stderr


def test_pair_collision_rate_positive_and_tight(eq2):
    rate, err = pair_collision_rate(eq2, 400_000, np.random.default_rng(15))
    assert rate > 0
    assert err < 0.01 * rate


def verbatim_pair_collision_rate(measure, samples, rng):
    """``pair_collision_rate`` with the einsum loop that the hard-core
    kernel replaced (fixed-N measures of two or more spheres)."""
    big_n = measure.spec.n_particles
    dom = measure.domain
    a = dom.a
    momentum_flux = 1.0 / math.sqrt(math.pi * measure.beta)

    lo = np.array(dom.inset_lower)
    hi = np.array(dom.inset_upper)
    vol = measure.domain.inset_volume

    vals = np.empty(samples)
    done = 0
    batch = 200_000
    while done < samples:
        b = min(batch, samples - done)
        u = rng.normal(size=(b, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        q1 = lo + rng.random((b, 3)) * (hi - lo)
        q2 = q1 + a * u
        rest = lo + rng.random((b, big_n - 2, 3)) * (hi - lo)
        pos = np.concatenate([q1[:, None, :], q2[:, None, :], rest], axis=1)
        ok = ((pos >= lo - 1e-12) & (pos <= hi + 1e-12)).all(axis=(1, 2))
        a2 = a * a * (1.0 - 1e-12)
        for i in range(big_n):
            for j in range(i + 1, big_n):
                if i == 0 and j == 1:
                    continue  # the contact pair itself sits exactly at a
                d = pos[:, i, :] - pos[:, j, :]
                ok &= np.einsum("ij,ij->i", d, d) >= a2
        w = np.prod(measure.g(pos), axis=1) * ok
        vals[done:done + b] = w
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


@pytest.mark.parametrize("big_n", [3, 5])
def test_pair_collision_rate_matches_verbatim_loop(big_n):
    # every pair but the contact pair is tested: rate, stderr and the
    # stream equal the old loop's bit for bit, across a short last batch
    ms = InitialMeasure(ModulatedProduct(big_n, 1.0), BOX, norm_proposals=20_000)
    rng_new, rng_old = np.random.default_rng(16), np.random.default_rng(16)
    got = pair_collision_rate(ms, 230_000, rng_new)
    assert got == verbatim_pair_collision_rate(ms, 230_000, rng_old)
    assert got[0] > 0
    assert rng_new.random() == rng_old.random()


def test_series_headline_small_scale(mod2):
    rho0 = correlation_map(mod2)
    box = bulk_box()
    emp = empirical_rho(mod2, 1, 6.0, box, Limit.FROM_FUTURE, 25_000,
                        np.random.default_rng(16))
    res = series_eval(rho0, 1, 6.0, box, SeriesParams(n_samples=25_000),
                      np.random.default_rng(17))
    assert z_score(emp.estimate, res.total_with_norm_err) <= 3.0


# -- the history tree against the one-history-at-a-time loops -------------------
#
# The oracles below are the loops the array history builder replaced,
# kept verbatim on scalar ``evolve``, ``Vec3`` and the scalar correlation
# evaluator of ``scalar_rho``.  The builder must reproduce their status,
# weight and terminal state bit for bit, and the stratum and check workers
# their statistics, counters and consumption of the random stream.

import scalar_rho
from marking_kernel import marking_kernel
import hardsphere.dynamics as dyn
from hardsphere import checks
from hardsphere import hierarchy, measures
from hardsphere.dynamics import DegeneracyError, DegeneracyKind
from hardsphere.geometry import omega_admissible
from hardsphere.hierarchy import HistoryOutcome
from hardsphere.measures import (
    GrandCanonicalEq,
    config_from_arrays,
    config_to_arrays,
    get_measure,
)
from hardsphere.stats import RejectionCounter, falling_factorial

# legs forced degenerate: those whose start has particle 0 at such an x
FORCED = {"on": False}


def _forced(x) -> bool:
    return FORCED["on"] and int(abs(float(x)) * 1e4) % 7 == 0


def oracle_evolve(config, t, limit):
    if t != 0.0 and _forced(config.particles[0].q.x):
        raise DegeneracyError(DegeneracyKind.SIMULTANEOUS_EVENTS)
    return evolve(config, t, limit)


@pytest.fixture
def forced(monkeypatch):
    """Force the same legs degenerate in the oracles and in the code under
    test: the lockstep kernel marks them and the scalar engine, which the
    oracles call, raises."""
    real_flow = dyn._flow

    def flow(q, p, *args):
        if _forced(q[0][0]):
            raise DegeneracyError(DegeneracyKind.SIMULTANEOUS_EVENTS)
        return real_flow(q, p, *args)

    monkeypatch.setattr(dyn, "_flow", flow)
    monkeypatch.setattr(dyn, "_lockstep", marking_kernel(dyn._lockstep, _forced))
    monkeypatch.setitem(FORCED, "on", True)


def oracle_build_history(config, t, delta):
    delta.validate(config.n, t)
    a = config.domain.a
    a2 = a * a
    cur = config
    weight = 1.0
    prev_time = t
    for k in range(delta.m):
        t_k = delta.times[k]
        try:
            cur, _ = oracle_evolve(cur, -(prev_time - t_k), Limit.FROM_FUTURE)
        except DegeneracyError:
            return HistoryOutcome(None, 0.0, HistoryStatus.DEGENERATE)
        j_k = delta.labels[k]
        omega = delta.directions[k]
        p_hat = delta.momenta[k]
        if not omega_admissible(cur, j_k, p_hat, omega):
            return HistoryOutcome(None, 0.0, HistoryStatus.BLOCKED)
        weight *= a2 * omega.dot(p_hat - cur.particles[j_k].p)
        q_new = cur.particles[j_k].q + omega.scale(a)
        cur = cur.replace_particles((*cur.particles, PhasePoint(q_new, p_hat)))
        prev_time = t_k
    try:
        cur, _ = oracle_evolve(cur, -prev_time, Limit.FROM_FUTURE)
    except DegeneracyError:
        return HistoryOutcome(None, 0.0, HistoryStatus.DEGENERATE)
    return HistoryOutcome(cur, weight, HistoryStatus.VALID)


def oracle_sphere(rng):
    # one unit vector per normal triple, None at or below the module's
    # norm floor
    v = rng.normal(size=3)
    r = math.sqrt(float(v @ v))
    return Vec3(v[0] / r, v[1] / r, v[2] / r) if r > hierarchy._NORM_FLOOR else None


def oracle_stratum_stats(rho0, n, t, box, m, count, beta0, inner_samples, antithetic, rng,
                         direction_draws=1):
    """A stratum of the series one history at a time: a sample draws all
    of its direction tuples first, and is degenerate if one of them holds
    a triple at or below the norm floor; per direction draw, the first
    insertion attaches to each of the n box particles in turn and the
    later labels are drawn."""
    from itertools import product

    ms = rho0.measure
    dom = ms.domain
    prop = Maxwellian(beta0)
    vol = box.volume
    label_factor = falling_factorial(n + m - 1, m - 1) if m else 1.0
    time_factor = t ** m / math.factorial(m)
    sphere_factor = (4.0 * math.pi) ** m
    sign_combos = list(product((1.0, -1.0), repeat=m)) if (antithetic and m) else [(1.0,) * m]
    draws = max(1, direction_draws) if m else 1
    receivers = n if m else 1
    inner = rng.spawn(1)[0]
    stats = RunningStats()
    counter = RejectionCounter()
    qs, ps = box.sample(rng, count)
    for i in range(count):
        q, p = qs[i], ps[i]
        if not ms.admissible(q):
            stats.add(0.0)
            counter.accepted += 1
            continue
        if m:
            times = tuple(float(x) for x in np.sort(rng.random(m))[::-1] * t)
            later = tuple(int(rng.integers(0, n + k)) for k in range(1, m))
            momenta = tuple(Vec3(*prop.sample(rng, 3)) for _ in range(m))
        else:
            times = later = momenta = ()
        prop_w = 1.0
        for pv in momenta:
            prop_w *= float(prop.pdf(pv.as_tuple()))
        scale = vol * time_factor * label_factor * sphere_factor / prop_w
        start = config_from_arrays(q, p, dom)
        combo_vals = []
        tuples = [tuple(oracle_sphere(rng) for _ in range(m)) for _ in range(draws)]
        degenerate = any(d is None for dirs in tuples for d in dirs)
        for dirs in [] if degenerate else tuples:
            for j, signs in product(range(receivers), sign_combos):
                flipped = tuple(d if s > 0 else -d for d, s in zip(dirs, signs))
                labels = (j, *later) if m else ()
                outcome = oracle_build_history(
                    start, t, CollisionHistory(times, labels, momenta, flipped))
                if outcome.status is HistoryStatus.DEGENERATE:
                    degenerate = True
                    break
                if outcome.status is HistoryStatus.BLOCKED:
                    counter.blocked += 1
                    combo_vals.append(0.0)
                    continue
                rho_val, _ = scalar_rho.eval_arrays(rho0, *config_to_arrays(outcome.terminal),
                                                    inner, inner_samples)
                combo_vals.append(scale * outcome.weight * rho_val)
            if degenerate:
                break
        if degenerate:
            counter.degenerate += 1
            stats.add(0.0)
            continue
        counter.accepted += 1
        stats.add(sum(combo_vals) / (draws * len(sign_combos)))
    return stats, counter


def oracle_backmap(args):
    (spec, domain, proposals, n, t, box, inner, count, seed) = args
    ms = get_measure(spec, domain, norm_proposals=proposals)
    rho0 = correlation_map(ms)
    rng = np.random.default_rng(np.random.SeedSequence(tuple(seed)))
    inner_rng = rng.spawn(1)[0]
    vol = box.volume
    stats = RunningStats()
    counter = RejectionCounter()
    qs, ps = box.sample(rng, count)
    for i in range(count):
        if not ms.admissible(qs[i]):
            stats.add(0.0)
            counter.accepted += 1
            continue
        cfg = config_from_arrays(qs[i], ps[i], domain)
        try:
            back, _ = oracle_evolve(cfg, -t, Limit.FROM_FUTURE)
        except DegeneracyError:
            counter.degenerate += 1
            stats.add(0.0)
            continue
        counter.accepted += 1
        val, _ = scalar_rho.eval_config(rho0, back, inner_rng, inner)
        stats.add(vol * val)
    return (stats, counter), rng


def oracle_prop5(args):
    (spec, domain, proposals, n, t, box, beta0, inner, count, seed) = args
    ms = get_measure(spec, domain, norm_proposals=proposals)
    rho0 = correlation_map(ms)
    rng = np.random.default_rng(np.random.SeedSequence(tuple(seed)))
    inner_rng = rng.spawn(1)[0]
    prop = Maxwellian(beta0)
    vol = box.volume
    stats = RunningStats()
    counter = RejectionCounter()
    qs, ps = box.sample(rng, count)
    for i in range(count):
        if not ms.admissible(qs[i]):
            stats.add(0.0)
            counter.accepted += 1
            continue
        s = float(rng.random()) * t
        p_hat = Vec3(*prop.sample(rng, 3))
        omega = oracle_sphere(rng)
        total = 0.0
        degenerate = omega is None
        cfg = config_from_arrays(qs[i], ps[i], domain)
        for j in range(0 if degenerate else n):
            for om in (omega, -omega):
                delta = CollisionHistory((s,), (j,), (p_hat,), (om,))
                out = oracle_build_history(cfg, t, delta)
                if out.status is HistoryStatus.DEGENERATE:
                    degenerate = True
                    break
                if out.status is HistoryStatus.BLOCKED:
                    counter.blocked += 1
                    continue
                val, _ = scalar_rho.eval_config(rho0, out.terminal, inner_rng, inner)
                total += 0.5 * out.weight * val   # average the two directions
            if degenerate:
                break
        if degenerate:
            counter.degenerate += 1
            stats.add(0.0)
            continue
        counter.accepted += 1
        stats.add(vol * t * 4.0 * math.pi * total / float(prop.pdf(p_hat.as_tuple())))
    return (stats, counter), rng


def random_histories(rng, count, domain, n_max=3, m_max=2):
    """Starts of 1..n_max non-overlapping spheres with random histories;
    a tight box makes many insertions blocked."""
    out = []
    lo, hi = np.array(domain.inset_lower), np.array(domain.inset_upper)
    while len(out) < count:
        n = int(rng.integers(1, n_max + 1))
        q = lo + rng.random((n, 3)) * (hi - lo)
        if any(np.linalg.norm(q[i] - q[j]) <= A for i in range(n) for j in range(i + 1, n)):
            continue
        m = int(rng.integers(0, m_max + 1))
        t = float(rng.uniform(0.5, 6.0))
        times = tuple(float(x) for x in np.sort(rng.random(m))[::-1] * t)
        labels = tuple(int(rng.integers(0, n + k)) for k in range(m))
        momenta = tuple(Vec3(*rng.normal(size=3)) for _ in range(m))
        dirs = tuple(oracle_sphere(rng) for _ in range(m))
        cfg = config_from_arrays(q, rng.normal(size=(n, 3)), domain)
        out.append((cfg, t, CollisionHistory(times, labels, momenta, dirs)))
    return out


def assert_same_outcome(got, want):
    assert got.status is want.status
    assert got.weight == want.weight
    if want.valid:
        assert np.array_equal(config_to_arrays(got.terminal)[0], config_to_arrays(want.terminal)[0])
        assert np.array_equal(config_to_arrays(got.terminal)[1], config_to_arrays(want.terminal)[1])


@pytest.mark.parametrize("force", [False, True])
def test_build_history_matches_oracle(force, request):
    if force:
        request.getfixturevalue("forced")
    small = Domain(Vec3(0, 0, 0), Vec3(3.2, 3.2, 3.2), A)
    statuses = set()
    for cfg, t, delta in random_histories(np.random.default_rng(21), 300, small):
        want = oracle_build_history(cfg, t, delta)
        assert_same_outcome(build_history(cfg, t, delta), want)
        statuses.add(want.status)
    assert statuses == set(HistoryStatus) if force else statuses >= {
        HistoryStatus.VALID, HistoryStatus.BLOCKED}


@pytest.mark.parametrize("force", [False, True])
def test_history_tree_shares_legs_bit_for_bit(force, request):
    # sign combinations of one direction tuple per start, 64 starts at
    # once: the lockstep engine runs the legs, and every history must
    # equal its own one-at-a-time build
    if force:
        request.getfixturevalue("forced")
    from itertools import product

    rng = np.random.default_rng(22)
    small = Domain(Vec3(0, 0, 0), Vec3(3.5, 3.5, 3.5), A)
    for m in (1, 2, 3):
        starts = [h for h in random_histories(rng, 400, small, n_max=2, m_max=3)
                  if h[2].m == m and h[0].n == 2][:64]
        signs = np.array(list(product((1.0, -1.0), repeat=m)))[:, :, None]
        combos = len(signs)
        t = 4.0
        times = np.sort(rng.random((len(starts), m)), axis=1)[:, ::-1] * t
        q0 = np.array([config_to_arrays(c)[0] for c, _, _ in starts])
        p0 = np.array([config_to_arrays(c)[1] for c, _, _ in starts])
        labels = np.array([d.labels for _, _, d in starts])
        momenta = np.array([[v.as_tuple() for v in d.momenta] for _, _, d in starts])
        dirs = np.array([[v.as_tuple() for v in d.directions] for _, _, d in starts])
        hist_dirs = (signs * dirs[:, None]).reshape(-1, m, 3)
        status, weight, q, p = hierarchy._history_tree(
            q0, p0, small, t, times, momenta, np.repeat(np.arange(len(starts)), combos),
            np.repeat(labels, combos, axis=0), hist_dirs)
        seen = set()
        for h in range(len(status)):
            r = h // combos
            delta = CollisionHistory(tuple(times[r]), tuple(labels[r]), starts[r][2].momenta,
                                     tuple(Vec3(*d) for d in hist_dirs[h]))
            want = oracle_build_history(starts[r][0], t, delta)
            got = HistoryOutcome(config_from_arrays(q[h], p[h], small) if status[h] == 0 else None,
                                 float(weight[h]), hierarchy._STATUS[status[h]])
            assert_same_outcome(got, want)
            seen.add(want.status)
        assert HistoryStatus.VALID in seen and HistoryStatus.BLOCKED in seen
        assert (HistoryStatus.DEGENERATE in seen) == force


@pytest.fixture(scope="module")
def measures_by_n():
    out = {n: InitialMeasure(ModulatedProduct(n, 1.0), BOX, norm_proposals=20_000)
           for n in (2, 3, 4)}
    micro = Domain(Vec3(0, 0, 0), Vec3(2.5, 1.2, 1.2), A)
    out["grand"] = InitialMeasure(GrandCanonicalEq(50.0, 1.0), micro, norm_proposals=20_000)
    return out


def grand_box(domain, share=0.4):
    lo, hi = np.array(domain.inset_lower), np.array(domain.inset_upper)
    q_hi = hi.copy()
    q_hi[0] = lo[0] + share * (hi[0] - lo[0])
    return PhaseBox.of([lo], [q_hi], [[-1.2] * 3], [[1.2] * 3])


def grand_boxes(domain):
    """The micro-box's box and a wider one, for forward chunks that tally
    several boxes on the same trajectories."""
    return grand_box(domain), grand_box(domain, 0.8)


@pytest.fixture
def refused(monkeypatch):
    """``admissible_batch`` refuses the two-particle configurations whose
    second particle's x the rule selects, in the oracles and in the code
    under test alike; a backward flow never leaves such a terminal, so no
    other test meets one."""
    real = InitialMeasure.admissible_batch

    def admissible_batch(self, q):
        ok = real(self, q)
        if q.shape[1] == 2:
            ok &= np.array([int(abs(float(x)) * 1e4) % 5 != 0 for x in q[:, 1, 0]], dtype=bool)
        return ok

    monkeypatch.setattr(InitialMeasure, "admissible_batch", admissible_batch)


def pair_box():
    """The two-particle box of the golden prop5 case."""
    return PhaseBox.of([[1.0, 1.5, 1.5], [2.5, 1.5, 1.5]], [[2.5, 3.5, 3.5], [4.0, 3.5, 3.5]],
                       [[-1.2] * 3] * 2, [[1.2] * 3] * 2)


STRATA = ([(big_n, name, m, 1) for big_n in (2, 3) for name in ("bulk", "near_wall")
           for m in range(big_n)] + [(2, "bulk", 1, 3), ("grand", "micro", 0, 24),
                                     ("grand", "micro", 1, 24), (3, "bulk", 1, 3),
                                     (3, "near_wall", 1, 2), (4, "bulk", 2, 1),
                                     (3, "pair", 1, 1), (4, "pair", 2, 1)])
# strata built with each direction tuple as drawn, without its sign flips:
# one whose terminals draw nothing and one whose terminals draw inner samples
ONE_SIGN = [(2, "bulk", 1, 1), (3, "bulk", 1, 1)]
# strata whose two-particle terminals the ``refused`` rule makes inadmissible
REFUSED = [(3, "bulk", 1, 1), (3, "bulk", 1, 3)]
# strata built at norm floor 0.3, where about 0.7% of the direction
# triples fall at or below it and make their sample degenerate (at 1.0 a
# fifth would, and about 0.5% of 24-draw samples would survive; at the
# shipped floor no seed is known to meet one)
FLOOR = [(3, "bulk", 1, 1), (4, "bulk", 2, 1), ("grand", "micro", 1, 24)]


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("big_n, box_name, m, draws, antithetic, refuse, floor",
                         [(*s, True, False, False) for s in STRATA]
                         + [(*s, False, False, False) for s in ONE_SIGN]
                         + [(*s, True, True, False) for s in REFUSED]
                         + [(*s, True, False, True) for s in FLOOR],
                         ids=["-".join(map(str, s)) for s in STRATA]
                         + ["-".join(map(str, s)) + "-one_sign" for s in ONE_SIGN]
                         + ["-".join(map(str, s)) + "-refused" for s in REFUSED]
                         + ["-".join(map(str, s)) + "-floor" for s in FLOOR])
def test_stratum_stats_match_oracle(measures_by_n, monkeypatch, big_n, box_name, m, draws,
                                    antithetic, refuse, floor, force, request):
    # strata whose terminals draw nothing (m = 0 at N = n + m, the top ones
    # with one or more direction draws) and strata whose terminals draw
    # inner samples (N = 3, m = 1 with one or more draws, some terminals
    # inadmissible; N = 4, m = 2, with an intermediate leg) give the same
    # statistics and counters and leave the stream where the loop does,
    # with and without the antithetic sign flips; on the pair box (n = 2)
    # the first insertion attaches to each of the two particles; at the
    # raised norm floor a sample with a triple at or below it is degenerate
    if force:
        request.getfixturevalue("forced")
    if refuse:
        request.getfixturevalue("refused")
    if floor:
        monkeypatch.setattr(hierarchy, "_NORM_FLOOR", 0.3)
    ms = measures_by_n[big_n]
    rho0 = correlation_map(ms)
    box = (grand_box(ms.domain) if big_n == "grand" else pair_box() if box_name == "pair"
           else checks.delta_preset(box_name, BOX, 1.0))
    t = 2.0 if big_n == "grand" else 5.0
    # forced, the N = 4, m = 2 stratum loses about 40% of its samples to
    # degenerate legs: 73 of 120 accepted on average over seeds, but 60 at
    # this one, so it draws twice as many for the guard below
    count = 40 if draws > 1 else 240 if big_n == 4 else 120
    seed = sum(map(ord, f"{big_n}{box_name}{m}"))
    args = (rho0, box.n, t, box, m, count, 1.0, 32, antithetic)
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    stats, counter = _series_stratum_stats(*args, rng_new, draws)
    want_stats, want_counter = oracle_stratum_stats(*args, rng_old, draws)
    assert (stats, counter) == (want_stats, want_counter)
    assert rng_new.random() == rng_old.random()
    assert counter.accepted > count // 2
    assert (counter.degenerate > 0) == (force or floor)


@pytest.mark.parametrize("force", [False, True])
def test_top_stratum_with_many_draws_builds_blocks(measures_by_n, monkeypatch, force, request):
    # the grand-canonical m = 1 stratum with 24 direction draws (48
    # histories a sample) is built in blocks of _LEVEL_ROWS // 48 samples,
    # one tree each, and every admissible row is built once, whether or
    # not a sample meets a degenerate history.  The block size is not part
    # of the stream: every size gives the same statistics, counter and
    # next random number
    if force:
        request.getfixturevalue("forced")
    starts = []
    real = hierarchy._history_tree

    def counting(q0, *args):
        starts.append(len(q0))
        return real(q0, *args)

    monkeypatch.setattr(hierarchy, "_history_tree", counting)
    ms = measures_by_n["grand"]
    box = grand_box(ms.domain)
    rows = int(ms.admissible_batch(box.sample(np.random.default_rng(31), 200)[0]).sum())
    assert rows == 200
    results = []
    # blocks of 2 samples, of 85 and of the shipped size
    for level_rows in (96, 4096, hierarchy._LEVEL_ROWS):
        monkeypatch.setattr(hierarchy, "_LEVEL_ROWS", level_rows)
        starts.clear()
        rng = np.random.default_rng(31)
        stats, counter = _series_stratum_stats(correlation_map(ms), 1, 2.0, box, 1, 200, 1.0,
                                               32, True, rng, 24)
        assert len(starts) == math.ceil(200 * 48 / hierarchy._LEVEL_ROWS)
        assert sum(starts) == rows
        assert (counter.degenerate > 0) == force
        results.append((stats, counter, rng.random()))
    assert results[0] == results[1] == results[2]


def assert_matches_prop5_oracle(got, rng, want, want_rng):
    """prop5's collision chunk (the series worker at m = 1) against
    ``oracle_prop5``: the same counters, sample count and next random
    number, and statistics equal to rounding, as the worker scales each
    history before it sums them and the oracle scales the sum."""
    (stats, counter), (want_stats, want_counter) = got, want
    assert counter == want_counter and stats.count == want_stats.count
    assert rng.random() == want_rng.random()
    for name in ("total", "total_sq", "positive", "negative"):
        assert getattr(stats, name) == pytest.approx(getattr(want_stats, name), rel=1e-12, abs=0)


@pytest.mark.parametrize("force", [False, True])
def test_check_workers_match_oracles(force, monkeypatch, request):
    if force:
        request.getfixturevalue("forced")
    spec = ModulatedProduct(2, 1.0)
    for n in (1, 2):
        box = (checks.delta_preset("near_wall", BOX, 1.0) if n == 1 else
               PhaseBox.of([[1.0] * 3, [1.0] * 3], [[4.0] * 3] * 2, [[-1.0] * 3] * 2,
                           [[1.0] * 3] * 2))
        # the pull-back term is the series worker at m = 0
        back = (spec, BOX, 20_000, n, 4.0, box, 32, 150, (5, n, 2))
        got = checks._w_series(checks.Chunk(spec, BOX, 20_000, 150, (5, n, 2), n=n, t=4.0,
                                            boxes=(box,), beta0=1.0, inner=32))
        want, rng = oracle_backmap(back)
        assert got == want
        # and the collision term the same worker at m = 1, on the N = n + 1
        # particles the check accepts
        top = ModulatedProduct(n + 1, 1.0)
        one = (top, BOX, 20_000, n, 4.0, box, 1.0, 32, 150, (5, n, 3))
        got, rng = worker_and_stream(monkeypatch, checks._w_series, checks.Chunk(
            top, BOX, 20_000, 150, (5, n, 3), n=n, t=4.0, boxes=(box,), m=1, beta0=1.0, inner=32))
        assert_matches_prop5_oracle(got, rng, *oracle_prop5(one))
        assert got[1].blocked > 0


def test_outer_stream_does_not_depend_on_inner_samples(measures_by_n):
    # terminals draw their inner samples from a generator spawned from the
    # caller's, so a stratum whose terminals draw them (N = 3, m = 1) and
    # the inverse map leave the caller's generator in the same state, and
    # the stratum blocks and stops the same histories, at any inner count
    ms = measures_by_n[3]
    box = checks.delta_preset("bulk", BOX, 1.0)
    seen = []
    for inner in (16, 128):
        rng = np.random.default_rng(8)
        _, counter = _series_stratum_stats(correlation_map(ms), 1, 5.0, box, 1, 120, 1.0, inner,
                                           True, rng, 3)
        inv = inverse_correlation_map(correlation_map(ms, inner_samples=inner), outer_samples=40)
        for n in range(ms.n_max + 1):
            q, p = ms.place(rng, n) if n else (np.zeros((0, 3)), np.zeros((0, 3)))
            inv.eval_arrays(q, p, rng)
        seen.append((counter.blocked, counter.degenerate, rng.bit_generator.state))
    assert seen[0] == seen[1] and seen[0][0] > 0


@pytest.mark.parametrize("big_n, draws", [(3, 3), ("grand", 24)])
def test_stratum_outer_draws_depend_on_no_outcome(measures_by_n, request, big_n, draws):
    # a sample makes all of its direction draws whatever its histories do,
    # so forcing legs degenerate (N = 3 bulk at 3 draws, the grand micro
    # box at 24) changes the counters but leaves the stream where it is
    ms = measures_by_n[big_n]
    box = grand_box(ms.domain) if big_n == "grand" else checks.delta_preset("bulk", BOX, 1.0)
    args = (correlation_map(ms), 1, 2.0 if big_n == "grand" else 5.0, box, 1, 60, 1.0, 32, True)
    rng_free = np.random.default_rng(12)
    _, free = _series_stratum_stats(*args, rng_free, draws)
    request.getfixturevalue("forced")
    rng_forced = np.random.default_rng(12)
    _, forced = _series_stratum_stats(*args, rng_forced, draws)
    assert free.degenerate == 0 and forced.degenerate > 0
    assert rng_forced.random() == rng_free.random()


class _ZeroFirstDirection:
    """A generator that passes every call to ``gen`` and zeroes row 1 of
    its first ``standard_normal(out=...)`` draw: the first direction
    triple of an m = 1 sample."""

    def __init__(self, gen):
        self._gen, self._done = gen, False

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def standard_normal(self, *args, out=None, **kwargs):
        self._gen.standard_normal(*args, out=out, **kwargs)
        if not self._done:
            out[1], self._done = 0.0, True
        return out


def test_stratum_zero_direction_triple_is_degenerate(measures_by_n):
    # a direction triple of zeros makes its sample degenerate without a
    # division by its norm, and is not built as drawn, which would put the
    # new sphere on its receiver
    ms = measures_by_n[3]
    args = (correlation_map(ms), 1, 5.0, checks.delta_preset("bulk", BOX, 1.0), 1, 40, 1.0,
            16, True)
    _, want = _series_stratum_stats(*args, np.random.default_rng(4))
    with np.errstate(divide="raise", invalid="raise"):
        _, got = _series_stratum_stats(*args, _ZeroFirstDirection(np.random.default_rng(4)))
    assert (want.degenerate, got.degenerate) == (0, 1)


class _Recording:
    """A generator that passes every call to ``gen``, records the size of
    each ``random`` draw of the generators it spawns, and spawns
    recording ones."""

    def __init__(self, gen, sizes, record=False):
        self._gen, self._sizes, self._record = gen, sizes, record

    def __getattr__(self, name):
        return getattr(self._gen, name)

    def random(self, *args, **kwargs):
        out = self._gen.random(*args, **kwargs)
        if self._record:
            self._sizes.append(np.size(out))
        return out

    def spawn(self, k):
        return [_Recording(g, self._sizes, True) for g in self._gen.spawn(k)]


@pytest.mark.parametrize("m", [0, 1])
def test_stratum_draws_inner_samples_a_block_at_a_time(measures_by_n, monkeypatch, m):
    # with the inner block patched down, no generator call of a stratum's
    # evaluations draws more than three uniforms per inner position of a
    # block, and the statistics, counters and stream are those of the
    # shipped block
    ms = measures_by_n[3]
    box = checks.delta_preset("bulk", BOX, 1.0)
    args = (correlation_map(ms), 1, 5.0, box, m, 200, 1.0, 16, True)
    rng_want = np.random.default_rng(9)
    want = _series_stratum_stats(*args, rng_want)
    monkeypatch.setattr(measures, "_INNER_BLOCK", 64)
    sizes = []
    rng = np.random.default_rng(9)
    assert _series_stratum_stats(*args, _Recording(rng, sizes)) == want
    assert rng.random() == rng_want.random()
    assert max(sizes) <= 3 * measures._INNER_BLOCK
    assert len(sizes) > 10


# -- the forward-simulation workers against the loops they replaced -------------
#
# The loops that ``checks._w_prop1_forward``, ``checks._w_reversibility``
# and ``hierarchy.empirical_chunk_grand`` replaced, kept verbatim on scalar
# ``evolve`` and ``Configuration``.  The array workers must give the same
# statistics, counters and worst case, and leave the random stream where
# the loops leave it.

from itertools import product

from hardsphere.dynamics import EPS_EVENT_REL, EventKind, reverse_momenta
from hardsphere.measures import CanonicalEq


def oracle_prop1_forward(c, box):
    ms, rng, n, t, domain = c.measure, c.rng, c.n, c.t, c.domain
    d_stats = RunningStats()
    plus_stats = RunningStats()
    minus_stats = RunningStats()
    counter = RejectionCounter()
    qs, ps = ms.sample_batch(rng, c.count)
    for i in range(c.count):
        while True:
            cfg = config_from_arrays(qs[i], ps[i], domain)
            try:
                _, log = evolve(cfg, t, collect_log=True)
                break
            except DegeneracyError:
                counter.degenerate += 1
                q1, p1 = ms.sample_batch(rng, 1)
                qs[i], ps[i] = q1[0], p1[0]
        c_plus = 0.0
        c_minus = 0.0
        for entry in log.entries:
            ev = entry.event
            if ev.kind is not EventKind.PAIR or not (ev.i < n <= ev.j):
                continue
            remaining = t - entry.time
            q_group = np.array(entry.positions[:n])
            for tag, mom in (("plus", entry.momenta_after), ("minus", entry.momenta_before)):
                p_group = np.array(mom[:n])
                group_cfg = config_from_arrays(q_group, p_group, domain)
                try:
                    fin, _ = evolve(group_cfg, remaining, Limit.FROM_FUTURE)
                except DegeneracyError:
                    counter.degenerate += 1
                    continue
                qf = np.array([pt.q.as_tuple() for pt in fin.particles])
                pf = np.array([pt.p.as_tuple() for pt in fin.particles])
                if box.contains_batch(qf[None], pf[None])[0]:
                    if tag == "plus":
                        c_plus += 1.0
                    else:
                        c_minus += 1.0
        d_stats.add(c_plus - c_minus)
        plus_stats.add(c_plus)
        minus_stats.add(c_minus)
        counter.accepted += 1
    return (d_stats, plus_stats, minus_stats, counter), rng


def oracle_reversibility(c, eps_event=EPS_EVENT_REL):
    ms, rng, t, domain = c.measure, c.rng, c.t, c.domain
    diag = math.sqrt(sum(s * s for s in domain.sides))
    worst = 0.0
    events = 0
    counter = RejectionCounter()
    skipped_gap = 0
    done = 0
    while done < c.count:
        if counter.degenerate + skipped_gap > 200 + c.count:
            raise RuntimeError("excessive degenerate-trajectory rate")
        cfg = ms.sample(rng)
        try:
            fwd, log = evolve(cfg, t, collect_log=True)
            there_and_back, _ = evolve(reverse_momenta(fwd), t)
        except DegeneracyError:
            counter.degenerate += 1
            continue
        gaps = [b.time - a.time for a, b in zip(log.entries, log.entries[1:])]
        pscale = max(1.0, max(abs(c) for pt in cfg.particles for c in pt.p.as_tuple()))
        eps_gap = 10.0 * eps_event * domain.a / pscale
        if gaps and min(gaps) < eps_gap:
            skipped_gap += 1
            continue
        final = reverse_momenta(there_and_back)
        err = 0.0
        for p0, p1 in zip(cfg.particles, final.particles):
            err = max(err, (p0.q - p1.q).norm() / diag)
            err = max(err, (p0.p - p1.p).norm() / pscale)
        worst = max(worst, err)
        events += log.n_events
        counter.accepted += 1
        done += 1
    return (worst, events, skipped_gap, counter), rng


def oracle_evolved_tuple_count(config, n, t, box, limit):
    from itertools import permutations

    if config.n < n:
        return 0.0, True
    try:
        final, _ = evolve(config, t, limit)
    except DegeneracyError:
        return 0.0, False
    qf, pf = config_to_arrays(final)
    count = 0
    for perm in permutations(range(config.n), n):
        idx = list(perm)
        if box.contains_batch(qf[idx][None], pf[idx][None])[0]:
            count += 1
    return float(count), True


def oracle_chunk_grand(measure, n, t, box, limit, count, rng, max_resample=200):
    counter = RejectionCounter()
    stats = RunningStats()
    done = 0
    while done < count:
        config = measure.sample(rng)
        value, ok = oracle_evolved_tuple_count(config, n, t, box, limit)
        if not ok:
            counter.degenerate += 1
            if counter.degenerate > max_resample + count:
                raise RuntimeError("excessive degenerate-trajectory rate")
            continue
        stats.add(value)
        counter.accepted += 1
        done += 1
    return stats, counter


def worker_and_stream(monkeypatch, worker, chunk):
    """A check worker's result and the generator it drew from."""
    made = []
    real = checks._rng
    monkeypatch.setattr(checks, "_rng", lambda *key: made.append(real(*key)) or made[-1])
    got = worker(chunk)
    monkeypatch.setattr(checks, "_rng", real)
    return got, made[-1]


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("count", [12, 160])
def test_prop1_forward_matches_oracle(count, force, monkeypatch, request):
    # 12 trajectories give group legs of a few rows, 160 of many; for groups of one and two spheres, each chunk tallied in
    # several boxes, every one of which equals its own one-box loop
    if force:
        request.getfixturevalue("forced")
    spec = ModulatedProduct(3, 1.0)
    pairs = [PhaseBox.of([[lo] * 3] * 2, [[hi] * 3] * 2, [[-1.5] * 3] * 2, [[1.5] * 3] * 2)
             for lo, hi in ((0.5, 4.5), (1.0, 3.5))]
    legs = 0
    for n, boxes in ((1, tuple(checks.delta_preset(name, BOX, 1.0)
                               for name in ("bulk", "near_wall", "high_momentum"))),
                     (2, tuple(pairs))):
        chunk = checks.Chunk(spec, BOX, 20_000, count, (7, n, count), n=n, t=6.0, boxes=boxes)
        got, rng = worker_and_stream(monkeypatch, checks._w_prop1_forward, chunk)
        after = rng.random()
        assert len(got) == 3 * len(boxes) + 1
        for k, box in enumerate(boxes):
            want, want_rng = oracle_prop1_forward(chunk, box)
            assert (*got[3 * k:3 * k + 3], got[-1]) == want
            assert want_rng.random() == after
            legs += 2 * (got[3 * k + 1].total + got[3 * k + 2].total)
    assert legs > 0


@pytest.mark.parametrize("force", [False, True])
def test_reversibility_worker_matches_oracle(force, monkeypatch, request):
    # chunks of 30 and 160 trajectories; the small-gap threshold raised in
    # the worker and the oracle alike makes both skip trajectories, round
    # after round.  Where the oracle's degenerate and skipped rows pass
    # 200 + count (forced, 160 rows, the raised threshold, N = 3), the
    # worker gives up too
    if force:
        request.getfixturevalue("forced")
    tripped = 0
    for count, eps_event in product((30, 160), (EPS_EVENT_REL, 2e-3)):
        monkeypatch.setattr(checks, "EPS_EVENT_REL", eps_event)
        for n in (2, 3):
            chunk = checks.Chunk(CanonicalEq(n, 1.0), BOX, 20_000, count, (8, n), t=25.0)
            try:
                want, want_rng = oracle_reversibility(chunk, eps_event)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="^excessive degenerate-trajectory rate$"):
                    checks._w_reversibility(chunk)
                tripped += 1
                continue
            got, rng = worker_and_stream(monkeypatch, checks._w_reversibility, chunk)
            assert got == want
            assert rng.random() == want_rng.random()
            assert got[0] > 0.0 and got[1] > 0
            assert (got[2] > 0) == (eps_event > EPS_EVENT_REL)
            assert (got[3].degenerate > 0) == force
    assert tripped == force


@pytest.mark.parametrize("force", [False, True])
def test_chunk_grand_matches_oracle(measures_by_n, force, request):
    if force:
        request.getfixturevalue("forced")
    # each chunk is tallied in two boxes, each equal to its own one-box loop
    ms = measures_by_n["grand"]
    lo, hi = ms.domain.inset_lower, ms.domain.inset_upper
    pair_boxes = tuple(PhaseBox.of([lo, lo], [hi, hi], [[-p] * 3] * 2, [[p] * 3] * 2)
                       for p in (3.0, 1.0))
    for n, t, boxes in ((1, 2.0, grand_boxes(ms.domain)), (2, 1.5, pair_boxes),
                        (1, 0.0, grand_boxes(ms.domain))):
        rng_new = np.random.default_rng(n)
        got = hierarchy.empirical_chunk_grand(ms, n, t, boxes, Limit.FROM_FUTURE, 400, rng_new)
        after = rng_new.random()
        *stats, counter = got
        assert len(stats) == 2 and stats[0].total != stats[1].total
        assert (counter.degenerate > 0) == (force and t != 0.0)
        for box, box_stats in zip(boxes, stats):
            rng_old = np.random.default_rng(n)
            assert ((box_stats, counter)
                    == oracle_chunk_grand(ms, n, t, box, Limit.FROM_FUTURE, 400, rng_old))
            assert rng_old.random() == after
            assert box_stats.total > 0


@pytest.mark.parametrize("force", [False, True])
def test_chunk_grand_small_group_and_cap_match_oracle(measures_by_n, force, monkeypatch,
                                                      request):
    # one particle number is drawn rarely, so its group is a call of a few
    # rows, another often; both run on the lockstep kernel.  With
    # degenerate draws, the resample cap trips at the same draw as the loop's
    if force:
        request.getfixturevalue("forced")
    ms = measures_by_n["grand"]
    rows, kernel_rows = [], []
    real, kernel = hierarchy.evolve_batch, dyn._lockstep

    def spy(q, *args, **kw):
        rows.append(len(q))
        return real(q, *args, **kw)

    monkeypatch.setattr(hierarchy, "evolve_batch", spy)
    monkeypatch.setattr(dyn, "_lockstep", lambda q, *args: kernel_rows.append(len(q))
                        or kernel(q, *args))
    boxes = grand_boxes(ms.domain)
    args = (ms, 1, 2.0)
    rng_new = np.random.default_rng(9)
    got = hierarchy.empirical_chunk_grand(*args, boxes, Limit.FROM_FUTURE, 150, rng_new)
    after = rng_new.random()
    *stats, counter = got
    for box, box_stats in zip(boxes, stats):
        rng_old = np.random.default_rng(9)
        assert ((box_stats, counter)
                == oracle_chunk_grand(*args, box, Limit.FROM_FUTURE, 150, rng_old))
        assert rng_old.random() == after
    assert min(rows[:2]) < 48 <= max(rows[:2]) and kernel_rows == rows
    assert (counter.degenerate > 0) == force
    if force:
        cap = counter.degenerate - 150
        for chunk, box, want in ((hierarchy.empirical_chunk_grand, boxes, got),
                                 (oracle_chunk_grand, boxes[0], (stats[0], counter))):
            def run(cap):
                return chunk(*args, box, Limit.FROM_FUTURE, 150, np.random.default_rng(9),
                             max_resample=cap)

            assert run(cap) == want
            with pytest.raises(RuntimeError, match="^excessive degenerate-trajectory rate$"):
                run(cap - 1)


@pytest.fixture
def all_degenerate(monkeypatch):
    """Every trajectory that moves is degenerate, in the oracles and in
    the code under test.  Past 2000 calls into the engines the test fails,
    so that a redraw loop without a cap ends."""
    calls = []
    kernel = marking_kernel(dyn._lockstep, lambda x: True)

    def bounded():
        calls.append(1)
        if len(calls) > 2000:
            raise AssertionError("a degenerate-redraw loop ran past 2000 engine calls")

    def flow(*args):
        bounded()
        raise DegeneracyError(DegeneracyKind.SIMULTANEOUS_EVENTS)

    monkeypatch.setattr(dyn, "_flow", flow)
    monkeypatch.setattr(dyn, "_lockstep", lambda *args: bounded() or kernel(*args))


def test_chunk_grand_all_degenerate_raises(measures_by_n, all_degenerate):
    # only the empty configurations are accepted, so the degenerate count
    # passes max_resample + count long before count draws are accepted
    ms = measures_by_n["grand"]
    for chunk, box in ((hierarchy.empirical_chunk_grand, grand_boxes(ms.domain)),
                       (oracle_chunk_grand, grand_box(ms.domain))):
        with pytest.raises(RuntimeError, match="^excessive degenerate-trajectory rate$"):
            chunk(ms, 1, 2.0, box, Limit.FROM_FUTURE, 120, np.random.default_rng(3),
                  max_resample=10)


@pytest.mark.parametrize("worker", ["_w_lemma2", "_w_prop1_forward", "_w_reversibility"])
def test_forward_workers_cap_degenerate_redraws(measures_by_n, all_degenerate, worker):
    # with every trajectory degenerate, each worker that redraws them gives
    # up past 200 + count degenerate (or skipped) rows, as empirical_chunk
    # does, instead of redrawing forever
    ms = measures_by_n[3]
    chunk = checks.Chunk(ms.spec, ms.domain, 20_000, 5, (3, 7), n=1, t=2.0,
                         boxes=(checks.delta_preset("bulk", BOX, 1.0),))
    with pytest.raises(RuntimeError, match="^excessive degenerate-trajectory rate$"):
        getattr(checks, worker)(chunk)


def test_array_paths_build_no_vec3(measures_by_n, monkeypatch):
    # the series at N = 3, m = 1 (terminals that draw inner samples) and
    # grand-canonical forward simulation run on arrays from the draw to the
    # estimate
    rho3 = correlation_map(measures_by_n[3])
    grand = measures_by_n["grand"]
    built = []
    real = Vec3.__post_init__

    def counting(self):
        built.append(1)
        real(self)

    monkeypatch.setattr(Vec3, "__post_init__", counting)
    series_eval(rho3, 1, 5.0, checks.delta_preset("bulk", BOX, 1.0),
                SeriesParams(n_samples=300, inner_samples=16), np.random.default_rng(1))
    series_calls = len(built)
    empirical_rho(grand, 1, 2.0, grand_box(grand.domain), Limit.FROM_FUTURE, 300,
                  np.random.default_rng(2))
    assert (series_calls, len(built)) == (0, 0)
    Vec3(0.0, 0.0, 0.0)
    assert len(built) == 1


@pytest.mark.parametrize("force", [False, True])
@pytest.mark.parametrize("big_n", [2, 3])
def test_prop5_worker_modes_match_oracle(big_n, force, monkeypatch, request):
    # prop5's collision term at N = n + 1 (n = 1 and n = 2): the terminals
    # draw no inner samples, and the samples are built in trees of three
    # (blocks patched down)
    if force:
        request.getfixturevalue("forced")
    n = big_n - 1
    monkeypatch.setattr(hierarchy, "_LEVEL_ROWS", 6 * n)
    spec = ModulatedProduct(big_n, 1.0)
    box = checks.delta_preset("near_wall", BOX, 1.0) if n == 1 else pair_box()
    chunk = checks.Chunk(spec, BOX, 20_000, 40, (6, big_n), n=n, t=4.0, boxes=(box,), m=1,
                         beta0=1.0, inner=16)
    got, rng = worker_and_stream(monkeypatch, checks._w_series, chunk)
    assert_matches_prop5_oracle(got, rng, *oracle_prop5(
        (spec, BOX, 20_000, n, 4.0, box, 1.0, 16, 40, (6, big_n))))
    assert got[1].blocked > 0 and (got[1].degenerate > 0) == force


@pytest.mark.parametrize("values", [[], [0.0] * 5, [-0.0, 0.0, -0.0], [1.5, -2.25, 0.0, -0.0, 3.0],
                                    np.random.default_rng(8).normal(size=4000) * 1e3])
def test_add_many_equals_repeated_add(values):
    # on a fresh and on a used accumulator, to the last bit and the sign of
    # zero
    got, want = RunningStats(), RunningStats()
    for start in (values, [0.1, -0.3], values):
        got.add_many(np.asarray(start))
        for v in start:
            want.add(v)
        assert got == want
        assert [math.copysign(1.0, x) for x in (got.total, got.positive, got.negative)] == [
            math.copysign(1.0, x) for x in (want.total, want.positive, want.negative)]
