import math

import numpy as np
import pytest

import scalar_rho
from hardsphere import measures
from hardsphere.dynamics import Limit, pair_collide
from hardsphere.geometry import Domain, Vec3
from hardsphere.hierarchy import PhaseBox, empirical_rho, evolve_sampled
from hardsphere.measures import (
    CanonicalEq,
    GrandCanonicalEq,
    InitialMeasure,
    Maxwellian,
    ModulatedProduct,
    config_from_arrays,
    correlation_map,
    inverse_correlation_map,
    spec_from_block,
    spec_to_block,
)
from hardsphere.stats import RejectionCounter

A = 1.0
BOX = Domain(Vec3(0, 0, 0), Vec3(5, 5, 5), A)
MICRO1 = Domain(Vec3(0, 0, 0), Vec3(1.5, 1.5, 1.5), A)   # fits one sphere
PROPOSALS = 200_000


@pytest.fixture(scope="module")
def canonical2():
    return InitialMeasure(CanonicalEq(2, 1.0), BOX, norm_proposals=PROPOSALS)


@pytest.fixture(scope="module")
def modulated2():
    return InitialMeasure(ModulatedProduct(2, 1.0), BOX, norm_proposals=PROPOSALS)


@pytest.fixture(scope="module")
def gc_micro():
    return InitialMeasure(GrandCanonicalEq(2.0, 1.0), MICRO1,
                          norm_proposals=PROPOSALS)


def test_maxwellian_normalizes():
    mw = Maxwellian(1.3)
    # exact per-axis box mass over a wide box
    assert mw.box_prob([-40, -40, -40], [40, 40, 40]) == pytest.approx(1.0, abs=1e-12)
    # product Gauss-Hermite quadrature of the density
    nodes, weights = np.polynomial.hermite.hermgauss(48)
    scale = math.sqrt(2.0 / mw.beta)
    px, py, pz = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    p = scale * np.stack([px, py, pz], axis=-1)
    comp = weights * np.exp(nodes ** 2)
    w3 = comp[:, None, None] * comp[None, :, None] * comp[None, None, :]
    total = float((mw.pdf(p) * w3).sum()) * scale ** 3
    assert total == pytest.approx(1.0, abs=1e-10)


def test_maxwellian_moments_via_sampler():
    rng = np.random.default_rng(1)
    beta = 2.0
    p = Maxwellian(beta).sample(rng, (200_000, 3))
    m2 = (p ** 2).sum(axis=1)
    se = m2.std(ddof=1) / math.sqrt(len(m2))
    assert abs(m2.mean() - 3.0 / beta) < 3 * se


def test_single_particle_position_uniform():
    ms = InitialMeasure(CanonicalEq(1, 1.0), BOX, norm_proposals=50_000)
    rng = np.random.default_rng(2)
    q, p = ms.sample_batch(rng, 30_000)
    assert q.min() >= 0.5 and q.max() <= 4.5
    se = q[:, 0, 0].std(ddof=1) / math.sqrt(len(q))
    assert abs(q[:, 0, 0].mean() - 2.5) < 3 * se
    m2 = (p ** 2).sum(axis=(1, 2))
    assert abs(m2.mean() - 3.0) < 3 * m2.std(ddof=1) / math.sqrt(len(m2))


def test_barely_fitting_pair_respects_exclusion():
    tight = Domain(Vec3(0, 0, 0), Vec3(2.2, 2.2, 2.2), A)
    ms = InitialMeasure(CanonicalEq(2, 1.0), tight, norm_proposals=50_000)
    rng = np.random.default_rng(3)
    q, _ = ms.sample_batch(rng, 2000)
    d = np.linalg.norm(q[:, 0, :] - q[:, 1, :], axis=1)
    assert d.min() >= A


def test_density_eval_forms(canonical2, modulated2):
    h = Maxwellian(1.0)
    p1, p2 = np.array([0.3, -0.1, 0.2]), np.array([-0.4, 0.0, 1.0])
    q = np.array([[1.0, 2.0, 2.0], [3.0, 2.0, 2.0]])
    cfg = config_from_arrays(q, np.stack([p1, p2]), BOX)
    z = canonical2.position_partition(2)[0]
    want = float(h.pdf(p1) * h.pdf(p2)) / z
    assert canonical2.density(cfg) == pytest.approx(want, rel=1e-12)
    # overlap or wall violation gives zero
    q_bad = np.array([[1.0, 2.0, 2.0], [1.5, 2.0, 2.0]])
    assert canonical2.density(config_from_arrays(q_bad, np.stack([p1, p2]), BOX)) == 0.0
    q_wall = np.array([[0.2, 2.0, 2.0], [3.0, 2.0, 2.0]])
    assert canonical2.density(config_from_arrays(q_wall, np.stack([p1, p2]), BOX)) == 0.0


def test_uniform_modulation_matches_canonical(canonical2):
    flat = InitialMeasure(ModulatedProduct(2, 1.0, g_choice="uniform"), BOX,
                          norm_proposals=PROPOSALS)
    rng = np.random.default_rng(4)
    q, p = canonical2.sample_batch(rng, 5)
    for i in range(5):
        cfg = config_from_arrays(q[i], p[i], BOX)
        assert flat.density(cfg) == pytest.approx(canonical2.density(cfg), rel=1e-12)


def test_density_bounded_by_equilibrium_envelope(modulated2):
    rng = np.random.default_rng(5)
    # every density level is bounded by c * prod h_beta, c = g_max^N / Z_N
    c = modulated2.g_max ** 2 / modulated2.position_partition(2)[0]
    h = modulated2.maxwellian
    q, p = modulated2.sample_batch(rng, 500)
    for i in range(500):
        val = modulated2.density_arrays(q[i], p[i])
        envelope = c * float(np.prod(h.pdf(p[i])))
        assert val <= envelope * (1.0 + 1e-12)


def test_modulated_density_continuous_through_collision(modulated2):
    # the density depends on momenta only through the Maxwellian product,
    # which the collision law preserves exactly
    rng = np.random.default_rng(6)
    for _ in range(20):
        q1 = np.array([2.0, 2.0, 2.0])
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        q2 = q1 + A * v
        p1, p2 = rng.normal(size=3), rng.normal(size=3)
        before = modulated2.density_arrays(np.stack([q1, q2]), np.stack([p1, p2]))
        p1v, p2v = pair_collide(Vec3.of(p1), Vec3.of(p2), Vec3.of(v))
        after = modulated2.density_arrays(
            np.stack([q1, q2]),
            np.stack([p1v.as_tuple(), p2v.as_tuple()]))
        assert after == pytest.approx(before, rel=1e-12)


def test_grand_canonical_occupancy_ratio(gc_micro):
    # one-sphere box: P(1)/P(0) = z * free volume
    assert gc_micro.n_max == 1
    want = 2.0 * MICRO1.inset_volume
    got = gc_micro.occupancy[1] / gc_micro.occupancy[0]
    assert got == pytest.approx(want, rel=1e-3)
    rng = np.random.default_rng(7)
    ns = np.array([gc_micro.sample(rng).n for _ in range(4000)])
    frac = (ns == 1).mean()
    se = math.sqrt(frac * (1 - frac) / len(ns))
    assert abs(frac - gc_micro.occupancy[1]) < 3 * se


def test_correlation_rho0_is_total_mass(gc_micro):
    rho = correlation_map(gc_micro)
    rng = np.random.default_rng(8)
    val, err = rho.eval_arrays(np.zeros((0, 3)), np.zeros((0, 3)), rng, 2000)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_correlation_level1_equals_density_on_one_sphere_box(gc_micro):
    rho = correlation_map(gc_micro)
    rng = np.random.default_rng(9)
    q = np.array([[0.7, 0.7, 0.7]])
    p = np.array([[0.2, -0.5, 0.1]])
    val, _ = rho.eval_arrays(q, p, rng)
    assert val == pytest.approx(gc_micro.density_arrays(q, p), rel=1e-12)


def test_canonical_rho1_matches_direct_marginal(canonical2):
    # rho_1(x) = 2 * integral over the second particle of f_2(x, y)
    rho = correlation_map(canonical2)
    rng = np.random.default_rng(10)
    q = np.array([[1.5, 2.5, 2.5]])
    p = np.array([[0.0, 0.0, 0.0]])
    val, err = rho.eval_arrays(q, p, rng, 40_000)
    # direct: 2 h(0) I(q) / Z with I the exclusion volume around q
    k = 200_000
    qs = 0.5 + rng.random((k, 3)) * 4.0
    ind = (np.linalg.norm(qs - q[0], axis=1) >= A)
    i_q = 4.0 ** 3 * ind.mean()
    want = 2.0 * float(Maxwellian(1.0).pdf(p[0])) * i_q / canonical2.position_partition(2)[0]
    assert abs(val - want) < 3 * math.hypot(err, want * 0.004)


def test_canonical_rho_vanishes_on_excluded(canonical2):
    rho = correlation_map(canonical2)
    rng = np.random.default_rng(11)
    q = np.array([[1.0, 2.0, 2.0], [1.4, 2.0, 2.0]])
    p = np.zeros((2, 3))
    assert rho.eval_arrays(q, p, rng) == (0.0, 0.0)


def test_inverse_map_level_forms_one_sphere_box(gc_micro):
    # with at most one sphere: f_1 = rho_1 and f_0 = rho_0 - int rho_1
    rho = correlation_map(gc_micro)
    inv = inverse_correlation_map(rho, outer_samples=4000)
    rng = np.random.default_rng(12)
    q = np.array([[0.6, 0.8, 0.7]])
    p = np.array([[0.4, 0.1, -0.2]])
    f1, err1 = inv.eval_arrays(q, p, rng)
    assert f1 == pytest.approx(gc_micro.density_arrays(q, p), rel=1e-9)
    f0, err0 = inv.eval_arrays(np.zeros((0, 3)), np.zeros((0, 3)), rng)
    want = gc_micro.density_arrays(np.zeros((0, 3)), np.zeros((0, 3)))
    assert abs(f0 - want) < 3 * max(err0, 1e-12)


def test_inverse_of_zero_is_zero(gc_micro):
    class ZeroRho:
        measure = gc_micro
        n_max = gc_micro.n_max

        def eval_arrays(self, q, p, rng, inner_samples=None):
            return (0.0, 0.0)

        def eval_batch(self, q, p, rng, inner_samples=None):
            return np.zeros(len(q)), np.zeros(len(q))

    inv = inverse_correlation_map(ZeroRho(), outer_samples=64)
    rng = np.random.default_rng(13)
    val, err = inv.eval_arrays(np.zeros((0, 3)), np.zeros((0, 3)), rng)
    assert val == 0.0 and err == 0.0


@pytest.mark.parametrize("spec_name", ["modulated3", "grand"])
def test_inverse_map_matches_outer_sample_loop(spec_name):
    # each level's outer samples evaluated in one batch give the value,
    # stderr and next random number of one scalar evaluation per sample
    if spec_name == "grand":
        ms = InitialMeasure(GrandCanonicalEq(50.0, 1.0), Domain(Vec3(0, 0, 0),
                            Vec3(2.5, 1.2, 1.2), A), norm_proposals=20_000)
    else:
        ms = InitialMeasure(ModulatedProduct(3, 1.0), BOX, norm_proposals=20_000)
    inv = inverse_correlation_map(correlation_map(ms, inner_samples=24), outer_samples=40)
    rng = np.random.default_rng(44)
    for n in range(ms.n_max + 1):
        r_batch, r_loop = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(3):
            q, p = ms.place(rng, n) if n else (np.zeros((0, 3)), np.zeros((0, 3)))
            assert inv.eval_arrays(q, p, r_batch) == scalar_rho.inverse_eval_arrays(
                inv, q, p, r_loop)
        assert r_batch.random() == r_loop.random()


def test_one_inner_sample_has_zero_stderr(gc_micro, modulated2):
    # one inner sample has no spread: 0, as the scalar evaluator gives it,
    # not the NaN of a one-sample standard deviation
    for ms, q in ((gc_micro, np.zeros((0, 3))), (modulated2, np.array([[2.5, 2.5, 2.5]]))):
        rho = correlation_map(ms, inner_samples=1)
        p = np.zeros_like(q)
        r1, r2 = np.random.default_rng(45), np.random.default_rng(45)
        got = rho.eval_arrays(q, p, r1)
        assert got == scalar_rho.eval_arrays(rho, q, p, r2)
        assert got[0] > 0.0 and got[1] == 0.0
        got = ms.exclusion_integral(q, 1, r1, 1)
        assert got == scalar_rho.exclusion_integral(ms, q, 1, r2, 1) and got[1] == 0.0
        assert r1.random() == r2.random()


def test_inverse_map_needs_two_outer_samples(gc_micro):
    # one outer sample has no variance: its error bar would be NaN
    rho = correlation_map(gc_micro)
    with pytest.raises(ValueError, match="^outer_samples must be at least 2, got 1$"):
        inverse_correlation_map(rho, outer_samples=1)
    assert inverse_correlation_map(rho, outer_samples=2).outer_samples == 2


def test_roundtrip_recovers_density(gc_micro):
    rho = correlation_map(gc_micro, inner_samples=2000)
    inv = inverse_correlation_map(rho, outer_samples=2000)
    rng = np.random.default_rng(14)
    q = np.array([[0.9, 0.6, 0.6]])
    p = np.array([[-0.3, 0.2, 0.8]])
    approx, err = inv.eval_arrays(q, p, rng)
    exact = gc_micro.density_arrays(q, p)
    err = math.hypot(err, exact * gc_micro.z_rel_err)
    assert abs(approx - exact) <= 3 * max(err, 1e-12)


def test_spec_block_roundtrip():
    for spec in (CanonicalEq(3, 1.5), GrandCanonicalEq(4.0, 0.8),
                 ModulatedProduct(2, 1.0, "cos_x", 0.25)):
        block = spec_to_block(spec, BOX, seed=9)
        back, dom = spec_from_block(block)
        assert back == spec and dom == BOX


def test_sampler_infeasible_geometry_raises():
    # a fixed-N measure is normalized on first read, so the box is refused
    # there; the sampler, which never reads it, gives up on its first draw
    # after 64 * max_attempts rejected proposals
    tight = Domain(Vec3(0, 0, 0), Vec3(1.4, 1.4, 1.4), A)
    ms = InitialMeasure(CanonicalEq(3, 1.0), tight, norm_proposals=20_000)
    with pytest.raises(ValueError, match="^box cannot fit 3 spheres of diameter 1.0$"):
        ms.position_partition(3)
    with pytest.raises(RuntimeError, match="^no admissible 3-sphere placement in 64000 proposals$"):
        ms.sample_arrays(np.random.default_rng(0))
    # a large request makes two rounds of 2 * count proposals, not 1000
    with pytest.raises(RuntimeError, match="^no admissible 3-sphere placement in 100000 "):
        ms.sample_batch(np.random.default_rng(0), 25_000)


@pytest.mark.parametrize("spec", [CanonicalEq(3, 1.0), ModulatedProduct(2, 1.0)])
def test_sampling_never_normalizes(spec, normalizations):
    ms = InitialMeasure(spec, BOX, norm_proposals=20_000)
    rng = np.random.default_rng(8)
    n = spec.n_particles
    box = PhaseBox.of([[0.5] * 3], [[4.5] * 3], [[-2.0] * 3], [[2.0] * 3])
    ms.sample_batch(rng, 50)
    ms.sample_arrays(rng)
    evolve_sampled(ms, 20, 2.0, Limit.FROM_FUTURE, rng, RejectionCounter())
    empirical_rho(ms, 1, 2.0, box, Limit.FROM_FUTURE, 40, rng)
    assert normalizations == []
    # the first read normalizes, once
    ms.position_partition(n), ms.z_rel_err, correlation_map(ms)
    assert normalizations == [n]


# -- batched evaluation against the scalar path ----------------------------------

def touching(rng, rows, centers, dist, ulps=4):
    """Points at ``dist`` from the given centers, give or take a few ulps:
    the squared distances straddle the threshold the scalar code tests."""
    u = rng.normal(size=(rows, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    scale = dist * (1.0 + np.finfo(float).eps * rng.integers(-ulps, ulps + 1, size=rows))
    return centers + u * scale[:, None]


def differing_rows(got, want, first=5) -> list:
    """The first rows where two equal-length sequences differ, with both
    values: a short failure message, where pytest's diff of two long lists
    takes minutes."""
    got, want = np.asarray(got), np.asarray(want)
    return [(int(r), got[r].item(), want[r].item())
            for r in np.flatnonzero(got != want)[:first]]


# squared distances summed as they are (one order for every hard-core
# test), straddling the thresholds by a few ulps
STRADDLE = pytest.mark.parametrize("ulps", [4], ids=["as_is"])


def sq3(d):
    """Squared lengths over the last axis, as the hard-core tests summed
    them before they ran on one kernel."""
    return d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]


def verbatim_admissible_batch(self, q):
    """``admissible_batch`` with the per-pair loop that the kernel
    replaced."""
    tol = 1e-9 * self.domain.a
    ok = ~((q < self._ins_lo - tol) | (q > self._ins_hi + tol)).any(axis=(1, 2))
    a2 = (self.domain.a - tol) ** 2
    n = q.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            ok &= sq3(q[:, i] - q[:, j]) >= a2
    return ok


@STRADDLE
def test_admissible_batch_matches_scalar(modulated2, ulps):
    # against the old per-pair loop, in bulk and one row at a time (the
    # batches of place() and admissible), with one pair per row at the
    # threshold a - tol give or take a few ulps and rows past the walls
    tol = 1e-9 * A
    for n in (2, 3, 5):
        rng = np.random.default_rng(41 + n)
        q = near_contact_sets(rng, 3000, n, A - tol, ulps)
        # in every fifth row a center half, one or two tolerances past a wall
        w = np.arange(1, len(q), 5)
        out = rng.integers(0, 2, len(w))
        q[w, 0, rng.integers(0, 3, len(w))] = (np.where(out, 4.5, 0.5) + (2 * out - 1) * tol
                                               * rng.choice([0.5, 1.0, 2.0], len(w)))
        want = verbatim_admissible_batch(modulated2, q)
        assert differing_rows(modulated2.admissible_batch(q), want) == []
        assert differing_rows([modulated2.admissible(row) for row in q], want) == []
        assert 0 < want.sum() < len(want)


@pytest.mark.parametrize("spec_name", ["modulated3", "grand"])
def test_batched_evaluation_matches_eval_arrays(spec_name, monkeypatch):
    # values and stderrs of all rows, admissible or not, bit for bit against
    # the scalar evaluator, and the random stream left where it leaves it,
    # across blocks of a few rows; eval_arrays, the batch of one, too
    monkeypatch.setattr(measures, "_INNER_BLOCK", 300)
    if spec_name == "grand":
        ms = InitialMeasure(GrandCanonicalEq(50.0, 1.0), Domain(Vec3(0, 0, 0),
                            Vec3(2.5, 1.2, 1.2), A), norm_proposals=20_000)
    else:
        ms = InitialMeasure(ModulatedProduct(3, 1.0), BOX, norm_proposals=20_000)
    rho = correlation_map(ms, inner_samples=48)
    rng = np.random.default_rng(42)
    for n in range(1, ms.n_max + 1):
        q = ms.uniform_positions(rng, 200, n)
        p = rng.normal(size=(200, n, 3))
        r_batch, r_one, r_rows = (np.random.default_rng(n) for _ in range(3))
        got = np.stack(rho.eval_batch(q, p, r_batch), axis=1)
        want = [scalar_rho.eval_arrays(rho, q[i], p[i], r_rows) for i in range(len(q))]
        assert differing_rows(got, want) == []
        assert [rho.eval_arrays(q[i], p[i], r_one) for i in range(len(q))] == want
        assert r_batch.random() == r_one.random() == r_rows.random()


@STRADDLE
def test_exclusion_batch_near_contact_matches_scalar(ulps):
    ms = InitialMeasure(ModulatedProduct(3, 1.0), BOX, norm_proposals=20_000)
    rng = np.random.default_rng(43)
    base = 1.5 + rng.random((300, 1, 3)) * 2.0
    inner = ms.uniform_positions(rng, 300 * 16, 2).reshape(300, 16, 2, 3)
    inner[:, :8, 0] = touching(rng, 300 * 8, np.repeat(base[:, 0], 8, axis=0), A,
                               ulps).reshape(300, 8, 3)
    inner[:, 8:, 1] = touching(rng, 300 * 8, inner[:, 8:, 0].reshape(-1, 3), A,
                               ulps).reshape(300, 8, 3)
    got = np.stack(ms.exclusion_batch(base, inner), axis=1)
    want = [scalar_rho.exclusion_of(ms, inner[r], base[r]) for r in range(300)]
    assert differing_rows(got, want) == []


def verbatim_placement_weights(self, q_base, q):
    """``_placement_weights`` with the broadcast test that the kernel
    replaced."""
    m = q.shape[2]
    a2 = self.domain.a ** 2
    d2 = [sq3(q[:, :, :, None] - q_base[:, None, None])]
    d2 += [sq3(q[:, :, i, None] - q[:, :, i + 1:]) for i in range(m - 1)]
    ok = np.ones(q.shape[:2], dtype=bool)
    for d in d2:
        ok &= (d >= a2).all(axis=tuple(range(2, d.ndim)))
    return np.prod(self.g(q), axis=2) * ok


@pytest.mark.parametrize("n, m", [(0, 2), (1, 1), (1, 2), (2, 1), (2, 3)])
def test_placement_weights_match_verbatim_broadcast(modulated2, n, m):
    # a drawn center a few ulps either side of the diameter from a base
    # center, and the next drawn one from it: the weights equal the old
    # broadcast test's bit for bit
    rng = np.random.default_rng(49 + 10 * n + m)
    rows, k = 40, 16
    base = 0.5 + rng.random((rows, n, 3)) * 4.0
    inner = 0.5 + rng.random((rows, k, m, 3)) * 4.0
    if n:
        anchor = base[np.arange(rows)[:, None], rng.integers(0, n, (rows, k))]
        inner[:, :, 0] = touching(rng, rows * k, anchor.reshape(-1, 3), A).reshape(rows, k, 3)
    if m > 1:
        inner[:, :, 1] = touching(rng, rows * k, inner[:, :, 0].reshape(-1, 3),
                                  A).reshape(rows, k, 3)
    got = modulated2._placement_weights(base, inner)
    want = verbatim_placement_weights(modulated2, base, inner)
    assert differing_rows(got.ravel(), want.ravel()) == []
    assert 0 < (want > 0).sum() < want.size


def verbatim_pairwise_ok(q, a):
    """The all-pairs exclusion test that the coordinate-major kernel
    replaced, on a batch of position sets (B, n, 3)."""
    n = q.shape[1]
    ok = np.ones(q.shape[0], dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            ok &= sq3(q[:, i, :] - q[:, j, :]) >= a * a
    return ok


def verbatim_position_integral(self, n, proposals, rng):
    """The normalization loop that the in-place, blocked one replaced."""
    if n == 0:
        return (1.0, 0.0)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < proposals:
        b = min(measures._NORM_BATCH, proposals - done)
        q = self.uniform_positions(rng, b, n)
        w = np.prod(self.g(q), axis=1) * verbatim_pairwise_ok(q, self.domain.a)
        total += float(w.sum())
        total_sq += float((w * w).sum())
        done += b
    mean = total / done
    var = max(total_sq / done - mean * mean, 0.0)
    vol = self._ins_vol ** n
    return (vol * mean, vol * math.sqrt(var / done))


@pytest.mark.parametrize("spec, domain", [
    (ModulatedProduct(2, 1.0), BOX), (ModulatedProduct(3, 1.0), BOX),
    (ModulatedProduct(5, 1.0), BOX), (CanonicalEq(3, 1.0), BOX),
    (GrandCanonicalEq(50.0, 1.0), Domain(Vec3(0, 0, 0), Vec3(2.5, 1.2, 1.2), A)),
    (CanonicalEq(5, 1.0), BOX),
])
def test_normalization_matches_verbatim_loop(spec, domain, monkeypatch):
    # batches of 30,000 proposals with a short last one, and blocks that
    # do not divide them: every (Z, stderr) and the stream equal the old
    # loop's bit for bit
    monkeypatch.setattr(measures, "_NORM_BATCH", 30_000)
    monkeypatch.setattr(measures, "_NORM_BLOCK", 7_000)
    # a fixed-N measure normalizes on first read: read, after sampling,
    # before the loop is swapped in
    new = InitialMeasure(spec, domain, norm_proposals=71_000)
    new.sample_arrays(np.random.default_rng(1))
    new.z_rel_err
    blocked = InitialMeasure._position_integral
    monkeypatch.setattr(InitialMeasure, "_position_integral", verbatim_position_integral)
    old = InitialMeasure(spec, domain, norm_proposals=71_000)
    assert new._z_pos == old._z_pos
    assert new.z_rel_err == old.z_rel_err
    # straight from a generator, at a count below one batch
    rng_new, rng_old = np.random.default_rng(3), np.random.default_rng(3)
    assert (blocked(new, new.n_max, 20_000, rng_new)
            == verbatim_position_integral(old, old.n_max, 20_000, rng_old))
    assert rng_new.random() == rng_old.random()


def near_contact_sets(rng, rows, n, dist=A, ulps=4):
    """Position sets (rows, n, 3) in BOX with one pair per row at ``dist``
    give or take a few ulps: every third pair axis-aligned with exact
    coordinates (at ``dist`` exactly, as float rounds it, when the offset
    is 0), the others in a random direction."""
    q = 0.5 + rng.random((rows, n, 3)) * 4.0
    if n < 2:
        return q
    r = np.arange(rows)
    i = rng.integers(0, n, rows)
    j = (i + rng.integers(1, n, rows)) % n
    q[r, j] = touching(rng, rows, q[r, i], dist, ulps)
    e = r[::3]
    q[e, i[e]] = [1.5, 2.0, 2.0]
    q[e, j[e]] = [1.5 + dist, 2.0, 2.0]
    q[e, j[e], 0] += np.spacing(1.5 + dist) * rng.integers(-ulps, ulps + 1, len(e))
    return q


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("rows", [0, 1, measures._NORM_BLOCK + 1])
def test_clear_matches_verbatim_pairwise_ok(n, rows):
    # the coordinate-major kernel gives the old per-pair test's verdict on
    # pairs at the diameter and a few ulps either side of it
    q = near_contact_sets(np.random.default_rng(44 + n), rows, n)
    want = verbatim_pairwise_ok(q, A)
    got = measures._clear(np.ascontiguousarray(q.transpose(2, 1, 0)), A * A)
    assert differing_rows(got, want) == []
    if n > 1 and rows > 1:
        assert 0 < want.sum() < rows


@pytest.mark.parametrize("n", [2, 3, 5])
def test_clear_skips_only_pairs_among_the_fixed_centers(n):
    # for each fixed, the verdict is the old per-pair test on every pair
    # but those among the first fixed centers
    q = near_contact_sets(np.random.default_rng(45 + n), 2000, n)
    c = np.ascontiguousarray(q.transpose(2, 1, 0))
    for fixed in range(n + 1):
        want = np.ones(len(q), dtype=bool)
        for i in range(n):
            for j in range(max(i + 1, fixed), n):
                want &= sq3(q[:, i] - q[:, j]) >= A * A
        assert differing_rows(measures._clear(c, A * A, fixed), want) == []


def verbatim_probe_occupancy(self, cap, rng):
    """The occupancy probe before it ran on the kernel."""
    n = 0
    for k in range(1, cap + 1):
        q = self.uniform_positions(rng, 200_000, k)
        if not verbatim_pairwise_ok(q, self.domain.a).any():
            break
        n = k
    return n


@pytest.mark.parametrize("domain, cap, n_max", [
    (MICRO1, 4, 1), (Domain(Vec3(0, 0, 0), Vec3(2.5, 1.2, 1.2), A), 4, 2), (BOX, 3, 3),
])
def test_probe_occupancy_matches_verbatim_loop(domain, cap, n_max):
    ms = InitialMeasure(GrandCanonicalEq(50.0, 1.0), domain, norm_proposals=2_000)
    rng_new, rng_old = np.random.default_rng(46), np.random.default_rng(46)
    assert ms._probe_occupancy(cap, rng_new) == verbatim_probe_occupancy(ms, cap, rng_old) == n_max
    assert rng_new.random() == rng_old.random()


# two spheres fit only near opposite x ends of the inset box: about one
# uniform 2-sphere placement in 400 is admissible
TIGHT = Domain(Vec3(0, 0, 0), Vec3(2.05, 1.05, 1.05), A)


@pytest.fixture(scope="module")
def gc_tight():
    ms = InitialMeasure(GrandCanonicalEq(1e5, 1.0), TIGHT, norm_proposals=20_000)
    assert ms.n_max == 2
    return ms


def verbatim_grand_sample_arrays(self, rng, max_attempts=1000):
    """The grand-canonical draw that tested one placement at a time."""
    cdf = self.occupancy.cumsum()
    cdf /= cdf[-1]
    n = int(cdf.searchsorted(rng.random(), side="right"))
    if n == 0:
        return np.zeros((0, 3)), np.zeros((0, 3))
    attempts = 0
    while True:
        q = self.uniform_positions(rng, 1, n)[0]
        if self.admissible(q):
            break
        attempts += 1
        if attempts >= max_attempts * 100:
            raise RuntimeError("grand-canonical placement failed")
    return q, self.maxwellian.sample(rng, (n, 3))


def test_grand_placement_matches_verbatim_loop(gc_tight):
    # at max_attempts = 1 the cap is 100 placements, which most 2-sphere
    # draws reach: the draws, the draws that raise and the stream equal
    # the one-at-a-time loop's
    def outcomes(draw, rng):
        out = []
        for _ in range(200):
            try:
                q, p = draw(gc_tight, rng, 1)
                out.append((q.tolist(), p.tolist()))
            except RuntimeError:
                out.append("cap")
        return out, rng.random()

    got = outcomes(InitialMeasure.sample_arrays, np.random.default_rng(47))
    assert got == outcomes(verbatim_grand_sample_arrays, np.random.default_rng(47))
    # some 2-sphere draws reach the cap and some do not
    assert got[0].count("cap") > 0
    assert any(d != "cap" and len(d[0]) == 2 for d in got[0])


def test_placement_cap_trips_where_the_loop_does(gc_tight):
    # the loop first accepts placement j (0-based): a cap of j + 1 accepts
    # it, a cap of j raises with j placements drawn
    rng = np.random.default_rng(48)
    j = 0
    while not gc_tight.admissible(gc_tight.uniform_positions(rng, 1, 2)[0]):
        j += 1
    want_p = gc_tight.maxwellian.sample(rng, (2, 3))
    after = rng.random()
    assert j > 20
    rng = np.random.default_rng(48)
    q, p = gc_tight.place(rng, 2, j + 1)
    assert gc_tight.admissible(q) and np.array_equal(p, want_p)
    assert rng.random() == after
    rng = np.random.default_rng(48)
    with pytest.raises(RuntimeError, match=f"in {j} proposals"):
        gc_tight.place(rng, 2, j)
    ref = np.random.default_rng(48)
    ref.random((j, 2, 3))
    assert rng.random() == ref.random()


MICRO = Domain(Vec3(0, 0, 0), Vec3(2.5, 1.2, 1.2), A)


@pytest.fixture(scope="module")
def gc_shipped():
    """The grand-canonical checks' micro box and fugacity: about a tenth of
    the uniform 2-sphere placements are admissible."""
    ms = InitialMeasure(GrandCanonicalEq(50.0, 1.0), MICRO, norm_proposals=PROPOSALS)
    assert ms.n_max == 2 and ms._draws_in_margins
    return ms


def same_draws(ms, seed, draws):
    """Whether ``draws`` grand-canonical draws and the next random number
    equal the one-at-a-time loop's, shapes included; and the particle
    numbers drawn."""
    r_new, r_old = np.random.default_rng(seed), np.random.default_rng(seed)
    sizes = set()
    for _ in range(draws):
        (q, p), (q0, p0) = ms.sample_arrays(r_new), verbatim_grand_sample_arrays(ms, r_old)
        if not (q.shape == q0.shape == p.shape and np.array_equal(q, q0)
                and np.array_equal(p, p0)):
            return False, sizes
        sizes.add(len(q))
    return r_new.random() == r_old.random(), sizes


def test_lean_grand_draw_matches_verbatim_loop_in_the_micro_box(gc_shipped):
    # n = 0, 1 and 2 all drawn: equal arrays and (0, 3) shapes, and the
    # generator left where the loop leaves it
    for seed in range(50, 55):
        same, sizes = same_draws(gc_shipped, seed, 2000)
        assert same and sizes == {0, 1, 2}


def test_placement_edges_match_the_loop(gc_shipped):
    ms = gc_shipped
    # no centers draw nothing; a cap of no proposals raises before drawing
    rng, ref = np.random.default_rng(56), np.random.default_rng(56)
    q, p = ms.place(rng, 0)
    assert q.shape == p.shape == (0, 3)
    with pytest.raises(RuntimeError, match="^no admissible 1-sphere placement in 0 proposals$"):
        ms.place(rng, 1, 0)
    assert rng.random() == ref.random()
    # the loop first accepts the last placement of the first batch, or the
    # first of the second: the same placement, momenta and next number
    first = measures._PLACE_BATCH
    want = {first - 1: None, first: None}
    for seed in range(57, 1000):
        rng = np.random.default_rng(seed)
        j = 0
        while not ms.admissible(ms.uniform_positions(rng, 1, 2)[0]):
            j += 1
        if j in want and want[j] is None:
            want[j] = seed
            rng = np.random.default_rng(seed)
            q, p = ms.place(rng, 2)
            ref = np.random.default_rng(seed)
            q0 = ref.random((j + 1, 2, 3))[-1] * ms._ins_span + ms._ins_lo
            assert np.array_equal(q, q0)
            assert np.array_equal(p, ms.maxwellian.sample(ref, (2, 3)))
            assert rng.random() == ref.random()
        if None not in want.values():
            break
    assert None not in want.values()


class TopDraws:
    """A generator stub whose uniforms are all the largest that
    ``Generator.random`` returns, and whose normals are all 0."""

    def random(self, size):
        return np.full(size, measures._U_MAX)

    def normal(self, loc, scale, size):
        return np.zeros(size)


def test_margins_decide_where_draws_can_leave_them():
    # 1e-9 * a below an ulp of the inset coordinates: the tolerance widens
    # no bound, yet the largest draw is within the walls, and the lean
    # draw equals the loop
    tiny = 1e-8
    ms = InitialMeasure(GrandCanonicalEq(1.0, 1.0), Domain(Vec3(0, 0, 0), Vec3(2.5, 1.2, 1.2),
                                                           tiny), norm_proposals=2_000)
    assert np.array_equal(ms._ins_hi + 1e-9 * tiny, ms._ins_hi)
    top = ms.uniform_positions(TopDraws(), 1, 1)[0]
    assert ms._draws_in_margins and ms.admissible(top)
    assert np.array_equal(ms.place(TopDraws(), 1)[0], top)
    same, sizes = same_draws(ms, 58, 2000)
    assert same and {1, 2, 3, 4} <= sizes
    # a span that overflows: every draw leaves the walls, so place() tests
    # them, refuses the largest draw and raises after the cap, having
    # drawn as many placements as the cap
    with np.errstate(over="ignore"):
        huge = InitialMeasure(CanonicalEq(1, 1.0), Domain(Vec3(-1e308, 0, 0),
                                                          Vec3(1e308, 1.2, 1.2), A))
    assert not huge._draws_in_margins
    assert not huge.admissible(huge.uniform_positions(TopDraws(), 1, 1)[0])
    with pytest.raises(RuntimeError, match="^no admissible 1-sphere placement in 1 proposals$"):
        huge.place(TopDraws(), 1, 1)
    rng, ref = np.random.default_rng(59), np.random.default_rng(59)
    with pytest.raises(RuntimeError, match="^no admissible 1-sphere placement in 100 proposals$"):
        huge.place(rng, 1, 100)
    ref.random((100, 1, 3))
    assert rng.random() == ref.random()
