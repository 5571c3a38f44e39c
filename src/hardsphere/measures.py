"""Initial measures on hard-sphere phase space and their correlation maps.

All supported measures factor into a position weight (hard-core indicator
times an optional smooth spatial modulation) and independent Maxwellian
momenta.  Momentum integrals are then exact and only position-space
exclusion integrals need Monte Carlo: the partition constants are
estimated once per measure with at least NORM_PROPOSALS proposals and
cached together with their standard error, which downstream checks fold
into their error budgets.  A fixed-N measure estimates its one on first
read, since sampling needs the density only up to a constant; a
grand-canonical one at construction, since its sampler reads the
occupancy they give.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from hardsphere.geometry import Configuration, Domain, PhasePoint, Vec3
from hardsphere.stats import falling_factorial

NORM_PROPOSALS = 1_000_000
INNER_SAMPLES = 192
GC_OCCUPANCY_CAP = 4
_NORM_BATCH = 250_000
# Proposal rows mapped and weighed at a time within a normalization batch,
# so that the block's temporaries stay in cache.
_NORM_BLOCK = 4096
# Inner positions drawn and evaluated per block by
# CorrelationVector.eval_batch; bounds its uniforms and inner positions to a
# few MB whatever the number of rows (the hard-core kernel's
# coordinate-major copy of a block's centers included).
_INNER_BLOCK = 1 << 16
# the seed of every measure's normalization stream
_NORM_SEED = 2_0250_101
# placements that ``place`` tests in its first batch; later batches double.
# Not part of the stream: the generator is rewound to the accepted one.
_PLACE_BATCH = 8
# the largest uniform that Generator.random returns
_U_MAX = 1.0 - 2.0 ** -53


@dataclass(frozen=True, slots=True)
class Maxwellian:
    """Normalized Gaussian momentum density at inverse temperature beta."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    @property
    def sigma(self) -> float:
        return 1.0 / math.sqrt(self.beta)

    def pdf(self, p: np.ndarray) -> np.ndarray:
        """Density at momenta with shape (..., 3)."""
        p = np.asarray(p, dtype=float)
        norm = (self.beta / (2.0 * math.pi)) ** 1.5
        return norm * np.exp(-0.5 * self.beta * np.sum(p * p, axis=-1))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.normal(0.0, self.sigma, size=size)

    def box_prob(self, lo, hi) -> float:
        """Exact probability of an axis-aligned momentum box."""
        s = math.sqrt(self.beta / 2.0)
        out = 1.0
        for a, b in zip(lo, hi):
            out *= 0.5 * (math.erf(s * b) - math.erf(s * a))
        return out


# ---------------------------------------------------------------------------
# density specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CanonicalEq:
    """Hard-core exclusion with uniform positions and Maxwellian momenta."""

    n_particles: int
    beta: float


@dataclass(frozen=True, slots=True)
class GrandCanonicalEq:
    """Fugacity-weighted mixture over particle numbers, Eq-of-state free."""

    z: float
    beta: float
    n_cap: int = GC_OCCUPANCY_CAP


@dataclass(frozen=True, slots=True)
class ModulatedProduct:
    """Spatially modulated product measure: positions weighted by a strictly
    positive closed-form g, momenta Maxwellian at a common beta.

    Because momenta enter only through the product of Maxwellians, which
    both collision laws preserve, the density is automatically continuous
    along trajectories.
    """

    n_particles: int
    beta: float
    g_choice: str = "cos_x"
    g_amplitude: float = 0.5

    def __post_init__(self):
        if self.g_choice not in ("uniform", "cos_x"):
            raise ValueError(f"unknown g_choice {self.g_choice!r}")
        if not 0.0 <= self.g_amplitude < 1.0:
            raise ValueError("g_amplitude must be in [0, 1) to keep g positive")


DensitySpec = CanonicalEq | GrandCanonicalEq | ModulatedProduct


def _g_factory(spec, domain: Domain):
    """Position weight as a vectorized function of (..., 3) arrays."""
    choice = getattr(spec, "g_choice", "uniform")
    amp = getattr(spec, "g_amplitude", 0.0)
    if choice == "uniform" or amp == 0.0:
        return (lambda q: np.ones(np.asarray(q).shape[:-1])), 1.0
    lo_x = domain.lower.x
    length_x = domain.upper.x - domain.lower.x

    def g(q):
        q = np.asarray(q, dtype=float)
        return 1.0 + amp * np.cos(math.pi * (q[..., 0] - lo_x) / length_x)

    return g, 1.0 + amp


def _clear(c: np.ndarray, a2: float, fixed: int = 0) -> np.ndarray:
    """The hard-core test on contiguous coordinate-major centers c
    (3, n, L): True where every pair is at squared distance a2 or more,
    except pairs among the first ``fixed`` centers, which are not tested.
    Every hard-core test of the measures runs here, each squared distance
    summed dx*dx + dy*dy + dz*dz, so a configuration near a threshold gets
    one verdict.  Most calls have a few rows, so nothing is written in
    place into a one-element array, where numpy's aliased ``out=`` costs
    twice a new array; the (3, L) difference never has one element."""
    ok = np.empty(c.shape[2], dtype=bool)
    ok.fill(True)   # a third of np.ones' cost on one row
    for j in range(max(fixed, 1), c.shape[1]):
        for i in range(j):
            d = c[:, i] - c[:, j]
            d *= d
            ok = ok & (d[0] + d[1] + d[2] >= a2)
    return ok


class InitialMeasure:
    """A density specification bound to a domain, with cached normalization.

    The normalization comes from the measure's own stream, so it is the
    same whenever it is computed.  Immutable after construction but for
    that cache; samplers take an explicit RNG so that parallel workers
    just use independently seeded streams.
    """

    def __init__(self, spec: DensitySpec, domain: Domain,
                 norm_proposals: int = NORM_PROPOSALS):
        self.spec = spec
        self.domain = domain
        self.beta = spec.beta
        self.maxwellian = Maxwellian(spec.beta)
        self.g, self.g_max = _g_factory(spec, domain)
        self._ins_lo = np.array(domain.inset_lower)
        self._ins_hi = np.array(domain.inset_upper)
        self._ins_span = self._ins_hi - self._ins_lo
        self._ins_vol = domain.inset_volume
        # admissible_batch's coordinate-major wall bounds and squared
        # diameter, each widened by a tolerance so that contact counts
        tol = 1e-9 * domain.a
        self._margins = ((self._ins_lo - tol)[:, None, None],
                         (self._ins_hi + tol)[:, None, None], (domain.a - tol) ** 2)
        # Whether every center that uniform_positions draws passes the wall
        # test, so that place() may skip it.  Both roundings in lo + u * span
        # are monotone in u, so the largest draw is at _U_MAX and the
        # smallest is lo itself; with round to nearest the largest is at
        # most hi unless the span overflows, but it is tested, not assumed.
        self._draws_in_margins = bool(
            (self._ins_lo + _U_MAX * self._ins_span <= self._margins[1].ravel()).all())
        self._norm_proposals = norm_proposals
        if isinstance(spec, GrandCanonicalEq):
            rng = self._norm_rng()
            self.n_max = self._probe_occupancy(spec.n_cap, rng)
            self._z_pos = {0: (1.0, 0.0)}
            for n in range(1, self.n_max + 1):
                self._z_pos[n] = self._position_integral(n, norm_proposals, rng)
            weights = [spec.z ** n * self._z_pos[n][0] / math.factorial(n)
                       for n in range(self.n_max + 1)]
            errs = [spec.z ** n * self._z_pos[n][1] / math.factorial(n)
                    for n in range(self.n_max + 1)]
            total = sum(weights)
            self.grand_partition = total
            self.occupancy = np.array(weights) / total
            # the cdf that rng.choice(p=occupancy) builds on every call, as
            # floats for bisect_right, the index of searchsorted(side="right")
            cdf = self.occupancy.cumsum()
            self._occupancy_cdf = (cdf / cdf[-1]).tolist()
            self.z_rel_err = math.sqrt(sum(e * e for e in errs)) / total
        else:
            self.n_max = spec.n_particles

    # -- normalization machinery -------------------------------------------

    def _norm_rng(self) -> np.random.Generator:
        """A new generator on the measure's normalization stream."""
        return np.random.default_rng(np.random.SeedSequence((_NORM_SEED, self._norm_proposals)))

    # A grand-canonical measure sets these two in __init__, which shadows
    # the cached properties; a fixed-N one computes them on first read.
    @cached_property
    def _z_pos(self) -> dict[int, tuple[float, float]]:
        """The position integral of each particle number with its standard
        error; a fixed-N measure has the one of N."""
        n = self.n_max
        z = self._position_integral(n, self._norm_proposals, self._norm_rng())
        if z[0] <= 0.0:
            raise ValueError(f"box cannot fit {n} spheres of diameter {self.domain.a}")
        return {n: z}

    @cached_property
    def z_rel_err(self) -> float:
        z, ze = self._z_pos[self.n_max]
        return ze / z

    def uniform_positions(self, rng, count: int, n: int) -> np.ndarray:
        """Uniform center proposals in the inset box, shape (count, n, 3)."""
        u = rng.random((count, n, 3))
        return self._ins_lo + u * self._ins_span

    def _position_integral(self, n: int, proposals: int, rng) -> tuple[float, float]:
        """MC estimate of the n-particle position integral of prod g with
        hard-core exclusion, with its standard error."""
        if n == 0:
            return (1.0, 0.0)
        total = 0.0
        total_sq = 0.0
        done = 0
        # the proposals of a batch as ``uniform_positions`` draws them,
        # weighed block by block; one sum per batch
        u = np.empty((min(_NORM_BATCH, proposals), n, 3))
        w = np.empty(len(u))
        uniform = self.g_max == 1.0
        while done < proposals:
            b = min(_NORM_BATCH, proposals - done)
            rng.random(out=u[:b])
            for r, c, ok in self._clear_blocks(u[:b]):
                # prod g is 1 for uniform g, so the weight is the indicator
                w[r:r + len(ok)] = (ok if uniform else
                                    np.prod(self.g(c.transpose(1, 2, 0)), axis=0) * ok)
            total += float(w[:b].sum())
            total_sq += float((w[:b] * w[:b]).sum())
            done += b
        mean = total / done
        var = max(total_sq / done - mean * mean, 0.0)
        vol = self._ins_vol ** n
        return (vol * mean, vol * math.sqrt(var / done))

    def _probe_occupancy(self, cap: int, rng) -> int:
        """Largest particle number the box geometrically admits (MC probe,
        capped for desk scale)."""
        n = 0
        for k in range(1, cap + 1):
            u = rng.random((200_000, k, 3))
            if not any(ok.any() for _, _, ok in self._clear_blocks(u)):
                break
            n = k
        return n

    def _clear_blocks(self, u: np.ndarray):
        """For each block of ``_NORM_BLOCK`` rows of uniforms u (b, n, 3):
        its first row, its centers mapped to the inset box as
        ``uniform_positions`` maps them, in one reused coordinate-major
        (3, n, L) buffer, and its hard-core mask."""
        n = u.shape[1]
        buf = np.empty((3, n, min(_NORM_BLOCK, len(u))))
        span = self._ins_span[:, None, None]
        lo = self._ins_lo[:, None, None]
        a2 = self.domain.a * self.domain.a
        for r in range(0, len(u), _NORM_BLOCK):
            blk = u[r:r + _NORM_BLOCK]
            c = buf[:, :, :len(blk)]
            np.multiply(blk.transpose(2, 1, 0), span, out=c)
            c += lo
            yield r, c, _clear(c, a2)

    def position_partition(self, n: int) -> tuple[float, float]:
        return self._z_pos.get(n, (0.0, 0.0))

    # -- admissibility on arrays --------------------------------------------

    def admissible(self, q: np.ndarray) -> bool:
        """Hard-core and wall-margin test for one position set (n, 3);
        contact counts as admissible."""
        return bool(self.admissible_batch(np.asarray(q, dtype=float)[None])[0])

    def admissible_batch(self, q: np.ndarray) -> np.ndarray:
        """``admissible`` for each row of (B, n, 3) position sets."""
        c = np.ascontiguousarray(q.transpose(2, 1, 0))
        lo, hi, a2 = self._margins
        return ~((c < lo) | (c > hi)).any(axis=(0, 1)) & _clear(c, a2)

    # -- the spec operations --------------------------------------------------

    def density(self, config: Configuration) -> float:
        """f at a configuration, hard-core indicator included."""
        return self.density_arrays(*config_to_arrays(config))

    def density_arrays(self, q: np.ndarray, p: np.ndarray) -> float:
        n = len(q)
        if isinstance(self.spec, GrandCanonicalEq):
            if n > self.n_max or not self.admissible(q):
                return 0.0
            base = self.spec.z ** n / self.grand_partition
        else:
            if n != self.spec.n_particles or not self.admissible(q):
                return 0.0
            base = 1.0 / self._z_pos[n][0]
        gw = float(np.prod(self.g(q))) if n else 1.0
        hw = float(np.prod(self.maxwellian.pdf(p))) if n else 1.0
        return base * gw * hw

    def sample_batch(self, rng: np.random.Generator, count: int,
                     max_attempts: int = 1000) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` configurations for a fixed particle number
        (canonical variants): returns positions and momenta arrays
        (count, N, 3).  Rejection against the spatial weight and the hard
        core; raises after 64 * max_attempts consecutive rejected
        proposals, whatever ``count`` is."""
        if isinstance(self.spec, GrandCanonicalEq):
            raise TypeError("sample_batch needs a fixed particle number")
        n = self.spec.n_particles
        out = []
        got = 0
        rejected = 0
        while got < count:
            b = max(2 * (count - got), 64)
            q = self.uniform_positions(rng, b, n)
            accept = _clear(np.ascontiguousarray(q.transpose(2, 1, 0)),
                            self.domain.a * self.domain.a)
            if self.g_max > 1.0:
                gprod = np.prod(self.g(q), axis=1) / self.g_max ** n
                accept &= rng.random(b) < gprod
            sel = q[accept]
            if len(sel):
                out.append(sel[: count - got])
                got += len(out[-1])
                rejected = 0
            else:
                rejected += b
                if rejected >= 64 * max_attempts:
                    raise RuntimeError(
                        f"no admissible {n}-sphere placement in {rejected} proposals"
                    )
        qs = np.concatenate(out) if len(out) > 1 else out[0]
        ps = self.maxwellian.sample(rng, (count, n, 3))
        return qs, ps

    def sample_arrays(self, rng: np.random.Generator,
                      max_attempts: int = 1000) -> tuple[np.ndarray, np.ndarray]:
        """Positions and momenta (n, 3) of one configuration distributed
        per the measure.  Grand-canonical variants first draw the particle
        number from the induced occupancy distribution with one uniform,
        then ``place`` n centers with a cap of 100 * max_attempts
        proposals, which consumes the stream as a one-at-a-time loop does
        and tests the walls wherever a draw could leave them; a fixed-N
        one is ``sample_batch`` of one."""
        if isinstance(self.spec, GrandCanonicalEq):
            n = bisect_right(self._occupancy_cdf, rng.random())
            return self.place(rng, n, max_attempts * 100)
        q, p = self.sample_batch(rng, 1, max_attempts)
        return q[0], p[0]

    def place(self, rng: np.random.Generator, n: int,
              attempts: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
        """The first admissible one of uniform placements of n centers
        drawn one after another, then its Maxwellian momenta; raises
        RuntimeError once ``attempts`` placements (proposals) have failed.

        The stream is consumed exactly as by a loop that draws and tests
        one placement at a time: the same uniforms, the same position of
        the generator afterwards, and ``attempts`` placements drawn before
        it raises.  No centers draw nothing.  Where every inset draw is
        within the wall margins (established once per measure, exactly),
        one center is never tested and more are tested on the hard core
        alone; elsewhere the walls are tested as ``admissible`` tests them.
        Placements are tested in batches of 8, 16, 32, ...; the generator
        is then rewound and the placements up to the accepted one are
        drawn again."""
        if n == 0:
            return np.zeros((0, 3)), np.zeros((0, 3))
        if n == 1 and attempts > 0 and self._draws_in_margins:
            q = self._ins_lo + rng.random((1, 3)) * self._ins_span
            return q, self.maxwellian.sample(rng, (1, 3))
        a2 = self._margins[2]
        tried = 0
        k = _PLACE_BATCH
        while tried < attempts:
            k = min(k, attempts - tried)
            # a batch of one is never rewound
            state = rng.bit_generator.state if k > 1 else None
            q = self.uniform_positions(rng, k, n)
            ok = (_clear(np.ascontiguousarray(q.transpose(2, 1, 0)), a2)
                  if self._draws_in_margins else self.admissible_batch(q))
            j = int(ok.argmax())
            if ok[j]:
                if j + 1 < k:
                    rng.bit_generator.state = state
                    rng.random((j + 1, n, 3))
                return q[j], self.maxwellian.sample(rng, (n, 3))
            tried += k
            k *= 2
        raise RuntimeError(f"no admissible {n}-sphere placement in {attempts} proposals")

    def sample(self, rng: np.random.Generator, max_attempts: int = 1000) -> Configuration:
        """``sample_arrays`` as a Configuration."""
        return config_from_arrays(*self.sample_arrays(rng, max_attempts), self.domain)

    # -- exclusion integrals for correlation evaluation -----------------------

    def exclusion_integral(self, q_base: np.ndarray, m: int, rng,
                           samples: int = INNER_SAMPLES) -> tuple[float, float]:
        """MC estimate with standard error of the integral over m extra
        positions of prod g, restricted to placements compatible with the
        fixed centers q_base and with each other: ``exclusion_batch`` on
        one row."""
        if m == 0:
            return (1.0, 0.0)
        q_base = np.asarray(q_base, dtype=float).reshape(1, -1, 3)
        mean, se = self.exclusion_batch(q_base, self.uniform_positions(rng, samples, m)[None])
        return (float(mean[0]), float(se[0]))

    def exclusion_batch(self, q_base: np.ndarray,
                        q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exclusion integral of each row over its drawn positions,
        with its inner-sample standard error (0 for one sample): q_base
        (R, n, 3), q (R, samples, m, 3) with m >= 1."""
        samples, m = q.shape[1:3]
        w = self._placement_weights(q_base, q)
        vol = self._ins_vol ** m
        se = w.std(axis=1, ddof=1) / math.sqrt(samples) if samples > 1 else np.zeros(len(w))
        return vol * w.mean(axis=1), vol * se

    def _placement_weights(self, q_base: np.ndarray, q: np.ndarray) -> np.ndarray:
        """prod g of each drawn placement q (R, samples, m, 3), zero where it
        overlaps the base centers q_base (R, n, 3) or itself."""
        rows, k, m = q.shape[:3]
        n = q_base.shape[1]
        # the base centers, then the drawn ones, of each placement
        c = np.empty((3, n + m, rows, k))
        c[:, :n] = q_base.transpose(2, 1, 0)[..., None]
        c[:, n:] = q.transpose(3, 2, 0, 1)
        ok = _clear(c.reshape(3, n + m, rows * k), self.domain.a ** 2, n)
        return np.prod(self.g(q), axis=2) * ok.reshape(rows, k)


def config_from_arrays(q: np.ndarray, p: np.ndarray, domain: Domain) -> Configuration:
    pts = tuple(
        PhasePoint(Vec3(float(q[i, 0]), float(q[i, 1]), float(q[i, 2])),
                   Vec3(float(p[i, 0]), float(p[i, 1]), float(p[i, 2])))
        for i in range(len(q))
    )
    return Configuration(pts, domain)


def config_to_arrays(config: Configuration) -> tuple[np.ndarray, np.ndarray]:
    q = np.array([pt.q.as_tuple() for pt in config.particles], dtype=float).reshape(-1, 3)
    p = np.array([pt.p.as_tuple() for pt in config.particles], dtype=float).reshape(-1, 3)
    return q, p


# ---------------------------------------------------------------------------
# correlation-function vector and its inverse
# ---------------------------------------------------------------------------

class CorrelationVector:
    """Pointwise-evaluatable correlation functions of an initial measure.

    Level n is the falling-factorial-weighted n-particle marginal for
    fixed-N measures, or the fugacity series over added particles in the
    grand-canonical case.  Every evaluation returns (value, stderr); the
    shared normalization uncertainty is exposed separately as z_rel_err
    because it is correlated across evaluations.
    """

    def __init__(self, measure: InitialMeasure, inner_samples: int = INNER_SAMPLES):
        self.measure = measure
        self.inner_samples = inner_samples
        self.n_max = measure.n_max
        self.z_rel_err = measure.z_rel_err

    def eval_arrays(self, q: np.ndarray, p: np.ndarray, rng,
                    inner_samples: int | None = None) -> tuple[float, float]:
        """Level len(q) at one configuration (n, 3) with its inner-sample
        standard error: ``eval_batch`` on one row."""
        val, se = self.eval_batch(q[None], p[None], rng, inner_samples)
        return (float(val[0]), float(se[0]))

    def _inner_sizes(self, n: int) -> list[int]:
        """Extra positions m >= 1 of each exclusion integral that an
        n-particle evaluation draws, in the order it draws them."""
        if isinstance(self.measure.spec, GrandCanonicalEq):
            return list(range(1, self.n_max - n + 1))
        extra = self.measure.spec.n_particles - n
        return [extra] if extra > 0 else []

    def eval_batch(self, q: np.ndarray, p: np.ndarray, rng,
                   inner_samples: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The values at B configurations (B, n, 3) and their inner-sample
        standard errors; 0 at the rows that are inadmissible or have
        n > n_max, which draw nothing.  The admissible rows draw their
        inner samples from ``rng`` in row order, so that the B rows consume
        the stream as B calls of ``eval_arrays`` do; a block of rows at a
        time is drawn and evaluated, which bounds its uniforms and inner
        positions."""
        ms = self.measure
        k = inner_samples if inner_samples is not None else self.inner_samples
        n = q.shape[1]
        sizes = self._inner_sizes(n)
        out = np.zeros((2, len(q)))
        rows = (np.flatnonzero(ms.admissible_batch(q)) if n <= self.n_max
                else np.zeros(0, dtype=int))
        step = max(1, _INNER_BLOCK // (k * sum(sizes))) if sizes else max(1, len(rows))
        spec = ms.spec
        for b in range(0, len(rows), step):
            r = rows[b:b + step]
            u = rng.random((len(r), 3 * k * sum(sizes)))
            # mapped in place to the inner positions, as uniform_positions maps
            pos = u.reshape(-1, 3)
            pos *= ms._ins_span
            pos += ms._ins_lo
            # each size's exclusion integrals and their stderrs
            ex, off = {}, 0
            for m in sizes:
                ex[m] = ms.exclusion_batch(q[r], u[:, off:off + 3 * k * m].reshape(-1, k, m, 3))
                off += 3 * k * m
            # the products over no particles are 1
            gw = np.prod(ms.g(q[r]), axis=1)
            hw = np.prod(ms.maxwellian.pdf(p[r]), axis=1)
            if isinstance(spec, GrandCanonicalEq):
                # the fugacity sum; at m = 0 the integral is 1 without error
                val, var = spec.z ** n, 0.0
                for m in sizes:
                    c = spec.z ** (n + m) / math.factorial(m)
                    val = val + c * ex[m][0]
                    se = c * ex[m][1]
                    var = var + se * se
                scale = gw * hw / ms.grand_partition
                out[:, r] = scale * val, scale * np.sqrt(var)
            else:
                big_n = spec.n_particles
                em, se = ex[big_n - n] if sizes else (1.0, 0.0)
                scale = falling_factorial(big_n, n) * gw * hw / ms.position_partition(big_n)[0]
                out[:, r] = scale * em, scale * se
        return out[0], out[1]


def correlation_map(measure: InitialMeasure,
                    inner_samples: int = INNER_SAMPLES) -> CorrelationVector:
    """The map from a density to its correlation-function vector."""
    return CorrelationVector(measure, inner_samples)


class InverseDensity:
    """Alternating-series inverse of a correlation vector.

    Evaluates the density level n as the signed sum over integrals of
    higher correlation levels; integrals are MC with uniform positions and
    Maxwellian proposal momenta at the measure's beta, each level's outer
    samples evaluated in one batch.
    """

    def __init__(self, rho: CorrelationVector, outer_samples: int = 256):
        if outer_samples < 2:
            raise ValueError(f"outer_samples must be at least 2, got {outer_samples}")
        self.rho = rho
        self.measure = rho.measure
        self.outer_samples = outer_samples
        self.n_max = rho.n_max

    def eval_arrays(self, q: np.ndarray, p: np.ndarray, rng) -> tuple[float, float]:
        """Density level len(q) at one configuration with its standard
        error; the correlation values draw their inner samples from a
        generator spawned from ``rng``."""
        ms = self.measure
        n = len(q)
        prop = ms.maxwellian
        inner = rng.spawn(1)[0]
        total, se = self.rho.eval_arrays(q, p, inner)
        var = se * se
        ko = self.outer_samples
        for m in range(1, self.n_max - n + 1):
            qx = ms.uniform_positions(rng, ko, m)
            px = prop.sample(rng, (ko, m, 3))
            vq = np.concatenate([np.broadcast_to(q.reshape(-1, 3), (ko, n, 3)), qx], axis=1)
            vp = np.concatenate([np.broadcast_to(p.reshape(-1, 3), (ko, n, 3)), px], axis=1)
            vals = self.rho.eval_batch(vq, vp, inner)[0] / np.prod(prop.pdf(px), axis=1)
            vol = ms.domain.inset_volume ** m
            sign = (-1.0) ** m / math.factorial(m)
            total += sign * vol * float(vals.mean())
            w = vol / math.factorial(m)
            var += w * w * float(vals.var(ddof=1)) / ko
        return (total, math.sqrt(var))


def inverse_correlation_map(rho: CorrelationVector, outer_samples: int = 256) -> InverseDensity:
    return InverseDensity(rho, outer_samples)


# ---------------------------------------------------------------------------
# plain-text serialization of density blocks (versioned schema)
# ---------------------------------------------------------------------------

def spec_to_block(spec: DensitySpec, domain: Domain, seed: int | None = None) -> dict:
    block = {
        "box": [*domain.lower.as_tuple(), *domain.upper.as_tuple()],
        "a": domain.a,
        "beta": spec.beta,
    }
    if isinstance(spec, CanonicalEq):
        block["variant"] = "canonical"
        block["n"] = spec.n_particles
    elif isinstance(spec, GrandCanonicalEq):
        block["variant"] = "grand_canonical"
        block["z"] = spec.z
        block["n_cap"] = spec.n_cap
    else:
        block["variant"] = "modulated"
        block["n"] = spec.n_particles
        block["g_choice"] = spec.g_choice
        block["g_amplitude"] = spec.g_amplitude
    if seed is not None:
        block["seed"] = seed
    return block


def spec_from_block(block: dict) -> tuple[DensitySpec, Domain]:
    box = [float(v) for v in block["box"]]
    domain = Domain(Vec3(*box[:3]), Vec3(*box[3:]), float(block["a"]))
    beta = float(block["beta"])
    variant = block["variant"]
    if variant == "canonical":
        spec: DensitySpec = CanonicalEq(int(block["n"]), beta)
    elif variant == "grand_canonical":
        spec = GrandCanonicalEq(float(block["z"]), beta,
                                int(block.get("n_cap", GC_OCCUPANCY_CAP)))
    elif variant == "modulated":
        spec = ModulatedProduct(int(block["n"]), beta,
                                str(block.get("g_choice", "cos_x")),
                                float(block.get("g_amplitude", 0.5)))
    else:
        raise ValueError(f"unknown density variant {variant!r}")
    return spec, domain


@lru_cache(maxsize=64)
def get_measure(spec: DensitySpec, domain: Domain,
                norm_proposals: int = NORM_PROPOSALS) -> InitialMeasure:
    """Cached measure factory: normalization constants are computed once
    per (spec, domain) in each process, a fixed-N measure's on first read,
    from a fixed normalization stream, so parallel workers agree bit for
    bit.  A forked worker inherits what its parent had computed before
    the fork; ``checks`` reads the partition function before the pool forks
    for every measure whose chunks read it in a worker."""
    return InitialMeasure(spec, domain, norm_proposals)
