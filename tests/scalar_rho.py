"""The scalar correlation evaluator that ``CorrelationVector.eval_batch``
replaced, kept verbatim as the oracle of the batch path: one
configuration at a time, each exclusion integral drawing its own inner
samples.  Also the inverse map's loop over its outer samples."""

import math

import numpy as np

from hardsphere.measures import INNER_SAMPLES, GrandCanonicalEq, Maxwellian, config_to_arrays


def exclusion_integral(ms, q_base, m, rng, samples=INNER_SAMPLES):
    """MC estimate with standard error of the integral over m extra
    positions of prod g, restricted to placements compatible with the
    fixed centers q_base and with each other."""
    if m == 0:
        return (1.0, 0.0)
    return exclusion_of(ms, ms.uniform_positions(rng, samples, m), q_base)


def exclusion_of(ms, q, q_base):
    """exclusion_integral over the drawn positions q (samples, m, 3), each
    placement weighed with its own arithmetic: prod g times the indicator
    that every drawn center is at squared distance a^2 or more, summed
    dx*dx + dy*dy + dz*dz, from each base center and each other."""
    samples, m = q.shape[:2]
    q_base = np.asarray(q_base, dtype=float).reshape(-1, 3)
    a2 = ms.domain.a ** 2
    ok = np.ones(samples, dtype=bool)
    for j in range(m):
        for other in [*q_base, *(q[:, i] for i in range(j))]:
            d = other - q[:, j]
            ok &= d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2] >= a2
    vals = np.prod(ms.g(q), axis=1) * ok
    vol = ms._ins_vol ** m
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return (vol * mean, vol * se)


def eval_arrays(rho, q, p, rng, inner_samples=None):
    ms = rho.measure
    k = inner_samples if inner_samples is not None else rho.inner_samples
    n = len(q)
    if n > rho.n_max or not ms.admissible(q):
        return (0.0, 0.0)
    gw = float(np.prod(ms.g(q))) if n else 1.0
    hw = float(np.prod(ms.maxwellian.pdf(p))) if n else 1.0
    spec = ms.spec
    if isinstance(spec, GrandCanonicalEq):
        val = 0.0
        var = 0.0
        for m in range(0, rho.n_max - n + 1):
            em, se = exclusion_integral(ms, q, m, rng, k)
            c = spec.z ** (n + m) / math.factorial(m)
            val += c * em
            var += (c * se) * (c * se)
        scale = gw * hw / ms.grand_partition
        return (scale * val, scale * math.sqrt(var))
    big_n = spec.n_particles
    ff = 1.0
    for i in range(n):
        ff *= big_n - i
    em, se = exclusion_integral(ms, q, big_n - n, rng, k)
    scale = ff * gw * hw / ms.position_partition(big_n)[0]
    return (scale * em, scale * se)


def eval_config(rho, config, rng, inner_samples=None):
    q, p = config_to_arrays(config)
    return eval_arrays(rho, q, p, rng, inner_samples)


def inverse_eval_arrays(inv, q, p, rng):
    """``InverseDensity.eval_arrays``, one outer sample at a time; the
    correlation values draw their inner samples from a generator spawned
    from ``rng``."""
    ms = inv.measure
    inner = rng.spawn(1)[0]
    n = len(q)
    prop = Maxwellian(ms.beta)
    total = 0.0
    var = 0.0
    for m in range(0, inv.n_max - n + 1):
        if m == 0:
            v, se = eval_arrays(inv.rho, q, p, inner)
            total += v
            var += se * se
            continue
        ko = inv.outer_samples
        qx = ms.uniform_positions(rng, ko, m)
        px = prop.sample(rng, (ko, m, 3))
        weights = np.prod(prop.pdf(px), axis=1)
        vals = np.empty(ko)
        for i in range(ko):
            vq = np.concatenate([q.reshape(-1, 3), qx[i]])
            vp = np.concatenate([p.reshape(-1, 3), px[i]])
            ri, _ = eval_arrays(inv.rho, vq, vp, inner)
            vals[i] = ri / weights[i]
        vol = ms.domain.inset_volume ** m
        sign = (-1.0) ** m / math.factorial(m)
        total += sign * vol * float(vals.mean())
        w = vol / math.factorial(m)
        var += w * w * float(vals.var(ddof=1)) / ko
    return (total, math.sqrt(var))
