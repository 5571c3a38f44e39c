"""Flow under a ceiling function over a measure-preserving base map.

The phase space is the region under the graph of a positive ceiling h
over a base B; the flow moves points straight up and drops them onto the
image of the base map when they reach the ceiling.  Each drop is a
"collision", and the expected number of collisions up to time t equals
t times the base measure, whatever the base map and ceiling.  This is the
abstract model behind the hard-sphere collision-rate identity, verified
here exactly on finite-atom bases and by quadrature on interval bases.

The under-graph measure mu(dx) x dy is used unnormalized, so the identity
reads sum_m P{tau_m <= t} = t mu(B) literally.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Ceiling:
    """Closed-form positive ceiling on the unit interval:
    h(x) = base + amp * cos(2 pi freq x)."""

    base: float
    amp: float = 0.0
    freq: int = 1

    def __post_init__(self):
        if not self.base - abs(self.amp) > 0.0:
            raise ValueError("ceiling must stay strictly positive")

    def __call__(self, x: float) -> float:
        if self.amp == 0.0:
            return self.base
        return self.base + self.amp * math.cos(2.0 * math.pi * self.freq * x)


@dataclass(frozen=True, slots=True)
class AtomBase:
    """Finite weighted base with a mass-preserving permutation and
    per-atom ceilings."""

    masses: tuple[float, ...]
    perm: tuple[int, ...]
    ceilings: tuple[float, ...]

    def __post_init__(self):
        k = len(self.masses)
        if sorted(self.perm) != list(range(k)) or len(self.ceilings) != k:
            raise ValueError("perm must permute the atoms; one ceiling per atom")
        if any(h <= 0.0 for h in self.ceilings):
            raise ValueError("ceilings must be positive")
        for i in range(k):
            if self.masses[self.perm[i]] != self.masses[i]:
                raise ValueError("permutation must preserve the atom masses")

    @property
    def total_mass(self) -> float:
        return sum(self.masses)


@dataclass(frozen=True, slots=True)
class RotationBase:
    """Unit interval with Lebesgue measure and rotation by alpha."""

    alpha: float
    mass: float = 1.0

    @property
    def total_mass(self) -> float:
        return self.mass


@dataclass(frozen=True, slots=True)
class ExchangeBase:
    """Interval exchange: the segments cut at ``breaks`` are rearranged in
    the order given by ``perm`` (a permutation of the segments)."""

    breaks: tuple[float, ...]
    perm: tuple[int, ...]
    mass: float = 1.0

    def __post_init__(self):
        pts = (0.0, *self.breaks, 1.0)
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("breaks must be strictly increasing inside (0, 1)")
        if sorted(self.perm) != list(range(len(self.breaks) + 1)):
            raise ValueError("perm must permute the segments")

    @property
    def total_mass(self) -> float:
        return self.mass

    def _segments(self):
        pts = (0.0, *self.breaks, 1.0)
        return [(pts[i], pts[i + 1] - pts[i]) for i in range(len(pts) - 1)]


@dataclass(frozen=True, slots=True)
class SpecialFlow:
    """A base map together with its ceiling.  For atom bases the ceilings
    live on the base itself and ``ceiling`` must be None."""

    base: AtomBase | RotationBase | ExchangeBase
    ceiling: Ceiling | None = None

    def __post_init__(self):
        if isinstance(self.base, AtomBase):
            if self.ceiling is not None:
                raise ValueError("atom bases carry per-atom ceilings")
        elif self.ceiling is None:
            raise ValueError("interval bases need a ceiling function")


def _forward(base):
    """The base map x -> T x.  An exchange's segment starts, and where
    each segment starts once rearranged, are computed once here."""
    if isinstance(base, RotationBase):
        return lambda x: (x + base.alpha) % 1.0
    segs = base._segments()
    starts = [s for s, _ in segs]
    moved = [sum(segs[j][1] for j in base.perm[: base.perm.index(i)]) for i in range(len(segs))]

    def step(x: float) -> float:
        idx = max(bisect_right(starts, x) - 1, 0)
        return moved[idx] + (x - starts[idx])

    return step


def _backward(base, x: float) -> float:
    if isinstance(base, RotationBase):
        return (x - base.alpha) % 1.0
    segs = base._segments()
    pos = 0.0
    for j in base.perm:
        length = segs[j][1]
        if x < pos + length or j == base.perm[-1]:
            return segs[j][0] + (x - pos)
        pos += length
    raise AssertionError("unreachable")


def _crossing_mass(h0: float, heights, t: float) -> float:
    """Integral over y in [0, h0] of the number of ceiling crossings in
    [0, t], given the forward orbit ceilings h0, h1, h2, ...

    The m-th crossing from height y happens at S_m - y with
    S_m = h0 + ... + h_{m-1}; contributes the length of
    {y : S_m - y <= t} inside [0, h0].
    """
    total = 0.0
    s = 0.0
    for h in heights:
        s += h
        seg = min(h0, max(0.0, h0 - (s - t)))
        if seg == 0.0 and s > t + h0:
            break
        total += seg
    return total


def _orbit_ceilings(h: Ceiling, step, x: float, t: float):
    hx = h(x)
    # enough forward steps to exceed t + h0 in summed ceiling
    out = [hx]
    s = hx
    cur = x
    while s <= t + hx:
        cur = step(cur)
        hc = h(cur)
        out.append(hc)
        s += hc
    return out


def collision_count_sum(flow: SpecialFlow, t: float, resolution: int = 4096) -> float:
    """Sum over m of the equilibrium mass with at least m collisions by
    time t.  Exact for atom bases; composite midpoint quadrature at the
    given resolution for interval bases."""
    if t <= 0.0:
        return 0.0
    base = flow.base
    if isinstance(base, AtomBase):
        total = 0.0
        for i, mass in enumerate(base.masses):
            heights = []
            s = 0.0
            cur = i
            h0 = base.ceilings[i]
            while True:
                h = base.ceilings[cur]
                heights.append(h)
                s += h
                if s > t + h0:
                    break
                cur = base.perm[cur]
            # first entry must be h(x) itself; orbit is x, Tx, T^2 x, ...
            total += mass * _crossing_mass(h0, heights, t)
        return total
    total = 0.0
    dx = 1.0 / resolution
    step = _forward(base)
    for i in range(resolution):
        x = (i + 0.5) * dx
        heights = _orbit_ceilings(flow.ceiling, step, x, t)
        total += _crossing_mass(heights[0], heights, t)
    return base.mass * total * dx


def partition_masses(flow: SpecialFlow, t: float, resolution: int = 4096) -> list[float]:
    """Masses of the sets B_k of base points whose backward orbit needs
    exactly k ceilings to pass t.  They partition the base, so the masses
    sum to mu(B)."""
    out: list[float] = []

    def bump(k: int, mass: float) -> None:
        while len(out) < k:
            out.append(0.0)
        out[k - 1] += mass

    base = flow.base
    if isinstance(base, AtomBase):
        inv = _inv_perm(base.perm)
        for i, mass in enumerate(base.masses):
            s = base.ceilings[i]
            cur = i
            k = 1
            while s <= t:
                cur = inv[cur]
                s += base.ceilings[cur]
                k += 1
            bump(k, mass)
        return out
    dx = 1.0 / resolution
    for i in range(resolution):
        x = (i + 0.5) * dx
        s = flow.ceiling(x)
        cur = x
        k = 1
        while s <= t:
            cur = _backward(base, cur)
            s += flow.ceiling(cur)
            k += 1
        bump(k, base.mass * dx)
    return out


def _inv_perm(perm):
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


@dataclass(frozen=True, slots=True)
class FlowCheck:
    value: float
    target: float
    error_bound: float
    resolution: int
    passed: bool
    # interval bases only: the sum at half the resolution
    coarse: float | None = None


def verify_identity(flow: SpecialFlow, t: float, resolution: int = 4096) -> FlowCheck:
    """Compare the collision-count sum with t times the base mass.

    Atom bases must agree to near machine precision.  Interval bases are
    integrated at ``resolution`` and 2x resolution; the Richardson gap
    bounds the quadrature error and the finer value must sit within it.
    """
    target = t * flow.base.total_mass
    if isinstance(flow.base, AtomBase):
        value = collision_count_sum(flow, t)
        tol = 1e-10 * max(1.0, abs(target))
        return FlowCheck(value, target, tol, 0, abs(value - target) <= tol)
    coarse = collision_count_sum(flow, t, resolution)
    fine = collision_count_sum(flow, t, 2 * resolution)
    gap = abs(fine - coarse)
    bound = max(2.0 * gap, 1e-9 * max(1.0, abs(target)))
    return FlowCheck(fine, target, bound, 2 * resolution, abs(fine - target) <= bound, coarse)
