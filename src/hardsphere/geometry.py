"""Phase-space geometry for hard spheres of diameter ``a`` in a box.

A configuration of n sphere centers is admissible when every center keeps
a clearance of a/2 from each wall and every pair of centers is at least a
apart.  Equality (touching a wall or another sphere) is the contact
boundary; anything closer is excluded by the hard core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Relative tolerances for boundary tests.  Contact means within
# EPS_CONTACT_REL * a of an exact equality; a collision counts as grazing
# when the normal relative speed is below EPS_GRAZE_REL of the relative
# speed.  Chosen so that rejection of near-degenerate samples is
# negligibly rare while double arithmetic stays robust.
EPS_CONTACT_REL = 1e-9
EPS_GRAZE_REL = 1e-9
UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Vec3:
    """A 3-vector of finite floats (position or momentum by context)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite components: ({self.x}, {self.y}, {self.z})")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def scale(self, c: float) -> "Vec3":
        return Vec3(c * self.x, c * self.y, c * self.z)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm2(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @staticmethod
    def of(seq) -> "Vec3":
        x, y, z = seq
        return Vec3(float(x), float(y), float(z))


@dataclass(frozen=True, slots=True)
class Domain:
    """Axis-aligned box with specular walls, holding spheres of diameter a.

    Sphere centers live in the inset box obtained by shrinking each side
    by the wall margin a/2.  Each side must exceed a so that the inset box
    has positive volume; micro-domains barely fitting one or two spheres
    are legitimate and used by the grand-canonical checks.
    """

    lower: Vec3
    upper: Vec3
    a: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"sphere diameter must be positive, got {self.a}")
        for lo, hi in zip(self.lower.as_tuple(), self.upper.as_tuple()):
            if not hi - lo > self.a:
                raise ValueError(
                    f"box side [{lo}, {hi}] too small for diameter {self.a}: "
                    "need side > a for one center with wall margin a/2"
                )
        # a side, or the product of three, can overflow to inf
        if not math.isfinite(self.inset_volume):
            raise ValueError(f"box [{self.lower}, {self.upper}] too large: its volume overflows")

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.upper.x - self.lower.x, self.upper.y - self.lower.y, self.upper.z - self.lower.z)

    @property
    def inset_lower(self) -> tuple[float, float, float]:
        m = 0.5 * self.a
        return (self.lower.x + m, self.lower.y + m, self.lower.z + m)

    @property
    def inset_upper(self) -> tuple[float, float, float]:
        m = 0.5 * self.a
        return (self.upper.x - m, self.upper.y - m, self.upper.z - m)

    @property
    def inset_volume(self) -> float:
        lo, hi = self.inset_lower, self.inset_upper
        return (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2])

    def wall_clearance(self, q: Vec3) -> float:
        """Signed clearance of a center beyond the a/2 wall margin.

        Positive strictly inside the inset box, zero at the margin,
        negative when the margin is violated.
        """
        lo, hi = self.inset_lower, self.inset_upper
        qt = q.as_tuple()
        return min(min(qt[k] - lo[k], hi[k] - qt[k]) for k in range(3))


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """Position and momentum of one sphere center (mass 1)."""

    q: Vec3
    p: Vec3


@dataclass(frozen=True, slots=True)
class Configuration:
    """Ordered list of phase points in a common domain."""

    particles: tuple[PhasePoint, ...]
    domain: Domain

    @property
    def n(self) -> int:
        return len(self.particles)

    def replace_particles(self, particles) -> "Configuration":
        return Configuration(tuple(particles), self.domain)


def require_unit(omega: Vec3, tol: float = UNIT_NORM_TOL) -> None:
    if abs(omega.norm() - 1.0) > tol:
        raise ValueError(f"direction must be a unit vector, |omega| = {omega.norm()!r}")


def omega_admissible(config: Configuration, j: int, p_new: Vec3, omega: Vec3) -> bool:
    """Whether a sphere can be attached at contact with particle j.

    The candidate center is q_j + a*omega with momentum p_new.  Returns
    True when the enlarged configuration is admissible: the contact point
    keeps the a/2 wall margin and overlaps no other sphere.  Admissibility
    is a statement about positions only; p_new, the inserted sphere's
    momentum, is not read.
    """
    require_unit(omega)
    pts = config.particles
    if not 0 <= j < len(pts):
        raise IndexError(f"particle index {j} out of range for n={len(pts)}")
    dom = config.domain
    eps = EPS_CONTACT_REL * dom.a
    q_new = pts[j].q + omega.scale(dom.a)
    if dom.wall_clearance(q_new) < -eps:
        return False
    for i, pt in enumerate(pts):
        if i == j:
            continue
        if (q_new - pt.q).norm() < dom.a - eps:
            return False
    return True
