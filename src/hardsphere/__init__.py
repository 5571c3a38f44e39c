"""Hard-sphere gas in a box: exact event-driven dynamics, initial-measure
samplers, and signed Monte Carlo evaluation of collision-history series,
with a check harness that confirms simulated and series-predicted
correlation functions agree within statistical error."""

from hardsphere.geometry import (
    Configuration,
    Domain,
    PhasePoint,
    Vec3,
    omega_admissible,
)
from hardsphere.dynamics import (
    DegeneracyError,
    DegeneracyKind,
    Direction,
    Event,
    EventKind,
    Limit,
    TrajectoryLog,
    evolve,
    next_event,
    pair_collide,
    reverse_momenta,
    wall_reflect,
)

__all__ = [
    "Configuration",
    "DegeneracyError",
    "DegeneracyKind",
    "Direction",
    "Domain",
    "Event",
    "EventKind",
    "Limit",
    "PhasePoint",
    "TrajectoryLog",
    "Vec3",
    "evolve",
    "next_event",
    "omega_admissible",
    "pair_collide",
    "reverse_momenta",
    "wall_reflect",
]
