"""The estimates the benchmark workloads make, and the reference box
masses they are checked against.

Every case is the box mass of the time-t one-particle correlation
function over a phase box; forward simulation and the collision-history
series estimate the same number, so one long forward run gives the
reference for both routes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hardsphere.checks import delta_preset
from hardsphere.geometry import Domain, Vec3
from hardsphere.hierarchy import PhaseBox
from hardsphere.measures import GrandCanonicalEq, ModulatedProduct

REFERENCES = Path(__file__).with_name("references.json")

BOX = Domain(Vec3(0.0, 0.0, 0.0), Vec3(5.0, 5.0, 5.0), 1.0)
MICRO = Domain(Vec3(0.0, 0.0, 0.0), Vec3(2.5, 1.2, 1.2), 1.0)
BETA = 1.0


def modulated(n_particles: int) -> ModulatedProduct:
    return ModulatedProduct(n_particles, BETA, "cos_x", 0.5)


GRAND = GrandCanonicalEq(50.0, BETA)


def micro_box() -> PhaseBox:
    """First 40% in x of the micro-box inset, |p_k| <= 1.2 sigma (the
    phase box of the harness's grand_canonical_identity check)."""
    lo = np.array(MICRO.inset_lower)
    hi = np.array(MICRO.inset_upper)
    q_hi = hi.copy()
    q_hi[0] = lo[0] + 0.4 * (hi[0] - lo[0])
    sig = 1.0 / math.sqrt(BETA)
    return PhaseBox.of([lo], [q_hi], [[-1.2 * sig] * 3], [[1.2 * sig] * 3])


@dataclass(frozen=True)
class Case:
    """One box mass: measure spec, its domain, time and phase box (n = 1)."""

    name: str
    spec: object
    domain: Domain
    t: float
    box_name: str

    @property
    def box(self) -> PhaseBox:
        if self.box_name == "micro":
            return micro_box()
        return delta_preset(self.box_name, self.domain, BETA)


def _fixed(n_particles: int, t: float, box_name: str) -> Case:
    return Case(f"N{n_particles}_t{t:g}_{box_name}", modulated(n_particles), BOX, t, box_name)


ALL_CASES = {c.name: c for c in (
    _fixed(2, 12.0, "bulk"),
    _fixed(3, 12.0, "bulk"),
    _fixed(5, 12.0, "bulk"),
    _fixed(2, 12.0, "near_wall"),
    _fixed(3, 8.0, "bulk"),
    _fixed(3, 8.0, "near_wall"),
    Case("grand_micro_t2", GRAND, MICRO, 2.0, "micro"),
)}


def load_references() -> dict:
    """name -> {"value", "stderr", ...} as written by make_refs.py."""
    with open(REFERENCES) as fh:
        return json.load(fh)["cases"]
