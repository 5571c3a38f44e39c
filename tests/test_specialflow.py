import math

import pytest

from hardsphere.specialflow import (
    AtomBase,
    Ceiling,
    ExchangeBase,
    RotationBase,
    SpecialFlow,
    _forward,
    collision_count_sum,
    partition_masses,
    verify_identity,
)

GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def test_single_atom_analytic():
    # identity base map with unit ceiling: crossings from height y happen
    # at 1-y, 2-y, ...; summing the pass masses over m gives 1 + 1 + 0.5
    flow = SpecialFlow(AtomBase((1.0,), (0,), (1.0,)))
    assert collision_count_sum(flow, 2.5) == pytest.approx(2.5, abs=1e-12)
    chk = verify_identity(flow, 2.5)
    assert chk.passed and chk.value == pytest.approx(2.5, abs=1e-12)


def test_count_vanishes_as_t_to_zero():
    flow = SpecialFlow(RotationBase(GOLDEN), Ceiling(1.0, 0.3))
    assert collision_count_sum(flow, 1e-9, 128) == pytest.approx(0.0, abs=1e-8)


def test_permutation_base_exact():
    flow = SpecialFlow(AtomBase((1.0,) * 5, (2, 0, 3, 4, 1),
                                (0.7, 1.3, 0.4, 2.1, 0.9)))
    chk = verify_identity(flow, 3.7)
    assert chk.passed
    assert abs(chk.value - 3.7 * 5.0) <= 1e-10 * 18.5


def test_additivity_in_time_for_atoms():
    flow = SpecialFlow(AtomBase((1.0,) * 5, (2, 0, 3, 4, 1),
                                (0.7, 1.3, 0.4, 2.1, 0.9)))
    lhs = collision_count_sum(flow, 1.3) + collision_count_sum(flow, 2.4)
    rhs = collision_count_sum(flow, 3.7)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_mass_preservation_validated():
    with pytest.raises(ValueError):
        AtomBase((1.0, 2.0), (1, 0), (0.5, 0.5))
    # constant masses along orbit cycles are fine
    AtomBase((2.0, 2.0), (1, 0), (0.5, 0.9))


def test_rotation_constant_ceiling_is_exact():
    # constant ceiling: the crossing mass is the same for every base
    # point, so even the coarsest quadrature returns t * mass exactly
    flow = SpecialFlow(RotationBase(GOLDEN, mass=1.0), Ceiling(0.7))
    assert collision_count_sum(flow, 3.1, 8) == pytest.approx(3.1, abs=1e-12)


def test_rotation_base_quadrature_and_order():
    flow = SpecialFlow(RotationBase(GOLDEN), Ceiling(1.0, 0.3))
    t = 2.2
    errs = [abs(collision_count_sum(flow, t, r) - t) for r in (64, 256, 1024, 4096)]
    assert errs[-1] < 1e-7
    order = math.log(errs[0] / errs[-1]) / math.log(4096 / 64)
    assert order > 1.0
    assert verify_identity(flow, t, 1024).passed


def test_exchange_base_identity():
    flow = SpecialFlow(ExchangeBase((0.3, 0.75), (2, 0, 1)), Ceiling(0.8, 0.2, 2))
    chk = verify_identity(flow, 1.9, 2048)
    assert chk.passed


def test_partition_is_exhaustive():
    flow = SpecialFlow(AtomBase((1.0,) * 5, (2, 0, 3, 4, 1),
                                (0.7, 1.3, 0.4, 2.1, 0.9)))
    masses = partition_masses(flow, 3.7)
    assert sum(masses) == pytest.approx(5.0, abs=1e-12)
    assert all(m >= 0.0 for m in masses)
    rot = SpecialFlow(RotationBase(GOLDEN), Ceiling(1.0, 0.3))
    masses = partition_masses(rot, 2.2, resolution=2048)
    assert sum(masses) == pytest.approx(1.0, abs=1e-9)


def test_ceiling_must_stay_positive():
    with pytest.raises(ValueError):
        Ceiling(1.0, 1.0)


def oracle_exchange_step(base, x):
    """The exchange map as it was computed on every step, segments and
    rearranged start included."""
    segs = base._segments()
    starts = [s for s, _ in segs]
    idx = len(starts) - 1
    for k in range(len(starts) - 1):
        if x < starts[k + 1]:
            idx = k
            break
    off = x - starts[idx]
    return sum(segs[j][1] for j in base.perm[: base.perm.index(idx)]) + off


@pytest.mark.parametrize("base", [ExchangeBase((0.3, 0.75), (2, 0, 1)),
                                  ExchangeBase((0.1, 0.2, 0.55, 0.9), (3, 1, 4, 0, 2))])
def test_exchange_step_matches_per_step_oracle(base):
    # the segment tables are computed once per quadrature; each step must
    # give the per-step computation's float, at the breaks too
    step = _forward(base)
    points = [i / 4099 for i in range(4099)] + [0.0, *base.breaks]
    points += [math.nextafter(b, 0.0) for b in base.breaks]
    assert [step(x) for x in points] == [oracle_exchange_step(base, x) for x in points]
