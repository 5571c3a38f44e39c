"""perfbench's traced runs (``--trace 1``) wrap program functions by the
names they have in their modules and classes.  A wrapped function that
leaves its class or module makes a traced run raise; the tier-1 suite
never makes a traced run, so this test installs every wrapper itself."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
from hardsphere import checks, measures  # noqa: E402
from hardsphere.geometry import Domain, Vec3  # noqa: E402


def test_traced_run_wraps_and_restores_every_name():
    wrapped = [(measures.InitialMeasure, "exclusion_integral"),
               (measures.CorrelationVector, "eval_arrays")]
    originals = [vars(cls)[attr] for cls, attr in wrapped]
    run_check = checks.run_check
    ms = measures.InitialMeasure(measures.CanonicalEq(2, 1.0),
                                 Domain(Vec3(0, 0, 0), Vec3(5, 5, 5), 1.0), norm_proposals=20_000)
    q, rng = np.array([[2.5, 2.5, 2.5]]), np.random.default_rng(1)
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install_layers(tracer, patches)
        spans.install_checks(tracer, patches)
        assert checks.run_check is not run_check
        # the batch-of-one entries still open their spans
        measures.correlation_map(ms, inner_samples=8).eval_arrays(q, np.zeros((1, 3)), rng)
        ms.exclusion_integral(q, 1, rng, 8)
    finally:
        patches.restore()
    opened = {tracer.names[i] for i in tracer.arrays()["name_id"]}
    assert {"measures.eval_arrays", "measures.exclusion_integral"} <= opened
    assert [vars(cls)[attr] for cls, attr in wrapped] == originals
    assert checks.run_check is run_check
