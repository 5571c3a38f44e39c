"""Tests of the benchmark's own arithmetic: span self times, the
time-to-accuracy formula, failure counting and estimate pooling."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import spans  # noqa: E402


def _clock(monkeypatch, ticks):
    it = iter(ticks)
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(it))


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3.5]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.5, 9.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 1.5, 1.5, 4.0]


def test_recursive_evolve_is_a_child_span_not_a_second_call(monkeypatch):
    tracer = spans.Tracer()
    seen = []

    def evolve(t):
        # a backward leg calls the (wrapped) function again with -t
        return wrapped(-t) if t < 0 else "done"

    wrapped = spans.timed(tracer, "dynamics.evolve", evolve,
                          on_result=lambda args, res, outer: seen.append(outer))
    # root opens at 0; outer evolve 1..8; inner evolve 2..6; root closes at 10
    _clock(monkeypatch, [0.0, 1.0, 2.0, 6.0, 8.0, 10.0])
    root = tracer.open(tracer.name_of("bench.run"))
    assert wrapped(-1.0) == "done"
    tracer.close(root)

    assert seen == [False, True]          # only the outer call counts as a trajectory
    arr = tracer.arrays()
    assert arr["parent"].tolist() == [-1, 0, 1]
    s = spans.summarize(tracer, root)
    assert s["dynamics.evolve"]["spans"] == 2
    assert s["dynamics.evolve"]["incl_s"] == 7.0    # the outer span only
    assert s["dynamics.evolve"]["self_s"] == 7.0    # 3 outer + 4 inner
    assert s["bench.run"]["self_s"] == 3.0          # the residue
    assert s["_total_self_s"] == s["_root_s"] == 10.0


def test_spans_before_the_root_are_left_out(monkeypatch):
    tracer = spans.Tracer()
    setup = spans.timed(tracer, "measures.get_measure", lambda: None)
    work = spans.timed(tracer, "geometry.omega_admissible", lambda: None)
    _clock(monkeypatch, [0.0, 5.0, 6.0, 7.0, 7.5, 8.0])
    setup()
    root = tracer.open(tracer.name_of("bench.run"))
    work()
    tracer.close(root)
    s = spans.summarize(tracer, root)
    assert "measures.get_measure" not in s
    assert s["_root_s"] == 2.0
    assert s["geometry.omega_admissible"]["self_s"] == 0.5


def test_wrapper_reraises_and_reports_errors_once():
    tracer = spans.Tracer()
    errors = []

    def boom():
        raise KeyError("kind")

    wrapped = spans.timed(tracer, "x.boom", boom,
                          on_error=lambda args, exc, outer: errors.append((type(exc), outer)))
    with pytest.raises(KeyError):
        wrapped()
    assert errors == [(KeyError, True)]
    assert tracer.current() == -1


def test_s_at_1pct_formula():
    # 2 s at 2% relative error needs (2%/1%)^2 = 4 times longer
    assert metrics.s_at_1pct([(2.0, 0.02, 1.0)]) == pytest.approx(8.0)
    # the sign of the reference does not matter; terms add over estimates
    assert metrics.s_at_1pct([(2.0, 0.02, -1.0), (1.0, 0.005, 0.5)]) == pytest.approx(9.0)
    # four times the samples: stderr halves, seconds quadruple, same answer
    assert metrics.s_at_1pct([(8.0, 0.01, 1.0)]) == pytest.approx(8.0)


def test_fail_frac_counts_every_kind_of_failure():
    ceiling = 1e-3
    verdicts = [
        metrics.judge([], 1.0, 0.0, ceiling),                        # pass
        metrics.judge(["RuntimeError: excessive degenerate-trajectory rate"], 0.1, 0.0, ceiling),
        metrics.judge([], 6.0, 0.0, ceiling),                        # misses reference
        metrics.judge([], 1.0, 2e-3, ceiling),                       # degenerate rate
        metrics.judge([], None, 0.0, ceiling),                       # no estimate at all
        metrics.judge([], math.inf, 0.0, ceiling),
    ]
    assert verdicts[0] == ""
    assert verdicts[1].startswith("raised")
    assert all(verdicts[1:])
    assert metrics.fail_frac(verdicts) == (6, 5, 5 / 6)
    assert metrics.fail_frac(["", ""]) == (2, 0, 0.0)


def test_host_normalized_scales_by_the_kernel():
    # a host running the kernel at twice the reference time halves the seconds
    ref = metrics.KERNEL_REF_S
    assert metrics.host_normalized(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert metrics.host_normalized(1.0, ref, 3 * ref) == pytest.approx(0.5)


def test_z_to_reference_combines_both_errors():
    assert metrics.z_to_reference(1.5, 0.3, 1.0, 0.4) == pytest.approx(1.0)
    assert metrics.z_to_reference(1.0, 0.0, 1.0, 0.0) == 0.0


def test_spread_is_iqr_over_median():
    assert metrics.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


def test_pooled_rounds_match_one_stream():
    from hardsphere.stats import RunningStats, SignedEstimate

    import workloads

    rng = np.random.default_rng(5)
    values = rng.normal(0.1, 1.0, 3000)
    whole = RunningStats()
    pooled = RunningStats()
    for part in np.split(values, 3):
        rs = RunningStats()
        for x in part:
            rs.add(x)
            whole.add(x)
        pooled.merge(workloads.stats_from_estimate(SignedEstimate.from_stats(rs)))
    a, b = SignedEstimate.from_stats(whole), SignedEstimate.from_stats(pooled)
    assert b.count == a.count
    for field in ("value", "stderr", "positive_mass", "negative_mass"):
        assert getattr(b, field) == pytest.approx(getattr(a, field), rel=1e-9)


def test_benchmark_json_names_what_run_reports():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
