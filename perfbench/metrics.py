"""The benchmark's own arithmetic and host-speed calibration, kept free
of the program so its tests run without it."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The harness compares each estimate at 3 sigma, a 0.27% false-alarm rate
# per comparison.  One evaluation of this benchmark makes a few thousand
# comparisons (every estimate and check case of every run), so at 3 sigma
# several would fail by chance.  5 sigma (5.7e-7 per comparison) keeps the
# chance of any false alarm in an evaluation near 0.2%; a bias of a few
# percent still fails, since the run-scale standard errors are 1-3%.
GATE_SIGMA = 5.0


# Host speed.  The machine this benchmark was written on is a 2-vCPU VM
# whose speed drifts by up to 1.7x over tens of seconds (other tenants);
# raw timings of the same work then scatter by 20-30% from run to run.
# Every timing is therefore paired with a fixed calibration kernel run
# right before and after it, and reported as the time the work would take
# on a host where the kernel takes KERNEL_REF_S: a slowdown of the host
# stretches both and cancels.  Raw seconds are kept in the details file.
KERNEL_REF_S = 0.0027


def kernel_s() -> float:
    """Seconds for one fixed mix of interpreted float arithmetic and small
    NumPy calls, the same mix the program spends its time in."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(20_000):
        x += (i * 0.5) % 3.0
    a = np.arange(200.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def host_normalized(raw_s: float, kernel_before: float, kernel_after: float) -> float:
    """``raw_s`` scaled to a host where the kernel takes KERNEL_REF_S."""
    return raw_s * KERNEL_REF_S / (0.5 * (kernel_before + kernel_after))


def s_at_1pct(parts) -> float:
    """Seconds to bring every estimate to 1% relative standard error:
    sum over (seconds, stderr, reference) of seconds * (stderr / |ref| /
    0.01)^2.  Standard error falls as 1/sqrt(seconds), so each term is the
    time that estimate would need on its own; the reference value stands
    in for the unknown true value, which keeps the estimate's own noise
    out of the denominator."""
    return sum(sec * (se / (0.01 * abs(ref))) ** 2 for sec, se, ref in parts)


def z_to_reference(value: float, stderr: float, ref: float, ref_stderr: float) -> float:
    se = math.hypot(stderr, ref_stderr)
    diff = abs(value - ref)
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


def judge(errors: list, z: float | None, degenerate_rate: float,
          ceiling: float, sigma: float = GATE_SIGMA) -> str:
    """'' for a pass, else the reason the operation failed.  An operation
    that raised fails whatever its partial estimate says."""
    if errors:
        return f"raised: {errors[0]}"
    if z is None or not z <= sigma:
        return f"misses reference: z={z}"
    if not degenerate_rate <= ceiling:
        return f"degenerate rate {degenerate_rate:.2e} above ceiling {ceiling:.0e}"
    return ""


def fail_frac(verdicts) -> tuple[int, int, float]:
    """(attempted, failed, failed / attempted) over per-operation verdicts,
    '' marking a pass."""
    verdicts = list(verdicts)
    failed = sum(1 for v in verdicts if v)
    attempted = len(verdicts)
    return attempted, failed, (failed / attempted if attempted else 1.0)


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
