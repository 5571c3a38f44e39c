"""Mergeable Monte Carlo statistics and signed estimates.

Workers accumulate sufficient statistics (count, sum, sum of squares,
positive/negative mass) that merge associatively, so chunked or parallel
runs reproduce the single-stream result when merged in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class RunningStats:
    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    positive: float = 0.0
    negative: float = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value > 0.0:
            self.positive += value
        elif value < 0.0:
            self.negative += value

    def add_many(self, values) -> "RunningStats":
        v = np.asarray(values, dtype=float)   # as ``add`` on each: sums run left to right
        self.count += len(v)
        for name, part in (("total", v), ("total_sq", v * v), ("positive", v[v > 0.0]),
                           ("negative", v[v < 0.0])):
            setattr(self, name, float(np.add.accumulate(np.r_[getattr(self, name), part])[-1]))
        return self

    def merge(self, other: "RunningStats") -> None:
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        self.positive += other.positive
        self.negative += other.negative

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        m = self.mean
        v = (self.total_sq - self.count * m * m) / (self.count - 1)
        return max(v, 0.0)

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.count) if self.count else 0.0


@dataclass(frozen=True, slots=True)
class SignedEstimate:
    """A Monte Carlo estimate with its standard error and sign split."""

    value: float
    stderr: float
    count: int
    positive_mass: float = 0.0
    negative_mass: float = 0.0

    @staticmethod
    def from_stats(stats: RunningStats, scale: float = 1.0) -> "SignedEstimate":
        return SignedEstimate(
            value=scale * stats.mean,
            stderr=abs(scale) * stats.stderr,
            count=stats.count,
            positive_mass=scale * stats.positive / stats.count if stats.count else 0.0,
            negative_mass=scale * stats.negative / stats.count if stats.count else 0.0,
        )

    def plus(self, other: "SignedEstimate") -> "SignedEstimate":
        return SignedEstimate(
            value=self.value + other.value,
            stderr=math.hypot(self.stderr, other.stderr),
            count=self.count + other.count,
            positive_mass=self.positive_mass + other.positive_mass,
            negative_mass=self.negative_mass + other.negative_mass,
        )

    def with_extra_stderr(self, extra: float) -> "SignedEstimate":
        return SignedEstimate(self.value, math.hypot(self.stderr, extra),
                              self.count, self.positive_mass, self.negative_mass)


def binomial_estimate(hits: int, trials: int, scale: float = 1.0) -> SignedEstimate:
    """scale * fraction with the binomial standard error."""
    if trials <= 0:
        return SignedEstimate(0.0, 0.0, 0)
    frac = hits / trials
    se = math.sqrt(frac * (1.0 - frac) / trials)
    return SignedEstimate(scale * frac, abs(scale) * se, trials,
                          positive_mass=scale * frac)


def z_score(lhs: SignedEstimate, rhs: SignedEstimate) -> float:
    """|lhs - rhs| over the combined standard error of two independent
    estimates.  Zero difference gives z = 0 even when both errors vanish."""
    diff = abs(lhs.value - rhs.value)
    se = math.hypot(lhs.stderr, rhs.stderr)
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


def falling_factorial(n: int, k: int) -> float:
    """n (n-1) ... (n-k+1), the tuple-counting prefactor."""
    out = 1.0
    for i in range(k):
        out *= n - i
    return out


@dataclass(slots=True)
class RejectionCounter:
    """Counts degenerate-trajectory rejections next to accepted samples."""

    accepted: int = 0
    degenerate: int = 0
    blocked: int = 0

    def merge(self, other: "RejectionCounter") -> None:
        self.accepted += other.accepted
        self.degenerate += other.degenerate
        self.blocked += other.blocked

    @property
    def degenerate_rate(self) -> float:
        tot = self.accepted + self.degenerate
        return self.degenerate / tot if tot else 0.0
