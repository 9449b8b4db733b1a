"""Randomized-shift interval calibration error and its estimable surrogate.

For a fixed bin width the binned error, as a function of the random shift r,
is piecewise constant in r with at most one breakpoint per sample (the shift
at which that sample crosses into the previous bin).  Both the Monte Carlo
estimator and the exact expectation over shifts are evaluated on that profile,
so a draw count in the hundreds of thousands costs almost nothing beyond
generating the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EmpiricalDistribution, SeededRng
from .errors import BadConfig, BadWidth

__all__ = [
    "IntervalEstimatorConfig",
    "rintce_hat",
    "rintce_exact",
    "sintce_hat",
    "sintce_exact",
    "default_shifts",
]

# Constants of the shift-count rule m = ceil(C / eps^2 * ln(k* / delta)).
# The theory only fixes them up to an absolute constant; these values leave
# comfortable margin in the acceptance suite.  They are module constants: a
# config can replace the rule's result through shifts_m, not the constants.
SHIFT_RULE_C = 8.0
SHIFT_RULE_DELTA = 0.05


def width_exponent(epsilon: float) -> int:
    """Smallest k* >= 0 with eps/4 < 2^-k* <= eps/2."""
    return max(0, math.ceil(math.log2(2.0 / epsilon)))


def default_shifts(epsilon: float) -> int:
    kstar = max(width_exponent(epsilon), 1)
    return math.ceil(SHIFT_RULE_C / epsilon**2 * math.log(kstar / SHIFT_RULE_DELTA))


@dataclass(frozen=True)
class IntervalEstimatorConfig:
    """Configuration of the surrogate interval estimator.

    shifts_m=None applies the default rule from ``default_shifts``.
    """

    epsilon: float = 0.01
    shifts_m: int | None = None
    rng: SeededRng | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise BadConfig(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.shifts_m is not None and self.shifts_m < 1:
            raise BadConfig(f"shifts_m must be >= 1, got {self.shifts_m}")

    def resolved_shifts(self) -> int:
        return self.shifts_m if self.shifts_m is not None else default_shifts(self.epsilon)


def _shift_profile(dist: EmpiricalDistribution, width: float):
    """Breakpoints and piece values of r -> sum_j |mean[(y-v) 1(v in I_{r,j})]|.

    Bin j at shift r is [r + j*width, r + (j+1)*width); sample v sits in bin
    floor((v - r)/width), which drops by one exactly when r exceeds v mod
    width.  Returns (breaks, values) with len(values) = len(breaks) + 1:
    ``values[i]`` is the profile value after the first i breakpoints, i.e.
    on the piece of [0, width) between breaks[i-1] (exclusive) and breaks[i]
    (inclusive).
    """
    v = dist.v
    r = dist.residuals()
    q = np.floor(v / width).astype(np.int64)
    rho = v - q * width
    # guard against float drift putting rho outside [0, width)
    over = rho >= width
    q[over] += 1
    rho[over] -= width
    under = rho < 0.0
    q[under] -= 1
    rho[under] += width

    order = np.lexsort((q, rho))
    rho = rho[order]
    q_sorted = q[order]
    res_sorted = r[order]

    bins: dict[int, float] = {}
    for qi, ri in zip(q, r):
        bins[int(qi)] = bins.get(int(qi), 0.0) + ri
    total = sum(abs(s) for s in bins.values())

    n = dist.n
    values = np.empty(n + 1)
    values[0] = total
    for i in range(n):
        qi = int(q_sorted[i])
        ri = float(res_sorted[i])
        lo = qi - 1
        total -= abs(bins.get(qi, 0.0)) + abs(bins.get(lo, 0.0))
        bins[qi] = bins.get(qi, 0.0) - ri
        bins[lo] = bins.get(lo, 0.0) + ri
        total += abs(bins[qi]) + abs(bins[lo])
        values[i + 1] = total
    return rho, values / n


def rintce_exact(dist: EmpiricalDistribution, width: float) -> float:
    """Exact expectation over the uniform shift r ~ Unif[0, width)."""
    if not (0.0 < width <= 1.0):
        raise BadWidth(f"width must satisfy 0 < width <= 1, got {width}")
    breaks, values = _shift_profile(dist, width)
    edges = np.concatenate([[0.0], breaks, [width]])
    lengths = np.diff(edges)  # n + 1 pieces, matching the n + 1 profile values
    return float(values @ lengths / width)


def rintce_hat(
    dist: EmpiricalDistribution,
    width: float,
    shifts_m: int,
    rng: SeededRng,
) -> float:
    """Average of the shifted binned error over shifts_m uniform draws of r."""
    if not (0.0 < width <= 1.0):
        raise BadWidth(f"width must satisfy 0 < width <= 1, got {width}")
    if shifts_m < 1:
        raise BadConfig(f"shifts_m must be >= 1, got {shifts_m}")
    breaks, values = _shift_profile(dist, width)
    draws = rng.uniform(0.0, width, shifts_m)
    # value for draw r is the state after all breakpoints strictly below r
    idx = np.searchsorted(breaks, draws, side="left")
    return float(values[idx].mean())


def _sintce(dist: EmpiricalDistribution, epsilon: float, shifts_m: int | None,
            rng: SeededRng | None) -> float:
    kstar = width_exponent(epsilon)
    best = math.inf
    for k in range(kstar + 1):
        width = 2.0**-k
        if shifts_m is None:
            est = rintce_exact(dist, width)
        else:
            est = rintce_hat(dist, width, shifts_m, rng.substream(k))
        best = min(best, est + width)
    return best


def sintce_hat(dist: EmpiricalDistribution, cfg: IntervalEstimatorConfig) -> float:
    """Surrogate interval calibration error.

    Evaluates the randomized-shift error at dyadic widths 2^-k for
    k = 0..k* (eps/4 < 2^-k* <= eps/2) and returns the minimum of
    estimate + width.  Deterministic given (dist, cfg with fixed seed).
    """
    rng = cfg.rng if cfg.rng is not None else SeededRng(0)
    return _sintce(dist, cfg.epsilon, cfg.resolved_shifts(), rng)


def sintce_exact(dist: EmpiricalDistribution, epsilon: float = 0.01) -> float:
    """Surrogate interval error with the shift expectation taken exactly.

    Same dyadic-width minimization as ``sintce_hat`` but with no Monte Carlo
    error; used as the deterministic reference in tests and reports.
    """
    if not (0.0 < epsilon < 1.0):
        raise BadConfig(f"epsilon must be in (0, 1), got {epsilon}")
    return _sintce(dist, epsilon, None, None)
