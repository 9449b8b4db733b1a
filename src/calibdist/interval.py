"""Randomized-shift interval calibration error and its estimable surrogate.

For a fixed bin width the binned error, as a function of the random shift r,
is piecewise constant in r with at most one breakpoint per distinct
prediction (the shift at which its samples cross into the previous bin).
Both the Monte Carlo estimator and the exact expectation over shifts are
evaluated on that profile, which one sort into crossing order, a prefix sum
and two binary searches build in O(d log d) numpy operations per width.  It
reads the sorted distinct predictions and the summed residual of each from
``dist.grouped()``, built by one sort per distribution and shared by every
width and every other metric.  The Monte Carlo mean over m shifts r ~ Unif[0,
width) depends on the shifts only through how many land on each piece, and
those counts are one Multinomial(m, piece length / width) draw.  So the
estimator samples the counts, in O(pieces) and not O(m): the same
distribution as m uniform draws looked up in the profile.

The surrogate is the minimum of estimate + width over the dyadic widths 2^-k,
k = k*..0.  They are evaluated from the narrowest up, and the loop stops at
the first width w >= the running minimum.  Each profile value is a sum of
absolute values, clamped at 0 against round-off (which left -5.6e-18 on five
samples), so each estimate is >= 0 and fl(est + w') >= w' >= min for this and
every wider width w'.  The minimum is the same float as over all widths, and
since width k draws from its own substream k, a skipped width moves no other
width's draws.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import EmpiricalDistribution, SeededRng
from .errors import BadConfig, BadWidth, TooLarge

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
    ratio = 2.0 / epsilon
    # a subnormal eps overflows 2 / eps; log2 takes the factor 2 out exactly there
    exponent = math.log2(ratio) if ratio < math.inf else 1.0 - math.log2(epsilon)
    return max(0, math.ceil(exponent))


def default_shifts(epsilon: float) -> int:
    """The rule's shift count; raises TooLarge where eps is so small that the count is inf."""
    square = epsilon**2
    count = math.inf
    if square > 0.0:
        kstar = max(width_exponent(epsilon), 1)
        count = SHIFT_RULE_C / square * math.log(kstar / SHIFT_RULE_DELTA)
    if count == math.inf:
        raise TooLarge(f"eps {epsilon} asks for an infinite number of shift draws per width")
    return math.ceil(count)


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
        if self.shifts_m is not None:
            object.__setattr__(self, "shifts_m", _shift_count(self.shifts_m))

    def resolved_shifts(self) -> int:
        if self.shifts_m is not None:
            return self.shifts_m
        return _shift_count(default_shifts(self.epsilon))


def _shift_profile(u: np.ndarray, R: np.ndarray, n: int, width: float):
    """Breakpoints and piece values of r -> sum_j |mean[(y-v) 1(v in I_{r,j})]|.

    Takes u and R of ``dist.grouped()`` and the sample count n.  Bin j at
    shift r is [r + j*width, r + (j+1)*width); value v sits in bin
    floor((v - r)/width), which drops by one exactly when r exceeds v mod
    width.  Returns (breaks, values) with len(values) = len(breaks) + 1 =
    len(u) + 1: ``values[i]`` is the profile value after the first i
    breakpoints, i.e. on the piece of [0, width) between breaks[i-1]
    (exclusive) and breaks[i] (inclusive).

    Breakpoint i moves R_i from bin q_i to bin q_i - 1.  Time order is by
    rho, then bin.  Unless the float-drift guard fires (never at a dyadic
    width), rho = u - fl(q*width) exactly (Sterbenz), so equal rho and
    u_i < u_j force q_i < q_j: u is sorted, and a stable argsort of rho is
    that order.

    q is nondecreasing along u (the drift guard could break that at a
    non-dyadic width; the tests probe values a few ulps from multiples of
    the width), so each bin is a run of u, in time order within the run, and
    at any time the crossed values are a prefix of every run.  Just before
    event i, bin q_i is its rest and bin q_i + 1's crossed prefix, [i, hi_i);
    bin q_i - 1 is its uncrossed rest and bin q_i's crossed prefix, [lo_i, i).
    With c the running sum of q's gaps capped at 2 (neighbours in c exactly
    when in q) and t the time rank, key = c*(d+1) + t is sorted, and hi_i,
    lo_i are where key_i +- (d+1) fall in it; no key equals either.  With P the
    prefix sums of R, the two bins go from P[hi_i] - P[i] and P[i] - P[lo_i]
    to P[hi_i] - P[i+1] and P[i+1] - P[lo_i]: a bin is always P at the same
    two indices, so the value one event leaves is the value the next reads.

    The samples at one value cross together, so this is a per-sample walk
    (``tests/_oracles.shift_profile_loop``) at the last event of each tie
    group, up to round-off; the walk's other pieces have length 0.
    """
    d = len(u)
    q = np.floor(u / width).astype(np.int64)
    rho = u - q * width
    # guard against float drift putting rho outside [0, width)
    over = rho >= width
    q[over] += 1
    rho[over] -= width
    under = rho < 0.0
    q[under] -= 1
    rho[under] += width
    drifted = over.any() or under.any()
    order = np.lexsort((q, rho)) if drifted else np.argsort(rho, kind="stable")

    gaps = np.minimum(np.diff(q, prepend=q[0] - 1), 2)
    t = np.empty_like(order)
    t[order] = np.arange(d)
    key = np.cumsum(gaps) * (d + 1) + t
    # Both running sums go through long double and are rounded once: summed
    # in float64, each moved rintce_exact by up to 6e-14 at 10^6 values.
    P = np.concatenate([[0.0], np.cumsum(R, dtype=np.longdouble)]).astype(np.float64)
    hi = P[np.searchsorted(key, key + (d + 1))]
    lo = P[np.searchsorted(key, key - (d + 1))]
    before, after = P[:-1], P[1:]
    # one bin's change at a time, exact while its |sum| is at least 2|R_i|
    step = (np.abs(hi - after) - np.abs(hi - before)) + (np.abs(after - lo) - np.abs(before - lo))
    start = np.sum(np.abs(np.add.reduceat(R, np.flatnonzero(gaps))))
    profile = np.cumsum(np.concatenate([[start], step[order]]), dtype=np.longdouble)
    # each true value is a sum of |bin sums|, but round-off left a 0 at -2.8e-17 (5 samples)
    np.maximum(profile, 0.0, out=profile)
    return rho[order], profile.astype(np.float64) / n


def _check_width(top: float, width: float) -> None:
    if not (0.0 < width <= 1.0):
        raise BadWidth(f"width must satisfy 0 < width <= 1, got {width}")
    # the bin ids floor(v / width) are int64, and top = max(v) gives the largest
    if top / width >= 2.0**63:
        raise BadWidth(f"width {width} is too small: bin ids overflow int64")


def _shift_count(shifts_m) -> int:
    """shifts_m as an int; raises BadConfig unless it is an integer >= 1 (a bool is not),
    and TooLarge from 2^63 on, which the int64 piece counts cannot hold."""
    try:
        count = operator.index(shifts_m)
    except TypeError:
        count = 0
    if count < 1 or isinstance(shifts_m, bool):
        raise BadConfig(f"shifts_m must be a positive integer, got {shifts_m!r}")
    if count >= 2**63:
        raise TooLarge(f"{count} shift draws per width do not fit the int64 piece counts")
    return count


def _piece_lengths(breaks: np.ndarray, width: float) -> np.ndarray:
    """Lengths of the len(breaks) + 1 pieces of [0, width) that the profile values sit on."""
    return np.diff(np.concatenate([[0.0], breaks, [width]]))


def _profile_mean(breaks: np.ndarray, values: np.ndarray, width: float) -> float:
    """The profile's mean over r ~ Unif[0, width)."""
    # np.sum, not the BLAS dot values @ lengths, whose last bits follow the thread count
    return float(np.sum(values * _piece_lengths(breaks, width)) / width)


def _draws_mean(breaks: np.ndarray, values: np.ndarray, width: float, shifts_m: int,
                rng: SeededRng) -> float:
    """The profile's mean over shifts_m draws r ~ Unif[0, width) from rng.

    Only the number of draws on each piece matters, and those counts are
    Multinomial(shifts_m, length / width).  numpy draws nothing for a piece
    of probability 0, so a per-sample profile, whose extra pieces all have
    length 0, gets the same counts.  Nothing shifts_m long is allocated.
    """
    counts = rng.multinomial(shifts_m, _piece_lengths(breaks, width) / width)
    return float(np.sum(values * counts) / shifts_m)


def rintce_exact(dist: EmpiricalDistribution, width: float) -> float:
    """Exact expectation over the uniform shift r ~ Unif[0, width)."""
    u, _, _, R = dist.grouped()
    _check_width(float(u[-1]), width)
    return _profile_mean(*_shift_profile(u, R, dist.n, width), width)


def rintce_hat(
    dist: EmpiricalDistribution,
    width: float,
    shifts_m: int,
    rng: SeededRng,
) -> float:
    """Average of the shifted binned error over shifts_m uniform draws of r."""
    u, _, _, R = dist.grouped()
    _check_width(float(u[-1]), width)
    shifts_m = _shift_count(shifts_m)
    return _draws_mean(*_shift_profile(u, R, dist.n, width), width, shifts_m, rng)


def _sintce(dist: EmpiricalDistribution, epsilon: float, shifts_m: int | None,
            rng: SeededRng | None) -> float:
    u, _, _, R = dist.grouped()
    kstar = width_exponent(epsilon)
    # a width that passes passes every wider one, so the narrowest covers the loop
    _check_width(float(u[-1]), 2.0**-kstar)
    best = math.inf
    for k in range(kstar, -1, -1):
        width = 2.0**-k
        # est >= 0, so this width and every wider one give est + width >= best
        if width >= best:
            break
        # no name holds a profile, so none outlives its width
        if shifts_m is None:
            est = _profile_mean(*_shift_profile(u, R, dist.n, width), width)
        else:
            est = _draws_mean(*_shift_profile(u, R, dist.n, width), width, shifts_m,
                              rng.substream(k))
        best = min(best, est + width)
    return best


def sintce_hat(dist: EmpiricalDistribution, cfg: IntervalEstimatorConfig) -> float:
    """Surrogate interval calibration error.

    Evaluates the randomized-shift error at dyadic widths 2^-k for
    k = k*..0 (eps/4 < 2^-k* <= eps/2), narrowest first, and returns the
    minimum of estimate + width; it stops at the first width >= the running
    minimum, which no estimate >= 0 can beat.  Deterministic given (dist, cfg
    with fixed seed): width k draws from ``rng.substream(k)``.
    """
    rng = cfg.rng if cfg.rng is not None else SeededRng(0)
    return _sintce(dist, cfg.epsilon, cfg.resolved_shifts(), rng)


def sintce_exact(dist: EmpiricalDistribution, epsilon: float = 0.01) -> float:
    """Surrogate interval error with the shift expectation taken exactly.

    Same dyadic-width minimization as ``sintce_hat``, narrowest width first
    and with the same stop rule, but with no Monte Carlo error; used as the
    deterministic reference in tests and reports.
    """
    IntervalEstimatorConfig(epsilon=epsilon)  # the same check of epsilon as sintce_hat's
    return _sintce(dist, epsilon, None, None)
