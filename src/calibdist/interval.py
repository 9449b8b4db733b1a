"""Randomized-shift interval calibration error and its estimable surrogate.

For a fixed bin width the binned error, as a function of the random shift r,
is piecewise constant in r with at most one breakpoint per distinct
prediction (the shift at which its samples cross into the previous bin).
Both the Monte Carlo estimator and the exact expectation over shifts are
evaluated on that profile, which a sorted event sweep over the d distinct
predictions builds in O(d log d) numpy operations per width.  It reads the
sorted distinct predictions and the summed residual of each from
``dist.grouped()``, built by one sort per distribution and shared by every
width and every other metric.  The Monte Carlo mean over m shifts r ~ Unif[0,
width) depends on the shifts only through how many land on each piece, and
those counts are one Multinomial(m, piece length / width) draw.  So the
estimator samples the counts, in O(pieces) and not O(m): the same
distribution as m uniform draws looked up in the profile.
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
        if self.shifts_m is not None:
            object.__setattr__(self, "shifts_m", _shift_count(self.shifts_m))

    def resolved_shifts(self) -> int:
        return self.shifts_m if self.shifts_m is not None else default_shifts(self.epsilon)


def _shift_profile(u: np.ndarray, R: np.ndarray, n: int, width: float):
    """Breakpoints and piece values of r -> sum_j |mean[(y-v) 1(v in I_{r,j})]|.

    Takes u and R of ``dist.grouped()`` and the sample count n.  Bin j at
    shift r is [r + j*width, r + (j+1)*width); value v sits in bin
    floor((v - r)/width), which drops by one exactly when r exceeds v mod
    width.  Returns (breaks, values) with len(values) = len(breaks) + 1 =
    len(u) + 1: ``values[i]`` is the profile value after the first i
    breakpoints, i.e. on the piece of [0, width) between breaks[i-1]
    (exclusive) and breaks[i] (inclusive).

    The profile is an event sweep: breakpoint i moves R_i from bin q_i to bin
    q_i - 1, i.e. updates bin q_i by -R_i and then bin q_i - 1 by +R_i.  A
    stable sort by bin keeps each bin's updates in time order, so a running
    sum per bin gives every bin value before and after each update; a running
    sum of the |.| changes in time order gives the profile.  Python loops only
    over bins.  The samples at one value cross together, so this is a
    per-sample walk (``tests/_oracles.shift_profile_loop``) at the last event
    of each tie group, up to round-off; the walk's other pieces have length 0.

    Time order is by rho, then bin.  Unless the float-drift guard fires
    (never at a dyadic width), rho = u - fl(q*width) exactly (Sterbenz), so
    equal rho and u_i < u_j force q_i < q_j: u is sorted, and a stable
    argsort of rho is that order.
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

    q -= q.min() - 1  # bin ids from 1, so every q - 1 is an id >= 0
    if int(q.max()) > 2 * d:
        # narrow widths: shrink gaps between occupied bins to one empty bin,
        # which keeps q - 1 apart from every other occupied bin
        used, q = np.unique(q, return_inverse=True)
        q = np.cumsum(np.minimum(np.diff(used, prepend=-1), 2))[q]

    init = np.bincount(q, weights=R)
    order = np.lexsort((q, rho)) if drifted else np.argsort(rho, kind="stable")
    rho = rho[order]
    # event i, in time order, is the update pair (q_i, -R_i), (q_i - 1, +R_i);
    # int16 ids make the stable argsort a radix sort
    ids = np.empty(2 * d, dtype=np.int16 if q.max() < 2**15 else np.int32)
    ids[0::2] = q[order]
    ids[1::2] = ids[0::2] - 1
    steps = np.empty(2 * d)
    steps[1::2] = R[order]
    np.negative(steps[1::2], out=steps[0::2])
    del q, order  # free before the 2d-long arrays below
    by_bin = np.argsort(ids, kind="stable")
    ids = ids[by_bin]
    after = steps[by_bin]
    heads = np.flatnonzero(np.diff(ids, prepend=-1))
    start = init[ids[heads]]
    after[heads] += start
    tails = np.append(heads[1:], 2 * d)
    runs = tails - heads > 1
    for s, e in zip(heads[runs], tails[runs]):
        np.cumsum(after[s:e], out=after[s:e])
    before = np.empty_like(after)
    before[1:] = after[:-1]
    before[heads] = start

    # back to time order as magnitudes, steps holding |new| and after |old|;
    # per event total -= |old_q| + |old_lo|, then total += |new_q| + |new_lo|
    steps[by_bin] = np.abs(after)
    after[by_bin] = np.abs(before)
    profile = np.empty(2 * d + 1)
    profile[0] = np.sum(np.abs(init))
    profile[1::2] = -(after[0::2] + after[1::2])
    profile[2::2] = steps[0::2] + steps[1::2]
    np.cumsum(profile, out=profile)
    return rho, profile[0::2] / n


def _check_width(top: float, width: float) -> None:
    if not (0.0 < width <= 1.0):
        raise BadWidth(f"width must satisfy 0 < width <= 1, got {width}")
    # the bin ids floor(v / width) are int64, and top = max(v) gives the largest
    if top / width >= 2.0**63:
        raise BadWidth(f"width {width} is too small: bin ids overflow int64")


def _shift_count(shifts_m) -> int:
    """shifts_m as an int; raises BadConfig unless it is an integer >= 1 (a bool is not)."""
    try:
        count = operator.index(shifts_m)
    except TypeError:
        count = 0
    if count < 1 or isinstance(shifts_m, bool):
        raise BadConfig(f"shifts_m must be a positive integer, got {shifts_m!r}")
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
    if shifts_m >= 2**63:
        raise TooLarge(f"{shifts_m} shift draws per width do not fit the int64 piece counts")
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
    best = math.inf
    for k in range(width_exponent(epsilon) + 1):
        width = 2.0**-k
        _check_width(float(u[-1]), width)
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
