"""Randomized-shift interval calibration error and its estimable surrogate.

For a fixed bin width the binned error, as a function of the random shift r,
is piecewise constant in r with at most one breakpoint per sample (the shift
at which that sample crosses into the previous bin).  Both the Monte Carlo
estimator and the exact expectation over shifts are evaluated on that profile,
which a sorted event sweep builds in O(n log n) numpy operations per width.
The sweep visits the samples in (rho, q) order, rho = v mod width and q the
bin; that order comes from one stable argsort of the predictions, shared by
every width of ``sintce_hat`` and ``sintce_exact``, and one stable argsort of
rho in that order, which equals ``np.lexsort((q, rho))``.  Each Monte Carlo
draw is then looked up in a table of equal buckets over [0, width): a bucket
that holds no breakpoint has one known piece value, so most draws cost one
multiply and one gather, and only draws in a bucket that holds a breakpoint
take a binary search.  The draws are the same stream and the gathered values
the same floats as a binary search of every draw.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import MAX_DRAW_BYTES, EmpiricalDistribution, SeededRng
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

_DRAW_BLOCK = 1 << 16  # Monte Carlo draws generated and looked up at a time
_MAX_BUCKETS = 1 << 17  # largest bucket table, 1 MiB of float64
_BUCKETS_PER_BREAK = 64
# Above this many distinct breaks the missed draws are searched in sorted
# order; among a few hundred, sorting them costs more than it saves.
_SORTED_SEARCH = 4096


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


def _shift_profile(dist: EmpiricalDistribution, width: float, by_v: np.ndarray | None = None):
    """Breakpoints and piece values of r -> sum_j |mean[(y-v) 1(v in I_{r,j})]|.

    Bin j at shift r is [r + j*width, r + (j+1)*width); sample v sits in bin
    floor((v - r)/width), which drops by one exactly when r exceeds v mod
    width.  Returns (breaks, values) with len(values) = len(breaks) + 1:
    ``values[i]`` is the profile value after the first i breakpoints, i.e.
    on the piece of [0, width) between breaks[i-1] (exclusive) and breaks[i]
    (inclusive).

    The profile is an event sweep: breakpoint i moves r_i from bin q_i to bin
    q_i - 1, i.e. updates bin q_i by -r_i and then bin q_i - 1 by +r_i.  A
    stable sort by bin keeps each bin's updates in time order, so a running
    sum per bin gives every bin value before and after each update; a running
    sum of the |.| changes in time order gives the profile.  Each sum adds the
    same floats in the same order as a per-sample walk with one dict of bin
    sums (``tests/_oracles.shift_profile_loop``), so the result is bit for bit
    that walk's.  Python loops only over bins, never over samples.

    Time order is ``np.lexsort((q, rho))``: by rho, then bin, then input
    order.  It is taken as a stable argsort of rho in the order ``by_v``, a
    stable argsort of v (computed here when not given; ``_sintce`` shares one
    across its widths).  Unless the float-drift guard fires (never at a
    dyadic width), rho = v - fl(q*width) exactly (Sterbenz), so equal rho and
    v_i < v_j force q_i < q_j, and equal v keeps input order: v order breaks
    rho ties as the lexsort does.  Within a bin rho rises with v, so in v
    order each bin is one sorted run and timsort only merges runs.
    """
    v = dist.v
    r = dist.residuals()
    n = dist.n
    q = np.floor(v / width).astype(np.int64)
    rho = v - q * width
    # guard against float drift putting rho outside [0, width)
    over = rho >= width
    q[over] += 1
    rho[over] -= width
    under = rho < 0.0
    q[under] -= 1
    rho[under] += width
    drifted = over.any() or under.any()

    q -= q.min() - 1  # bin ids from 1, so every q - 1 is an id >= 0
    if int(q.max()) > 2 * n:
        # narrow widths: shrink gaps between occupied bins to one empty bin,
        # which keeps q - 1 apart from every other occupied bin
        used, q = np.unique(q, return_inverse=True)
        q = np.cumsum(np.minimum(np.diff(used, prepend=-1), 2))[q]

    # initial bin sums in sample order; their total in order of first
    # appearance, as the dict of a per-sample walk holds them
    init = np.bincount(q, weights=r)
    first = np.full(len(init), n)
    np.minimum.at(first, q, np.arange(n))
    occupied = np.flatnonzero(first < n)
    total = sum(abs(s) for s in init[occupied[np.argsort(first[occupied])]])

    if drifted:
        order = np.lexsort((q, rho))
    else:
        if by_v is None:
            by_v = np.argsort(v, kind="stable")
        order = by_v[np.argsort(rho[by_v], kind="stable")]
    rho = rho[order]
    # event i, in time order, is the update pair (q_i, -r_i), (q_i - 1, +r_i);
    # int16 ids make the stable argsort a radix sort
    ids = np.empty(2 * n, dtype=np.int16 if q.max() < 2**15 else np.int32)
    ids[0::2] = q[order]
    ids[1::2] = ids[0::2] - 1
    steps = np.empty(2 * n)
    steps[1::2] = r[order]
    np.negative(steps[1::2], out=steps[0::2])
    del q, r, order  # free before the 2n-long arrays below
    by_bin = np.argsort(ids, kind="stable")
    ids = ids[by_bin]
    after = steps[by_bin]
    heads = np.flatnonzero(np.diff(ids, prepend=-1))
    start = init[ids[heads]]
    after[heads] += start
    tails = np.append(heads[1:], 2 * n)
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
    profile = np.empty(2 * n + 1)
    profile[0] = total
    profile[1::2] = -(after[0::2] + after[1::2])
    profile[2::2] = steps[0::2] + steps[1::2]
    np.cumsum(profile, out=profile)
    return rho, profile[0::2] / n


def _check_width(dist: EmpiricalDistribution, width: float) -> None:
    if not (0.0 < width <= 1.0):
        raise BadWidth(f"width must satisfy 0 < width <= 1, got {width}")
    # the bin ids floor(v / width) are int64, and max(v) / width is the largest
    if float(dist.v.max()) / width >= 2.0**63:
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


class _PieceLookup:
    """Piece values ``values[np.searchsorted(breaks, x, "left")]`` of draws x in [0, width].

    Quantized inputs repeat breakpoints, so the search runs among the distinct
    ones, each paired with the value after all breaks below it.  In front of
    the search sits a table of equal buckets: x falls in bucket floor(x *
    scale), with scale = buckets / width.  That map is monotone, so the breaks
    below x include every break in a lower bucket and none in a higher one,
    and in a bucket that holds no break every x has the same piece value.
    ``table[k]`` holds that value, or NaN (never a profile value) where bucket
    k holds a break; only draws there are searched.  About 64 buckets per
    distinct break keep most draws off the occupied ones.  With more distinct
    breaks than the largest table has buckets, or a scale that overflows,
    every draw is searched.  Among many distinct breaks the missed draws are
    searched in sorted order, which walks the breaks once instead of jumping;
    the indices, and so the gathered floats, are the same.
    """

    def __init__(self, breaks: np.ndarray, values: np.ndarray, width: float):
        tied = breaks[1:] == breaks[:-1]
        if tied.any():
            heads = np.flatnonzero(np.append(True, ~tied))
            breaks, values = breaks[heads], values[np.append(heads, len(breaks))]
        self.breaks, self.values = breaks, values
        buckets = min(1 << (_BUCKETS_PER_BREAK * len(breaks) - 1).bit_length(), _MAX_BUCKETS)
        self.scale = buckets / width
        self.table = None
        if len(breaks) <= buckets and math.isfinite(self.scale):
            # bucket k's piece is the number of keys below k: piece i fills
            # buckets keys[i-1] + 1 .. keys[i], the last one up to ``buckets``
            keys = (breaks * self.scale).astype(np.intp)
            self.table = np.repeat(values, np.diff(keys, prepend=-1, append=buckets))
            self.table[keys] = np.nan

    def __call__(self, draws: np.ndarray, out: np.ndarray) -> None:
        miss = slice(None)
        if self.table is not None:
            np.take(self.table, (draws * self.scale).astype(np.intp), out=out)
            miss = np.flatnonzero(np.isnan(out))
        x = draws[miss]
        if len(self.breaks) > _SORTED_SEARCH:
            up = np.argsort(x)
            idx = np.empty(len(x), dtype=np.intp)
            idx[up] = np.searchsorted(self.breaks, x[up], side="left")
        else:
            idx = np.searchsorted(self.breaks, x, side="left")
        out[miss] = self.values[idx]


def _profile_mean(breaks: np.ndarray, values: np.ndarray, width: float) -> float:
    """The profile's mean over r ~ Unif[0, width)."""
    edges = np.concatenate([[0.0], breaks, [width]])
    lengths = np.diff(edges)  # n + 1 pieces, matching the n + 1 profile values
    # np.sum, not the BLAS dot values @ lengths, whose last bits follow the thread count
    return float(np.sum(values * lengths) / width)


def _draws_mean(lookup: _PieceLookup, width: float, shifts_m: int, rng: SeededRng) -> float:
    """The profile's mean over shifts_m draws r ~ Unif[0, width) from rng."""
    if 8 * shifts_m > MAX_DRAW_BYTES:
        raise TooLarge(f"{shifts_m} shift draws per width need {8 * shifts_m} bytes of "
                       f"float64, above the {MAX_DRAW_BYTES} byte cap")
    # The draws come in blocks, which is the same stream as one call, and the
    # value for draw r is the state after all breakpoints strictly below r.
    # One mean over all of them sums in the same order as a single gather.
    out = np.empty(shifts_m)
    for lo in range(0, shifts_m, _DRAW_BLOCK):
        draws = rng.uniform(0.0, width, min(_DRAW_BLOCK, shifts_m - lo))
        lookup(draws, out[lo:lo + len(draws)])
    return float(out.mean())


def rintce_exact(dist: EmpiricalDistribution, width: float) -> float:
    """Exact expectation over the uniform shift r ~ Unif[0, width)."""
    _check_width(dist, width)
    return _profile_mean(*_shift_profile(dist, width), width)


def rintce_hat(
    dist: EmpiricalDistribution,
    width: float,
    shifts_m: int,
    rng: SeededRng,
) -> float:
    """Average of the shifted binned error over shifts_m uniform draws of r."""
    _check_width(dist, width)
    shifts_m = _shift_count(shifts_m)
    return _draws_mean(_PieceLookup(*_shift_profile(dist, width), width), width, shifts_m, rng)


def _sintce(dist: EmpiricalDistribution, epsilon: float, shifts_m: int | None,
            rng: SeededRng | None) -> float:
    by_v = np.argsort(dist.v, kind="stable")  # one prediction order for every width
    best = math.inf
    for k in range(width_exponent(epsilon) + 1):
        width = 2.0**-k
        _check_width(dist, width)
        if shifts_m is None:
            est = _profile_mean(*_shift_profile(dist, width, by_v), width)
        else:
            # no name holds the profile: the lookup keeps only its distinct breaks
            lookup = _PieceLookup(*_shift_profile(dist, width, by_v), width)
            est = _draws_mean(lookup, width, shifts_m, rng.substream(k))
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
