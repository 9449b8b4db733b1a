"""Domain types: empirical prediction-label distributions, seeded randomness,
grid rounding, and reliability-diagram summaries.

Everything here is immutable after construction and pure given an explicit
:class:`SeededRng`, so values can be shared freely across threads.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import BadBins, BadConfig, BadLabel, BadStep, EmptyInput, OutOfRange

__all__ = [
    "MAX_BINS",
    "EmpiricalDistribution",
    "SeededRng",
    "ReliabilityColumns",
    "make_empirical",
    "round_to_grid",
    "reliability_bins",
]


class EmpiricalDistribution:
    """Ordered multiset of (v, y) pairs, each carrying uniform weight 1/n.

    Samples keep their insertion order.  The backing arrays are read-only;
    treat instances as values.  Every exact metric but the reliability
    summary reads the samples through the cached view ``grouped()``.
    """

    __slots__ = ("_v", "_y", "_grouped")

    def __init__(self, v: np.ndarray, y: np.ndarray):
        v = np.asarray(v, dtype=np.float64)
        y_f = np.asarray(y, dtype=np.float64)
        if v.ndim != 1 or y_f.shape != v.shape:
            raise BadConfig(f"v and y must be 1-d arrays of equal length, got {v.shape} and {y_f.shape}")
        if v.size == 0:
            raise EmptyInput("an empirical distribution needs at least one sample")
        inside = (v >= 0.0) & (v <= 1.0)  # False for NaN, so NaN is rejected too
        if not inside.all():
            bad = float(v[~inside][0])
            raise OutOfRange(f"prediction {bad!r} outside [0, 1]")
        if not np.all((y_f == 0.0) | (y_f == 1.0)):
            bad = float(y_f[(y_f != 0.0) & (y_f != 1.0)][0])
            raise BadLabel(f"label {bad!r} not in {{0, 1}}")
        v = v.copy()
        y = y_f.astype(np.int8)
        v.setflags(write=False)
        y.setflags(write=False)
        self._v = v
        self._y = y
        self._grouped = None

    @property
    def v(self) -> np.ndarray:
        """Predictions, shape (n,), read-only."""
        return self._v

    @property
    def y(self) -> np.ndarray:
        """Labels as 0/1 integers, shape (n,), read-only."""
        return self._y

    @property
    def n(self) -> int:
        return self._v.size

    def pairs(self) -> list[tuple[float, int]]:
        """The raw (v, y) list in insertion order; round-trips make_empirical."""
        return [(float(v), int(y)) for v, y in zip(self._v, self._y)]

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalDistribution):
            return NotImplemented
        return np.array_equal(self._v, other._v) and np.array_equal(self._y, other._y)

    def __repr__(self) -> str:
        return f"EmpiricalDistribution(n={self.n})"

    def residuals(self) -> np.ndarray:
        """y - v per sample; the basic miscalibration signal."""
        return self._y.astype(np.float64) - self._v

    def grouped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(u, count, ones, R): the samples grouped by prediction, read-only arrays.

        u: the sorted distinct predictions (-0.0 and 0.0 one value); count:
        samples at each; ones: their label-1 count, an exact float64 sum; R =
        ones - count * u: their summed residual.  Built by one sort on the
        first call and kept: the samples never change, so the view cannot go
        stale, and threads racing to build it can only store equal arrays.
        """
        if self._grouped is None:
            self._grouped = distinct_predictions(self)
        return self._grouped


class SeededRng:
    """Deterministic random stream: same seed + same call sequence -> same output.

    Thin wrapper over numpy's PCG64 generator.  ``substream`` derives an
    independent deterministic stream from (seed, *keys), which is how
    parallel lanes (per metric, per sweep trial, per interval width) stay
    reproducible.
    """

    __slots__ = ("seed", "_keys", "_gen")

    def __init__(self, seed: int, _keys: tuple[int, ...] = ()):
        if not (0 <= int(seed) < 2**64):
            raise BadConfig(f"seed must be an integer in [0, 2^64), got {seed}")
        self.seed = int(seed)
        self._keys = tuple(int(k) for k in _keys)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self._keys))
        )

    def substream(self, *keys: int) -> "SeededRng":
        """A fresh stream derived from (seed, existing keys, *keys)."""
        return SeededRng(self.seed, self._keys + tuple(int(k) for k in keys))

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def multinomial(self, n: int, pvals, size=None):
        return self._gen.multinomial(n, pvals, size)

    def random(self, size=None):
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size=None, p=None):
        return self._gen.choice(n, size=size, p=p)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, keys={self._keys})"


def make_empirical(pairs: Iterable[tuple[float, int]] | Sequence) -> EmpiricalDistribution:
    """Validate a list of (prediction, label) pairs into a distribution.

    Raises EmptyInput / OutOfRange / BadLabel; preserves input order.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyInput("no samples given")
    v = np.array([p[0] for p in pairs], dtype=np.float64)
    y_raw = [p[1] for p in pairs]
    for lab in y_raw:
        if lab not in (0, 1):
            raise BadLabel(f"label {lab!r} not in {{0, 1}}")
    return EmpiricalDistribution(v, np.array(y_raw, dtype=np.int8))


def round_to_grid(dist: EmpiricalDistribution, step: float) -> EmpiricalDistribution:
    """Round every prediction to the nearest multiple of ``step``, clamped to [0, 1].

    Exact ties go to the larger grid point, so the operation is deterministic
    and idempotent.  When the nearest multiple exceeds 1 the value clamps to
    1 itself, which only shortens the move; either way
    |v_out - v_in| <= step / 2 and labels are unchanged.
    """
    if not (0.0 < step <= 1.0):
        raise BadStep(f"step must satisfy 0 < step <= 1, got {step}")
    k = np.floor(dist.v / step + 0.5)
    out = np.minimum(k * step, 1.0)
    return EmpiricalDistribution(out, dist.y)


def sorted_pairs(dist: EmpiricalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(v, y) in (v, y)-lexicographic order, y as float64 0.0/1.0.

    Each pair is packed into one uint64 key, the bits of v shifted left by
    one with y in the low bit, and the keys go through one unstable sort.
    This is exact: every v lies in [0, 1], where the bit patterns of
    non-negative floats sort as the floats do and 1.0's is below 2^62, so
    the shift loses no bit of any v but the sign bit, which only -0.0
    carries there; -0.0 therefore packs as 0.0.  Equal keys are identical
    pairs, so the order among them cannot show.  The result equals the
    lexsort gather ``v[order], y[order]`` with ``order = np.lexsort((y, v))``
    once -0.0 is folded into 0.0.
    """
    key = dist.v.view(np.uint64) << 1
    key |= dist.y.view(np.uint8)
    key.sort()
    y = np.empty(key.shape)
    np.bitwise_and(key, 1, out=y)
    key >>= 1
    return key.view(np.float64), y


def distinct_predictions(dist: EmpiricalDistribution):
    """``EmpiricalDistribution.grouped``'s builder, from one ``sorted_pairs`` sort.

    Without ties the sorted samples are the groups, and no reduction runs.
    """
    v, y = sorted_pairs(dist)
    new = v[1:] != v[:-1]
    if new.all():
        u, count, ones = v, np.ones(dist.n, dtype=np.intp), y
    else:
        heads = np.flatnonzero(np.concatenate(([True], new)))
        u, count, ones = v[heads], np.diff(heads, append=dist.n), np.add.reduceat(y, heads)
    view = (u, count, ones, ones - count * u)
    for column in view:
        column.setflags(write=False)
    return view


def readonly(values) -> np.ndarray:
    """A read-only float64 copy of ``values``."""
    out = np.array(values, dtype=np.float64)
    out.setflags(write=False)
    return out


# kce's randomized estimators refuse to allocate their draw or term arrays
# above this many bytes (1 GiB) and raise TooLarge instead of a MemoryError.
MAX_DRAW_BYTES = 1 << 30

# Bin counts above this are refused before anything is allocated: a size
# guard on the partition and reliability arrays, O(bins) each.
MAX_BINS = 1_000_000


def check_bins(bins) -> int:
    """bins as an int; raises BadBins unless it is an integer in [1, MAX_BINS]."""
    try:
        count = operator.index(bins)
    except TypeError:
        count = 0
    if count < 1:
        raise BadBins(f"bins must be a positive integer, got {bins!r}")
    if count > MAX_BINS:
        raise BadBins(f"bins must be at most {MAX_BINS}, got {count}")
    return count


class ReliabilityColumns(NamedTuple):
    """Reliability-diagram summary: one read-only array per field, one entry per bin.

    Bin b is [lo[b], hi[b]); mean_v and mean_y are NaN where count is 0.
    """

    lo: np.ndarray
    hi: np.ndarray
    count: np.ndarray
    mean_v: np.ndarray
    mean_y: np.ndarray


def reliability_bins(dist: EmpiricalDistribution, bins: int) -> ReliabilityColumns:
    """Equal-width reliability-diagram summary.

    Bins are [i/bins, (i+1)/bins), half-open, with the last bin closed at 1
    so counts always sum to n: the bins of ``uniform_partition(bins)``, so a
    sample lands where ``binned_ece`` counts it.  At most ``MAX_BINS`` bins.
    Each mean is the slice ``.mean()`` of the bin's samples in input order,
    bit for bit.
    """
    bins = check_bins(bins)
    edges = np.arange(bins + 1) / bins
    idx = np.minimum((dist.v * bins).astype(np.int64), bins - 1)
    # floor(v * bins) can miss by one next to a rounded edge; one comparison
    # with each neighbouring edge gives the partition's bin_index in O(n)
    idx -= dist.v < edges[idx]
    idx += dist.v >= edges[idx + 1]
    np.minimum(idx, bins - 1, out=idx)
    # A stable sort lays each bin's samples out in input order as one slice.
    v = dist.v[np.argsort(idx, kind="stable")]
    count = np.bincount(idx, minlength=bins)
    start = np.cumsum(count) - count
    # The bins of one count L are summed as the rows of one gathered (k, L)
    # matrix, which adds each row as .sum() adds a slice of length L;
    # np.add.reduceat adds in sequence and would change the bits.
    sum_v = np.zeros(bins)
    by_count = np.argsort(count, kind="stable")
    lengths, firsts = np.unique(count[by_count], return_index=True)
    for length, rows in zip(lengths.tolist(), np.split(by_count, firsts[1:])):
        sum_v[rows] = v[start[rows, None] + np.arange(length)].sum(axis=1)
    with np.errstate(invalid="ignore"):  # 0 / 0 is the NaN of an empty bin
        out = ReliabilityColumns(edges[:-1], edges[1:], count,
                                 sum_v / count,
                                 np.bincount(idx, weights=dist.y, minlength=bins) / count)
    for column in out:
        column.setflags(write=False)
    return out
