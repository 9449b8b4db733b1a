"""Expected calibration error and binned variants over interval partitions.

ECE groups samples by exact equality of the prediction, so it is
meaningful only for predictors with repeated values; the binned variants are
what one computes for continuous-valued predictors.  Adding the mass-weighted
average bin width to the binned error turns it into an upper bound on the
distance to calibration, which the bare binned error is not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmpiricalDistribution, check_bins, readonly
from .errors import BadBins

__all__ = ["IntervalPartition", "ece", "binned_ece", "uniform_partition"]


@dataclass(frozen=True, eq=False)
class IntervalPartition:
    """Ordered disjoint intervals covering [0, 1].

    ``boundaries`` (a read-only float64 array) are strictly increasing with
    first 0 and last 1; interval j is [b_j, b_{j+1}), the last one closed at 1.
    """

    boundaries: np.ndarray

    def __post_init__(self):
        b = readonly(self.boundaries)
        object.__setattr__(self, "boundaries", b)
        if b.ndim != 1 or b.size < 2:
            raise BadBins("a partition needs at least two boundaries")
        if not (b[0] == 0.0 and b[-1] == 1.0):
            raise BadBins(f"boundaries must start at 0 and end at 1, got [{b[0]}, {b[-1]}]")
        if not np.all(b[1:] > b[:-1]):
            raise BadBins("boundaries must be strictly increasing")

    @property
    def m(self) -> int:
        return self.boundaries.size - 1

    def widths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def bin_index(self, v: np.ndarray) -> np.ndarray:
        """Index of the interval containing each v; 1.0 lands in the last one."""
        idx = np.searchsorted(self.boundaries, v, side="right") - 1
        return np.minimum(idx, self.m - 1)


def uniform_partition(bins: int) -> IntervalPartition:
    """Equal-width partition with boundaries {0, 1/bins, ..., 1}; at most ``MAX_BINS`` bins."""
    bins = check_bins(bins)
    return IntervalPartition(np.arange(bins + 1) / bins)


def ece(dist: EmpiricalDistribution) -> float:
    """Expected calibration error: sum over distinct v of p(v) |mean_y(v) - v|.

    Distinctness is bitwise equality of the stored float64 predictions,
    except that -0.0 and 0.0 count as one value.
    """
    u, count, ones, _ = dist.grouped()
    return float(np.sum(count * np.abs(ones / count - u)) / dist.n)


def binned_ece(
    dist: EmpiricalDistribution,
    part: IntervalPartition,
    width_penalty: bool = False,
) -> float:
    """Binned ECE over the given partition, optionally plus the average width.

    The base value is sum_j |mean[(y - v) 1(v in I_j)]|.  With the penalty the
    mass-weighted average interval width sum_j mean[1(v in I_j) w(I_j)] is
    added, making the result an upper bound on the post-processing distance
    to calibration.  Both sum ``dist.grouped()``'s R and counts per bin, so
    any order of the samples gives the same bits.
    """
    u, count, _, R = dist.grouped()
    idx = part.bin_index(u)
    per_bin = np.bincount(idx, weights=R, minlength=part.m)
    value = float(np.abs(per_bin).sum() / dist.n)
    if width_penalty:
        mass = np.bincount(idx, weights=count, minlength=part.m) / dist.n
        # np.sum, not the BLAS dot mass @ widths, whose last bits follow the thread count
        value += float(np.sum(mass * part.widths()))
    return value
