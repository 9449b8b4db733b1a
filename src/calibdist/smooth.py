"""Smooth calibration error: maximization over bounded 1-Lipschitz weights.

On an empirical distribution the supremum is a finite program.  Equal
predictions share a weight, so the program has one variable per distinct
prediction, with coefficient R / n from ``dist.grouped()`` (the summed
residual of the value's samples), and on sorted distinct values the Lipschitz
constraints between adjacent points imply all pairwise ones by telescoping.
The remaining path-structured program is solved exactly in O(d log d) by a
dynamic program over the convex conjugate of its value function (Hu,
Jambulapati, Tian and Yang, "Testing Calibration in Nearly-Linear Time");
the reported value is the objective of the witness it returns.  Only numpy
and the standard library are used; no LP solver runs here.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .core import EmpiricalDistribution, readonly

__all__ = ["WeightVector", "smce"]


@dataclass(frozen=True, eq=False)
class WeightVector:
    """A 1-Lipschitz weight in [-1, 1] restricted to the sample support.

    values: distinct sorted predictions; z: the weight at each value.  Both
    are read-only float64 arrays.
    """

    values: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        values, z = readonly(self.values), readonly(self.z)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "z", z)
        if values.ndim != 1 or values.shape != z.shape or not values.size:
            raise ValueError("values and z must be non-empty and equally long")
        if not np.all(values[1:] > values[:-1]):
            raise ValueError("values must be strictly increasing")
        if not np.all(np.abs(z) <= 1.0):
            raise ValueError("weights must lie in [-1, 1]")
        if not np.all(np.abs(np.diff(z)) <= np.diff(values)):
            raise ValueError("weights must be 1-Lipschitz across adjacent values")


def _chain_dp(values: np.ndarray, coef: np.ndarray):
    """Primal peaks p_j and live ends (lo_j, hi_j) of the conjugate chain DP.

    With S_j = c_1 + ... + c_j and gaps g_j, the dual of the chain program is
    min sum_j |A_j - A_{j-1}| + sum_{j<d} g_j |A_j - S_j| over paths with
    A_0 = 0 and A_d = S_d.  Its value function F_j(A) (paths ending at A_j =
    A) is convex and piecewise linear with slopes in [-1, 1] and breakpoints
    only at {0, S_1, ..., S_{d-1}}.  A breakpoint's weight is its slope
    change, so the weights sum to 2 and F_j's left derivative at A is (weight
    strictly left of A) - 1.  That derivative at S_j is the peak p_j, the
    maximizer of the primal value function of the first j values.  Passing to
    F_{j+1} adds g_j |A - S_j| (weight 2 g_j at S_j) and clamps the slopes
    back to [-1, 1], which trims weight g_j from each end.  Weights live in a
    Fenwick tree over the positions' ranks; the ends are a min-heap and a
    max-heap of live ranks with lazy deletion.  Each breakpoint is consumed
    at most once, so the pass is O(d log d).  F_j's outermost breakpoints
    (lo_j, hi_j) give the dual path back from A_d: A_{j-1} = clip(A_j, lo_j,
    hi_j).
    """
    d = len(values)
    gaps = np.diff(values).tolist()
    prefix = np.cumsum(coef)
    positions = np.unique(np.concatenate(([0.0], prefix[:-1])))
    insert_at = np.searchsorted(positions, prefix[:-1]).tolist()
    left_of = np.searchsorted(positions, prefix).tolist()
    pos = positions.tolist()
    m = len(pos)
    tree = [0.0] * (m + 1)
    weight = [0.0] * m

    def add(i, w):
        weight[i] += w
        i += 1
        while i <= m:
            tree[i] += w
            i += i & -i

    def trim(heap, sign, need):
        while need > 0.0:
            i = sign * heap[0]
            w = weight[i]
            if w <= need:  # consumed: w - w leaves the exact zero that marks it dead
                heapq.heappop(heap)
                if w > 0.0:
                    need -= w
                    add(i, -w)
            else:
                add(i, -need)
                need = 0.0

    def live(heap, sign):
        while weight[sign * heap[0]] == 0.0:
            heapq.heappop(heap)
        return pos[sign * heap[0]]

    start = int(np.searchsorted(positions, 0.0))
    low, high = [start], [-start]
    add(start, 2.0)
    peaks, lo, hi = [0.0] * d, [0.0] * d, [0.0] * d
    for j in range(d):
        lo[j] = live(low, 1)
        hi[j] = live(high, -1)
        k, s = left_of[j], 0.0
        while k > 0:
            s += tree[k]
            k -= k & -k
        peaks[j] = s - 1.0
        if j < d - 1:
            g, i = gaps[j], insert_at[j]
            if weight[i] == 0.0:
                heapq.heappush(low, i)
                heapq.heappush(high, -i)
            add(i, 2.0 * g)
            trim(low, 1, g)
            trim(high, -1, g)
    return peaks, lo, hi


def smce(dist: EmpiricalDistribution) -> tuple[float, WeightVector]:
    """Smooth calibration error with an optimal weight witness.

    Maximizes sum_v c_v z_v over z in [-1, 1] with adjacent-pair Lipschitz
    constraints, where c_v sums the residuals of all samples predicting v.
    The value is nonnegative because z = 0 is feasible and the weight class
    is symmetric under negation; it is computed from the returned witness.
    """
    values, _, _, R = dist.grouped()
    coef = R / dist.n
    z, _, _ = _chain_dp(values, coef)
    gaps = np.diff(values).tolist()
    # Backwards from the last value, each weight is its peak clipped to [-1, 1]
    # and to the window the next weight allows.  Both contain z[j+1], and
    # z[j+1] +- gap is itself rounded, so a last ulp walk toward z[j+1] makes
    # every step feasible in floating point, not only in exact arithmetic.
    z[-1] = min(max(z[-1], -1.0), 1.0)
    for j in range(len(z) - 2, -1, -1):
        nxt, gap = z[j + 1], gaps[j]
        zj = min(max(z[j], -1.0, nxt - gap), 1.0, nxt + gap)
        while abs(zj - nxt) > gap:
            zj = math.nextafter(zj, nxt)
        z[j] = zj
    witness = WeightVector(values=values, z=z)
    # np.sum, not the BLAS dot coef @ z, whose last bits follow the thread count
    value = float(np.sum(coef * witness.z))
    return (value if value > 0.0 else 0.0), witness
