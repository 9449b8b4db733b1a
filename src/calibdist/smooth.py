"""Smooth calibration error: maximization over bounded 1-Lipschitz weights.

On an empirical distribution the supremum is a finite program.  Equal
predictions share a weight, so the program has one variable per distinct
prediction, with coefficient R / n from ``dist.grouped()`` (the summed
residual of the value's samples), and on sorted distinct values the Lipschitz
constraints between adjacent points imply all pairwise ones by telescoping.
The remaining path-structured program is solved exactly in O(d log d) by a
dynamic program over the convex conjugate of its value function (Hu,
Jambulapati, Tian and Yang, "Testing Calibration in Nearly-Linear Time").
Each step of that program is a clamp map t -> clip(t + a, lo, hi), so its
peaks come from tables of composed maps over dyadic blocks of steps, built
level by level in numpy (``_peaks``); a backward pass clips the peaks into
the witness, and the reported value is the witness's objective.  Only numpy
and the standard library are used; no LP solver runs here.
"""

from __future__ import annotations

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


def _clip(x: np.ndarray, lo, hi) -> np.ndarray:
    """x clipped to [lo, hi], in place."""
    np.maximum(x, lo, out=x)
    return np.minimum(x, hi, out=x)


def _compose(outer, inner):
    """The clamp map t -> outer(inner(t)), written over inner's arrays.

    A map (a, lo, hi) is t -> clip(t + a, lo, hi), with lo <= hi; its parts
    are arrays of one shape or scalars.  clip(clip(t + a1, lo1, hi1) + a2,
    lo2, hi2) = clip(t + a1 + a2, clip(lo1 + a2, lo2, hi2), clip(hi1 + a2,
    lo2, hi2)).
    """
    a2, lo2, hi2 = outer
    a1, lo1, hi1 = inner
    lo1 += a2
    hi1 += a2
    a1 += a2
    return a1, _clip(lo1, lo2, hi2), _clip(hi1, lo2, hi2)


def _gather(maps, at):
    """The entries ``at`` of a table of maps; a scalar part is shared by all."""
    return tuple(x.take(at) if np.ndim(x) else x for x in maps)


def _sources(right: np.ndarray, level: int, pos: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each element's position in its children's orders, per position of the merged order.

    right marks the merged positions whose element comes from the right child;
    the merged blocks are 2s = 2^(level+1) long.  Position p of block b has
    R = counts[p] - b s right elements before it in the block, where counts is
    filled here with the running count of right marks.  A left element moves
    to 2bs + (p - 2bs - R), a right one to 2bs + s + R.
    """
    np.cumsum(right, out=counts[1:])
    before = counts[:-1]
    s = 1 << level
    # p - before + bs for a left element, before + s + bs for a right one
    src = 2 * before + s - pos
    src *= right
    src += pos
    src -= before
    src += (pos >> (level + 1)) << level
    return src.astype(np.intp)


def _child_bits(order: np.ndarray, levels: int, pos: np.ndarray, counts: np.ndarray):
    """For each level from 0 up, which elements of the merged orders come from a right child.

    order lists all steps in (P, -index) order.  At level l the steps form
    blocks of 2^(l+1), each listed in that order, and a step comes from the
    right child when bit l of its index is set.  Each level's order is split
    stably from the one above, so only the marks (one byte per step) are kept.
    """
    bits = []
    for level in range(levels - 1, -1, -1):
        right = (order & (1 << level)) != 0
        bits.append(right)
        if level:
            child = np.empty_like(order)
            child[_sources(right, level, pos, counts)] = order
            order = child
    return bits[::-1]


def _apply_siblings(acc, table, right: np.ndarray, level: int) -> None:
    """Compose into each right child's maps in acc its left sibling's entry.

    acc holds one map per step, listed in the children's orders; the i-th
    step of block b's right child sits at merged position p, after p - 2bs -
    i of its sibling's steps, and that sibling's table starts at 2b(s + 1).
    """
    s = 1 << level
    at = np.flatnonzero(right).reshape(-1, s)
    at += 2 * np.arange(len(at))[:, None] - np.arange(s)
    later = tuple(x.reshape(-1, 2, s)[:, 1] for x in acc)
    for view, x in zip(later, _compose(later, _gather(table, at))):
        view[...] = x


def _merged_table(table, counts: np.ndarray, level: int):
    """The tables of blocks of 2s = 2^(level+1) steps from their children's.

    counts is the running count of the level's right marks, as ``_sources``
    leaves it.  Entry k of block b is the right child's entry kr after the left child's
    entry k - kr, where kr = counts[2bs + k] - bs counts the right child's
    steps among the block's first k (all s of them at k = 2s); the children's
    tables start at 2b(s + 1) and (2b + 1)(s + 1).
    """
    s = 1 << level
    blocks = np.arange(len(counts) >> (level + 1))[:, None]
    kr = np.empty((len(blocks), 2 * s + 1), dtype=np.intp)
    kr[:, :-1] = counts[:-1].reshape(-1, 2 * s) - s * blocks
    kr[:, -1] = s
    start = 2 * (s + 1) * blocks
    at = start + np.arange(2 * s + 1) - kr
    first = _gather(table, at)
    at = start + (s + 1) + kr
    del kr
    merged = _compose(_gather(table, at), first)
    return tuple(x.reshape(-1) for x in merged)


def _peaks(values: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The peaks p_j of the conjugate chain DP, as a float64 array.

    With P_j = c_0 + ... + c_j and gaps g_j between adjacent values, the dual
    of the chain program minimizes sum_j |A_j - A_{j-1}| + sum_{j<d-1} g_j
    |A_{j+1} - P_j| over paths from A_0 = 0 to A_d = P_{d-1}.  Its value
    function after j steps is convex and piecewise linear with slopes in [-1,
    1].  G_j(x), its left derivative at x, is the weight of its breakpoints
    strictly left of x, minus 1, and the peak p_j = G_j(P_j) maximizes the
    primal value function of the first j values.  G_0(x) is +1 for x > 0 and
    -1 otherwise.  Step i adds g_i |A - P_i| and clamps the slopes back to
    [-1, 1], so G_{i+1}(x) = clip(G_i(x) + g_i (+1 if P_i < x else -1), -1, 1).

    Each step is thus a clamp map t -> clip(t + a, lo, hi), and clamp maps
    compose in closed form (``_compose``).  In an aligned block of s steps,
    which steps add +g depends on x only through how many of the block's P
    lie below x, so the block has a table of s + 1 composed maps, one per
    count k.  A block's entry k is its right child's entry after its left
    child's, at the children's shares of the block's first k steps in (P,
    -index) order.  Step j's map composes the blocks that tile [0, j): at each
    level where j lies in a right child, its left sibling's entry at the
    number of sibling steps ordered before j.  The -index puts a tied earlier
    step after j, so it counts as not below P_j: the DP's strict <.

    The tables are built bottom-up, and each step's map is composed bottom-up
    too, later blocks first, so one level's tables are held at a time: O(d)
    floats and one byte per step and level for the merged orders, split
    top-down from one sort.  A Python loop runs over the log2 d levels only.
    The steps are padded to a power of two with g = 0; no block a peak reads
    holds padding.
    """
    d = len(values)
    levels = (d - 1).bit_length()
    size = 1 << levels
    prefix = np.full(size, np.inf)
    np.cumsum(coef, out=prefix[:d])
    # (P, -index) order: a stable sort of the steps taken last to first
    top = (size - 1) - np.argsort(prefix[::-1], kind="stable")
    # positions and counts stay below 2 * size; int32 halves their traffic
    index = np.int32 if size <= 1 << 30 else np.intp
    pos = np.arange(size, dtype=index)
    counts = np.zeros(size + 1, dtype=index)
    bits = _child_bits(top, levels, pos, counts)
    # one step's table: entry 0 subtracts its gap, entry 1 adds it
    gains = np.zeros((size, 2))
    gains[:d - 1, 1] = np.diff(values)
    gains[:, 0] = -gains[:, 1]
    table = (gains.reshape(-1), -1.0, 1.0)
    del gains
    # each step's map so far, listed in the current level's order; [-1, 1] holds every G
    acc = [np.zeros(size), np.full(size, -1.0), np.full(size, 1.0)]
    for level, right in enumerate(bits):
        _apply_siblings(acc, table, right, level)
        src = _sources(right, level, pos, counts)
        for i, x in enumerate(acc):
            acc[i] = x.take(src)
        del src
        if level + 1 < levels:
            table = _merged_table(table, counts, level)
    a, lo, hi = acc
    peaks = np.empty(size)
    peaks[top] = _clip(np.where(prefix[top] > 0.0, 1.0, -1.0) + a, lo, hi)
    return peaks[:d]


def smce(dist: EmpiricalDistribution) -> tuple[float, WeightVector]:
    """Smooth calibration error with an optimal weight witness.

    Maximizes sum_v c_v z_v over z in [-1, 1] with adjacent-pair Lipschitz
    constraints, where c_v sums the residuals of all samples predicting v.
    The value is nonnegative because z = 0 is feasible and the weight class
    is symmetric under negation; it is computed from the returned witness.
    """
    values, _, _, R = dist.grouped()
    coef = R / dist.n
    z = _peaks(values, coef).tolist()
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
