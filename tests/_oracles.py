"""Independent brute-force oracles used only by the tests.

These deliberately re-derive values from first principles (direct double
loops, per-draw Monte Carlo, contiguous-grouping enumeration) so the fast
implementations in the package are checked against a second route.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

import calibdist
from calibdist import kernel
from calibdist.binning import uniform_partition
from calibdist.core import EmpiricalDistribution, SeededRng, round_to_grid, sorted_pairs
from calibdist.errors import BadConfig, TooLarge
from calibdist.interval import _draws_mean, _profile_mean, _shift_profile, width_exponent
from calibdist.lowerdist import _check_eps, _discretize, ldce_dual_solution

_FULL_PAIRWISE_CAP = 500


def kce2_direct(dist: EmpiricalDistribution, kind: str) -> float:
    """The defining quadratic form, as a plain double sum."""
    v = dist.v
    r = dist.residuals()
    total = 0.0
    for i in range(dist.n):
        for j in range(dist.n):
            d = abs(v[i] - v[j])
            k = np.exp(-d) if kind == "laplace" else np.exp(-d * d)
            total += r[i] * r[j] * k
    return total / dist.n**2


def rintce_mc_direct(dist: EmpiricalDistribution, width: float, shifts: int,
                     rng: SeededRng) -> float:
    """Monte Carlo randomized-shift error, binning every draw from scratch."""
    v = dist.v
    r = dist.residuals()
    total = 0.0
    for s in rng.uniform(0.0, width, shifts):
        idx = np.floor((v - s) / width).astype(int)
        sums: dict[int, float] = {}
        for j, ri in zip(idx, r):
            sums[j] = sums.get(j, 0.0) + ri
        total += sum(abs(x) for x in sums.values()) / dist.n
    return total / shifts


def _walk_order(dist: EmpiricalDistribution, width: float):
    """Bins q, offsets rho = v mod width, and the walk's event order by (rho, q, input)."""
    v = dist.v
    q = np.floor(v / width).astype(np.int64)
    rho = v - q * width
    # guard against float drift putting rho outside [0, width)
    over = rho >= width
    q[over] += 1
    rho[over] -= width
    under = rho < 0.0
    q[under] -= 1
    rho[under] += width
    return q, rho, np.lexsort((q, rho))


def shift_profile_loop(dist: EmpiricalDistribution, width: float, exact: bool = False):
    """The interval shift profile as a per-sample walk over a dict of bin sums.

    One break per sample: ``calibdist.interval._shift_profile`` returns this
    walk at the last event of each tie group (``shift_profile_at_group_ends``),
    up to the order residuals are added in.  With ``exact`` the residuals are
    integers in units of 2^-1100, so every sum is exact and each value is
    rounded once, at the end.
    """
    r = dist.residuals().tolist()
    scale = 2**1100 if exact else 1
    if exact:
        r = [a * (scale // b) for a, b in map(float.as_integer_ratio, r)]
    q, rho, order = _walk_order(dist, width)
    rho = rho[order]

    bins: dict[int, float] = {}
    for qi, ri in zip(q.tolist(), r):
        bins[qi] = bins.get(qi, 0) + ri
    total = sum(abs(s) for s in bins.values())

    totals = [total]
    for i in order.tolist():
        qi, ri = int(q[i]), r[i]
        lo = qi - 1
        total -= abs(bins.get(qi, 0)) + abs(bins.get(lo, 0))
        bins[qi] = bins.get(qi, 0) - ri
        bins[lo] = bins.get(lo, 0) + ri
        total += abs(bins[qi]) + abs(bins[lo])
        totals.append(total)
    return rho, np.array([t / (scale * dist.n) for t in totals])


def shift_profile_at_group_ends(dist: EmpiricalDistribution, width: float):
    """``shift_profile_loop`` at the last event of each run of equal v (-0.0 == 0.0).

    The samples of one value share (q, rho), so they are one run of the
    walk's events; the pieces inside a run have length zero.
    """
    breaks, values = shift_profile_loop(dist, width)
    v = dist.v[_walk_order(dist, width)[2]]
    ends = np.flatnonzero(np.append(v[1:] != v[:-1], True))
    return breaks[ends], np.append(values[0], values[ends + 1])


def rintce_hat_loop(dist: EmpiricalDistribution, width: float, shifts_m: int,
                    rng: SeededRng) -> float:
    """``rintce_hat`` on the per-sample walk: one multinomial count per sample piece."""
    breaks, values = shift_profile_loop(dist, width)
    counts = rng.multinomial(shifts_m, np.diff(np.concatenate([[0.0], breaks, [width]])) / width)
    return float(np.sum(values * counts) / shifts_m)


def sintce_hat_loop(dist: EmpiricalDistribution, epsilon: float, shifts_m: int,
                    rng: SeededRng) -> float:
    """``sintce_hat`` on the per-sample walk, with the same substream per width."""
    return min(rintce_hat_loop(dist, 2.0**-k, shifts_m, rng.substream(k)) + 2.0**-k
               for k in range(width_exponent(epsilon) + 1))


def sintce_all_widths(dist: EmpiricalDistribution, epsilon: float, shifts_m: int | None = None,
                      rng: SeededRng | None = None) -> float:
    """``sintce_exact`` (shifts_m None) or ``sintce_hat`` with every dyadic width evaluated.

    The loop before the stop rule: widest first, min over all k = 0..k*, each
    width's draws from ``rng.substream(k)``.
    """
    u, _, _, R = dist.grouped()
    best = math.inf
    for k in range(width_exponent(epsilon) + 1):
        width = 2.0**-k
        breaks, values = _shift_profile(u, R, dist.n, width)
        if shifts_m is None:
            est = _profile_mean(breaks, values, width)
        else:
            est = _draws_mean(breaks, values, width, shifts_m, rng.substream(k))
        best = min(best, est + width)
    return best


def intce_small_support(dist: EmpiricalDistribution) -> float:
    """Exact interval calibration error for tiny supports.

    An optimal interval partition groups contiguous runs of the sorted
    distinct values; within a grouping, the binned error is fixed and the
    mass-weighted average width is minimized by intervals hugging each
    block, approaching the block's value span.  Enumerating the 2^(d-1)
    contiguous groupings therefore yields the infimum.
    """
    values, inverse = np.unique(dist.v, return_inverse=True)
    d = len(values)
    resid = np.bincount(inverse, weights=(dist.v - dist.y), minlength=d) / dist.n
    mass = np.bincount(inverse, minlength=d) / dist.n
    best = np.inf
    for cuts in itertools.product([0, 1], repeat=d - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [d]
        total = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            total += abs(resid[lo:hi].sum())
            total += mass[lo:hi].sum() * (values[hi - 1] - values[lo])
        best = min(best, total)
    return float(best)


_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9}


def _highs_max(coef, A_ub, b_ub) -> float:
    """max(coef @ z, 0) over z in [-1, 1]^d with A_ub z <= b_ub, solved by HiGHS."""
    res = linprog(-coef, A_ub=A_ub, b_ub=b_ub, bounds=(-1.0, 1.0), method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return max(-float(res.fun), 0.0)


def smce_adjacent_lp(dist: EmpiricalDistribution) -> float:
    """Smooth calibration error as a HiGHS LP with adjacent Lipschitz rows.

    One variable per distinct value with the summed residual coefficient,
    boxed to [-1, 1], and |z_{i+1} - z_i| <= v_{i+1} - v_i for each
    neighbouring pair.
    """
    values, inverse = np.unique(dist.v, return_inverse=True)
    coef = np.bincount(inverse, weights=dist.residuals(), minlength=len(values)) / dist.n
    d = len(values)
    if d == 1:
        return abs(float(coef[0]))
    diff = sp.diags([-np.ones(d - 1), np.ones(d - 1)], [0, 1], shape=(d - 1, d))
    gaps = np.diff(values)
    return _highs_max(coef, sp.vstack([diff, -diff]), np.concatenate([gaps, gaps]))


def smce_full_pairwise(dist: EmpiricalDistribution) -> float:
    """Smooth calibration error with all O(n^2) pairwise Lipschitz constraints.

    One variable per sample, duplicates constrained equal through zero-width
    pairs: the oracle for the adjacent-constraint reduction, guarded against
    quadratic blowup.
    """
    n = dist.n
    if n > _FULL_PAIRWISE_CAP:
        raise TooLarge(f"full pairwise program capped at n = {_FULL_PAIRWISE_CAP}, got {n}")
    v = dist.v
    coef = dist.residuals() / n
    rows, cols, data, b = [], [], [], []
    r = 0
    for i in range(n):
        for j in range(i + 1, n):
            gap = abs(v[i] - v[j])
            rows += [r, r, r + 1, r + 1]
            cols += [i, j, i, j]
            data += [1.0, -1.0, -1.0, 1.0]
            b += [gap, gap]
            r += 2
    if r == 0:
        return abs(float(coef.sum()))
    return _highs_max(coef, sp.csr_matrix((data, (rows, cols)), shape=(r, n)), np.array(b))


def kernel_identity_check(d: float, reps: int, rng: SeededRng) -> tuple[float, float]:
    """Monte Carlo check of the two Laplace-kernel identities at distance d.

    Returns (mean of cos(omega d) for omega ~ Cauchy(1), probability that two
    points at distance d share a bin under the Gamma(2,1)-width random
    binning); both converge to exp(-d).  Draws come in batches of 2^16.
    """
    if d < 0:
        raise BadConfig(f"distance must be nonnegative, got {d}")
    cos_total = 0.0
    bin_total = 0
    for start in range(0, reps, 1 << 16):
        b = min(1 << 16, reps - start)
        omega = np.tan(np.pi * (rng.random(b) - 0.5))
        cos_total += float(np.cos(omega * d).sum())
        delta = -np.log(1.0 - rng.random(b)) - np.log(1.0 - rng.random(b))
        tau = delta * rng.random(b)
        bin_total += int(np.count_nonzero(d + tau < delta))
    return cos_total / reps, bin_total / reps


def fourier_draws_batched(v, r, n: int, reps, rng: SeededRng) -> np.ndarray:
    """The random-Fourier draws with frequencies drawn per batch of
    ``kernel._REP_BATCH``; ``_fourier_draws`` must return these bits."""
    out = np.empty(reps)
    rows = max(1, kernel._CHUNK_CELLS // len(v))
    for start in range(0, reps, kernel._REP_BATCH):
        stop = min(start + kernel._REP_BATCH, reps)
        omega = np.tan(np.pi * (rng.random(stop - start) - 0.5))
        for lo in range(0, stop - start, rows):
            hi = min(lo + rows, stop - start)
            phase = omega[lo:hi, None] * v[None, :]
            terms = np.cos(phase)
            terms *= r
            cos_acc = np.sum(terms, axis=1)
            np.sin(phase, out=terms)
            terms *= r
            sin_acc = np.sum(terms, axis=1)
            out[start + lo:start + hi] = (cos_acc**2 + sin_acc**2) / n**2
    return out


def binning_draws_packed(v, r, n: int, reps, rng: SeededRng) -> np.ndarray:
    """The random-binning draws with bins found by ``np.unique`` over packed
    (repetition, bin) keys, for any order of v; ``_binning_draws`` must return
    these bits on sorted v."""
    out = np.empty(reps)
    for start in range(0, reps, kernel._REP_BATCH):
        stop = min(start + kernel._REP_BATCH, reps)
        b = stop - start
        u1 = 1.0 - rng.random(b)
        u2 = 1.0 - rng.random(b)
        delta = np.maximum(-np.log(u1) - np.log(u2), 1e-12)
        tau = delta * rng.random(b)
        rows = max(1, kernel._CHUNK_CELLS // len(v))
        for lo in range(0, b, rows):
            hi = min(lo + rows, b)
            t = np.floor((v[None, :] + tau[lo:hi, None]) / delta[lo:hi, None]).astype(np.int64)
            t -= t.min(axis=1, keepdims=True)
            span = int(t.max()) + 1
            keys = (np.arange(hi - lo, dtype=np.int64)[:, None] * span + t).ravel()
            uniq, inverse = np.unique(keys, return_inverse=True)
            sums = np.bincount(inverse, weights=np.tile(r, hi - lo), minlength=len(uniq))
            per_rep = np.bincount(uniq // span, weights=sums * sums, minlength=hi - lo)
            out[start + lo:start + hi] = per_rep / n**2
    return out


def random_distribution(rng: np.random.Generator, max_n: int = 200) -> EmpiricalDistribution:
    """A deliberately varied random empirical distribution."""
    n = int(rng.integers(1, max_n + 1))
    style = rng.integers(0, 4)
    if style == 0:
        v = rng.random(n)
    elif style == 1:
        v = np.round(rng.random(n), 1)  # heavy ties
    elif style == 2:
        v = np.clip(rng.normal(0.5, 0.15, n), 0.0, 1.0)
    else:
        v = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
    mode = rng.integers(0, 3)
    if mode == 0:
        y = rng.random(n) < v  # calibrated
    elif mode == 1:
        y = rng.random(n) < np.clip(v + rng.normal(0, 0.2), 0, 1)
    else:
        y = rng.random(n) < rng.random()  # constant rate, arbitrary v
    return EmpiricalDistribution(v, y.astype(np.int8))


def reliability_bins_masks(dist: EmpiricalDistribution, bins: int) -> list[tuple]:
    """(lo, hi, count, mean_v, mean_y) per bin by one boolean mask each, O(n * bins).

    The means are None for an empty bin.
    """
    idx = uniform_partition(bins).bin_index(dist.v)
    out = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        if count:
            mean_v = float(dist.v[mask].mean())
            mean_y = float(dist.y[mask].mean())
        else:
            mean_v = mean_y = None
        out.append((b / bins, (b + 1) / bins, count, mean_v, mean_y))
    return out


def stdout_per_blas_threads(probe: str) -> list[str]:
    """stdout of ``probe`` in a fresh interpreter under 1 and 2 OpenBLAS threads."""
    src = str(Path(calibdist.__file__).resolve().parent.parent)
    bits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, env=env, check=True)
        bits.append(run.stdout.strip())
    return bits


# 2 * 10^5 full-precision rows: large enough for OpenBLAS to split a dot
# product across two threads.
BLAS_PROBE_DIST = (
    "import numpy as np\n"
    "from calibdist import EmpiricalDistribution\n"
    "rng = np.random.default_rng(5)\n"
    "v = rng.random(200_000)\n"
    "d = EmpiricalDistribution(v, (rng.random(v.size) < v**1.3).astype(np.int8))\n"
)


def sorted_pairs_lexsort(dist: EmpiricalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(v, y) gathered by ``np.lexsort((y, v))``, -0.0 folded into 0.0, y as float64."""
    order = np.lexsort((dist.y, dist.v))
    return dist.v[order] + 0.0, dist.y[order].astype(np.float64)


def _kce_from(v: np.ndarray, r: np.ndarray, n: int, kind: str) -> float:
    """``kce_exact``'s formulas on sorted values v with weights r, the Gaussian
    series with fresh arrays per term."""
    if kind == "laplace":
        prefix = np.cumsum(r * np.exp(v))
        s = float(np.sum(r * np.exp(-v) * prefix))
        sq = (2.0 * s - float(np.sum(r * r))) / n**2
    else:
        w = r * np.exp(-v * v)
        total = 0.0
        vk = np.ones_like(v)
        for k in range(48):
            sk = float(np.sum(w * vk))
            total += 2**k / math.factorial(k) * sk * sk
            vk = vk * v
        sq = total / n**2
    return math.sqrt(max(sq, 0.0))


def distinct_predictions_reduceat(dist: EmpiricalDistribution):
    """``core.distinct_predictions`` by its reducing pass alone, ties or not: group
    heads, then a ``reduceat`` of the sorted labels."""
    v, y = sorted_pairs(dist)
    heads = np.flatnonzero(np.concatenate(([True], v[1:] != v[:-1])))
    u, count, ones = v[heads], np.diff(heads, append=dist.n), np.add.reduceat(y, heads)
    return u, count, ones, ones - count * u


def group_unique(dist: EmpiricalDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(u, R) of ``dist.grouped()`` by ``np.unique`` (-0.0 folded into 0.0) and two bincounts."""
    u, inverse = np.unique(dist.v + 0.0, return_inverse=True)
    count = np.bincount(inverse, minlength=len(u))
    ones = np.bincount(inverse, weights=dist.y.astype(np.float64), minlength=len(u))
    return u, ones - count * u


def kce_exact_unique(dist: EmpiricalDistribution, kind: str) -> float:
    """``kce_exact`` on the ``np.unique`` grouping; the package must return these bits."""
    u, R = group_unique(dist)
    return _kce_from(u, R, dist.n, kind)


def kce_exact_lexsort(dist: EmpiricalDistribution, kind: str) -> float:
    """The per-sample form: ``kce_exact``'s formulas over every sample, in lexsort order."""
    order = np.lexsort((dist.y, dist.v))
    return _kce_from(dist.v[order], dist.residuals()[order], dist.n, kind)


def kce2_longdouble(dist: EmpiricalDistribution, kind: str) -> float:
    """The squared kernel error by the per-sample formulas in ``np.longdouble``."""
    order = np.lexsort((dist.y, dist.v))
    v = dist.v[order].astype(np.longdouble)
    r = dist.y[order].astype(np.longdouble) - v
    if kind == "laplace":
        prefix = np.cumsum(r * np.exp(v))
        return float((2 * np.sum(r * np.exp(-v) * prefix) - np.sum(r * r)) / dist.n**2)
    w = r * np.exp(-v * v)
    total = np.longdouble(0)
    vk = np.ones_like(v)
    for k in range(60):
        sk = np.sum(w * vk)
        total += np.longdouble(2**k) / np.longdouble(math.factorial(k)) * sk * sk
        vk = vk * v
    return float(total / dist.n**2)


def binned_ece_per_sample(dist: EmpiricalDistribution, part, width_penalty: bool = False) -> float:
    """``binned_ece`` with each bin's residuals summed sample by sample, in input order."""
    idx = part.bin_index(dist.v)
    per_bin = np.bincount(idx, weights=dist.residuals(), minlength=part.m)
    value = float(np.abs(per_bin).sum() / dist.n)
    if width_penalty:
        value += float(np.sum(np.bincount(idx, minlength=part.m) / dist.n * part.widths()))
    return value


def chain_dp(values: np.ndarray, coef: np.ndarray):
    """Primal peaks p_j and live ends (lo_j, hi_j) of the conjugate chain DP, step by step.

    The reference for ``smooth._peaks``, which finds the same peaks from
    composed clamp-map tables, and the source of the dual path.

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


def smce_per_sample(dist: EmpiricalDistribution) -> float:
    """``smce`` on coefficients summed sample by sample (``np.unique`` and a bincount),
    then the step-by-step chain DP and the same backward witness pass."""
    values, inverse = np.unique(dist.v, return_inverse=True)
    coef = np.bincount(inverse, weights=dist.residuals(), minlength=len(values)) / dist.n
    z, _, _ = chain_dp(values, coef)
    gaps = np.diff(values).tolist()
    z[-1] = min(max(z[-1], -1.0), 1.0)
    for j in range(len(z) - 2, -1, -1):
        nxt, gap = z[j + 1], gaps[j]
        zj = min(max(z[j], -1.0, nxt - gap), 1.0, nxt + gap)
        while abs(zj - nxt) > gap:
            zj = math.nextafter(zj, nxt)
        z[j] = zj
    value = float(np.sum(coef * np.array(z)))
    return value if value > 0.0 else 0.0


def discretize_lexsort(dist: EmpiricalDistribution, eps1: float, eps2: float):
    """``lowerdist._discretize`` by a lexsort gather, a cumsum group id and ``np.unique``."""
    rounded = round_to_grid(dist, eps1)
    order = np.lexsort((rounded.y, rounded.v))
    vs = rounded.v[order]
    ys = rounded.y[order].astype(np.int64)
    new = np.ones(rounded.n, dtype=bool)
    new[1:] = (vs[1:] != vs[:-1]) | (ys[1:] != ys[:-1])
    group = np.cumsum(new) - 1
    gamma = np.bincount(group) / rounded.n
    return refine_grid_loop(np.unique(rounded.v), eps2), vs[new], ys[new], gamma


def ece_unique(dist: EmpiricalDistribution) -> float:
    """ECE grouped by ``np.unique(v, return_inverse=True)`` and two bincounts."""
    values, inverse = np.unique(dist.v, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(values))
    ysum = np.bincount(inverse, weights=dist.y.astype(float), minlength=len(values))
    mean_y = ysum / counts
    return float(np.sum(counts * np.abs(mean_y - values)) / dist.n)


def refine_grid_loop(base: np.ndarray, eps2: float) -> np.ndarray:
    """``lowerdist.refine_grid``'s points by a loop over gaps and their inner points.

    The vectorized ``refine_grid`` must return these bits.
    """
    base = np.unique(np.concatenate([base, [0.0, 1.0]]))
    pts = [float(base[0])]
    for a, b in zip(base[:-1], base[1:]):
        k = int(np.ceil((b - a) / eps2 - 1e-12))
        for t in range(1, k):
            pts.append(float(a + (b - a) * t / k))
        pts.append(float(b))
    return np.array(pts)


@dataclass(frozen=True)
class CouplingSolution:
    """Optimal primal coupling Pi(u, v, y) over grid x support."""

    u: np.ndarray              # grid points, shape (m,)
    support_v: np.ndarray      # support predictions, shape (q,)
    support_y: np.ndarray      # support labels, shape (q,)
    gamma: np.ndarray          # observed mass per support pair, shape (q,)
    mass: np.ndarray           # coupling mass, shape (m, q)
    objective: float


def ldce_primal_solution(dist: EmpiricalDistribution, eps1: float = 0.005,
                         eps2: float = 0.005) -> CouplingSolution:
    """The coupling LP over the mass Pi(u, v, y) on ``ldce``'s grid, solved by HiGHS.

    Its objective equals ``ldce``'s reduced dual by strong duality.
    """
    _check_eps(eps1, eps2)
    u, sv, sy, gamma = _discretize(dist, eps1, eps2)
    m, q = len(u), len(sv)
    cost = np.abs(u[:, None] - sv[None, :]).ravel()
    col = np.arange(m * q)
    # marginal rows: sum_u Pi(u, v, y) = gamma(v, y)
    row_marg = col % q
    data_marg = np.ones(m * q)
    # calibration rows: (1-u) sum_v Pi(u, v, 1) = u sum_v Pi(u, v, 0)
    row_cal = q + col // q
    data_cal = np.where(sy[None, :] == 1, 1.0 - u[:, None], -u[:, None]).ravel()
    A_eq = sp.csr_matrix(
        (np.concatenate([data_marg, data_cal]),
         (np.concatenate([row_marg, row_cal]), np.concatenate([col, col]))),
        shape=(q + m, m * q),
    )
    b_eq = np.concatenate([gamma, np.zeros(m)])
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0.0, None), method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return CouplingSolution(u=u, support_v=sv, support_y=sy, gamma=gamma,
                            mass=res.x.reshape(m, q), objective=max(float(res.fun), 0.0))


def dual_constraints_stacked(u: np.ndarray):
    """(A_ub, b_ub) of ``ldce``'s reduced dual, stacked from scipy.sparse blocks.

    The Kronecker product stores its blocks dense when they are dense enough,
    so for m <= 4 grid points the matrix keeps explicit zeros.
    """
    m = len(u)
    step = sp.diags([-np.ones(m - 1), np.ones(m - 1)], [0, 1], shape=(m - 1, m))
    A_ub = sp.vstack([
        # |r(u_{i+1}, y) - r(u_i, y)| <= u_{i+1} - u_i on both chains
        sp.kron(sp.eye(2), sp.vstack([step, -step])),
        # (1 - u) r(u, 0) + u r(u, 1) <= 0
        sp.hstack([sp.diags(1.0 - u), sp.diags(u)]),
    ], format="csr")
    return A_ub, np.concatenate([np.tile(np.diff(u), 4), np.zeros(m)])


def ldce_both_forms(dist: EmpiricalDistribution, eps1: float = 0.005,
                    eps2: float = 0.005) -> tuple[float, float]:
    """(primal objective, dual objective); strong duality makes them agree."""
    return (
        ldce_primal_solution(dist, eps1, eps2).objective,
        ldce_dual_solution(dist, eps1, eps2).objective,
    )
