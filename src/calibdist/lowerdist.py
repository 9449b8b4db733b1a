"""Lower distance to calibration via a discretized linear program.

The lower distance is the cheapest coupling between the observed
prediction-label distribution and any perfectly calibrated one.  After
rounding the predictions to a grid of spacing eps1 and covering [0, 1] by a
grid U of spacing eps2, it becomes a finite LP; the total discretization
error is at most eps1 + 2 * eps2.

The program is the reduced dual on U: maximize E r(v, y) over 1-Lipschitz
chains r(., 0) and r(., 1) on U with (1 - u) r(u, 0) + u r(u, 1), i.e.
E_{y ~ Bernoulli(u)} r(u, y), at most 0 at every grid point.  A slope s(u)
with r(u, 0) <= -u s(u) and r(u, 1) <= (1 - u) s(u) exists exactly when that
row holds, so the textbook slope variable is redundant.  Lipschitz rows are
only needed between adjacent grid points (they telescope on a sorted line),
and the rows at u = 0 and u = 1 bound both chains above, so the LP needs no
boxes.  By strong duality it equals the coupling LP over the mass
Pi(u, v, y), which the tests keep as an oracle.

Only the K support points S (the rounded predictions, bitwise grid points)
carry objective weight, so the LP is solved over r0 and r1 on S alone, with
the massless grid points collapsed into rows that are exact:

- Between consecutive support points s < t, the chains at the grid points w
  in between appear only in their step rows and in their own calibration
  row, whose coefficients are >= 0.  So they may be taken as low as the
  Lipschitz rows allow: r_y(w) = max(r_y(s) - (w - u_s), r_y(t) - (u_t - w)),
  the max of two unit cones, which exists exactly when the step rows
  |r_y(t) - r_y(s)| <= u_t - u_s hold.
- The calibration row at w is then the max of four cone combinations
  (1 - w) x0 + w x1 <= 0, x_y the cone of s or of t.  (s, s) and (t, t) are
  linear in w and (s, t) is convex in w (its w^2 term is +2w^2); each is <= 0
  at w = u_s and w = u_t by the calibration rows at s and t and the step
  rows, so all three are implied.  Only the concave (t, s) combination is
  left: one row per massless w,
  (1 - w) r0(t) + w r1(s) <= (1 - w)(u_t - w) + w (w - u_s).
- Below the first support point s and above the last one t each chain is a
  single cone, linear in w, so the calibration row at the grid's end is the
  only new one: r0(s) <= u_s when u_s > 0, and r1(t) <= 1 - u_t when u_t < 1.

The full grid's chains are the cones above, so ``DualSolution`` still holds
r0 and r1 at every grid point.  When every grid point carries mass nothing
collapses, and the rows and their order are the full-grid LP's.  HiGHS
solves it through ``_run_lp``; scipy is imported on the first solve, so
importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmpiricalDistribution, readonly
from .errors import BadEps, SolverFailure

__all__ = ["Grid", "DualSolution", "ldce", "ldce_dual_solution"]

_TINY = float(np.finfo(float).tiny)
# A grid of m points is at worst an LP over 2m variables and 5m - 4 rows, when
# every point carries mass.  On such an instance (three samples per point,
# labels drawn at rate u; 2-core x86-64, one BLAS thread) ldce took 28-33 s and
# peaked at 265 MB at m = 20,001; at m = 40,001 it ran past 5 minutes at 590 MB.
MAX_GRID_POINTS = 20_001


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing points in [0, 1] containing both endpoints.

    ``points`` is a read-only float64 array.
    """

    points: np.ndarray
    covering_radius: float

    def __post_init__(self):
        p = readonly(self.points)
        object.__setattr__(self, "points", p)
        if not (p.ndim == 1 and p.size and p[0] == 0.0 and p[-1] == 1.0):
            raise BadEps("grid must start at 0 and end at 1")
        diffs = np.diff(p)
        if not np.all(diffs > 0):
            raise BadEps("grid points must be strictly increasing")
        if not np.all(diffs <= self.covering_radius + 1e-12):
            raise BadEps("grid spacing exceeds the declared covering radius")


def refine_grid(base: np.ndarray, eps2: float) -> Grid:
    """Insert points between consecutive base points until spacing <= eps2.

    The gap [a, b] splits into k = ceil((b - a) / eps2 - 1e-12) equal parts
    (one when k < 1): the points a + (b - a) * t / k for t = 1 .. k-1, then b.
    Raises BadEps, before any point is made, when the grid would have more
    than MAX_GRID_POINTS points.
    """
    base = np.unique(np.concatenate([base, [0.0, 1.0]]))
    a, b = base[:-1], base[1:]
    k = np.maximum(np.ceil((b - a) / eps2 - 1e-12), 1.0)
    points = 1.0 + k.sum()  # in float: a tiny eps2 would overflow int64
    if not points <= MAX_GRID_POINTS:
        raise BadEps(f"eps2 = {eps2} needs {points:.6g} grid points, "
                     f"more than the {MAX_GRID_POINTS} that ldce solves over")
    k = k.astype(np.int64)
    # t runs 1 .. k within each gap; a gap's last point is b itself
    t = np.arange(1, k.sum() + 1) - np.repeat(np.cumsum(k) - k, k)
    a, b, k = np.repeat(a, k), np.repeat(b, k), np.repeat(k, k)
    inner = np.where(t < k, a + (b - a) * t / k, b)
    return Grid(points=np.concatenate((base[:1], inner)), covering_radius=eps2)


@dataclass(frozen=True)
class DualSolution:
    """Optimal reduced-dual variables over the grid."""

    u: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    objective: float


_SOLVER_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}
_STATUS = {0: "optimal", 2: "infeasible"}


def _run_lp(c, A_ub, b_ub) -> tuple[float, np.ndarray]:
    """(objective, x) at a HiGHS optimum over free variables; raises SolverFailure otherwise."""
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs",
                  options=_SOLVER_OPTIONS)
    status = _STATUS.get(res.status, "numerical-failure")
    if status != "optimal":
        raise SolverFailure(status, f"LP terminated with status {status}: {res.message}")
    return float(res.fun), res.x


def _check_eps(eps1: float, eps2: float) -> None:
    if not (0.0 < eps1 <= 0.5) or not (0.0 < eps2 <= 0.5):
        raise BadEps(f"eps1 and eps2 must be in (0, 1/2], got {eps1}, {eps2}")
    # a subnormal eps1 overflows u / eps1 and rounds every prediction to 1
    if min(eps1, eps2) < _TINY:
        raise BadEps(f"eps1 and eps2 must be at least {_TINY:g}, got {eps1}, {eps2}")


def _discretize(dist: EmpiricalDistribution, eps1: float, eps2: float):
    u, count, ones, _ = dist.grouped()
    # round_to_grid's rounding is monotone: the rounded values stay sorted and
    # merge with no sort and no arithmetic on v, so the support values stay
    # bitwise equal to grid points; gamma is integer counts / n
    rounded = np.minimum(np.floor(u / eps1 + 0.5) * eps1, 1.0)
    heads = np.flatnonzero(np.concatenate(([True], rounded[1:] != rounded[:-1])))
    values = rounded[heads]  # the distinct rounded values, sorted
    ones = np.add.reduceat(ones, heads)
    counts = np.column_stack((np.add.reduceat(count, heads) - ones, ones)).ravel()
    pair = counts > 0  # the support pairs (value, 0) and (value, 1), alternating
    support_v = np.repeat(values, 2)[pair]
    support_y = np.tile(np.arange(2, dtype=np.int64), len(values))[pair]
    return refine_grid(values, eps2).points, support_v, support_y, counts[pair] / dist.n


def _dual_constraints(u: np.ndarray, at: np.ndarray):
    """(A_ub, b_ub) of the reduced dual over r0 | r1 at the K support points u[at], as CSR.

    Rows: chain 0's +step rows, then its -step rows, then chain 1's, then the K
    calibration rows, then one gap row per massless grid point between two
    support points, then the tail rows (see the module docstring).  The step
    rows bound |r(t, y) - r(s, y)| by u_t - u_s for consecutive support points
    s < t; the calibration row at u is (1 - u) r(u, 0) + u r(u, 1) <= 0, with a
    zero coefficient (at u = 0 or u = 1) left out.  With every grid point in
    ``at`` this is the full grid's LP.
    """
    import scipy.sparse as sp

    us, K = u[at], len(at)
    i = np.arange(K - 1)
    step_cols = np.column_stack((i, i + 1))
    step_vals = np.repeat([[-1.0, 1.0], [1.0, -1.0]], K - 1, axis=0)  # +step, then -step
    cal_cols = np.column_stack((np.arange(K), np.arange(K, 2 * K)))
    cal_vals = np.column_stack((1.0 - us, us))
    kept = cal_vals != 0.0
    # the massless grid point w between support points j and j + 1: (c) in the docstring
    j = np.repeat(np.arange(K - 1), np.diff(at) - 1)
    w = np.delete(u[at[0]:at[-1] + 1], at - at[0])
    gap_cols = np.column_stack((j + 1, j + K))
    gap_vals = np.column_stack((1.0 - w, w))
    gap_b = (1.0 - w) * (us[j + 1] - w) + w * (w - us[j])
    # r0 at the first support point and r1 at the last, where a tail is collapsed
    left, right = us[0] > 0.0, us[-1] < 1.0
    tail_cols = np.array([0, 2 * K - 1])[[left, right]]
    tail_b = np.array([us[0], 1.0 - us[-1]])[[left, right]]
    indices = np.concatenate((step_cols, step_cols, step_cols + K, step_cols + K,
                              cal_cols[kept], gap_cols, tail_cols), axis=None)
    data = np.concatenate((step_vals, step_vals, cal_vals[kept], gap_vals,
                           np.ones(len(tail_cols))), axis=None)
    nnz = np.concatenate((np.full(4 * (K - 1), 2), kept.sum(axis=1), np.full(len(w), 2),
                          np.ones(len(tail_cols), dtype=np.int64)))
    A_ub = sp.csr_matrix((data, indices, np.concatenate(([0], np.cumsum(nnz)))),
                         shape=(len(nnz), 2 * K))
    return A_ub, np.concatenate([np.tile(np.diff(us), 4), np.zeros(K), gap_b, tail_b])


def _lowest_chain(u: np.ndarray, at: np.ndarray, r: np.ndarray) -> np.ndarray:
    """r, given at the grid indices ``at``, on the whole grid: the larger of the unit
    cones of the nearest support points below and above, one cone in a tail."""
    pad_r = np.concatenate(([-np.inf], r, [-np.inf]))
    pad_u = np.concatenate(([0.0], u[at], [1.0]))
    grid = np.arange(len(u))
    below = np.searchsorted(at, grid, side="right")  # 1 + the index of the support point <= w
    above = np.searchsorted(at, grid) + 1  # 1 + the index of the support point >= w
    out = np.maximum(pad_r[below] - (u - pad_u[below]), pad_r[above] - (pad_u[above] - u))
    out[at] = r
    return out


def ldce_dual_solution(dist: EmpiricalDistribution, eps1: float = 0.005,
                       eps2: float = 0.005) -> DualSolution:
    """Solve the reduced dual LP and return the witness variables on the whole grid."""
    _check_eps(eps1, eps2)
    u, sv, sy, gamma = _discretize(dist, eps1, eps2)
    at, slot = np.unique(np.searchsorted(u, sv), return_inverse=True)
    K = len(at)
    c = np.zeros(2 * K)  # variables: r0 (K) | r1 (K) at the support points
    c[slot + K * sy] = gamma
    objective, x = _run_lp(-c, *_dual_constraints(u, at))
    # clamp to +0.0 as smce does: max(-objective, 0.0) would keep a -0.0
    return DualSolution(u=u, r0=_lowest_chain(u, at, x[:K]), r1=_lowest_chain(u, at, x[K:]),
                        objective=-objective if objective < 0.0 else 0.0)


def ldce(dist: EmpiricalDistribution, eps1: float = 0.005, eps2: float = 0.005) -> float:
    """Lower distance to calibration of the empirical distribution.

    The returned value approximates the exact lower distance within
    eps1 + 2 * eps2 plus solver tolerance.
    """
    return ldce_dual_solution(dist, eps1, eps2).objective
