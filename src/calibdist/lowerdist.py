"""Lower distance to calibration via a discretized linear program.

The lower distance is the cheapest coupling between the observed
prediction-label distribution and any perfectly calibrated one.  After
rounding the predictions to a grid of spacing eps1 and covering [0, 1] by a
grid U of spacing eps2, it becomes a finite LP; the total discretization
error is at most eps1 + 2 * eps2.

The program solved here is the reduced dual on U: maximize E r(v, y) over
1-Lipschitz chains r(., 0) and r(., 1) on U with (1 - u) r(u, 0) + u r(u, 1),
i.e. E_{y ~ Bernoulli(u)} r(u, y), at most 0 at every grid point.  A slope
s(u) with r(u, 0) <= -u s(u) and r(u, 1) <= (1 - u) s(u) exists exactly when
that row holds, so the textbook slope variable is redundant.  Lipschitz rows
are only needed between adjacent grid points (they telescope on a sorted
line), and the rows at u = 0 and u = 1 bound both chains above, so the LP
needs no boxes.  By strong duality it equals the coupling LP over the mass
Pi(u, v, y), which the tests keep as an oracle.  HiGHS solves it through
``_run_lp``; scipy is imported on the first solve, so importing the package
does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmpiricalDistribution, readonly
from .errors import BadEps, SolverFailure

__all__ = ["Grid", "DualSolution", "ldce", "ldce_dual_solution"]


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
    """
    base = np.unique(np.concatenate([base, [0.0, 1.0]]))
    a, b = base[:-1], base[1:]
    k = np.maximum(np.ceil((b - a) / eps2 - 1e-12).astype(np.int64), 1)
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


def _dual_constraints(u: np.ndarray):
    """(A_ub, b_ub) of the reduced dual over the variables r0 (m) | r1 (m), as CSR.

    Rows: chain 0's +step rows, then its -step rows, then chain 1's, then the m
    calibration rows.  The step rows bound |r(u_{i+1}, y) - r(u_i, y)| by
    u_{i+1} - u_i; the calibration row at u is (1 - u) r(u, 0) + u r(u, 1) <= 0,
    with a zero coefficient (at u = 0 or u = 1) left out.
    """
    import scipy.sparse as sp

    m = len(u)
    i = np.arange(m - 1)
    step_cols = np.column_stack((i, i + 1))
    step_vals = np.repeat([[-1.0, 1.0], [1.0, -1.0]], m - 1, axis=0)  # +step, then -step
    cal_cols = np.column_stack((np.arange(m), np.arange(m, 2 * m)))
    cal_vals = np.column_stack((1.0 - u, u))
    kept = cal_vals != 0.0
    indices = np.concatenate((step_cols, step_cols, step_cols + m, step_cols + m,
                              cal_cols[kept]), axis=None)
    data = np.concatenate((step_vals, step_vals, cal_vals[kept]), axis=None)
    indptr = np.concatenate(([0], 2 * np.arange(1, 4 * (m - 1) + 1),
                             8 * (m - 1) + np.cumsum(kept.sum(axis=1))))
    A_ub = sp.csr_matrix((data, indices, indptr), shape=(5 * m - 4, 2 * m))
    return A_ub, np.concatenate([np.tile(np.diff(u), 4), np.zeros(m)])


def ldce_dual_solution(dist: EmpiricalDistribution, eps1: float = 0.005,
                       eps2: float = 0.005) -> DualSolution:
    """Solve the reduced dual LP and return the witness variables."""
    _check_eps(eps1, eps2)
    u, sv, sy, gamma = _discretize(dist, eps1, eps2)
    m = len(u)
    c = np.zeros(2 * m)  # variables: r0 (m) | r1 (m)
    np.add.at(c, np.searchsorted(u, sv) + m * sy, gamma)
    objective, x = _run_lp(-c, *_dual_constraints(u))
    # clamp to +0.0 as smce does: max(-objective, 0.0) would keep a -0.0
    return DualSolution(u=u, r0=x[:m], r1=x[m:], objective=-objective if objective < 0.0 else 0.0)


def ldce(dist: EmpiricalDistribution, eps1: float = 0.005, eps2: float = 0.005) -> float:
    """Lower distance to calibration of the empirical distribution.

    The returned value approximates the exact lower distance within
    eps1 + 2 * eps2 plus solver tolerance.
    """
    return ldce_dual_solution(dist, eps1, eps2).objective
