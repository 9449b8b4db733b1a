"""Lower distance to calibration via a discretized linear program.

The lower distance is the cheapest coupling between the observed
prediction-label distribution and any perfectly calibrated one.  After
rounding the predictions to a grid of spacing eps1 and covering [0, 1] by a
grid U of spacing eps2, it becomes a finite LP; the total discretization
error is at most eps1 + 2 * eps2.

The program solved here is the reduced dual on U, with one weight pair
r(u, 0), r(u, 1) and a slope variable s(u) per grid point: Lipschitz
constraints are only needed between adjacent grid points (they telescope on a
sorted line) and s may be boxed into [-1, 1] without changing the optimum.
By strong duality it equals the coupling LP over the mass Pi(u, v, y), which
the tests keep as an oracle.  HiGHS solves it through ``_run_lp``; scipy is
imported on the first solve, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmpiricalDistribution, readonly, round_to_grid, sorted_pairs
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
    s: np.ndarray
    objective: float


_SOLVER_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}
_STATUS = {0: "optimal", 2: "infeasible"}


def _run_lp(c, A_ub, b_ub, bounds) -> tuple[float, np.ndarray]:
    """(objective, x) at the optimum of a HiGHS solve; raises SolverFailure otherwise."""
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs",
                  options=_SOLVER_OPTIONS)
    status = _STATUS.get(res.status, "numerical-failure")
    if status != "optimal":
        raise SolverFailure(status, f"LP terminated with status {status}: {res.message}")
    return float(res.fun), res.x


def _lipschitz_chain(values: np.ndarray):
    """Sparse A, b for |z_{i+1} - z_i| <= v_{i+1} - v_i on sorted values."""
    import scipy.sparse as sp

    d = len(values)
    gaps = np.diff(values)
    m = d - 1
    rows = np.repeat(np.arange(2 * m), 2)
    cols = np.empty(4 * m, dtype=np.int64)
    data = np.empty(4 * m)
    cols[0::4] = np.arange(m) + 1
    cols[1::4] = np.arange(m)
    data[0::4] = 1.0
    data[1::4] = -1.0
    cols[2::4] = np.arange(m) + 1
    cols[3::4] = np.arange(m)
    data[2::4] = -1.0
    data[3::4] = 1.0
    A = sp.csr_matrix((data, (rows, cols)), shape=(2 * m, d))
    b = np.repeat(gaps, 2)  # rows 2i and 2i+1 both bound the i-th gap
    return A, b


def _check_eps(eps1: float, eps2: float) -> None:
    if not (0.0 < eps1 <= 0.5) or not (0.0 < eps2 <= 0.5):
        raise BadEps(f"eps1 and eps2 must be in (0, 1/2], got {eps1}, {eps2}")


def _discretize(dist: EmpiricalDistribution, eps1: float, eps2: float):
    rounded = round_to_grid(dist, eps1)
    # group identical (v, y) pairs without arithmetic on v so the support
    # values stay bitwise equal to grid points
    vs, ys = sorted_pairs(rounded)
    new_v = np.concatenate(([True], vs[1:] != vs[:-1]))
    heads = np.flatnonzero(np.concatenate(([True], new_v[1:] | (ys[1:] != ys[:-1]))))
    support_v = vs[heads]
    support_y = ys[heads].astype(np.int64)
    gamma = np.diff(heads, append=rounded.n) / rounded.n
    grid = refine_grid(vs[new_v], eps2)  # the distinct rounded values, sorted
    return grid.points, support_v, support_y, gamma


def ldce_dual_solution(dist: EmpiricalDistribution, eps1: float = 0.005,
                       eps2: float = 0.005) -> DualSolution:
    """Solve the reduced dual LP and return the witness variables."""
    import scipy.sparse as sp

    _check_eps(eps1, eps2)
    u, sv, sy, gamma = _discretize(dist, eps1, eps2)
    m = len(u)
    # variables: r0 (m) | r1 (m) | s (m)
    c = np.zeros(3 * m)
    pos = np.searchsorted(u, sv)
    np.add.at(c, pos + m * sy, gamma)
    chain_A, chain_b = _lipschitz_chain(u)
    blocks = [
        sp.hstack([chain_A, sp.csr_matrix((chain_A.shape[0], 2 * m))]),
        sp.hstack([sp.csr_matrix((chain_A.shape[0], m)), chain_A,
                   sp.csr_matrix((chain_A.shape[0], m))]),
        # r(u, 0) <= -u s(u)  and  r(u, 1) <= (1 - u) s(u)
        sp.hstack([sp.eye(m), sp.csr_matrix((m, m)), sp.diags(u)]),
        sp.hstack([sp.csr_matrix((m, m)), sp.eye(m), sp.diags(u - 1.0)]),
    ]
    A_ub = sp.vstack(blocks, format="csr")
    b_ub = np.concatenate([chain_b, chain_b, np.zeros(2 * m)])
    objective, x = _run_lp(-c, A_ub=A_ub, b_ub=b_ub, bounds=(-1.0, 1.0))
    return DualSolution(u=u, r0=x[:m], r1=x[m:2 * m], s=x[2 * m:],
                        objective=max(-objective, 0.0))


def ldce(dist: EmpiricalDistribution, eps1: float = 0.005, eps2: float = 0.005) -> float:
    """Lower distance to calibration of the empirical distribution.

    The returned value approximates the exact lower distance within
    eps1 + 2 * eps2 plus solver tolerance.
    """
    return ldce_dual_solution(dist, eps1, eps2).objective
