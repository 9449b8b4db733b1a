"""Lower distance to calibration via discretized linear programs.

The lower distance is the cheapest coupling between the observed
prediction-label distribution and any perfectly calibrated one.  After
rounding the predictions to a grid of spacing eps1 and covering [0, 1] by a
grid U of spacing eps2, it becomes a finite LP; the total discretization
error is at most eps1 + 2 * eps2.

Two equivalent programs are implemented.  The primal optimizes the coupling
mass Pi(u, v, y) directly.  The dual is the reduced form on U with one weight
pair r(u, 0), r(u, 1) and a slope variable s(u) per grid point: Lipschitz
constraints are only needed between adjacent grid points (they telescope on a
sorted line) and s may be boxed into [-1, 1] without changing the optimum.
Strong duality makes the two objectives agree, which the tests exploit.
Both programs go to HiGHS through ``_run_lp``; scipy is imported on the first
solve, so importing the package does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EmpiricalDistribution, round_to_grid, sorted_pairs
from .errors import BadEps, SolverFailure

__all__ = [
    "Grid",
    "CouplingSolution",
    "DualSolution",
    "ldce",
    "ldce_both_forms",
    "ldce_primal_solution",
    "ldce_dual_solution",
]


@dataclass(frozen=True)
class Grid:
    """Strictly increasing points in [0, 1] containing both endpoints."""

    points: tuple[float, ...]
    covering_radius: float

    def __post_init__(self):
        p = self.points
        if not p or p[0] != 0.0 or p[-1] != 1.0:
            raise BadEps("grid must start at 0 and end at 1")
        diffs = np.diff(np.asarray(p))
        if np.any(diffs <= 0):
            raise BadEps("grid points must be strictly increasing")
        if np.any(diffs > self.covering_radius + 1e-12):
            raise BadEps("grid spacing exceeds the declared covering radius")


def refine_grid(base: np.ndarray, eps2: float) -> Grid:
    """Insert points between consecutive base points until spacing <= eps2."""
    base = np.unique(np.concatenate([base, [0.0, 1.0]]))
    pts = [float(base[0])]
    for a, b in zip(base[:-1], base[1:]):
        k = int(np.ceil((b - a) / eps2 - 1e-12))
        for t in range(1, k):
            pts.append(float(a + (b - a) * t / k))
        pts.append(float(b))
    return Grid(points=tuple(pts), covering_radius=eps2)


@dataclass(frozen=True)
class CouplingSolution:
    """Optimal primal coupling Pi(u, v, y) over grid x support."""

    u: np.ndarray              # grid points, shape (m,)
    support_v: np.ndarray      # support predictions, shape (q,)
    support_y: np.ndarray      # support labels, shape (q,)
    gamma: np.ndarray          # observed mass per support pair, shape (q,)
    mass: np.ndarray           # coupling mass, shape (m, q)
    objective: float


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


def _run_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> tuple[float, np.ndarray]:
    """(objective, x) at the optimum of a HiGHS solve; raises SolverFailure otherwise."""
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=_SOLVER_OPTIONS)
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
    return np.asarray(grid.points), support_v, support_y, gamma


def ldce_primal_solution(dist: EmpiricalDistribution, eps1: float = 0.005,
                         eps2: float = 0.005) -> CouplingSolution:
    """Solve the coupling LP and return the optimal transport plan."""
    import scipy.sparse as sp

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
    objective, x = _run_lp(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0.0, None))
    return CouplingSolution(u=u, support_v=sv, support_y=sy, gamma=gamma,
                            mass=x.reshape(m, q), objective=max(objective, 0.0))


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


def ldce(dist: EmpiricalDistribution, eps1: float = 0.005, eps2: float = 0.005,
         form: str = "dual") -> float:
    """Lower distance to calibration of the empirical distribution.

    The returned value approximates the exact lower distance within
    eps1 + 2 * eps2 plus solver tolerance.
    """
    if form == "dual":
        return ldce_dual_solution(dist, eps1, eps2).objective
    if form == "primal":
        return ldce_primal_solution(dist, eps1, eps2).objective
    raise BadEps(f"form must be 'primal' or 'dual', got {form!r}")


def ldce_both_forms(dist: EmpiricalDistribution, eps1: float = 0.005,
                    eps2: float = 0.005) -> tuple[float, float]:
    """(primal objective, dual objective); strong duality makes them agree."""
    return (
        ldce_primal_solution(dist, eps1, eps2).objective,
        ldce_dual_solution(dist, eps1, eps2).objective,
    )
