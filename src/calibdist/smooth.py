"""Smooth calibration error: maximization over bounded 1-Lipschitz weights.

On an empirical distribution the supremum is a finite LP.  Equal predictions
share a weight, so duplicates are merged into one variable with the summed
coefficient, and on sorted distinct values the Lipschitz constraints between
adjacent points imply all pairwise ones by telescoping.  The full pairwise
program is kept as a test oracle for exactly that reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .core import EmpiricalDistribution
from .errors import SolverFailure, TooLarge

__all__ = ["WeightVector", "smce", "smce_full_pairwise"]

_FULL_PAIRWISE_CAP = 500
_SOLVER_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


@dataclass(frozen=True)
class WeightVector:
    """A 1-Lipschitz weight in [-1, 1] restricted to the sample support.

    values: distinct sorted predictions; z: the weight at each value.
    """

    values: tuple[float, ...]
    z: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.z) or not self.values:
            raise ValueError("values and z must be non-empty and equally long")
        if any(b <= a for a, b in zip(self.values[:-1], self.values[1:])):
            raise ValueError("values must be strictly increasing")
        if any(abs(zi) > 1.0 for zi in self.z):
            raise ValueError("weights must lie in [-1, 1]")
        for (va, za), (vb, zb) in zip(zip(self.values[:-1], self.z[:-1]),
                                      zip(self.values[1:], self.z[1:])):
            if abs(zb - za) > vb - va:
                raise ValueError("weights must be 1-Lipschitz across adjacent values")


_STATUS = {0: "optimal", 2: "infeasible"}


def _run_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> tuple[float, np.ndarray]:
    """(objective, x) at the optimum; shared by the smooth and lower-distance programs."""
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs", options=_SOLVER_OPTIONS)
    status = _STATUS.get(res.status, "numerical-failure")
    if status != "optimal":
        raise SolverFailure(status, f"LP terminated with status {status}: {res.message}")
    return float(res.fun), res.x


def _merged_coefficients(dist: EmpiricalDistribution):
    """Distinct sorted values and per-value coefficients mean[(y - v) 1(v_i = v)]."""
    values, inverse = np.unique(dist.v, return_inverse=True)
    coef = np.bincount(inverse, weights=dist.residuals(), minlength=len(values)) / dist.n
    return values, coef


def _lipschitz_chain(values: np.ndarray):
    """Sparse A, b for |z_{i+1} - z_i| <= v_{i+1} - v_i on sorted values."""
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


def _clean_witness(values: np.ndarray, z: np.ndarray) -> WeightVector:
    # Repair solver-tolerance violations so the invariants hold exactly,
    # including rounding of z[i-1] +- gap itself (hence the ulp walk).
    z = np.clip(z, -1.0, 1.0)
    for i in range(1, len(z)):
        gap = values[i] - values[i - 1]
        zi = min(max(z[i], z[i - 1] - gap), z[i - 1] + gap)
        while abs(zi - z[i - 1]) > gap:
            zi = np.nextafter(zi, z[i - 1])
        z[i] = zi
    return WeightVector(values=tuple(values), z=tuple(z))


def smce(dist: EmpiricalDistribution) -> tuple[float, WeightVector]:
    """Smooth calibration error with an optimal weight witness.

    Maximizes sum_v c_v z_v over z in [-1, 1] with adjacent-pair Lipschitz
    constraints, where c_v sums the residuals of all samples predicting v.
    The value is nonnegative because z = 0 is feasible and the weight class
    is symmetric under negation.
    """
    values, coef = _merged_coefficients(dist)
    if len(values) == 1:
        z = 1.0 if coef[0] >= 0 else -1.0
        return abs(float(coef[0])), WeightVector(values=(float(values[0]),), z=(z,))
    A, b = _lipschitz_chain(values)
    objective, z = _run_lp(-coef, A_ub=A, b_ub=b, bounds=(-1.0, 1.0))
    return max(-objective, 0.0), _clean_witness(values, z)


def smce_full_pairwise(dist: EmpiricalDistribution) -> float:
    """The same maximization with all O(n^2) pairwise Lipschitz constraints.

    One variable per sample, duplicates constrained equal through zero-width
    pairs.  Kept as an oracle for the adjacent-constraint reduction; guarded
    against quadratic blowup.
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
    A = sp.csr_matrix((data, (rows, cols)), shape=(r, n))
    objective, _ = _run_lp(-coef, A_ub=A, b_ub=np.array(b), bounds=(-1.0, 1.0))
    return max(-objective, 0.0)
