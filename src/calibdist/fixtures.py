"""Synthetic families, adversarial constructions, and brute-force oracles.

The finite problems here carry full sample access: domain points with mass,
the Bayes value E[y|x], and the predictor value f(x).  That is what the
brute-force distance oracle needs; everything prediction-only works on the
induced prediction-label distribution instead.

The oracles enumerate set partitions of the domain (or of the prediction
support) as restricted-growth strings.  Every partition induces a calibrated
predictor by assigning each block its conditional label mean, and every
calibrated (post-processed) predictor arises that way, so minimizing over
partitions is exact.  The 10-point cap keeps enumeration near 10^5 partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import EmpiricalDistribution, SeededRng
from .errors import BadAlpha, BadConfig, BadEps, TooLarge

__all__ = [
    "FiniteProblem",
    "SyntheticConfig",
    "GaussGapConfig",
    "f_eps",
    "gen_dbeta",
    "dbeta_transform",
    "gap_pa_pair",
    "gap_quadratic",
    "discontinuity_pair",
    "gen_gauss_gap",
    "gauss_gap_signal",
    "dce_bruteforce",
    "udce_bruteforce",
    "induce_gamma",
    "induce_gamma_exact",
]

_PARTITION_CAP = 10
_EXACT_REPLICATION_CAP = 100_000


@dataclass(frozen=True)
class FiniteProblem:
    """Finite-domain problem: (mass, bayes value f*, predictor value f) per point."""

    points: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.points:
            raise BadConfig("a finite problem needs at least one point")
        total = 0.0
        for mass, f_star, f in self.points:
            if mass <= 0.0:
                raise BadConfig(f"point masses must be positive, got {mass}")
            if not (0.0 <= f_star <= 1.0) or not (0.0 <= f <= 1.0):
                raise BadConfig("f_star and f must lie in [0, 1]")
            total += mass
        if abs(total - 1.0) > 1e-12:
            raise BadConfig(f"masses must sum to 1, got {total!r}")

    @property
    def masses(self) -> np.ndarray:
        return np.array([p[0] for p in self.points])

    @property
    def f_star(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])

    @property
    def f(self) -> np.ndarray:
        return np.array([p[2] for p in self.points])


@dataclass(frozen=True)
class SyntheticConfig:
    """Inverse-temperature family: finite beta > 0, sample count, rng."""

    beta: float
    n: int
    rng: SeededRng

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise BadConfig(f"beta must be finite, got {self.beta}")
        if self.beta <= 0:
            raise BadConfig(f"beta must be positive, got {self.beta}")
        if self.n < 1:
            raise BadConfig(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class GaussGapConfig:
    """Gaussian-kernel failure family: eps in (0, 1/4), sample count, rng."""

    eps: float
    n: int
    rng: SeededRng

    def __post_init__(self):
        if not (0.0 < self.eps < 0.25):
            raise BadEps(f"eps must be in (0, 1/4), got {self.eps}")
        if self.n < 1:
            raise BadConfig(f"n must be >= 1, got {self.n}")


def f_eps(eps: float) -> FiniteProblem:
    """Two-point predictor at 1/2 -+ eps against deterministic labels.

    Its ECE stays near 1/2 while the true distance to calibration is at most
    eps (the constant-1/2 predictor is calibrated), the standard witness that
    ECE is not robustly complete.
    """
    if not (0.0 < eps < 0.5):
        raise BadEps(f"eps must be in (0, 1/2), got {eps}")
    return FiniteProblem((
        (0.5, 0.0, 0.5 - eps),
        (0.5, 1.0, 0.5 + eps),
    ))


def dbeta_transform(f, beta: float):
    """The map f -> f^beta / (f^beta + (1-f)^beta), stable at all betas."""
    from scipy.special import expit  # deferred: scipy stays out of package import

    f = np.asarray(f, dtype=float)
    out = np.empty_like(f)
    interior = (f > 0.0) & (f < 1.0)
    with np.errstate(divide="ignore"):
        out[interior] = expit(beta * (np.log(f[interior]) - np.log1p(-f[interior])))
    out[f <= 0.0] = 0.0
    out[f >= 1.0] = 1.0
    return out


def gen_dbeta(cfg: SyntheticConfig) -> EmpiricalDistribution:
    """Draw f ~ Unif[0,1], y ~ Bernoulli(f), emit (transformed f, y).

    The label is drawn against the untransformed f, so beta = 1 yields a
    perfectly calibrated population and beta != 1 an over/underconfident one.
    """
    f = cfg.rng.random(cfg.n)
    y = (cfg.rng.random(cfg.n) < f).astype(np.int8)
    return EmpiricalDistribution(dbeta_transform(f, cfg.beta), y)


def gap_pa_pair(alpha: float) -> tuple[FiniteProblem, FiniteProblem]:
    """Two sample-access problems sharing one prediction-label distribution.

    Four points with masses (alpha, 1/2-alpha, 1/2-alpha, alpha) and predictor
    values 1/2+alpha on the first two, 1/2-alpha on the last two.  The first
    problem has Bayes values (0, 1/2, 1/2, 1); the second flips the predictor
    bias (1/2-alpha, 1/2-alpha, 1/2+alpha, 1/2+alpha).  Both induce the same
    prediction-label distribution, yet their true distances to calibration
    differ by a quadratic-vs-linear gap.
    """
    if not (0.0 < alpha <= 0.5):
        raise BadAlpha(f"alpha must be in (0, 1/2], got {alpha}")
    masses = [alpha, 0.5 - alpha, 0.5 - alpha, alpha]
    f = [0.5 + alpha, 0.5 + alpha, 0.5 - alpha, 0.5 - alpha]
    f_star_1 = [0.0, 0.5, 0.5, 1.0]
    f_star_2 = [0.5 - alpha, 0.5 - alpha, 0.5 + alpha, 0.5 + alpha]
    keep = [i for i, m in enumerate(masses) if m > 0.0]
    one = FiniteProblem(tuple((masses[i], f_star_1[i], f[i]) for i in keep))
    two = FiniteProblem(tuple((masses[i], f_star_2[i], f[i]) for i in keep))
    return one, two


def gap_quadratic(alpha: float) -> FiniteProblem:
    """Four-point instance with small post-processing distance but large
    interval calibration error.

    Same masses and Bayes values as the first problem of ``gap_pa_pair``, but
    the predictor values are spread to 1/2+alpha+beta, 1/2+alpha, 1/2-alpha,
    1/2-alpha-beta with beta = alpha/2, which makes the predictor injective.
    """
    if not (0.0 < alpha < 0.25):
        raise BadAlpha(f"alpha must be in (0, 1/4), got {alpha}")
    beta = alpha / 2.0
    masses = [alpha, 0.5 - alpha, 0.5 - alpha, alpha]
    f = [0.5 + alpha + beta, 0.5 + alpha, 0.5 - alpha, 0.5 - alpha - beta]
    f_star = [0.0, 0.5, 0.5, 1.0]
    return FiniteProblem(tuple(zip(masses, f_star, f)))


def discontinuity_pair(eps: float) -> tuple[FiniteProblem, FiniteProblem]:
    """Two uniformly close predictors with interval errors separated by 2x.

    Uniform four-point domain with alpha = 1/6, beta = 1/48.  The first
    predictor keeps two points exactly at 1/2; the second splits them to
    1/2 -+ eps.  Both share the same Bayes values, so the pair witnesses that
    the interval calibration error is discontinuous as eps -> 0.
    """
    if not (0.0 < eps < 1.0 / 48.0):
        raise BadEps(f"eps must be in (0, 1/48), got {eps}")
    alpha = 1.0 / 6.0
    beta = 1.0 / 48.0
    masses = [0.25, 0.25, 0.25, 0.25]
    f1 = [0.5 - beta, 0.5, 0.5, 0.5 + beta]
    f2 = [0.5 - beta, 0.5 - eps, 0.5 + eps, 0.5 + beta]
    f_star = [
        0.5 - beta + alpha,
        0.5 - eps - alpha,
        0.5 + eps + 2.0 * alpha,
        0.5 + beta - 2.0 * alpha,
    ]
    one = FiniteProblem(tuple(zip(masses, f_star, f1)))
    two = FiniteProblem(tuple(zip(masses, f_star, f2)))
    return one, two


def gauss_gap_signal(t, eps: float):
    """cos(t/eps) * exp(-t^2/eps): the oscillating miscalibration profile."""
    t = np.asarray(t, dtype=float)
    return np.cos(t / eps) * np.exp(-t * t / eps)


def gen_gauss_gap(cfg: GaussGapConfig) -> EmpiricalDistribution:
    """Sample v ~ Unif[1/4, 3/4] with E[y|v] = v + signal(v - 1/2)/4.

    The success probability stays in [0, 1] because v is in [1/4, 3/4] and
    the signal is bounded by 1.  The oscillation makes the Gaussian-kernel
    error collapse while Lipschitz-based measures stay bounded away from 0.
    """
    v = cfg.rng.uniform(0.25, 0.75, cfg.n)
    p = v + gauss_gap_signal(v - 0.5, cfg.eps) / 4.0
    y = (cfg.rng.random(cfg.n) < p).astype(np.int8)
    return EmpiricalDistribution(v, y)


def _set_partitions(n: int):
    """All set partitions of range(n) as restricted-growth strings."""
    a = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            yield tuple(a)
            return
        for c in range(mx + 2):
            a[i] = c
            yield from rec(i + 1, max(mx, c))

    yield from rec(1, 0)


def _min_partition_cost(mass: list[float], ymass: list[float], f: list[float]) -> float:
    """Min over partitions of sum_i mass_i |f_i - (label mean of i's block)|.

    ymass_i = mass_i * E[y | i]; each partial cost stops once it reaches the best.
    """
    best = math.inf
    for labels in _set_partitions(len(mass)):
        nb = max(labels) + 1
        bm = [0.0] * nb
        by = [0.0] * nb
        for i, b in enumerate(labels):
            bm[b] += mass[i]
            by[b] += ymass[i]
        cost = 0.0
        for i, b in enumerate(labels):
            cost += mass[i] * abs(f[i] - by[b] / bm[b])
            if cost >= best:
                break
        if cost < best:
            best = cost
    return best


def dce_bruteforce(prob: FiniteProblem) -> float:
    """True distance to calibration by exhaustive partition search.

    Every partition of the domain induces the calibrated predictor that maps
    each block to its conditional label mean; the closest calibrated
    predictor is among these, so the minimum over all partitions is exact.
    """
    k = len(prob.points)
    if k > _PARTITION_CAP:
        raise TooLarge(f"brute force capped at {_PARTITION_CAP} points, got {k}")
    masses = [p[0] for p in prob.points]
    ymass = [p[0] * p[1] for p in prob.points]
    return _min_partition_cost(masses, ymass, [p[2] for p in prob.points])


def udce_bruteforce(dist: EmpiricalDistribution) -> float:
    """Upper (post-processing) distance by enumerating support partitions.

    A post-processing kappa is calibrated exactly when each of its level sets
    gets its conditional label mean, so grouping the distinct predictions
    into blocks and averaging enumerates all candidates.
    """
    u, count, ones, _ = dist.grouped()
    if len(u) > _PARTITION_CAP:
        raise TooLarge(f"brute force capped at {_PARTITION_CAP} distinct values, got {len(u)}")
    return _min_partition_cost((count / dist.n).tolist(), (ones / dist.n).tolist(), u.tolist())


def induce_gamma(prob: FiniteProblem, n: int, rng: SeededRng) -> EmpiricalDistribution:
    """Sample n prediction-label pairs from the problem's joint distribution."""
    if n < 1:
        raise BadConfig(f"n must be >= 1, got {n}")
    idx = rng.choice(len(prob.points), size=n, p=prob.masses)
    y = (rng.random(n) < prob.f_star[idx]).astype(np.int8)
    return EmpiricalDistribution(prob.f[idx], y)


def induce_gamma_exact(prob: FiniteProblem) -> EmpiricalDistribution:
    """The exact population prediction-label distribution, as replicated samples.

    Each point contributes mass * f_star to (f, 1) and mass * (1 - f_star) to
    (f, 0).  The masses are rationalized and replicated over their common
    denominator, so the result is exact and canonical (sorted by (v, y)):
    two problems inducing the same distribution yield identical objects.
    Only works when the population masses are rational with small
    denominator, which holds for all built-in constructions.
    """
    weights: dict[tuple[float, int], float] = {}
    for mass, f_star, f in prob.points:
        for y, w in ((1, mass * f_star), (0, mass * (1.0 - f_star))):
            if w > 0.0:
                key = (float(f), y)
                weights[key] = weights.get(key, 0.0) + w
    fracs: dict[tuple[float, int], Fraction] = {}
    denom = 1
    for key, w in weights.items():
        fr = Fraction(w).limit_denominator(10**6)
        if abs(float(fr) - w) > 1e-9:
            raise BadConfig(f"population mass {w!r} is not rational within tolerance")
        fracs[key] = fr
        denom = denom * fr.denominator // math.gcd(denom, fr.denominator)
    if denom > _EXACT_REPLICATION_CAP:
        raise TooLarge(f"exact population needs {denom} samples, cap is {_EXACT_REPLICATION_CAP}")
    v_out: list[float] = []
    y_out: list[int] = []
    for (v, y) in sorted(fracs):
        count = fracs[(v, y)] * denom
        assert count.denominator == 1
        v_out += [v] * int(count)
        y_out += [y] * int(count)
    return EmpiricalDistribution(np.array(v_out), np.array(y_out, dtype=np.int8))
