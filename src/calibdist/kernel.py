"""Kernel calibration error for the Laplace and Gaussian kernels.

The squared error is the quadratic form mean_{i,j} r_i r_j K(v_i, v_j) with
r = y - v, which is sum_{a,b} R_a R_b K(u_a, u_b) / n^2 over the d grouped
predictions u and summed residuals R of ``dist.grouped()``.  Every estimator
but subsample reads that view and divides by the sample count n.  Exact
evaluation avoids the d^2 loop through algebraic identities specific to each
kernel on the line (verified against the direct quadratic form in the tests):

* Laplace exp(-|u-v|) factors as exp(-u) exp(v) once the values are sorted,
  so a prefix sum gives the exact value in O(d).
* Gaussian exp(-(u-v)^2) = exp(-u^2) exp(-v^2) sum_k (2uv)^k / k!; with
  v in [0, 1] the series is a sum of squares that reaches machine precision
  after ~48 terms.

Randomized estimators of the squared error for the Laplace kernel:

* subsample: average of M uniformly-with-replacement sampled terms (any kind);
* fourier: |sum_a R_a e^{-i omega u_a}|^2 / n^2 with omega ~ Cauchy(1),
  sampled as tan(pi (U - 1/2)) and realized with cosine and sine accumulators;
* binning: sum of squared per-bin residual sums / n^2, with bin width
  delta ~ Gamma(2, 1) sampled as -ln U1 - ln U2 and shift tau ~ Unif[0, delta).
  The draws take the values sorted, as ``dist.grouped()`` gives them: the bin
  floor((v + tau) / delta) is then nondecreasing in v, so each repetition's
  bins are runs of v, summed in the order of v.

Each fourier/binning draw is an unbiased estimate of the squared error and
lies in [0, 1].  The published binning pseudocode omits the 1/n^2 factor that
its own unbiasedness argument carries; the implementation normalizes by n^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import MAX_DRAW_BYTES, EmpiricalDistribution, SeededRng, sorted_pairs
from .errors import BadConfig, ModeKindMismatch, TooLarge

__all__ = [
    "KernelKind",
    "KernelEstimatorConfig",
    "kce_exact",
    "kce_estimate",
    "kce_estimate_squared",
]

_GAUSS_SERIES_TERMS = 48
_REP_BATCH = 4096  # fixed batching keeps results bit-identical across machines
_CHUNK_CELLS = 1 << 20  # rows * d per block of fourier and binning arithmetic
# subsample holds i, j, r[i], r[j], v[i], v[j] and the kernel values per term
_SUBSAMPLE_BYTES_PER_TERM = 7 * 8


class KernelKind(str, Enum):
    LAPLACE = "laplace"
    GAUSSIAN = "gaussian"

    def evaluate(self, u, v):
        d = np.abs(np.asarray(u, dtype=float) - np.asarray(v, dtype=float))
        if self is KernelKind.LAPLACE:
            return np.exp(-d)
        return np.exp(-(d * d))


@dataclass(frozen=True)
class KernelEstimatorConfig:
    """mode: exact | subsample | fourier | binning.

    terms_m (subsample size) defaults to 10 n at call time, the linear-time
    setting; reps_r defaults to 1000 randomized repetitions, i.e. target
    accuracy ~0.1 on the squared value under the ceil(10 / eps^2) rule.
    """

    mode: str = "exact"
    terms_m: int | None = None
    reps_r: int | None = None
    rng: SeededRng | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "subsample", "fourier", "binning"):
            raise BadConfig(f"unknown estimator mode {self.mode!r}")
        if self.mode == "subsample" and self.terms_m is not None and self.terms_m < 1:
            raise BadConfig(f"terms_m must be >= 1, got {self.terms_m}")
        if self.mode in ("fourier", "binning") and self.reps_r is not None and self.reps_r < 1:
            raise BadConfig(f"reps_r must be >= 1, got {self.reps_r}")

    def resolved_reps(self) -> int:
        return self.reps_r if self.reps_r is not None else 1000


def _kce2_laplace(v: np.ndarray, r: np.ndarray, n: int) -> float:
    prefix = np.cumsum(r * np.exp(v))
    s = float(np.sum(r * np.exp(-v) * prefix))
    # np.sum, not the BLAS dot r @ r, whose last bits follow the thread count
    return (2.0 * s - float(np.sum(r * r))) / n**2


def _kce2_gaussian(v: np.ndarray, r: np.ndarray, n: int) -> float:
    w = r * np.exp(-v * v)
    total = 0.0
    vk = np.ones_like(v)
    buf = np.empty_like(v)
    for k in range(_GAUSS_SERIES_TERMS):
        # numpy's pairwise sum, not a BLAS dot: OpenBLAS splits a long dot
        # product across its threads, so its last bits followed the thread count
        sk = float(np.sum(np.multiply(w, vk, out=buf)))
        total += 2**k / math.factorial(k) * sk * sk  # int / int: correctly rounded
        np.multiply(vk, v, out=vk)
    return total / n**2


def kce_exact(dist: EmpiricalDistribution, kind: KernelKind) -> float:
    """Exact kernel calibration error sqrt(mean_{i,j} r_i r_j K(v_i, v_j)).

    O(d) for both kernels on the grouped samples.  The quadratic form is
    positive semidefinite; tiny negative round-off (>= -1e-12) is clamped to
    zero before the square root.
    """
    kind = KernelKind(kind)
    u, _, _, R = dist.grouped()
    sq = (_kce2_laplace if kind is KernelKind.LAPLACE else _kce2_gaussian)(u, R, dist.n)
    return math.sqrt(max(sq, 0.0))


def _fourier_draws(v, r, n: int, reps, rng: SeededRng) -> np.ndarray:
    out = np.empty(reps)
    omega = np.tan(np.pi * (rng.random(reps) - 0.5))
    rows = max(1, _CHUNK_CELLS // len(v))
    # Rows of at most _CHUNK_CELLS cells.  numpy sums each row pairwise on its
    # own, so neither the chunk size nor BLAS threads move the bits.
    for lo in range(0, reps, rows):
        hi = min(lo + rows, reps)
        phase = omega[lo:hi, None] * v[None, :]
        terms = np.cos(phase)
        terms *= r
        cos_acc = np.sum(terms, axis=1)
        np.sin(phase, out=terms)
        terms *= r
        sin_acc = np.sum(terms, axis=1)
        out[lo:hi] = (cos_acc**2 + sin_acc**2) / n**2
    return out


def _binning_draws(v, r, n: int, reps, rng: SeededRng) -> np.ndarray:
    out = np.empty(reps)
    d = len(v)
    rows = max(1, _CHUNK_CELLS // d)
    for start in range(0, reps, _REP_BATCH):
        stop = min(start + _REP_BATCH, reps)
        b = stop - start
        # Gamma(2, 1) as a sum of two unit exponentials; 1 - U keeps U > 0,
        # and the floor keeps the bin index finite if both draws hit 1.
        u1 = 1.0 - rng.random(b)
        u2 = 1.0 - rng.random(b)
        delta = np.maximum(-np.log(u1) - np.log(u2), 1e-12)
        tau = delta * rng.random(b)
        # Rows of at most _CHUNK_CELLS cells.  v is sorted, so a row's bins are
        # runs, each headed by the row's first cell or a change of bin.
        # bincount sums each run in the order of v, then the squares in the
        # order of the runs, so the chunk size leaves the bits alone.
        for lo in range(0, b, rows):
            hi = min(lo + rows, b)
            t = np.floor((v[None, :] + tau[lo:hi, None]) / delta[lo:hi, None])
            heads = np.ones(t.shape, dtype=bool)
            np.not_equal(t[:, 1:], t[:, :-1], out=heads[:, 1:])
            sums = np.bincount(np.cumsum(heads) - 1, weights=np.tile(r, hi - lo))
            per_rep = np.bincount(np.flatnonzero(heads) // d, weights=sums * sums,
                                  minlength=hi - lo)
            out[start + lo:start + hi] = per_rep / n**2
    return out


def kce_estimate_squared(dist: EmpiricalDistribution, kind: KernelKind,
                         cfg: KernelEstimatorConfig) -> float:
    """Raw estimate of the squared kernel calibration error.

    Subsampling can return a negative value; callers that need the error
    itself should go through ``kce_estimate`` which clamps before the root.
    """
    kind = KernelKind(kind)
    if cfg.mode in ("fourier", "binning") and kind is not KernelKind.LAPLACE:
        raise ModeKindMismatch(f"{cfg.mode} estimation is specific to the Laplace kernel")
    if cfg.mode == "exact":
        return kce_exact(dist, kind) ** 2
    rng = cfg.rng if cfg.rng is not None else SeededRng(0)
    n = dist.n
    if cfg.mode == "subsample":
        m = cfg.terms_m if cfg.terms_m is not None else 10 * n
        if _SUBSAMPLE_BYTES_PER_TERM * m > MAX_DRAW_BYTES:
            raise TooLarge(f"{m} subsample terms need {_SUBSAMPLE_BYTES_PER_TERM * m} bytes "
                           f"of working arrays, above the {MAX_DRAW_BYTES} byte cap")
        # it draws sample indices, so it stays per sample, in canonical order
        v, r = sorted_pairs(dist)
        r -= v  # in place: the residuals y - v
        i = rng.integers(0, n, m)
        j = rng.integers(0, n, m)
        return float(np.mean(r[i] * r[j] * kind.evaluate(v[i], v[j])))
    reps = cfg.resolved_reps()
    if 8 * reps > MAX_DRAW_BYTES:
        raise TooLarge(f"{reps} repetitions need {8 * reps} bytes of float64, "
                       f"above the {MAX_DRAW_BYTES} byte cap")
    u, _, _, R = dist.grouped()
    draws = _fourier_draws if cfg.mode == "fourier" else _binning_draws
    return float(draws(u, R, n, reps, rng).mean())


def kce_estimate(dist: EmpiricalDistribution, kind: KernelKind,
                 cfg: KernelEstimatorConfig) -> float:
    """Kernel calibration error estimate: signed sqrt of the squared estimate."""
    return math.sqrt(max(kce_estimate_squared(dist, kind, cfg), 0.0))
