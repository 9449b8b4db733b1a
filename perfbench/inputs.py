"""Inputs of the four workloads, made from the workload seed with numpy alone.

The CSV files of the ``measure-*`` workloads are written before any timing
starts, so neither their generation nor their size on disk is part of a
measurement.  ``chain-small`` keeps its instances in memory; the random half
of them is drawn here, the fixture half by the program's own constructions
(see ``worker.chain_instances``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

METRICS_ALL = "all"
# every metric except sintce, whose per-sample shift profile takes ~19 s at 10^6 rows
METRICS_NO_SINTCE = "ece,binned-ece,binned-ece-w,smce,ldce,kce-laplace,kce-gaussian"


@dataclass(frozen=True)
class MeasureSpec:
    """CSV inputs of one ``calib measure`` workload."""

    n: int
    betas: tuple[float, ...]
    decimals: int | None  # None writes every prediction at full precision
    metrics: str


MEASURE = {
    "measure-continuous": MeasureSpec(10_000, (0.5, 1.0, 2.0), None, METRICS_ALL),
    "measure-quantized": MeasureSpec(100_000, (0.5, 1.0, 2.0), 3, METRICS_ALL),
    "measure-large": MeasureSpec(1_000_000, (2.0,), 3, METRICS_NO_SINTCE),
}
WORKLOADS = (*MEASURE, "chain-small")

# chain-small: one random instance per (support style, label mode) pair of
# acceptance criterion 1's generator, at sizes fixed so that the seed changes
# the values drawn but not how much work a pass holds.
CHAIN_STYLES = 4
CHAIN_MODES = 3
CHAIN_RANDOM = CHAIN_STYLES * CHAIN_MODES
CHAIN_SIZES = tuple(16 * (i + 1) for i in range(CHAIN_RANDOM))  # 16 .. 192


def dbeta(f: np.ndarray, beta: float) -> np.ndarray:
    """f^beta / (f^beta + (1-f)^beta): calibrated at beta = 1."""
    out = np.where(f >= 1.0, 1.0, 0.0)
    inner = (f > 0.0) & (f < 1.0)
    logit = np.log(f[inner]) - np.log1p(-f[inner])
    out[inner] = 1.0 / (1.0 + np.exp(-beta * logit))
    return out


def input_paths(workload: str, workdir: Path) -> list[Path]:
    spec = MEASURE[workload]
    return [workdir / workload / f"beta{beta:g}.csv" for beta in spec.betas]


def write_measure_inputs(workload: str, seed: int, workdir: Path) -> list[Path]:
    """Write the workload's CSV files (header ``v,y``) and return their paths."""
    spec = MEASURE[workload]
    paths = input_paths(workload, workdir)
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    for i, (beta, path) in enumerate(zip(spec.betas, paths)):
        rng = np.random.default_rng([seed, i])
        f = rng.random(spec.n)
        y = (rng.random(spec.n) < f).astype(np.int8)
        v = dbeta(f, beta).tolist()
        fmt = "{!r},{}\n" if spec.decimals is None else f"{{:.{spec.decimals}f}},{{}}\n"
        text = "v,y\n" + "".join(fmt.format(a, b) for a, b in zip(v, y.tolist()))
        path.write_text(text, encoding="ascii")
    return paths


def random_chain_instance(seed: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Instance i of chain-small's random half, drawn as acceptance criterion 1 draws."""
    rng = np.random.default_rng([seed, 1000 + i])
    n = CHAIN_SIZES[i]
    style, mode = i % CHAIN_STYLES, i % CHAIN_MODES
    if style == 0:
        v = rng.random(n)
    elif style == 1:
        v = np.round(rng.random(n), 1)  # heavy ties
    elif style == 2:
        v = np.clip(rng.normal(0.5, 0.15, n), 0.0, 1.0)
    else:
        v = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
    if mode == 0:
        y = rng.random(n) < v  # calibrated
    elif mode == 1:
        y = rng.random(n) < np.clip(v + rng.normal(0, 0.2), 0, 1)
    else:
        y = rng.random(n) < rng.random()  # constant rate, arbitrary v
    return v, y.astype(np.int8)
