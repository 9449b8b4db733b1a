"""Checks of the program's outputs, made apart from the program.

Nothing here imports ``calibdist``.  Values the benchmark can recompute
(``ece``, both binned errors, both exact kernel errors, smCE on small
instances) are recomputed by other routes; the rest are held to the
inequality chain the paper proves between the measures.  Each check returns
a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

# As in acceptance criterion 1: ldCE carries discretisation slack eps1 + 2 eps2
# (eps1 = eps2 = 0.005); the sandwich constants multiply it by up to 3.
SLACK = 3 * (0.005 + 0.005) + 1e-6
EST_ERR = 0.02  # Monte Carlo allowance of the sintce estimate
LP_TOL = 1e-7   # solver tolerance on LP values
REL = 1e-9      # recomputed values against 12-significant-digit report values
BINS = 20       # calib measure's default --bins


def read_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].copy(), data[:, 1].astype(np.int8)


def _groups(v: np.ndarray, y: np.ndarray):
    """Distinct sorted values, their counts and their residual sums sum(y - v)."""
    order = np.argsort(v, kind="stable")
    vs = v[order]
    starts = np.flatnonzero(np.concatenate([[True], vs[1:] != vs[:-1]]))
    counts = np.diff(np.append(starts, len(vs)))
    resid = np.add.reduceat(y[order].astype(float) - vs, starts)
    return vs[starts], counts, resid


def ece_ref(v, y) -> float:
    values, counts, resid = _groups(v, y)
    return float(np.abs(resid).sum() / len(v))


def binned_ref(v, y, bins: int = BINS, width_penalty: bool = False) -> float:
    edges = [i / bins for i in range(bins + 1)]
    idx = np.zeros(len(v), dtype=np.int64)
    for edge in edges[1:-1]:
        idx += v >= edge
    n = len(v)
    value = float(np.abs(np.bincount(idx, weights=v - y, minlength=bins)).sum() / n)
    if width_penalty:
        mass = np.bincount(idx, minlength=bins) / n
        value += float(mass @ np.diff(edges))
    return value


def kce2_ref(v, y, block: int = 1024) -> tuple[float, float, float]:
    """(Laplace, Gaussian) squared kernel errors by the direct quadratic form.

    Sums w^T K w over distinct values, blockwise over the upper triangle.
    The third value bounds the terms' magnitude, for a round-off tolerance.
    """
    u, _, w = _groups(v, y)
    lap = gau = 0.0
    for s in range(0, len(u), block):
        d = u[s:s + block, None] - u[None, s:]
        np.abs(d, out=d)
        weight = np.outer(w[s:s + block], w[s:])
        weight[:, :block] = np.triu(weight[:, :block], 1)  # each off-diagonal pair once
        lap += float(np.sum(weight * np.exp(-d)))
        np.square(d, out=d)
        gau += float(np.sum(weight * np.exp(-d)))
    diag = float(w @ w)
    n2 = len(v) ** 2
    return (2 * lap + diag) / n2, (2 * gau + diag) / n2, float(np.abs(w).sum()) ** 2 / n2


def smce_pairwise_ref(v, y) -> float:
    """smCE as the LP over every pair of samples, built here from scratch."""
    n = len(v)
    i, j = np.triu_indices(n, 1)
    rows = len(i)
    A = np.zeros((2 * rows, n))
    A[np.arange(rows), i] = 1.0
    A[np.arange(rows), j] = -1.0
    A[rows + np.arange(rows), i] = -1.0
    A[rows + np.arange(rows), j] = 1.0
    gap = np.abs(v[i] - v[j])
    c = (y - v) / n
    if rows == 0:
        return abs(float(c.sum()))
    res = linprog(-c, A_ub=A, b_ub=np.concatenate([gap, gap]), bounds=(-1.0, 1.0),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return max(-float(res.fun), 0.0)


def _close(a: float, b: float, rel: float = REL, abs_tol: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def chain_problems(m: dict, mean_resid: float, where: str) -> list[str]:
    """The paper's inequality chain on one set of values; absent measures are skipped."""
    out = []
    low, sm = m["ldce"], m["smce"]
    if not 0.5 * low - SLACK <= sm <= 2.0 * low + SLACK:
        out.append(f"{where}: smce sandwich violated (ldce={low}, smce={sm})")
    if not abs(mean_resid) <= sm + LP_TOL:
        out.append(f"{where}: |sum c|={abs(mean_resid)} > smce={sm}")
    if not sm <= m["ece"] + LP_TOL:
        out.append(f"{where}: smce={sm} > ece={m['ece']}")
    kl = m["kce-laplace"]
    if not kl >= sm / 3.0 - SLACK:
        out.append(f"{where}: kce_L >= smce/3 violated (kce={kl}, smce={sm})")
    if not kl <= math.sqrt(low + SLACK):
        out.append(f"{where}: kce_L <= sqrt(ldce) violated (kce={kl}, ldce={low})")
    if "sintce" in m and not m["sintce"] <= 6.0 * math.sqrt(low + SLACK) + EST_ERR:
        out.append(f"{where}: sintce bound violated (sintce={m['sintce']}, ldce={low})")
    if not low - SLACK <= m["binned-ece-w"]:
        out.append(f"{where}: ldce={low} above binned-ece-w={m['binned-ece-w']}")
    return out


def check_measure(reports: list[str], path, metrics: list[str]) -> list[str]:
    """Every report of one input file, against the file itself."""
    where = str(path)
    if not reports:
        return [f"{where}: no report"]
    out = [f"{where}: report {k} differs from report 0 under the same seed"
           for k, r in enumerate(reports) if r != reports[0]]
    try:
        rep = json.loads(reports[0])
        entries = {name: rep["metrics"][name] for name in metrics}
        values = {name: float(e["value"]) for name, e in entries.items()}
    except (ValueError, KeyError, TypeError) as e:
        return out + [f"{where}: malformed report ({type(e).__name__}: {e})"]
    raw = Path(path).read_bytes()
    v, y = read_csv(path)
    if rep.get("n") != len(v):
        out.append(f"{where}: n={rep.get('n')} but the file has {len(v)} rows")
    if rep.get("input_digest") != "sha256:" + hashlib.sha256(raw).hexdigest():
        out.append(f"{where}: input_digest does not match the file")
    out += [f"{where}: {name} reports an error: {e['error']}"
            for name, e in entries.items() if "error" in e]
    out += [f"{where}: {name} is not a finite value ({x})"
            for name, x in values.items() if not math.isfinite(x) or x < 0]
    if out:
        return out
    expect = {
        "ece": ece_ref(v, y),
        "binned-ece": binned_ref(v, y),
        "binned-ece-w": binned_ref(v, y, width_penalty=True),
    }
    for name, ref in expect.items():
        if not _close(values[name], ref):
            out.append(f"{where}: {name}={values[name]} but recomputed {ref}")
    lap2, gau2, scale = kce2_ref(v, y)
    for name, ref in (("kce-laplace", lap2), ("kce-gaussian", gau2)):
        sq = float(entries[name]["squared"])
        if not abs(sq - ref) <= 1e-10 * scale + 1e-15:
            out.append(f"{where}: {name} squared={sq} but recomputed {ref}")
        if not _close(values[name], math.sqrt(max(sq, 0.0))):
            out.append(f"{where}: {name}={values[name]} is not sqrt(squared={sq})")
    return out + chain_problems({**expect, **values}, float(np.mean(y - v)), where)


def check_chain(v, y, results: list[dict], where: str, pairwise_max_n: int = 64) -> list[str]:
    """Every round's values on one chain-small instance."""
    if not results:
        return [f"{where}: no result"]
    out = [f"{where}: round {k} differs from round 0" for k, r in enumerate(results)
           if r != results[0]]
    m = results[0]
    bad = [name for name, x in m.items() if not (math.isfinite(x) and x >= 0)]
    if bad:
        return out + [f"{where}: non-finite or negative {', '.join(bad)}"]
    if len(v) <= pairwise_max_n:
        ref = smce_pairwise_ref(v, y)
        if not abs(m["smce"] - ref) <= LP_TOL:
            out.append(f"{where}: smce={m['smce']} but the pairwise LP gives {ref}")
    lap2, _, scale = kce2_ref(v, y)
    if not abs(m["kce-laplace"] ** 2 - lap2) <= 1e-10 * scale + 1e-15:
        out.append(f"{where}: kce-laplace={m['kce-laplace']} but recomputed sqrt({lap2})")
    full = {**m, "ece": ece_ref(v, y), "binned-ece-w": binned_ref(v, y, width_penalty=True)}
    return out + chain_problems(full, float(np.mean(y - v)), where)
