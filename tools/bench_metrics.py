"""Time each metric as ``calib measure`` runs it, on one tree; write ``BENCH_<label>.json``.

    python3 tools/bench_metrics.py --src <tree>/src --label L

The tree's ``calibdist`` is imported in this interpreter, with
``<tree>/src`` first on ``sys.path``.  Inputs are dbeta rows (beta 1, seed 1,
labels drawn with probability f) at 10^4, 10^5 and 10^6 rows, once at full
precision and once rounded to three decimals; numpy makes them, so both
trees time the same rows.  Each metric runs through the CLI's own dispatch,
``cli._compute_metric``, with ``calib measure``'s default options, as
``calib measure --metrics all`` runs it; its time is the minimum of three
calls.  Every call gets a fresh ``EmpiricalDistribution``, built outside the
timed region, so a view the distribution caches on first use (``grouped()``)
is paid for in each call and not served from an earlier one.  The ``group``
row times that view alone; in a tree without it,
``core.distinct_predictions``, its builder.  The ``ingest`` row times
``cli._read_samples`` on the rows written as a ``v,y`` CSV (``repr`` at full
precision, ``%.3f`` at three decimals) into a temporary directory before
timing.  The ``measure-all`` row times ``calib measure --metrics all`` on that
file, through ``cli.main`` with the report written into the same directory:
ingest, every metric and the report, as one command runs them.  The rows that
build interval shift profiles (``sintce`` and ``measure-all``) record
``sintce_widths``, the number of dyadic widths sintce evaluated per call,
counted as calls of ``interval._shift_profile``.  The ``ldce`` row records
``ldce_support`` and ``ldce_grid``: the K rounded predictions that carry mass
and the m points of the grid they are refined into, from
``lowerdist._discretize`` at the CLI's eps.  The ``ldce-small`` row, timed
once, calls ``ldce`` at those eps on 36 instances drawn as acceptance
criterion 1 draws them (perfbench's chain-small random half for seeds 1-3:
n = 16, 32, ..., 192, uniform, one-decimal, clipped-normal and five-point
predictions, three label modes); its time is the minimum of three passes
over all of them (the first also imports scipy), and it lists each
instance's ``ldce_support`` and ``ldce_grid``.  The file also records
``import calibdist`` and ``import numpy`` (each the minimum over five fresh
interpreters, timed inside them), the machine (cpu count, Python, numpy and
scipy versions, the BLAS thread variables and ``/proc/loadavg`` before and
after) and the line count of ``<tree>/src/calibdist/*.py``.  It is written
into ``tools/``.

Two trees are compared by running them alternately in one session, e.g. a
``git archive`` copy of the parent commit and the working tree:

    git archive HEAD | tar -x -C /tmp/parent
    OPENBLAS_NUM_THREADS=1 python3 tools/bench_metrics.py --src /tmp/parent/src --label parent
    OPENBLAS_NUM_THREADS=1 python3 tools/bench_metrics.py --src src --label change
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIZES = (10_000, 100_000, 1_000_000)
DECIMALS = (None, 3)  # None keeps full precision
REPEATS = 3
IMPORT_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _machine() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "platform": platform.platform()}


def _rows(n: int, decimals: int | None) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(1)
    f = rng.random(n)
    y = (rng.random(n) < f).astype(np.int8)
    v = 1.0 / (1.0 + np.exp(-(np.log(f) - np.log1p(-f))))  # dbeta at beta 1
    return (v if decimals is None else np.round(v, decimals)), y


def _import_seconds(module: str, src: Path) -> list[float]:
    """Seconds to import ``module`` in each of IMPORT_REPEATS fresh interpreters."""
    probe = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return [float(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(IMPORT_REPEATS)]


def _write_csv(path: Path, v: np.ndarray, y: np.ndarray, decimals: int | None) -> None:
    fmt = "{!r},{}\n" if decimals is None else f"{{:.{decimals}f}},{{}}\n"
    path.write_text("v,y\n" + "".join(fmt.format(a, b) for a, b in zip(v.tolist(), y.tolist())),
                    encoding="ascii")


def _metrics(cd):
    """(name, call): the grouped view, then each metric of ``calib measure --metrics all``,
    run by the CLI's own dispatch with ``measure``'s default options."""
    from calibdist import cli

    defaults = cli.build_parser().parse_args(["measure", "--input", "-"])

    def metric(name):
        return lambda d: cli._compute_metric(name, d, defaults, cd.SeededRng(defaults.seed))

    group = ((lambda d: d.grouped()) if hasattr(cd.EmpiricalDistribution, "grouped")
             else cd.core.distinct_predictions)
    return [("group", group), *((name, metric(name)) for name in cli.METRIC_NAMES)]


def _small_instances(cd) -> list:
    """Criterion 1's four support styles and three label modes at n = 16 .. 192, seeds 1-3,
    the draws of perfbench's ``inputs.random_chain_instance``."""
    out = []
    for seed in (1, 2, 3):
        for i in range(12):
            rng = np.random.default_rng([seed, 1000 + i])
            n = 16 * (i + 1)
            style, mode = i % 4, i % 3
            if style == 0:
                v = rng.random(n)
            elif style == 1:
                v = np.round(rng.random(n), 1)
            elif style == 2:
                v = np.clip(rng.normal(0.5, 0.15, n), 0.0, 1.0)
            else:
                v = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
            draw = rng.random(n)
            if mode == 0:
                y = draw < v
            elif mode == 1:
                y = draw < np.clip(v + rng.normal(0, 0.2), 0, 1)
            else:
                y = draw < rng.random()
            out.append(cd.EmpiricalDistribution(v, y.astype(np.int8)))
    return out


def _ldce_sizes(cd, dist) -> dict:
    """K support points and m grid points of ``ldce`` at the CLI's eps."""
    from calibdist.cli import LDCE_EPS1, LDCE_EPS2

    u, support_v, _, _ = cd.lowerdist._discretize(dist, LDCE_EPS1, LDCE_EPS2)
    return {"ldce_support": len(np.unique(support_v)), "ldce_grid": len(u)}


def _ldce_small(cd) -> dict:
    """The ``ldce-small`` row: ``ldce`` over ``_small_instances``, min of REPEATS passes."""
    from calibdist.cli import LDCE_EPS1, LDCE_EPS2

    dists = _small_instances(cd)
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for d in dists:
            cd.ldce(d, LDCE_EPS1, LDCE_EPS2)
        runs.append(time.perf_counter() - start)
    sizes = [_ldce_sizes(cd, d) for d in dists]
    return {"metric": "ldce-small", "n": [d.n for d in dists], "decimals": None,
            "min_s": min(runs), "runs_s": runs,
            **{key: [size[key] for size in sizes] for key in ("ldce_support", "ldce_grid")}}


def _count_widths(interval) -> list:
    """Wrap ``interval._shift_profile`` so that each call, one per width sintce evaluates,
    appends its width to the returned list."""
    widths = []
    profile = interval._shift_profile
    interval._shift_profile = lambda *args: widths.append(args[3]) or profile(*args)
    return widths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the tree's src directory")
    ap.add_argument("--label", required=True, help="output name: BENCH_<label>.json")
    args = ap.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import calibdist as cd
    from calibdist import interval
    from calibdist.cli import _read_samples, main as calib

    out = {"label": args.label, "machine": _machine(), "loadavg_before": _loadavg(),
           "src_lines": sum(len(p.read_text().splitlines())
                            for p in sorted((src / "calibdist").glob("*.py"))),
           "import_s": {}, "repeats": REPEATS, "times": []}
    for module in ("numpy", "calibdist"):
        runs = _import_seconds(module, src)
        out["import_s"][module] = {"min_s": min(runs), "runs_s": runs}
    print(json.dumps(out["import_s"]), flush=True)
    out["times"].append(_ldce_small(cd))
    print(json.dumps(out["times"][-1]), flush=True)
    widths = _count_widths(interval)
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            for decimals in DECIMALS:
                v, y = _rows(n, decimals)
                distinct = len(np.unique(v))
                csv = Path(tmp) / "rows.csv"
                _write_csv(csv, v, y, decimals)
                ingest = ("ingest", lambda _: _read_samples(str(csv)))
                report = str(Path(tmp) / "report.json")
                measure_all = ("measure-all", lambda _: calib(
                    ["measure", "--input", str(csv), "--metrics", "all", "--output", report]))
                for name, call in [ingest, *_metrics(cd), measure_all]:
                    runs = []
                    widths.clear()
                    for _ in range(REPEATS):
                        dist = cd.EmpiricalDistribution(v, y)
                        start = time.perf_counter()
                        call(dist)
                        runs.append(time.perf_counter() - start)
                    row = {"metric": name, "n": n, "decimals": decimals, "distinct": distinct,
                           "min_s": min(runs), "runs_s": runs}
                    if widths:
                        row["sintce_widths"] = len(widths) / REPEATS
                    if name == "ldce":
                        row.update(_ldce_sizes(cd, cd.EmpiricalDistribution(v, y)))
                    out["times"].append(row)
                    print(json.dumps(row), flush=True)
    out["loadavg_after"] = _loadavg()
    path = Path(__file__).resolve().parent / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
