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
counted as calls of ``interval._shift_profile``.  The file also records
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
                    out["times"].append(row)
                    print(json.dumps(row), flush=True)
    out["loadavg_after"] = _loadavg()
    path = Path(__file__).resolve().parent / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
