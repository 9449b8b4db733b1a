"""Run a fixed list of ``calib`` commands on one source tree and keep every output.

    python3 tools/byte_identity.py --src <tree>/src --out DIR [--input CSV ...]

Each command goes through ``calibdist.cli.main`` in this interpreter, with
``<tree>/src`` first on ``sys.path``.  ``DIR/<nn>-<label>/`` receives the exit
code (``rc``), ``stdout``, ``stderr`` and any file the command wrote; the
generated inputs stay in ``DIR/inputs/``.  Commands run with ``DIR`` as the
working directory and refer to files by relative paths, so two trees give the
same bytes exactly when ``diff -r`` of their two output directories is empty.
A typical check compares a ``git archive`` copy of the parent commit with the
working tree, both under ``OPENBLAS_NUM_THREADS=1``:

    git archive HEAD | tar -x -C /tmp/parent
    OPENBLAS_NUM_THREADS=1 python3 tools/byte_identity.py --src /tmp/parent/src --out /tmp/a
    OPENBLAS_NUM_THREADS=1 python3 tools/byte_identity.py --src src --out /tmp/b
    diff -r /tmp/a /tmp/b

The list: seven ``generate`` files (dbeta at beta 0.5, pa-gap, dbeta at beta
100, then f-eps, quad-gap, discontinuity (which 2) and gauss-gap, whose
few-atom supports give degenerate LPs); on each, ``measure --metrics all``
with the exact and the subsample kernel, the Laplace-only metric set with the
fourier and the binning kernel, ``--bins 1000``, ``--metrics sintce`` at ``--eps
0.005`` (widths down to 2^-9) and at ``--eps 1e-4`` (down to 2^-15, with
4,563,025,980 shifts per width), ``reliability`` at 20, 1000 and 100000 bins
(the last mostly empty bins and bins of every small count); on the first two,
``measure --metrics kce-laplace --kce-reps 5000`` with the fourier and the
binning kernel, past the 4,096-repetition batch of their draws; one ``sweep``, in
process and at ``--jobs 2`` (where the parsed options are pickled to the
workers), one unknown metric and ``reliability --bins 0``.  ``reliability`` at
20 and 49 bins and ``measure --metrics binned-ece,binned-ece-w --bins 49`` run
on a bin-edge file this script writes: every k/20 and k/49 and the floats one
ulp either side of each.  ``measure --metrics all`` and ``reliability`` then run
on a decimal file this script writes (three-decimal dbeta rows and the edge
forms the exact decimal reader takes), on its CRLF copy, and on each
``--input`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import numpy as np

GENERATE = (
    ("dbeta-0.5", ["--family", "dbeta", "--beta", "0.5", "--n", "2000", "--seed", "3"]),
    ("pa-gap", ["--family", "pa-gap", "--alpha", "0.1", "--n", "500", "--seed", "4"]),
    ("dbeta-100", ["--family", "dbeta", "--beta", "100", "--n", "5000", "--seed", "5"]),
    # few-atom supports: degenerate LPs, where a reformulation most easily moves a vertex
    ("f-eps", ["--family", "f-eps", "--eps", "0.01", "--n", "2000", "--seed", "6"]),
    ("quad-gap", ["--family", "quad-gap", "--alpha", "0.2", "--n", "1000", "--seed", "7"]),
    ("discontinuity-2", ["--family", "discontinuity", "--eps", "0.01", "--which", "2",
                         "--n", "1000", "--seed", "8"]),
    ("gauss-gap", ["--family", "gauss-gap", "--eps", "0.05", "--n", "2000", "--seed", "9"]),
)
# the metrics that accept every kernel mode: fourier and binning are Laplace-only
LAPLACE_SET = "ece,binned-ece,binned-ece-w,sintce,smce,ldce,kce-laplace"
PER_FILE = (
    ("all-exact", ["measure", "--metrics", "all"]),
    ("all-subsample", ["measure", "--metrics", "all", "--kce-mode", "subsample"]),
    ("fourier", ["measure", "--metrics", LAPLACE_SET, "--kce-mode", "fourier"]),
    ("binning", ["measure", "--metrics", LAPLACE_SET, "--kce-mode", "binning"]),
    ("bins-1000", ["measure", "--metrics", "binned-ece,binned-ece-w", "--bins", "1000"]),
    # widths down to 2^-9 and another default shift count
    ("sintce-eps-0.005", ["measure", "--metrics", "sintce", "--eps", "0.005"]),
    # widths down to 2^-15 and 4,563,025,980 shifts per width
    ("sintce-eps-1e-4", ["measure", "--metrics", "sintce", "--eps", "1e-4"]),
    ("reliability", ["reliability"]),
    ("reliability-1000", ["reliability", "--bins", "1000"]),
    ("reliability-100000", ["reliability", "--bins", "100000"]),
)
# past the 4,096-repetition batch of the kernel draws, which the default 1000
# repetitions never leave
LONG_DRAW_FILES = ("dbeta-0.5", "pa-gap")
LONG_DRAWS = tuple(
    (f"{mode}-5000", ["measure", "--metrics", "kce-laplace", "--kce-mode", mode,
                      "--kce-reps", "5000"])
    for mode in ("fourier", "binning"))
PER_INPUT = (
    ("all-exact", ["measure", "--metrics", "all"]),
    ("reliability", ["reliability"]),
)
# predictions within the exact decimal reader's limits: no integer digit, no
# fraction digit, padding zeros, 2**53 - 1 as the digits, 22 fraction digits
DECIMAL_EDGES = (".5", "1.", "000.250", "0.000", "1.000", "0", "1",
                 "0.9007199254740991", "0." + "0" * 21 + "1")
DECIMAL_INPUTS = ("decimal", "decimal-crlf")
SWEEP = ["sweep", "--beta-grid", "0.5,1,2", "--n", "300", "--trials", "2", "--metrics", "all"]
EDGE_BINS = (20, 49)
ON_EDGES = (
    ("reliability-20", ["reliability", "--bins", "20"]),
    ("reliability-49", ["reliability", "--bins", "49"]),
    ("binned-49", ["measure", "--metrics", "binned-ece,binned-ece-w", "--bins", "49"]),
)


def commands(extra_inputs: list[str]) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command, in run order; paths relative to the output directory."""
    out = [(f"generate-{name}", ["generate", *flags, "--output", f"inputs/{name}.csv"])
           for name, flags in GENERATE]
    for name, _ in GENERATE:
        out += [(f"{label}-{name}", [*argv, "--input", f"inputs/{name}.csv"])
                for label, argv in PER_FILE]
    for name in LONG_DRAW_FILES:
        out += [(f"{label}-{name}", [*argv, "--input", f"inputs/{name}.csv"])
                for label, argv in LONG_DRAWS]
    first = f"inputs/{GENERATE[0][0]}.csv"
    out += [("sweep", SWEEP), ("sweep-jobs-2", [*SWEEP, "--jobs", "2"]),
            ("unknown-metric", ["measure", "--input", first, "--metrics", "nope"]),
            ("reliability-bins-0", ["reliability", "--input", first, "--bins", "0"])]
    out += [(f"{label}-bin-edges", [*argv, "--input", "inputs/bin-edges.csv"])
            for label, argv in ON_EDGES]
    for name in [*DECIMAL_INPUTS, *(f"input{i}" for i in range(len(extra_inputs)))]:
        out += [(f"{label}-{name}", [*argv, "--input", f"inputs/{name}.csv"])
                for label, argv in PER_INPUT]
    return out


def write_decimal_inputs(where: Path) -> None:
    """Write ``decimal.csv`` (2,000 three-decimal dbeta rows at beta 2, seed 1,
    then ``DECIMAL_EDGES``) and its CRLF copy ``decimal-crlf.csv``."""
    rng = np.random.default_rng(1)
    f = rng.random(2000)
    y = (rng.random(2000) < f).astype(int).tolist()
    v = [f"{p:.3f}" for p in (f**2 / (f**2 + (1 - f) ** 2)).tolist()]
    rows = zip([*v, *DECIMAL_EDGES], [*y, *(k % 2 for k in range(len(DECIMAL_EDGES)))])
    text = "v,y\n" + "".join(f"{p},{label}\n" for p, label in rows)
    (where / "decimal.csv").write_bytes(text.encode("ascii"))
    (where / "decimal-crlf.csv").write_bytes(text.replace("\n", "\r\n").encode("ascii"))


def write_bin_edges(where: Path) -> None:
    """Write ``bin-edges.csv``: each k/bins of ``EDGE_BINS`` and its two neighbouring
    floats, within [0, 1], labels alternating."""
    edges = np.concatenate([np.arange(bins + 1) / bins for bins in EDGE_BINS])
    v = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)])
    text = "v,y\n" + "".join(f"{p!r},{k % 2}\n" for k, p in enumerate(v.tolist()))
    (where / "bin-edges.csv").write_bytes(text.encode("ascii"))


def run_one(main, argv: list[str], where: Path) -> None:
    """Run ``main(argv)``; write rc, stdout and stderr (and any exception) under ``where``."""
    where.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = str(main(argv))
        except Exception as e:  # noqa: BLE001 -- an uncaught error is an outcome to compare
            rc = f"uncaught {type(e).__name__}: {e}"
    (where / "rc").write_text(rc + "\n")
    (where / "stdout").write_text(stdout.getvalue())
    (where / "stderr").write_text(stderr.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the tree's src directory")
    parser.add_argument("--out", required=True, help="output directory; must not exist")
    parser.add_argument("--input", action="append", default=[],
                        help="a further v,y CSV file to measure (repeatable)")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True)
    (out / "inputs").mkdir()
    write_decimal_inputs(out / "inputs")
    write_bin_edges(out / "inputs")
    for i, path in enumerate(args.input):
        shutil.copyfile(path, out / "inputs" / f"input{i}.csv")
    sys.path.insert(0, str(Path(args.src).resolve()))
    from calibdist.cli import main as calib_main

    os.chdir(out)
    todo = commands(args.input)
    for k, (label, cli_argv) in enumerate(todo):
        run_one(calib_main, cli_argv, Path(f"{k:02d}-{label}"))
    print(f"{len(todo)} commands -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
