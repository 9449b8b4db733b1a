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
(the last mostly empty bins and bins of every small count); one ``sweep`` and
one unknown metric.  Each ``--input`` file adds ``measure --metrics all`` and
``reliability`` on that file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

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
PER_INPUT = (
    ("all-exact", ["measure", "--metrics", "all"]),
    ("reliability", ["reliability"]),
)
SWEEP = ["sweep", "--beta-grid", "0.5,1,2", "--n", "300", "--trials", "2", "--metrics", "all"]


def commands(extra_inputs: list[str]) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command, in run order; paths relative to the output directory."""
    out = [(f"generate-{name}", ["generate", *flags, "--output", f"inputs/{name}.csv"])
           for name, flags in GENERATE]
    for name, _ in GENERATE:
        out += [(f"{label}-{name}", [*argv, "--input", f"inputs/{name}.csv"])
                for label, argv in PER_FILE]
    out.append(("sweep", SWEEP))
    out.append(("unknown-metric", ["measure", "--input", f"inputs/{GENERATE[0][0]}.csv",
                                   "--metrics", "nope"]))
    for i, _ in enumerate(extra_inputs):
        out += [(f"{label}-input{i}", [*argv, "--input", f"inputs/input{i}.csv"])
                for label, argv in PER_INPUT]
    return out


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
