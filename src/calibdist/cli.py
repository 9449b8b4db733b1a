"""Command-line front end: measure, generate, sweep, reliability.

Exit codes: 0 success, 1 bad flags or parameters, 2 input parse error
(message names the offending line), 3 LP solver failure.  Output is
deterministic: identical input bytes, flags, and seed produce byte-identical
JSON/CSV.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import __version__
from .binning import binned_ece, ece, uniform_partition
from .core import EmpiricalDistribution, SeededRng, check_bins, reliability_bins
from .errors import BadConfig, CalibrationError, SolverFailure
from .fixtures import (
    GaussGapConfig,
    SyntheticConfig,
    discontinuity_pair,
    f_eps,
    gap_pa_pair,
    gap_quadratic,
    gen_dbeta,
    gen_gauss_gap,
    induce_gamma,
)
from .interval import IntervalEstimatorConfig, sintce_hat
from .kernel import KernelEstimatorConfig, KernelKind, kce_estimate_squared
from .lowerdist import ldce
from .smooth import smce

LDCE_EPS1 = 0.005
LDCE_EPS2 = 0.005

METRIC_NAMES = [
    "ece",
    "binned-ece",
    "binned-ece-w",
    "sintce",
    "smce",
    "ldce",
    "kce-laplace",
    "kce-gaussian",
]


class ParseError(Exception):
    """CSV input did not match the v,y contract; message carries the line."""


@dataclass(frozen=True)
class CalibrationReport:
    """Self-describing measurement report; deterministic given (input, flags, seed)."""

    n: int
    input_digest: str
    tool_version: str
    metrics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "input_digest": self.input_digest,
            "tool_version": self.tool_version,
            "metrics": self.metrics,
        }
        return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on flag errors by default; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_samples(path: str) -> tuple[EmpiricalDistribution, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    # the line scan reads CRLF as LF, so a CRLF file is plain once folded
    parsed = _parse_fast(raw.replace(b"\r\n", b"\n") if b"\r" in raw else raw)
    v, y = parsed if parsed is not None else _parse_lines(path, raw)
    return EmpiricalDistribution(v, y), digest


_HEADER = b"v,y\n"
_BODY_BYTES = b"0123456789.eE+-,\n"
# float(10**k) is exact for k <= 22 (5**22 < 2**53), so for digits M < 2**53
# M / _POW10[k] is one correctly rounded division: float() of the decimal
_POW10 = np.array([float(10**k) for k in range(23)])
_DECIMAL_FIELD = 32  # longest prediction the decimal pass reads, in bytes
_DECIMAL_BLOCK = 1 << 14  # rows per block: the pass's working memory is O(block)
_DECIMAL_FIRST = 1 << 10  # rows of the first block, so a file it rejects costs little


def _parse_fast(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """(v, y) of a plain file, parsed by numpy; None for anything else.

    A plain file is the exact header, then lines "<v>,0" or "<v>,1",
    newline-terminated except perhaps the last, with every v in [0, 1].  It
    takes one of two numpy paths.  The exact decimal pass takes it when every
    v is <digits>[.<digits>] (at least one digit, no sign, no exponent, at
    most 32 bytes), its digits M read as an integer are below 2**53 and at
    most k = 22 of them follow the point: v is then M / 10**k, one correctly
    rounded division.  Otherwise np.loadtxt takes it when every v is made of
    the bytes 0-9 . e E + - only.  Both give the floats of Python's float()
    bit for bit, so the values are those of the line scan, the third path,
    which stays the reference and the only source of parse errors.
    """
    if len(raw) <= len(_HEADER) or not raw.startswith(_HEADER):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8, offset=len(_HEADER))
    stops = np.flatnonzero(buf == ord("\n"))
    if buf[-1] != ord("\n"):
        stops = np.append(stops, len(buf))
    # line i is buf[stops[i] - widths[i]:stops[i]] (its v), then ",0" or ",1"
    # and its newline; in place, so ingest holds few n-long arrays at once
    widths = np.diff(stops, prepend=-1)
    widths -= 3
    stops -= 2
    if widths.min() < 1 or np.any(buf[stops] != ord(",")):
        return None
    labels = buf[stops + 1]
    if np.any((labels != ord("0")) & (labels != ord("1"))):
        return None
    v = _parse_decimal(buf, stops, widths)
    if v is None:
        v = _parse_loadtxt(raw, len(stops))
    if v is None or not np.all((v >= 0.0) & (v <= 1.0)):
        return None
    return v, (labels - ord("0")).astype(np.int8)


def _parse_decimal(buf: np.ndarray, stops: np.ndarray, widths: np.ndarray) -> np.ndarray | None:
    """The floats of the fields buf[stops - widths:stops], or None unless every
    field takes the exact decimal pass of ``_parse_fast``.

    The fields are read column by column, a block of rows at a time.  The
    digits accumulate in float64, which is exact while they stay below 2**53;
    past it they stay at or above it, so one check per block rejects them.
    """
    if widths.max() > _DECIMAL_FIELD:
        return None
    v = np.empty(len(stops))
    edges = [0, *range(_DECIMAL_FIRST, len(stops), _DECIMAL_BLOCK), len(stops)]
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = widths[lo:hi].astype(np.uint8)
        start = stops[lo:hi] - width
        digits = np.zeros(len(start))  # M
        fraction = np.zeros(len(start), dtype=np.uint8)  # k
        point = np.zeros(len(start), dtype=bool)
        bad = np.zeros(len(start), dtype=bool)
        for j in range(int(width.max())):
            live = width > j
            byte = buf.take(start + j, mode="clip")  # past a field: masked by live
            digit = byte - np.uint8(ord("0"))
            is_digit = (digit < 10) & live
            is_point = (byte == ord(".")) & live
            bad |= (live ^ (is_digit | is_point)) | (is_point & point)
            point |= is_point
            fraction += point & is_digit
            np.multiply(digits, 10.0, out=digits, where=is_digit)
            np.add(digits, digit, out=digits, where=is_digit)
        lone_point = (width == 1) & point  # no digit
        if (bad.any() or lone_point.any() or digits.max() >= 2.0**53
                or fraction.max() >= len(_POW10)):
            return None
        v[lo:hi] = digits / _POW10[fraction]
    return v


def _parse_loadtxt(raw: bytes, rows: int) -> np.ndarray | None:
    """The rows' v by np.loadtxt, or None unless the body holds only the bytes
    0-9 . e E + - , and newlines, with one comma a line."""
    body = raw[len(_HEADER):]
    if body.translate(None, _BODY_BYTES) or body.count(b",") != rows:
        return None
    try:
        v = np.loadtxt(io.BytesIO(body), delimiter=",", usecols=0, comments=None,
                       quotechar=None, dtype=np.float64, ndmin=1)
    except ValueError:
        return None
    return v if v.shape == (rows,) else None


def _parse_lines(path: str, raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(v, y) by a scan of the decoded lines; raises ParseError naming the line."""
    text = raw.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if not lines or lines[0].strip() != "v,y":
        raise ParseError(f"{path}: line 1: expected header 'v,y'")
    vs: list[float] = []
    ys: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{path}: line {lineno}: expected 'v,y', got {line!r}")
        try:
            v = float(parts[0])
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: bad prediction {parts[0]!r}") from None
        if parts[1].strip() not in ("0", "1"):
            raise ParseError(f"{path}: line {lineno}: label must be 0 or 1, got {parts[1]!r}")
        if not (0.0 <= v <= 1.0):
            raise ParseError(f"{path}: line {lineno}: prediction {v} outside [0, 1]")
        vs.append(v)
        ys.append(int(parts[1]))
    if not vs:
        raise ParseError(f"{path}: no samples")
    return np.array(vs), np.array(ys, dtype=np.int8)


def _round_floats(obj, digits: int = 12):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _to_stdout(path: str | None) -> bool:
    return path is None or path == "-"


def _write_text(path: str | None, text: str) -> None:
    if _to_stdout(path):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise CalibrationError(f"cannot write {path}: {e}") from e


def _compute_metric(name: str, dist: EmpiricalDistribution, args, seed_root: SeededRng):
    """One report entry: value, effective config, seed, caveats."""
    entry: dict = {"seed": seed_root.seed, "caveats": []}
    idx = METRIC_NAMES.index(name)
    rng = seed_root.substream(idx)
    if name == "ece":
        entry["value"] = ece(dist)
        entry["config"] = {}
        entry["caveats"].append(
            "groups by exact prediction equality; meaningful only for predictors with repeated values"
        )
    elif name in ("binned-ece", "binned-ece-w"):
        part = uniform_partition(args.bins)
        entry["value"] = binned_ece(dist, part, width_penalty=name.endswith("-w"))
        entry["config"] = {"bins": args.bins, "width_penalty": name.endswith("-w")}
    elif name == "sintce":
        cfg = IntervalEstimatorConfig(epsilon=args.eps, rng=rng)
        entry["value"] = sintce_hat(dist, cfg)
        entry["config"] = {"epsilon": args.eps, "shifts_m": cfg.resolved_shifts()}
    elif name == "smce":
        value, _ = smce(dist)
        entry["value"] = value
        entry["config"] = {}
    elif name == "ldce":
        entry["value"] = ldce(dist, LDCE_EPS1, LDCE_EPS2)
        entry["config"] = {"eps1": LDCE_EPS1, "eps2": LDCE_EPS2}
        entry["caveats"].append(
            f"discretization slack <= {LDCE_EPS1 + 2 * LDCE_EPS2:g}; "
            "sample estimate carries O(n^-1/2) statistical error"
        )
    elif name in ("kce-laplace", "kce-gaussian"):
        kind = KernelKind.LAPLACE if name.endswith("laplace") else KernelKind.GAUSSIAN
        terms = args.kce_terms if args.kce_terms is not None else 10 * dist.n
        cfg = KernelEstimatorConfig(mode=args.kce_mode, terms_m=terms,
                                    reps_r=args.kce_reps, rng=rng)
        squared = kce_estimate_squared(dist, kind, cfg)
        entry["value"] = float(np.sqrt(max(squared, 0.0)))
        entry["squared"] = squared
        entry["config"] = {"mode": args.kce_mode, "kind": kind.value}
        if args.kce_mode == "subsample":
            entry["config"]["terms_m"] = terms
            if squared < 0:
                entry["caveats"].append("negative squared estimate clamped to 0 before sqrt")
        if args.kce_mode in ("fourier", "binning"):
            entry["config"]["reps_r"] = cfg.resolved_reps()
    return entry


def _resolve_metrics(arg: str) -> list[str]:
    if arg.strip() == "all":
        return list(METRIC_NAMES)
    names = [m.strip() for m in arg.split(",") if m.strip()]
    for m in names:
        if m not in METRIC_NAMES:
            raise CalibrationError(
                f"--metrics: unknown metric {m!r}; known: {', '.join(METRIC_NAMES)}"
            )
    if not names:
        raise CalibrationError("--metrics: no metrics requested")
    return names


def cmd_measure(args) -> int:
    metrics = _resolve_metrics(args.metrics)
    if args.kce_mode in ("fourier", "binning") and "kce-gaussian" in metrics:
        raise CalibrationError("--kce-mode: fourier/binning modes support the Laplace kernel only")
    dist, digest = _read_samples(args.input)
    seed_root = SeededRng(args.seed)
    report = CalibrationReport(n=dist.n, input_digest=digest, tool_version=__version__)
    for name in metrics:
        try:
            report.metrics[name] = _compute_metric(name, dist, args, seed_root)
        except SolverFailure:
            raise
        except CalibrationError as e:
            report.metrics[name] = {"error": str(e), "seed": args.seed}
    _write_text(args.output, report.to_json())
    return 0


_FAMILIES = ("dbeta", "pa-gap", "quad-gap", "discontinuity", "gauss-gap", "f-eps")


def _family_population(args):
    """(description, sampler) for the requested family."""
    rng = SeededRng(args.seed)
    if args.family == "dbeta":
        cfg = SyntheticConfig(beta=args.beta, n=args.n, rng=rng)
        return (f"dbeta family: beta={args.beta:g} (calibrated at beta=1), n={args.n}",
                lambda: gen_dbeta(cfg))
    if args.family == "gauss-gap":
        cfg = GaussGapConfig(eps=args.eps, n=args.n, rng=rng)
        return (f"gauss-gap family: eps={args.eps:g}, v ~ Unif[1/4, 3/4], n={args.n}",
                lambda: gen_gauss_gap(cfg))
    if args.family == "pa-gap":
        pair = gap_pa_pair(args.alpha)
        prob = pair[args.which - 1]
    elif args.family == "quad-gap":
        prob = gap_quadratic(args.alpha)
    elif args.family == "discontinuity":
        prob = discontinuity_pair(args.eps)[args.which - 1]
    elif args.family == "f-eps":
        prob = f_eps(args.eps)
    desc = f"{args.family} population (mass, f*, f): " + ", ".join(
        f"({m:g}, {fs:g}, {fv:g})" for m, fs, fv in prob.points
    )
    return desc, (lambda: induce_gamma(prob, args.n, rng))


def cmd_generate(args) -> int:
    desc, sampler = _family_population(args)
    dist = sampler()
    lines = ["v,y"] + [f"{v!r},{y}" for v, y in dist.pairs()]
    _write_text(args.output, "\n".join(lines) + "\n")
    # on stdout the description would follow the rows and break the CSV
    print(desc, file=sys.stderr if _to_stdout(args.output) else sys.stdout)
    return 0


def _parse_beta_grid(arg: str) -> list[float]:
    try:
        grid = [float(tok) for tok in arg.split(",") if tok.strip()]
    except ValueError:
        raise BadConfig(f"--beta-grid: cannot parse {arg!r} as comma-separated reals") from None
    if not grid or any(not (0 < b < math.inf) for b in grid):  # NaN fails both comparisons
        raise BadConfig(f"--beta-grid: values must be positive reals, got {arg!r}")
    return grid


def _sweep_cell(args, metrics, cell):
    """One (beta, trial) evaluation; module-level so process pools can pickle it."""
    beta_idx, beta, trial = cell
    rng = SeededRng(args.seed).substream(beta_idx, trial)
    dist = gen_dbeta(SyntheticConfig(beta=beta, n=args.n, rng=rng.substream(0)))
    return [(beta, trial, name, _compute_metric(name, dist, args, rng.substream(1))["value"])
            for name in metrics]


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise CalibrationError(f"--jobs must be >= 1, got {args.jobs}")
    if args.trials < 1:
        raise CalibrationError(f"--trials must be >= 1, got {args.trials}")
    grid = _parse_beta_grid(args.beta_grid)
    metrics = _resolve_metrics(args.metrics)
    cells = [(bi, beta, trial) for bi, beta in enumerate(grid) for trial in range(args.trials)]
    run = partial(_sweep_cell, args, metrics)
    if args.jobs > 1:
        # imported here, so that a CLI start without a pool does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run, cells))
    else:
        results = list(map(run, cells))
    lines = ["beta,trial,metric,value"]
    for rows in results:
        for beta, trial, name, value in rows:
            lines.append(f"{beta:g},{trial},{name},{value:.12g}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_reliability(args) -> int:
    check_bins(args.bins)
    dist, _ = _read_samples(args.input)
    full, empty = "%.12g,%.12g,%d,%.12g,%.12g", "%.12g,%.12g,%d,,"  # an empty bin has no means
    rows = ["lo,hi,count,mean_v,mean_y"]
    rows += [full % row if row[2] else empty % row[:3]
             for row in zip(*(c.tolist() for c in reliability_bins(dist, args.bins)))]
    _write_text(args.output, "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="calib", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="compute calibration measures from a CSV of v,y samples")
    m.add_argument("--input", required=True)
    m.add_argument("--output", default=None, help="JSON report path (default stdout)")
    m.add_argument("--metrics", default="all", help=f"comma list or 'all' ({', '.join(METRIC_NAMES)})")
    m.add_argument("--bins", type=int, default=20)
    m.add_argument("--eps", type=float, default=0.01, help="target accuracy for sintce")
    m.add_argument("--kce-mode", choices=["exact", "subsample", "fourier", "binning"],
                   default="exact")
    m.add_argument("--kce-terms", type=int, default=None, help="subsample terms (default 10n)")
    m.add_argument("--kce-reps", type=int, default=None,
                   help="fourier/binning repetitions (default 1000)")
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(func=cmd_measure)

    g = sub.add_parser("generate", help="sample a named fixture family to CSV")
    g.add_argument("--family", required=True, choices=_FAMILIES)
    g.add_argument("--beta", type=float, default=1.0)
    g.add_argument("--alpha", type=float, default=0.25)
    g.add_argument("--eps", type=float, default=0.05)
    g.add_argument("--which", type=int, choices=[1, 2], default=1)
    g.add_argument("--n", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", default=None)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("sweep", help="temperature sweep: one row per (beta, trial, metric)")
    s.add_argument("--beta-grid", required=True, help="comma-separated positive reals")
    s.add_argument("--n", type=int, default=10_000)
    s.add_argument("--trials", type=int, default=50)
    s.add_argument("--metrics", default="smce,kce-laplace,binned-ece")
    s.add_argument("--bins", type=int, default=20)
    s.add_argument("--eps", type=float, default=0.01)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--output", default=None)
    # a sweep cell runs measure's metric code with the exact kernel
    s.set_defaults(func=cmd_sweep, kce_mode="exact", kce_terms=None, kce_reps=None)

    r = sub.add_parser("reliability", help="reliability-diagram bin data as CSV")
    r.add_argument("--input", required=True)
    r.add_argument("--bins", type=int, default=20)
    r.add_argument("--output", default=None)
    r.set_defaults(func=cmd_reliability)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except ParseError as e:
        print(f"calib: parse error: {e}", file=sys.stderr)
        return 2
    except SolverFailure as e:
        print(f"calib: solver failure: {e}", file=sys.stderr)
        return 3
    except CalibrationError as e:
        print(f"calib: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
